// Reproduces Figure 1 (left): evolution of the undecided count, the majority
// opinion, and the minority opinions (scaled by k) over parallel time, for
// n = 10^6, k = 27, bias = √(n ln n), with the reference line
// y = n/2 - n/4k.
//
// Paper observations this run should show:
//   * u(t) climbs quickly from 0 and then hugs n/2 - n/4k from below;
//   * the majority stays low for most of the run, then spikes to n;
//   * minority opinions (×k) are non-monotone and cluster near n/2.
//
// Runs as a one-cell sweep: --trials independent trajectories (recorded
// into per-trial slots, so --threads parallelises them safely); the plot
// and TSV render trial 0, the sweep JSON aggregates the scalar outcomes.
//
// Flags: --n, --k, --seed, --samples (per-run sample count), --max-parallel
//        (safety budget, in parallel time units), --trials, --threads,
//        --json.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/ascii_plot.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

struct Trajectory {
  std::vector<double> time;
  std::vector<double> undecided;
  std::vector<double> majority;
  std::vector<double> minority_scaled;  // one highlighted minority, x k
  std::vector<double> mean_minority_scaled;
};

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 1'000'000);
  const auto k = static_cast<std::size_t>(
      cli.get_int("k", static_cast<std::int64_t>(bounds::paper_k(n))));
  const std::int64_t samples = cli.get_int("samples", 400);
  const double max_parallel = cli.get_double("max-parallel", 10000.0);
  const SweepCliOptions opts = read_sweep_flags(cli, 1, 2025, "");
  cli.validate_no_unknown_flags();

  const InitialConfig init = figure1_configuration(n, k);

  benchutil::banner("fig1_left",
                    "Figure 1 (left): USD evolution — undecided, majority, minority x k");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("bias (= ~sqrt(n ln n))", init.bias);
  benchutil::param("x_majority(0)", init.majority());
  benchutil::param("x_minority(0)", init.minority());
  benchutil::param("settle point n/2 - n/4k", bounds::usd_settle_point(n, k));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));

  const auto budget = static_cast<Interactions>(max_parallel * static_cast<double>(n));
  const Interactions stride =
      std::max<Interactions>(1, budget / std::max<std::int64_t>(samples * 100, 1));

  SweepSpec spec;
  spec.name = "fig1_left";
  opts.configure(spec);
  SweepCell cell;
  cell.n = n;
  cell.k = k;
  cell.bias = static_cast<double>(init.bias);
  spec.cells.push_back(cell);

  std::vector<Trajectory> trajectories(opts.trials);
  const Opinion highlighted = static_cast<Opinion>(k / 2);  // arbitrary fixed minority

  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    Trajectory& traj = trajectories[ctx.trial];  // private slot per trial
    auto record = [&](const Simulator& s) {
      const Configuration& c = s.configuration();
      traj.time.push_back(s.parallel_time());
      traj.undecided.push_back(static_cast<double>(undecided_count(c)));
      traj.majority.push_back(static_cast<double>(opinion_count(c, 0)));
      traj.minority_scaled.push_back(static_cast<double>(opinion_count(c, highlighted)) *
                                     static_cast<double>(k));
      double mean_min = 0.0;
      for (Opinion j = 1; j < k; ++j) {
        mean_min += static_cast<double>(opinion_count(c, j));
      }
      mean_min /= static_cast<double>(k - 1);
      traj.mean_minority_scaled.push_back(mean_min * static_cast<double>(k));
    };

    // Record adaptively: sample every `stride` interactions until
    // stabilization; we do not know the total duration in advance, so keep
    // everything and subsample for the plot afterwards.
    Simulator sim(usd, initial, ctx.seed);
    record(sim);
    Interactions next_sample = stride;
    while (!sim.is_stable() && sim.interactions() < budget) {
      sim.step();
      if (sim.interactions() >= next_sample) {
        record(sim);
        next_sample = sim.interactions() + stride;
      }
    }
    record(sim);

    TrialResult r;
    r.stabilized = sim.is_stable();
    r.interactions = sim.interactions();
    r.parallel_time = sim.parallel_time();
    r.winner = sim.consensus_output();
    return consensus_metrics(r);
  };

  const SweepResult result = SweepRunner(spec).run(trial);
  const SweepCellResult& cr = result.cells[0];
  const std::vector<double> winners = cr.values("winner");

  benchutil::param("stabilized", cr.rate("stabilized") == 1.0 ? "yes" : "NO (budget hit)");
  benchutil::param("stabilization parallel time", cr.mean("parallel_time"));
  benchutil::param("winner (trial 0)",
                   !winners.empty() && winners[0] >= 0
                       ? std::to_string(static_cast<Opinion>(winners[0]))
                       : std::string("none"));

  const Trajectory& traj = trajectories[0];
  Table table({"parallel_time", "undecided", "majority", "minority_x_k",
               "mean_minority_x_k"});
  const std::size_t step =
      std::max<std::size_t>(1, traj.time.size() / static_cast<std::size_t>(samples));
  for (std::size_t i = 0; i < traj.time.size(); i += step) {
    table.row()
        .cell(traj.time[i], 3)
        .cell(traj.undecided[i], 0)
        .cell(traj.majority[i], 0)
        .cell(traj.minority_scaled[i], 0)
        .cell(traj.mean_minority_scaled[i], 0)
        .done();
  }
  benchutil::tsv_block("fig1_left", table);

  AsciiPlot plot(100, 28);
  plot.set_labels("parallel time", "agents");
  plot.add_series("undecided u(t)", 'u', traj.time, traj.undecided);
  plot.add_series("majority x1(t)", 'M', traj.time, traj.majority);
  plot.add_series("minority (x k)", 'm', traj.time, traj.minority_scaled);
  plot.add_hline("n/2 - n/4k", '.', bounds::usd_settle_point(n, k));
  std::cout << plot.render();
  benchutil::finish_sweep(result, opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
