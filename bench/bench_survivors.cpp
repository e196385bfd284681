// Supplementary experiment: how many opinions survive over time?
//
// Figure 1 shows counts; an equally telling view of the same run is the
// number of opinions with nonzero support. The paper's mechanics predict a
// long plateau at k (no opinion dies while all differences are o(n/k) —
// the induction of Theorem 3.5 keeps every opinion alive through its
// epochs), followed by a rapid extinction cascade at the very end when the
// undecided count drops below the surviving opinions' thresholds.
//
// Runs as a one-cell sweep (per-trial trajectory slots; the plot renders
// trial 0, the sweep JSON aggregates plateau fractions across --trials).
//
// Flags: --n, --k, --seed, --samples, --trials, --threads, --json.
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
  std::vector<double> survivors;
  std::vector<double> undecided;
};

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 250'000);
  const auto k = static_cast<std::size_t>(
      cli.get_int("k", static_cast<std::int64_t>(bounds::paper_k(n))));
  const std::int64_t samples = cli.get_int("samples", 300);
  const SweepCliOptions opts = read_sweep_flags(cli, 1, 44, "");
  cli.validate_no_unknown_flags();

  const InitialConfig init = figure1_configuration(n, k);

  benchutil::banner("survivors", "Number of surviving opinions over the USD run");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("bias", init.bias);

  SweepSpec spec;
  spec.name = "survivors";
  opts.configure(spec);
  SweepCell cell;
  cell.n = n;
  cell.k = k;
  cell.bias = static_cast<double>(init.bias);
  spec.cells.push_back(cell);

  std::vector<Trajectory> trajectories(opts.trials);
  const Interactions stride = std::max<Interactions>(1, n / 20);

  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    Trajectory& traj = trajectories[ctx.trial];  // private slot per trial
    Simulator sim(usd, initial, ctx.seed);
    const Configuration& c = sim.configuration();
    Interactions next = 0;
    double first_extinction = -1.0;
    while (!sim.is_stable()) {
      if (sim.interactions() >= next) {
        traj.time.push_back(sim.parallel_time());
        traj.survivors.push_back(static_cast<double>(surviving_opinions(c)));
        traj.undecided.push_back(static_cast<double>(undecided_count(c)));
        if (first_extinction < 0 && surviving_opinions(c) < k) {
          first_extinction = sim.parallel_time();
        }
        next = sim.interactions() + stride;
      }
      sim.step();
    }
    traj.time.push_back(sim.parallel_time());
    traj.survivors.push_back(static_cast<double>(surviving_opinions(c)));
    traj.undecided.push_back(static_cast<double>(undecided_count(c)));

    const double total = sim.parallel_time();
    return {
        {"parallel_time", total},
        {"first_extinction", first_extinction},
        {"plateau_fraction", first_extinction > 0 ? first_extinction / total : 1.0},
    };
  };

  const SweepResult result = SweepRunner(spec).run(trial);
  const SweepCellResult& cr = result.cells[0];

  const double total = cr.values("parallel_time").front();
  const double first_extinction = cr.values("first_extinction").front();
  benchutil::param("stabilization parallel time", total);
  benchutil::param("first extinction at", first_extinction);
  benchutil::param("plateau fraction (first extinction / total)",
                   cr.values("plateau_fraction").front());

  const Trajectory& traj = trajectories[0];
  Table table({"parallel_time", "surviving_opinions", "undecided"});
  const std::size_t step =
      std::max<std::size_t>(1, traj.time.size() / static_cast<std::size_t>(samples));
  for (std::size_t i = 0; i < traj.time.size(); i += step) {
    table.row()
        .cell(traj.time[i], 3)
        .cell(traj.survivors[i], 0)
        .cell(traj.undecided[i], 0)
        .done();
  }
  benchutil::tsv_block("survivors", table);

  AsciiPlot plot(100, 20);
  plot.set_labels("parallel time", "opinions alive");
  plot.add_series("survivors", 'S', traj.time, traj.survivors);
  std::cout << plot.render();
  std::cout << "\nExpected shape: long plateau at k = " << k
            << " (the Theorem 3.5 induction keeps every opinion alive),\nthen an "
               "extinction cascade concentrated at the end of the run.\n";
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
