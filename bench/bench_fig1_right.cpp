// Reproduces Figure 1 (right): zoom on the window in which the majority
// doubles its initial count. Plots the majority x1(t), the mean minority,
// and the maximum difference max_{j>=2}(x1 - x_j), all un-scaled
// (y range ~ n/10 as in the paper).
//
// Paper observations this run should show:
//   * reaching 2·x1(0) consumes most of the stabilization time (~70 of ~90
//     parallel time units at n = 10^6);
//   * the maximum difference grows slowly (doubling needs Θ(kn)
//     interactions, Lemma 3.4) and only explodes at the very end.
//
// Runs as a one-cell sweep (per-trial trajectory slots; plot renders
// trial 0, the sweep JSON aggregates doubling times across --trials).
//
// Flags: --n, --k, --seed, --samples, --max-parallel, --trials, --threads,
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
  std::vector<double> majority;
  std::vector<double> mean_minority;
  std::vector<double> max_difference;  // max_{j>=2}(x1 - x_j)
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
  const Count doubling_level = 2 * init.majority();

  benchutil::banner("fig1_right",
                    "Figure 1 (right): majority doubling window with max difference");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("bias", init.bias);
  benchutil::param("x_majority(0)", init.majority());
  benchutil::param("doubling level 2*x1(0)", doubling_level);
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));

  const auto budget = static_cast<Interactions>(max_parallel * static_cast<double>(n));
  const Interactions stride = std::max<Interactions>(
      1, budget / std::max<std::int64_t>(samples * 100, 1));

  SweepSpec spec;
  spec.name = "fig1_right";
  opts.configure(spec);
  SweepCell cell;
  cell.n = n;
  cell.k = k;
  cell.bias = static_cast<double>(init.bias);
  spec.cells.push_back(cell);

  std::vector<Trajectory> trajectories(opts.trials);

  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    Trajectory& traj = trajectories[ctx.trial];  // private slot per trial
    auto record = [&](const Simulator& s) {
      const Configuration& c = s.configuration();
      traj.time.push_back(s.parallel_time());
      const auto x1 = static_cast<double>(opinion_count(c, 0));
      traj.majority.push_back(x1);
      double mean_min = 0.0;
      Count min_minority = opinion_count(c, 1);
      for (Opinion j = 1; j < k; ++j) {
        const Count xj = opinion_count(c, j);
        mean_min += static_cast<double>(xj);
        min_minority = std::min(min_minority, xj);
      }
      traj.mean_minority.push_back(mean_min / static_cast<double>(k - 1));
      traj.max_difference.push_back(x1 - static_cast<double>(min_minority));
    };

    Simulator sim(usd, initial, ctx.seed);
    record(sim);
    Interactions next_sample = stride;
    Interactions doubling_time = -1;
    while (!sim.is_stable() && sim.interactions() < budget) {
      sim.step();
      if (doubling_time < 0 && opinion_count(sim.configuration(), 0) >= doubling_level) {
        doubling_time = sim.interactions();
        record(sim);
      }
      if (sim.interactions() >= next_sample) {
        record(sim);
        next_sample = sim.interactions() + stride;
      }
    }
    record(sim);

    SweepMetrics m = {
        {"stabilized", sim.is_stable() ? 1.0 : 0.0},
        {"parallel_time", sim.parallel_time()},
        {"doubled", doubling_time >= 0 ? 1.0 : 0.0},
    };
    if (doubling_time >= 0) {
      m.emplace_back("doubling_parallel_time", parallel_time(doubling_time, n));
      m.emplace_back("doubling_fraction",
                     parallel_time(doubling_time, n) / sim.parallel_time());
    }
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);
  const SweepCellResult& cr = result.cells[0];

  const double total_time = cr.values("parallel_time").front();
  benchutil::param("stabilized", cr.rate("stabilized") == 1.0 ? "yes" : "NO (budget hit)");
  benchutil::param("stabilization parallel time", total_time);
  const std::vector<double> doubling_times = cr.values("doubling_parallel_time");
  const bool doubled = cr.values("doubled").front() != 0.0;
  if (doubled) {
    benchutil::param("parallel time to double x1", doubling_times.front());
    benchutil::param("doubling fraction of total",
                     cr.values("doubling_fraction").front());
  } else {
    benchutil::param("parallel time to double x1", "never (stabilized first)");
  }

  // Zoomed table: only samples up to shortly after the doubling event.
  const Trajectory& traj = trajectories[0];
  const double zoom_end = doubled ? doubling_times.front() * 1.1 : total_time;
  Table table({"parallel_time", "majority", "mean_minority", "max_difference"});
  const std::size_t step =
      std::max<std::size_t>(1, traj.time.size() / static_cast<std::size_t>(samples));
  std::vector<double> zt;
  std::vector<double> zmaj;
  std::vector<double> zmin;
  std::vector<double> zdiff;
  for (std::size_t i = 0; i < traj.time.size(); i += step) {
    if (traj.time[i] > zoom_end) break;
    table.row()
        .cell(traj.time[i], 3)
        .cell(traj.majority[i], 0)
        .cell(traj.mean_minority[i], 0)
        .cell(traj.max_difference[i], 0)
        .done();
    zt.push_back(traj.time[i]);
    zmaj.push_back(traj.majority[i]);
    zmin.push_back(traj.mean_minority[i]);
    zdiff.push_back(traj.max_difference[i]);
  }
  benchutil::tsv_block("fig1_right", table);

  AsciiPlot plot(100, 28);
  plot.set_labels("parallel time", "agents");
  plot.add_series("majority x1(t)", 'M', zt, zmaj);
  plot.add_series("mean minority", 'm', zt, zmin);
  plot.add_series("max difference", 'D', zt, zdiff);
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
