// Reproduces Figure 1 for n = 10^6, k = 27, bias = √(n ln n), plus the
// survivor view of the same run. Each trial simulates once and records one
// trajectory; three views are rendered from trial 0's:
//
//   * fig1_left — the undecided count, the majority opinion and one
//     highlighted minority (scaled by k) over parallel time, with the
//     reference line y = n/2 - n/4k. Expect u(t) to climb quickly and then
//     hug n/2 - n/4k from below, the majority to stay low for most of the
//     run and then spike to n, and the minorities (x k) to cluster near n/2.
//   * fig1_right — zoom on the window in which the majority doubles its
//     initial count: the majority x1(t), the mean minority and the maximum
//     difference max_{j>=2}(x1 - x_j), un-scaled. Expect reaching 2·x1(0)
//     to consume most of the stabilization time (~70 of ~90 parallel time
//     units at n = 10^6), and the maximum difference to grow slowly
//     (doubling needs Θ(kn) interactions, Lemma 3.4) until the very end.
//   * survivors — the number of opinions with nonzero support. Expect a
//     long plateau at k (the induction of Theorem 3.5 keeps every opinion
//     alive through its epochs), then an extinction cascade at the very end
//     when the undecided count drops below the surviving opinions'
//     thresholds.
//
// Runs as a one-cell sweep: --trials independent trajectories (recorded
// into per-trial slots, so --threads parallelises them safely); the sweep
// JSON aggregates the scalar outcomes of every trial. The doubling event is
// detected on the exact interaction; the survivor count is read at the
// recorded samples.
//
// Flags: --n, --k, --seed, --samples (rows per view), --max-parallel
//        (safety budget, in parallel time units), --trials, --threads,
//        --json.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/ascii_plot.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

struct Trajectory {
  std::vector<double> time;
  std::vector<double> undecided;
  std::vector<double> majority;
  std::vector<double> minority_scaled;  // one highlighted minority, x k
  std::vector<double> mean_minority;
  std::vector<double> max_difference;   // max_{j>=2}(x1 - x_j)
  std::vector<double> survivors;
};

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 1'000'000);
  const std::int64_t k_flag =
      cli.get_int("k", static_cast<std::int64_t>(bounds::paper_k(n)));
  const std::int64_t samples = cli.get_int("samples", 400);
  const double max_parallel = cli.get_double("max-parallel", 10000.0);
  const SweepCliOptions opts = read_sweep_flags(cli, 1, 2025, "");
  cli.validate_no_unknown_flags();
  // k = 1 has no minority to highlight.
  PPSIM_CHECK(k_flag >= 2, "--k must be at least 2, got " + std::to_string(k_flag));
  const auto k = static_cast<std::size_t>(k_flag);
  PPSIM_CHECK(samples >= 1,
              "--samples must be at least 1, got " + std::to_string(samples));
  PPSIM_CHECK(max_parallel >= 0.0, "--max-parallel must be non-negative, got " +
                                       format_double(max_parallel, 2));

  const InitialConfig init = figure1_configuration(n, k);
  const Count doubling_level = 2 * init.majority();
  const auto budget = static_cast<Interactions>(max_parallel * static_cast<double>(n));
  // One sample per 0.05 parallel time units: fine enough to place the first
  // extinction, and the views subsample it down to --samples rows.
  const Interactions stride = std::max<Interactions>(1, n / 20);

  benchutil::banner("fig1",
                    "Figure 1: USD evolution (left), majority-doubling window "
                    "(right) and surviving opinions, from one run");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("bias (= ~sqrt(n ln n))", init.bias);
  benchutil::param("x_majority(0)", init.majority());
  benchutil::param("x_minority(0)", init.minority());
  benchutil::param("settle point n/2 - n/4k", bounds::usd_settle_point(n, k));
  benchutil::param("doubling level 2*x1(0)", doubling_level);
  benchutil::param("recording stride (interactions)", stride);
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));

  SweepSpec spec;
  spec.name = "fig1";
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
    double first_extinction = -1.0;
    auto record = [&](const Simulator& s) {
      const Configuration& c = s.configuration();
      const auto x1 = static_cast<double>(opinion_count(c, 0));
      double mean_min = 0.0;
      Count min_minority = opinion_count(c, 1);
      for (Opinion j = 1; j < k; ++j) {
        const Count xj = opinion_count(c, j);
        mean_min += static_cast<double>(xj);
        min_minority = std::min(min_minority, xj);
      }
      const auto alive = surviving_opinions(c);
      traj.time.push_back(s.parallel_time());
      traj.undecided.push_back(static_cast<double>(undecided_count(c)));
      traj.majority.push_back(x1);
      traj.minority_scaled.push_back(static_cast<double>(opinion_count(c, highlighted)) *
                                     static_cast<double>(k));
      traj.mean_minority.push_back(mean_min / static_cast<double>(k - 1));
      traj.max_difference.push_back(x1 - static_cast<double>(min_minority));
      traj.survivors.push_back(static_cast<double>(alive));
      if (first_extinction < 0 && alive < k) first_extinction = s.parallel_time();
    };

    // Sample every `stride` interactions until stabilization (the total
    // duration is unknown in advance, so keep everything and subsample for
    // the views afterwards), plus the exact doubling interaction.
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

    const double total = sim.parallel_time();
    const std::optional<Opinion> winner = sim.consensus_output();
    SweepMetrics m = {
        {"stabilized", sim.is_stable() ? 1.0 : 0.0},
        {"parallel_time", total},
        {"interactions", static_cast<double>(sim.interactions())},
        {"winner", winner.has_value() ? static_cast<double>(*winner) : -1.0},
        {"majority_win", winner.has_value() && *winner == 0 ? 1.0 : 0.0},
        {"doubled", doubling_time >= 0 ? 1.0 : 0.0},
    };
    if (doubling_time >= 0) {
      m.emplace_back("doubling_parallel_time", parallel_time(doubling_time, n));
      m.emplace_back("doubling_fraction", parallel_time(doubling_time, n) / total);
    }
    m.emplace_back("first_extinction", first_extinction);
    m.emplace_back("plateau_fraction", first_extinction > 0 ? first_extinction / total : 1.0);
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);
  const SweepCellResult& cr = result.cells[0];
  const auto first = [&cr](const std::string& metric) {
    return cr.values(metric).front();
  };

  const double total_time = first("parallel_time");
  const bool doubled = first("doubled") != 0.0;
  benchutil::param("stabilized", cr.rate("stabilized") == 1.0 ? "yes" : "NO (budget hit)");
  benchutil::param("stabilization parallel time (trial 0)", total_time);
  benchutil::param("winner (trial 0)",
                   first("winner") >= 0
                       ? std::to_string(static_cast<Opinion>(first("winner")))
                       : std::string("none"));
  if (doubled) {
    benchutil::param("parallel time to double x1", first("doubling_parallel_time"));
    benchutil::param("doubling fraction of total", first("doubling_fraction"));
  } else {
    benchutil::param("parallel time to double x1", "never (stabilized first)");
  }
  benchutil::param("first extinction at", first("first_extinction"));
  benchutil::param("plateau fraction (first extinction / total)", first("plateau_fraction"));

  // Every view shows the same subsampled rows; fig1_right stops shortly
  // after the doubling event.
  const Trajectory& traj = trajectories[0];
  const std::size_t step =
      std::max<std::size_t>(1, traj.time.size() / static_cast<std::size_t>(samples));
  const double zoom_end = doubled ? first("doubling_parallel_time") * 1.1 : total_time;

  Table left({"parallel_time", "undecided", "majority", "minority_x_k",
              "mean_minority_x_k"});
  Table right({"parallel_time", "majority", "mean_minority", "max_difference"});
  Table alive({"parallel_time", "surviving_opinions", "undecided"});
  std::vector<double> zt;
  std::vector<double> zmaj;
  std::vector<double> zmin;
  std::vector<double> zdiff;
  for (std::size_t i = 0; i < traj.time.size(); i += step) {
    left.row()
        .cell(traj.time[i], 3)
        .cell(traj.undecided[i], 0)
        .cell(traj.majority[i], 0)
        .cell(traj.minority_scaled[i], 0)
        .cell(traj.mean_minority[i] * static_cast<double>(k), 0)
        .done();
    alive.row()
        .cell(traj.time[i], 3)
        .cell(traj.survivors[i], 0)
        .cell(traj.undecided[i], 0)
        .done();
    if (traj.time[i] > zoom_end) continue;
    right.row()
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

  benchutil::tsv_block("fig1_left", left);
  AsciiPlot left_plot(100, 28);
  left_plot.set_labels("parallel time", "agents");
  left_plot.add_series("undecided u(t)", 'u', traj.time, traj.undecided);
  left_plot.add_series("majority x1(t)", 'M', traj.time, traj.majority);
  left_plot.add_series("minority (x k)", 'm', traj.time, traj.minority_scaled);
  left_plot.add_hline("n/2 - n/4k", '.', bounds::usd_settle_point(n, k));
  std::cout << left_plot.render();

  benchutil::tsv_block("fig1_right", right);
  AsciiPlot right_plot(100, 28);
  right_plot.set_labels("parallel time", "agents");
  right_plot.add_series("majority x1(t)", 'M', zt, zmaj);
  right_plot.add_series("mean minority", 'm', zt, zmin);
  right_plot.add_series("max difference", 'D', zt, zdiff);
  std::cout << right_plot.render();

  benchutil::tsv_block("survivors", alive);
  AsciiPlot alive_plot(100, 20);
  alive_plot.set_labels("parallel time", "opinions alive");
  alive_plot.add_series("survivors", 'S', traj.time, traj.survivors);
  std::cout << alive_plot.render();
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
