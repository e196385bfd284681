// Engine throughput shoot-out: sequential vs. round-based simulation of USD
// on the paper's Figure-1 configuration, at paper scale by default (n = 10⁷,
// k = 3). Three engines run the same workload to stabilization:
//
//   * sequential  — the exact table-driven Simulator, one interaction/step;
//   * batched     — CollapsedSimulator with fixed rounds of n/divisor;
//   * collapsed   — CollapsedSimulator with adaptive-τ rounds.
//
// Runs on the SweepRunner: one cell per engine, --trials trials per cell,
// fanned out over --threads workers with deterministic per-trial RNG
// streams (the per-trial interaction counts are thread-count invariant;
// only wall clock changes). Reports wall-clock seconds, attempted vs
// *effective* interactions (attempted minus the round kinds' clamped
// τ-leaping overdraw — previously the clamped share was double-counted),
// interactions/second and the batched-vs-sequential speedup; the same
// numbers land in the unified sweep JSON (--json, default
// BENCH_throughput.json), and CI checks its deterministic metrics against
// bench/baselines/BENCH_throughput.json (tools/bench_baseline.py).
//
// Flags: --n, --k, --trials, --seed, --max-parallel, --round-divisor,
//        --tau-epsilon, --threads (0 = hardware), --json (empty disables
//        the file).
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/table.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 10'000'000);
  const std::int64_t k_flag = cli.get_int("k", 3);
  PPSIM_CHECK(k_flag >= 1, "--k must be at least 1, got " + std::to_string(k_flag));
  const auto k = static_cast<std::size_t>(k_flag);
  const double max_parallel = cli.get_double("max-parallel", 1000.0);
  PPSIM_CHECK(max_parallel >= 0.0, "--max-parallel must be non-negative, got " +
                                       format_double(max_parallel, 2));
  const Interactions round_divisor = cli.get_int("round-divisor", 16);
  PPSIM_CHECK(round_divisor > 0, "--round-divisor must be positive");
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 1, 42, "BENCH_throughput.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("throughput",
                    "wall-clock comparison of the USD engines on one workload: "
                    "sequential vs batched vs collapsed");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("trials", static_cast<std::int64_t>(opts.trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("max parallel time", max_parallel);
  benchutil::param("batched round divisor", round_divisor);
  benchutil::param("threads", static_cast<std::int64_t>(opts.threads));

  const InitialConfig init = figure1_configuration(n, k);
  const auto budget = static_cast<Interactions>(max_parallel * static_cast<double>(n));
  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);

  SweepSpec spec;
  spec.name = "throughput";
  opts.configure(spec);
  for (const char* variant : {"sequential", "batched", "collapsed"}) {
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(init.bias);
    cell.protocol = variant;
    cell.engine = EngineKind::kSequential;
    if (std::string(variant) == "batched") cell.engine = EngineKind::kBatched;
    if (std::string(variant) == "collapsed") cell.engine = EngineKind::kCollapsed;
    cell.round_divisor = round_divisor;
    cell.tau_epsilon = tau_epsilon;
    cell.name = variant;
    spec.cells.push_back(cell);
  }

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const auto start = std::chrono::steady_clock::now();
    Engine engine = ctx.make_engine(usd, initial);
    const TrialResult r = run_engine_trial(engine, budget);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    SweepMetrics m = consensus_metrics(r);
    m.emplace_back("wall_seconds", elapsed.count());
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"engine", "wall_seconds", "attempted", "effective", "clamped",
               "attempted_per_sec", "effective_per_sec", "stabilized"});
  for (const SweepCellResult& cr : result.cells) {
    const double wall = cr.sum("wall_seconds");
    const double attempted = cr.sum("interactions");
    const double effective = cr.sum("effective_interactions");
    table.row()
        .cell(cr.cell.label())
        .cell(wall, 4)
        .cell(attempted, 0)
        .cell(effective, 0)
        .cell(cr.sum("clamped"), 0)
        .cell(wall > 0.0 ? attempted / wall : 0.0, 0)
        .cell(wall > 0.0 ? effective / wall : 0.0, 0)
        .cell(cr.rate("stabilized"), 2)
        .done();
  }
  benchutil::tsv_block("throughput", table);
  table.write_pretty(std::cout);

  const double wall_sequential = result.cells[0].sum("wall_seconds");
  const double wall_batched = result.cells[1].sum("wall_seconds");
  const double wall_collapsed = result.cells[2].sum("wall_seconds");
  auto speedup = [](double base, double fast) {
    return fast > 0.0 ? base / fast : 0.0;
  };
  std::cout << "\nbatched vs sequential    (wall-clock): "
            << format_double(speedup(wall_sequential, wall_batched), 1) << "x\n"
            << "collapsed vs sequential  (wall-clock): "
            << format_double(speedup(wall_sequential, wall_collapsed), 1) << "x\n"
            << "collapsed vs batched     (wall-clock): "
            << format_double(speedup(wall_batched, wall_collapsed), 1) << "x\n";

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
