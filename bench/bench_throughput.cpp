// Engine throughput shoot-out: sequential vs. round-based simulation of USD
// on the paper's Figure-1 configuration, at paper scale by default (n = 10⁷,
// k = 3). Both engines run the same workload to stabilization:
//
//   * sequential  — the exact Simulator: USD's rules inline, collision-free
//                   batches of ~√(πn/8) interactions (stepping below its
//                   crossover);
//   * collapsed   — CollapsedSimulator with adaptive-τ rounds.
//
// Runs on the SweepRunner: one cell per engine, --trials trials per cell,
// fanned out over --threads workers with deterministic per-trial RNG
// streams (the per-trial interaction counts are thread-count invariant;
// only wall clock changes). Reports wall-clock seconds, attempted vs
// *effective* interactions (attempted minus the collapsed engine's clamped
// τ-leaping overdraw — previously the clamped share was double-counted),
// interactions/second and the collapsed-vs-sequential speedup; the same
// numbers land in the unified sweep JSON (--json, default
// BENCH_throughput.json), and CI checks its deterministic metrics against
// bench/baselines/BENCH_throughput.json (tools/bench_baseline.py).
//
// Flags: --n, --k, --trials, --seed, --max-parallel, --tau-epsilon,
//        --threads (0 = hardware), --json (empty disables the file).
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
  const Count n = cli.get_int("n", 10'000'000, {.lo = 2});
  const auto k = static_cast<std::size_t>(cli.get_int("k", 3, {.lo = 1}));
  const double max_parallel = cli.get_double("max-parallel", 1000.0, {.lo = 0.0});
  const Interactions budget = max_parallel_budget(max_parallel, n);
  // The collapsed cell always runs, so its tuning flag always applies.
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05, benchutil::kTauEpsilon);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 1, 42, "BENCH_throughput.json");
  cli.validate_no_unknown_flags();
  benchutil::check_figure1_fits(n, k, "--k");

  benchutil::banner("throughput",
                    "wall-clock comparison of the USD engines on one workload: "
                    "sequential vs collapsed");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("trials", static_cast<std::int64_t>(opts.trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("max parallel time", max_parallel);
  benchutil::param("threads", static_cast<std::int64_t>(opts.threads));

  const InitialConfig init = figure1_configuration(n, k);
  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);

  SweepSpec spec;
  spec.name = "throughput";
  opts.configure(spec);
  for (const EngineKind kind : {EngineKind::kSequential, EngineKind::kCollapsed}) {
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(init.bias);
    cell.engine = kind;
    cell.protocol = to_string(kind);
    cell.tau_epsilon = tau_epsilon;
    cell.name = to_string(kind);
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
  const double wall_collapsed = result.cells[1].sum("wall_seconds");
  const double speedup = wall_collapsed > 0.0 ? wall_sequential / wall_collapsed : 0.0;
  std::cout << "\ncollapsed vs sequential (wall-clock): " << format_double(speedup, 1)
            << "x\n";

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
