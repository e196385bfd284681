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
// BENCH_throughput.json) so CI can track the perf trajectory.
//
// A second mode, --kernel-shootout, benches the round *kernels*: one
// collapsed cell runs its trial batch as whole-cell lockstep launches
// (SweepRunner::run with a LockstepPlan) once per available kernel. The
// scalar lockstep report must be byte-identical to the ordinary per-trial
// path (checked fatally — the lockstep machinery must not change the
// science); the AVX2 kernel is then timed against scalar and the speedup
// recorded in the JSON (kernels/avx2_kernel.cpp vectorizes the stage-1
// binomial and the multinomial chain across 4 lanes of trials).
//
// Flags: --n, --k, --trials, --seed, --max-parallel, --round-divisor,
//        --tau-epsilon, --threads (0 = hardware), --kernel, --json (empty
//        disables the file), --kernel-shootout.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/table.hpp"

namespace {

using namespace ppsim;

// --kernel-shootout: the same collapsed workload through each round kernel,
// executed as lockstep whole-cell launches. Scalar is the determinism
// anchor (lockstep == per-trial, byte for byte); AVX2 is the speed leg.
int run_kernel_shootout(const SweepCliOptions& opts, Count n, std::size_t k,
                        double max_parallel, double tau_epsilon) {
  PPSIM_CHECK(!opts.stopping.adaptive,
              "--kernel-shootout groups a fixed trial batch into lockstep "
              "lanes; adaptive stopping cannot hold the groups together");
  benchutil::banner("throughput --kernel-shootout",
                    "scalar vs avx2 round kernels on one collapsed cell, "
                    "trials advanced in lockstep groups");
  // Lockstep needs a group's worth of trials to fill the SIMD lanes.
  const std::size_t trials = std::max<std::size_t>(opts.trials, 8);
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("trials", static_cast<std::int64_t>(trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("avx2 compiled", kernels::avx2_compiled() ? "yes" : "no");
  benchutil::param("avx2 supported", kernels::avx2_supported() ? "yes" : "no");

  const InitialConfig init = figure1_configuration(n, k);
  const auto budget =
      static_cast<Interactions>(max_parallel * static_cast<double>(n));
  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);

  auto spec_for = [&](kernels::KernelKind kind) {
    SweepSpec spec;
    spec.name = "throughput_kernel_shootout";
    opts.configure(spec);
    spec.trials = trials;
    spec.kernel = kind;
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(init.bias);
    cell.engine = EngineKind::kCollapsed;
    cell.tau_epsilon = tau_epsilon;
    cell.name = std::string("collapsed-") + kernels::to_string(kind);
    spec.cells.push_back(cell);
    return spec;
  };
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    Engine engine = ctx.make_engine(usd, initial);
    return consensus_metrics(run_engine_trial(engine, budget));
  };
  auto plan = [&](const SweepCell&) -> std::optional<LockstepPlan> {
    return LockstepPlan{&usd, &initial, budget};
  };

  const SweepResult scalar_per_trial =
      SweepRunner(spec_for(kernels::KernelKind::kScalar)).run(trial);
  const SweepResult scalar_lockstep =
      SweepRunner(spec_for(kernels::KernelKind::kScalar)).run(trial, plan);
  const bool identical =
      scalar_per_trial.to_json() == scalar_lockstep.to_json();

  Table table({"kernel", "mode", "wall_seconds", "stabilized"});
  table.row()
      .cell("scalar")
      .cell("per-trial")
      .cell(scalar_per_trial.wall_seconds, 4)
      .cell(scalar_per_trial.cells[0].rate("stabilized"), 2)
      .done();
  table.row()
      .cell("scalar")
      .cell("lockstep")
      .cell(scalar_lockstep.wall_seconds, 4)
      .cell(scalar_lockstep.cells[0].rate("stabilized"), 2)
      .done();

  double avx2_wall = 0.0;
  double speedup = 0.0;
  if (kernels::avx2_supported()) {
    const SweepResult avx2 =
        SweepRunner(spec_for(kernels::KernelKind::kAvx2)).run(trial, plan);
    avx2_wall = avx2.wall_seconds;
    speedup = avx2_wall > 0.0 ? scalar_lockstep.wall_seconds / avx2_wall : 0.0;
    table.row()
        .cell("avx2")
        .cell("lockstep")
        .cell(avx2_wall, 4)
        .cell(avx2.cells[0].rate("stabilized"), 2)
        .done();
  }
  benchutil::tsv_block("kernel_shootout", table);
  table.write_pretty(std::cout);

  std::cout << "\nscalar lockstep == per-trial (byte-identical JSON): "
            << (identical ? "yes" : "NO") << "\n";
  if (kernels::avx2_supported()) {
    std::cout << "avx2 vs scalar lockstep (wall-clock): "
              << format_double(speedup, 2) << "x\n";
  } else {
    std::cout << "avx2 leg skipped: kernel unavailable on this host\n";
  }

  if (!opts.json.empty()) {
    JsonObject report;
    report.field("bench", "throughput_kernel_shootout")
        .field("n", static_cast<std::int64_t>(n))
        .field("k", static_cast<std::int64_t>(k))
        .field("trials", static_cast<std::int64_t>(trials))
        .field("threads", static_cast<std::int64_t>(scalar_lockstep.threads))
        .field("avx2_compiled", kernels::avx2_compiled())
        .field("avx2_supported", kernels::avx2_supported())
        .field("scalar_per_trial_wall_seconds", scalar_per_trial.wall_seconds)
        .field("scalar_lockstep_wall_seconds", scalar_lockstep.wall_seconds)
        .field("avx2_lockstep_wall_seconds", avx2_wall)
        .field("avx2_speedup", speedup)
        .field("reports_identical", identical)
        .field_json("sweep", scalar_lockstep.to_json());
    report.write_file(opts.json);
    std::cout << "json report written to " << opts.json << "\n";
  }

  PPSIM_CHECK(identical,
              "lockstep launches changed the science: scalar lockstep and "
              "per-trial sweep reports differ");
  return 0;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 10'000'000);
  const auto k = static_cast<std::size_t>(cli.get_int("k", 3));
  const double max_parallel = cli.get_double("max-parallel", 1000.0);
  const Interactions round_divisor = cli.get_int("round-divisor", 16);
  PPSIM_CHECK(round_divisor > 0, "--round-divisor must be positive");
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const bool kernel_shootout = cli.get_bool("kernel-shootout", false);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 1, 42, "BENCH_throughput.json");
  cli.validate_no_unknown_flags();

  if (kernel_shootout) {
    return run_kernel_shootout(opts, n, k, max_parallel, tau_epsilon);
  }

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
