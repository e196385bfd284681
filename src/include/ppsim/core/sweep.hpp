// Declarative parameter-sweep harness: the one way a trial runs.
//
// Validating the paper's lower bound empirically means sweeping (n, k, bias,
// engine, protocol) over many independent trials. A bench, ppsim_run or a
// test is a SweepSpec (the grid) plus a trial lambda (one cell, one RNG
// stream -> named scalar metrics), and the runner owns everything
// repeatable:
//
//   * a work-stealing task scheduler (core/task_scheduler.hpp) fanning
//     (cell, trial) tasks out over --threads workers — cells complete out of
//     order, expensive cells start early, and imbalanced grids (n=10^3 cells
//     next to n=10^11 collapsed cells) no longer convoy behind the
//     submission order;
//   * deterministic per-trial randomness: trial (c, t) always draws from
//     Xoshiro256pp(base_seed).stream(c * trials + t), an O(1) jump-stream
//     derivation, so results are bitwise identical at any thread count;
//   * adaptive trial stopping (--trials auto[:rel_err]): trials are issued
//     in doubling waves, and once the wave-prefix confidence interval of the
//     target metric's mean is within rel_err the cell stops early. Stopping
//     decisions are evaluated over deterministic trial-index prefixes, never
//     over "whatever finished first", so adaptive sweeps keep the same
//     byte-identical-JSON guarantee as fixed ones;
//   * per-cell aggregation (count/mean/stddev/min/quantiles/max via
//     util/stats summarize());
//   * one JSON reporter (SweepResult::to_json) — reports from --threads 1
//     and --threads N are byte-identical (wall-clock time is deliberately
//     kept out of the JSON).
//
// Trial lambdas must be thread-compatible: read-only on shared captures,
// writes confined to the returned metrics (the runner stores them in
// per-trial slots, so no locking is needed downstream).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/runner.hpp"
#include "ppsim/core/task_scheduler.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {

/// One grid point of a sweep: the canonical axes the paper's experiments
/// vary (n, k, bias, engine, protocol) plus free-form named scalars for
/// bench-specific knobs (bias multiplier, walk drift, ...). Cells are plain
/// data — the trial lambda interprets them.
struct SweepCell {
  Count n = 0;
  std::size_t k = 0;
  double bias = 0.0;
  EngineKind engine = EngineKind::kSequential;
  std::string protocol = "usd";
  Interactions round_divisor = 16;  ///< batched engine granularity
  double tau_epsilon = 0.05;        ///< collapsed engine drift tolerance
  /// Round kernel for the batched/collapsed engines; nullopt inherits
  /// SweepSpec::kernel (SweepRunner stamps it in at construction, so
  /// downstream readers always see a value). Only kScalar runs
  /// (kernels/round_kernel.hpp).
  std::optional<kernels::KernelKind> kernel;
  /// Bench-specific scalar knobs, carried into the report verbatim.
  std::vector<std::pair<std::string, double>> params;
  /// Row label for tables/reports; label() falls back to "n=..,k=..".
  std::string name;

  double param(const std::string& key, double fallback) const;
  std::string label() const;
};

/// Adaptive trial stopping (--trials auto). When `adaptive`, the runner
/// issues trials for each cell in doubling waves starting at `min_trials`
/// and stops the cell once the two-sided Student-t confidence interval of
/// the target metric's mean (over the completed trial-index prefix) has
/// half-width <= rel_err * |mean| — or once spec.trials (the cap) is
/// reached. Cells whose trials never report the metric stop at min_trials:
/// the rule cannot guide them, and silently running to the cap would turn a
/// typo into a 64x cost overrun.
struct TrialStopping {
  bool adaptive = false;
  double rel_err = 0.05;           ///< target relative CI half-width
  double confidence = 0.95;        ///< CI confidence level, in (0, 1)
  std::size_t min_trials = 8;      ///< first wave; also the floor per cell
  std::string metric = "parallel_time";  ///< metric whose mean is pinned
};

/// The declarative sweep: grid x trial count x seeding x parallelism.
struct SweepSpec {
  std::string name;               ///< bench/experiment name (report header)
  std::vector<SweepCell> cells;
  std::size_t trials = 1;         ///< trials per cell (the cap when adaptive)
  std::uint64_t base_seed = 42;
  unsigned threads = 1;           ///< worker count; 0 = hardware concurrency
  TrialStopping stopping;         ///< fixed by default
  /// Default round kernel for cells that don't name their own; reports
  /// carry it as "kernel": "scalar" (kernels/round_kernel.hpp).
  kernels::KernelKind kernel = kernels::KernelKind::kScalar;
};

/// Everything one trial may depend on. `rng` is the trial's private jump
/// stream; `seed` is a scalar drawn from it for engines that expand their
/// own seed (a sequential Simulator, GossipEngine, ...). Using both is fine — the stream
/// is private to this (cell, trial) pair.
struct SweepTrial {
  const SweepCell& cell;
  std::size_t cell_index;
  std::size_t trial;           ///< trial index within the cell
  std::uint64_t stream_index;  ///< cell_index * spec.trials + trial
  std::uint64_t seed;
  Xoshiro256pp& rng;

  /// Builds the engine the cell names (kind + round_divisor) over `initial`,
  /// seeded from this trial's stream — any EngineKind can be driven from a
  /// sweep cell. The protocol must outlive the engine.
  Engine make_engine(const Protocol& protocol, Configuration initial) const;
};

/// Named scalar observables produced by one trial. Insertion order is
/// preserved into the aggregation and the report; a metric may be omitted
/// by some trials (e.g. "recovery_time" only when recovered) — aggregates
/// then cover the trials that reported it.
using SweepMetrics = std::vector<std::pair<std::string, double>>;

using SweepTrialFn = std::function<SweepMetrics(const SweepTrial&)>;

/// Per-cell aggregate of one metric (Summary: count, mean, stddev, min,
/// p25, median, p75, max) plus the raw per-trial values in trial order.
struct SweepMetricAggregate {
  std::string metric;
  Summary summary;
  std::vector<double> values;
};

struct SweepCellResult;

/// Rebuilds a cell's aggregates from its raw per-trial metrics: resizes
/// `trials` down to `trials_run`, then recomputes `aggregates` (metric order
/// = first occurrence across trials in trial-index order, values in trial
/// order, Summary via util/stats summarize()). This is THE aggregation path
/// — the runner calls it when a cell completes, and the cell cache calls it
/// when replaying stored raw trials, so a cache hit re-derives byte-identical
/// aggregates instead of trusting stored ones.
void aggregate_sweep_cell(SweepCellResult& cr);

struct SweepCellResult {
  SweepCell cell;
  std::size_t cell_index = 0;
  std::size_t trials_requested = 0;  ///< spec.trials (the cap when adaptive)
  std::size_t trials_run = 0;        ///< trials actually executed (== requested
                                     ///< for fixed-trial sweeps, always)
  std::vector<SweepMetrics> trials;  ///< per-trial metrics, trial order
  std::vector<SweepMetricAggregate> aggregates;

  const SweepMetricAggregate* find(const std::string& metric) const;
  /// Per-trial values of `metric`, in trial order (empty if never reported).
  std::vector<double> values(const std::string& metric) const;
  /// Mean of `metric` over the trials that reported it; `fallback` if none.
  double mean(const std::string& metric, double fallback = 0.0) const;
  /// Sum / min / max over the trials that reported the metric.
  double sum(const std::string& metric) const;
  double min(const std::string& metric, double fallback = 0.0) const;
  double max(const std::string& metric, double fallback = 0.0) const;
  /// Per-trial values of metric `value` over trials where metric `flag` is
  /// nonzero (e.g. parallel time over stabilized trials only — budget-capped
  /// trials would otherwise smuggle the budget into time statistics).
  std::vector<double> values_where(const std::string& value,
                                   const std::string& flag) const;
  /// Mean of metric `value` over trials where metric `flag` is nonzero.
  double mean_where(const std::string& value, const std::string& flag,
                    double fallback = 0.0) const;
  /// Min / max of metric `value` over trials where metric `flag` is nonzero.
  double min_where(const std::string& value, const std::string& flag,
                   double fallback = 0.0) const;
  double max_where(const std::string& value, const std::string& flag,
                   double fallback = 0.0) const;
  /// Fraction of trials whose `flag` metric is nonzero (0 if no trials).
  double rate(const std::string& flag) const;
};

struct SweepResult {
  std::string name;
  std::size_t trials = 0;  ///< spec.trials (the per-cell cap when adaptive)
  std::uint64_t base_seed = 0;
  unsigned threads = 1;  ///< resolved worker count actually used
  TrialStopping stopping;
  kernels::KernelKind kernel = kernels::KernelKind::kScalar;  ///< spec default
  std::vector<SweepCellResult> cells;
  double wall_seconds = 0.0;  ///< whole-sweep wall clock (not in the JSON)
  /// Work-stealing execution counters. Like wall_seconds these are
  /// timing-dependent, so they stay out of the JSON.
  TaskScheduler::Stats scheduler_stats;

  /// Unified report: spec header, then one entry per cell with the cell's
  /// axes/params, per-metric aggregates and raw per-trial values. Does NOT
  /// include wall_seconds or threads — two runs of the same spec at
  /// different thread counts must serialize byte-identically.
  std::string to_json() const;
  /// Writes to_json() (plus trailing newline) to `path`; empty path = no-op.
  void write_json(const std::string& path) const;
};

/// One cell's entry of the unified report, rendered standalone.
/// `default_kernel` resolves cells whose kernel is nullopt (SweepResult
/// passes its spec default). to_json() is a join of these strings, nothing
/// more.
std::string sweep_cell_json(const SweepCellResult& cr,
                            kernels::KernelKind default_kernel);

/// Completion callback for one sweep cell: fired exactly once per completed
/// cell, by whichever worker finishes the cell's last trial (the "last
/// finisher"), with the cell's fully aggregated deterministic result. The
/// invocation ORDER across cells follows completion and is therefore
/// schedule-dependent — but every delivered SweepCellResult is the same
/// bytes at any thread count, and the assembled SweepResult orders cells by
/// index regardless (tests/sweep_test.cpp pins JSON invariance under
/// callback order). Callbacks may run concurrently from different workers;
/// the callee synchronizes. Keep them cheap: a slow callback stalls one
/// worker, not the job.
using SweepCellCallback = std::function<void(const SweepCellResult&)>;

/// Options for SweepRunner::run_job — the per-cell form of a sweep that the
/// cell cache (cache::run_cached) builds on. run(fn) is run_job with all
/// defaults.
struct SweepJobOptions {
  /// Per-cell completion callback (see SweepCellCallback); null = none.
  SweepCellCallback on_cell;
  /// Per-cell skip mask (empty = run everything). Skipped cells execute no
  /// trials and fire no callback; they come back empty (trials_run = 0) at
  /// their original cell_index, which is what keeps the seeding discipline
  /// intact when a caller splices in cached results: stream indices are
  /// cell_index * trials + trial, so cached cells must keep their position
  /// rather than being compacted out of the spec.
  std::vector<bool> skip;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepSpec spec);

  const SweepSpec& spec() const noexcept { return spec_; }

  /// The jump-stream index feeding (cell, trial) — the documented seeding
  /// scheme: base seed -> stream index = cell * trials_per_cell + trial.
  static std::uint64_t stream_index(std::size_t cell_index,
                                    std::size_t trials_per_cell,
                                    std::size_t trial) noexcept {
    return static_cast<std::uint64_t>(cell_index) * trials_per_cell + trial;
  }

  /// The generator driving stream `index` of `base_seed` (exposed so a
  /// single recorded trial can be reproduced outside a sweep).
  static Xoshiro256pp trial_stream(std::uint64_t base_seed, std::uint64_t index) {
    return Xoshiro256pp(base_seed).stream(index);
  }

  /// Worker count actually used: spec.threads (0 = hardware concurrency)
  /// clamped against the *initial* work-item bound cells x spec.trials —
  /// i.e. cells x max_trials when stopping is adaptive. The clamp must not
  /// track the dynamic adaptive work count (waves start at min_trials):
  /// extra workers idle cheaply, while re-clamping per wave would make the
  /// resolved thread count — a reported field — depend on stopping decisions.
  static unsigned resolved_threads(const SweepSpec& spec) noexcept;

  /// Runs trials x cells over the scheduler and aggregates. Every task
  /// writes only its own pre-sized result slot, stopping decisions are
  /// evaluated over deterministic trial-index prefixes, and per-cell
  /// aggregation is a pure function of the cell's trial data — so the
  /// outcome is independent of scheduling: byte-identical JSON at any
  /// --threads, for fixed and adaptive trial counts alike. Thin wrapper
  /// over run_job with default options.
  SweepResult run(const SweepTrialFn& fn) const;

  /// The job form run(fn) delegates to: a sweep submission with
  /// incremental result assembly. Each cell is aggregated by its last
  /// finisher the moment its final trial lands (not in a sequential pass at
  /// the end), opts.on_cell hands completed cells to the caller while later
  /// cells are still running, and opts.skip leaves chosen cells empty at
  /// their original index for the caller to fill (the cache-hit path).
  /// Blocks until the job drains; rethrows the first trial exception.
  SweepResult run_job(const SweepTrialFn& fn, const SweepJobOptions& opts) const;

 private:
  SweepSpec spec_;
};

/// The shared sweep-facing CLI surface, so every bench spells the common
/// flags identically: --trials (a count, or auto[:rel_err] for adaptive
/// stopping), --min-trials / --max-trials (adaptive wave floor and cap),
/// --seed, --threads (0 = hardware) and --json (unified report path; empty
/// disables). Every run is on the uniform scheduler over a fixed
/// population.
struct SweepCliOptions {
  std::size_t trials = 1;  ///< fixed count, or the cap when stopping.adaptive
  std::uint64_t seed = 42;
  unsigned threads = 1;
  std::string json;
  TrialStopping stopping;

  /// Applies the shared flags to a spec (trials/base_seed/threads/stopping),
  /// leaving name/cells to the bench. Benches may override
  /// spec.stopping.metric afterwards to aim --trials auto at their own
  /// headline metric.
  void configure(SweepSpec& spec) const;
};

SweepCliOptions read_sweep_flags(Cli& cli, std::size_t default_trials,
                                 std::uint64_t default_seed,
                                 const std::string& default_json);

/// Standard metric block for consensus trials, so every bench reports the
/// same names: stabilized (0/1), parallel_time, interactions (attempted),
/// clamped, effective_interactions, winner (opinion index, -1 = none) and
/// majority_win (winner == 0).
SweepMetrics consensus_metrics(const TrialResult& r);

}  // namespace ppsim
