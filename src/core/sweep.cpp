#include "ppsim/core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "ppsim/analysis/streaming_ci.hpp"
#include "ppsim/core/task_scheduler.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/json.hpp"

namespace ppsim {

double SweepCell::param(const std::string& key, double fallback) const {
  for (const auto& [name_, value] : params) {
    if (name_ == key) return value;
  }
  return fallback;
}

std::string SweepCell::label() const {
  if (!name.empty()) return name;
  return "n=" + std::to_string(n) + ",k=" + std::to_string(k);
}

Engine SweepTrial::make_engine(const Protocol& protocol,
                               Configuration initial) const {
  // Each engine built by this trial draws its own scalar seed from the
  // trial's private stream, so a trial comparing several engines (e.g.
  // bench_gossip_compare) seeds them from disjoint draws deterministically.
  const kernels::KernelKind kernel =
      cell.kernel.value_or(kernels::KernelKind::kScalar);
  return Engine(cell.engine, protocol, std::move(initial), rng(),
                {.tau_epsilon = cell.tau_epsilon, .kernel = kernel},
                cell.round_divisor);
}

const SweepMetricAggregate* SweepCellResult::find(const std::string& metric) const {
  for (const auto& agg : aggregates) {
    if (agg.metric == metric) return &agg;
  }
  return nullptr;
}

std::vector<double> SweepCellResult::values(const std::string& metric) const {
  const SweepMetricAggregate* agg = find(metric);
  return agg == nullptr ? std::vector<double>{} : agg->values;
}

double SweepCellResult::mean(const std::string& metric, double fallback) const {
  const SweepMetricAggregate* agg = find(metric);
  return agg == nullptr || agg->summary.count == 0 ? fallback : agg->summary.mean;
}

double SweepCellResult::sum(const std::string& metric) const {
  double total = 0.0;
  for (const double v : values(metric)) total += v;
  return total;
}

double SweepCellResult::min(const std::string& metric, double fallback) const {
  const SweepMetricAggregate* agg = find(metric);
  return agg == nullptr || agg->summary.count == 0 ? fallback : agg->summary.min;
}

double SweepCellResult::max(const std::string& metric, double fallback) const {
  const SweepMetricAggregate* agg = find(metric);
  return agg == nullptr || agg->summary.count == 0 ? fallback : agg->summary.max;
}

std::vector<double> SweepCellResult::values_where(const std::string& value,
                                                  const std::string& flag) const {
  std::vector<double> selected;
  for (const SweepMetrics& trial : trials) {
    bool flagged = false;
    std::optional<double> v;
    for (const auto& [metric, x] : trial) {
      if (metric == flag && x != 0.0) flagged = true;
      if (metric == value) v = x;
    }
    if (flagged && v.has_value()) selected.push_back(*v);
  }
  return selected;
}

double SweepCellResult::mean_where(const std::string& value, const std::string& flag,
                                   double fallback) const {
  const std::vector<double> selected = values_where(value, flag);
  if (selected.empty()) return fallback;
  double total = 0.0;
  for (const double v : selected) total += v;
  return total / static_cast<double>(selected.size());
}

double SweepCellResult::min_where(const std::string& value, const std::string& flag,
                                  double fallback) const {
  const std::vector<double> selected = values_where(value, flag);
  return selected.empty() ? fallback
                          : *std::min_element(selected.begin(), selected.end());
}

double SweepCellResult::max_where(const std::string& value, const std::string& flag,
                                  double fallback) const {
  const std::vector<double> selected = values_where(value, flag);
  return selected.empty() ? fallback
                          : *std::max_element(selected.begin(), selected.end());
}

double SweepCellResult::rate(const std::string& flag) const {
  if (trials.empty()) return 0.0;
  std::size_t hits = 0;
  for (const SweepMetrics& trial : trials) {
    for (const auto& [metric, x] : trial) {
      if (metric == flag && x != 0.0) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(trials.size());
}

void aggregate_sweep_cell(SweepCellResult& cr) {
  // Pure function of (trials[0..trials_run), trials_run): called by the
  // cell's last finisher during a run AND by the cell cache when replaying
  // stored raw trials, so both paths derive identical aggregate bytes.
  cr.trials.resize(cr.trials_run);  // drop never-run adaptive slots
  cr.aggregates.clear();
  std::vector<std::string> order;
  for (const SweepMetrics& trial : cr.trials) {
    for (const auto& [metric, value] : trial) {
      (void)value;
      if (std::find(order.begin(), order.end(), metric) == order.end()) {
        order.push_back(metric);
      }
    }
  }
  for (const std::string& metric : order) {
    SweepMetricAggregate agg;
    agg.metric = metric;
    for (const SweepMetrics& trial : cr.trials) {
      for (const auto& [name_, value] : trial) {
        if (name_ == metric) agg.values.push_back(value);
      }
    }
    agg.summary = summarize(agg.values);
    cr.aggregates.push_back(std::move(agg));
  }
}

std::string sweep_cell_json(const SweepCellResult& cr,
                            kernels::KernelKind default_kernel) {
  JsonObject params;
  for (const auto& [key, value] : cr.cell.params) params.field(key, value);
  std::vector<JsonObject> metric_objects;
  metric_objects.reserve(cr.aggregates.size());
  for (const SweepMetricAggregate& agg : cr.aggregates) {
    JsonObject m;
    m.field("metric", agg.metric)
        .field("count", agg.summary.count)
        .field("mean", agg.summary.mean)
        .field("stddev", agg.summary.stddev)
        .field("min", agg.summary.min)
        .field("p25", agg.summary.p25)
        .field("median", agg.summary.median)
        .field("p75", agg.summary.p75)
        .field("max", agg.summary.max)
        .field("values", agg.values);
    metric_objects.push_back(m);
  }
  JsonObject c;
  c.field("cell", cr.cell.label())
      .field("n", cr.cell.n)
      .field("k", static_cast<std::int64_t>(cr.cell.k))
      .field("bias", cr.cell.bias)
      .field("engine", to_string(cr.cell.engine))
      .field("protocol", cr.cell.protocol)
      .field("round_divisor", cr.cell.round_divisor)
      .field("tau_epsilon", cr.cell.tau_epsilon)
      .field("kernel",
             kernels::to_string(cr.cell.kernel.value_or(default_kernel)))
      .field("trials_requested", static_cast<std::int64_t>(cr.trials_requested))
      .field("trials_run", static_cast<std::int64_t>(cr.trials_run))
      .field("params", params)
      .field("metrics", metric_objects);
  return c.str();
}

std::string SweepResult::to_json() const {
  // The report's cell array is a verbatim join of sweep_cell_json strings.
  std::string cell_array = "[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c > 0) cell_array += ", ";
    cell_array += sweep_cell_json(cells[c], kernel);
  }
  cell_array += "]";
  JsonObject stopping_obj;
  stopping_obj.field("mode", stopping.adaptive ? "auto" : "fixed");
  if (stopping.adaptive) {
    stopping_obj.field("rel_err", stopping.rel_err)
        .field("confidence", stopping.confidence)
        .field("min_trials", static_cast<std::int64_t>(stopping.min_trials))
        .field("metric", stopping.metric);
  }
  JsonObject report;
  report.field("sweep", name)
      .field("trials_per_cell", static_cast<std::int64_t>(trials))
      .field("base_seed", static_cast<std::int64_t>(base_seed))
      .field("stopping", stopping_obj)
      .field("seeding", "xoshiro256pp stream(cell * trials + trial)")
      .field("kernel", kernels::to_string(kernel))
      .field_json("cells", cell_array);
  return report.str();
}

void SweepResult::write_json(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path);
  PPSIM_CHECK(out.good(), "cannot open json output file " + path);
  out << to_json() << "\n";
}

SweepRunner::SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {
  PPSIM_CHECK(!spec_.name.empty(), "sweep spec must be named");
  PPSIM_CHECK(spec_.trials > 0, "sweep needs at least one trial per cell");
  // Stamp the spec default into every cell that didn't name its own kernel,
  // so trial lambdas and the report see one kind uniformly (and fail fast
  // here on a kind resolve() rejects).
  for (SweepCell& cell : spec_.cells) {
    if (!cell.kernel.has_value()) cell.kernel = spec_.kernel;
    (void)kernels::resolve(*cell.kernel);
  }
}

unsigned SweepRunner::resolved_threads(const SweepSpec& spec) noexcept {
  // Clamp against the *initial* work-item bound cells x spec.trials (i.e.
  // cells x max_trials under adaptive stopping). The bound must not track
  // the dynamic adaptive work count: waves start at min_trials and may never
  // grow, but idle workers are cheap, whereas a schedule-dependent resolved
  // thread count would leak stopping decisions into a reported field.
  const std::size_t item_bound =
      std::max<std::size_t>(1, spec.cells.size() * spec.trials);
  unsigned threads =
      spec.threads == 0 ? std::thread::hardware_concurrency() : spec.threads;
  return std::max(1u, std::min<unsigned>(
                          threads, static_cast<unsigned>(std::min<std::size_t>(
                                       item_bound, 1u << 16))));
}

SweepResult SweepRunner::run(const SweepTrialFn& fn) const {
  return run_job(fn, SweepJobOptions{});
}

SweepResult SweepRunner::run_job(const SweepTrialFn& fn,
                                 const SweepJobOptions& opts) const {
  PPSIM_CHECK(static_cast<bool>(fn), "sweep trial function must be callable");
  PPSIM_CHECK(opts.skip.empty() || opts.skip.size() == spec_.cells.size(),
              "job skip mask must be empty or one entry per cell");
  const TrialStopping& stopping = spec_.stopping;
  if (stopping.adaptive) {
    PPSIM_CHECK(stopping.min_trials >= 2,
                "adaptive stopping needs min_trials >= 2 (a CI needs two "
                "observations)");
    PPSIM_CHECK(stopping.rel_err > 0.0, "adaptive rel_err must be positive");
    PPSIM_CHECK(stopping.confidence > 0.0 && stopping.confidence < 1.0,
                "adaptive confidence must be in (0, 1)");
    PPSIM_CHECK(!stopping.metric.empty(), "adaptive stopping needs a metric");
  }

  const std::size_t num_cells = spec_.cells.size();
  const std::size_t trials = spec_.trials;

  SweepResult result;
  result.name = spec_.name;
  result.trials = trials;
  result.base_seed = spec_.base_seed;
  result.stopping = stopping;
  result.kernel = spec_.kernel;
  result.threads = resolved_threads(spec_);
  result.cells.resize(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    result.cells[c].cell = spec_.cells[c];
    result.cells[c].cell_index = c;
    result.cells[c].trials_requested = trials;
    // Pre-sized per-slot storage: every (cell, trial) task writes only its
    // own slot, so schedule order can never leak into the result. Skipped
    // cells stay empty — the caller splices their data in afterwards.
    if (opts.skip.empty() || !opts.skip[c]) {
      result.cells[c].trials.resize(trials);
    }
  }
  if (num_cells == 0) return result;

  const auto start = std::chrono::steady_clock::now();

  const std::size_t cap = trials;
  const std::size_t first_wave =
      stopping.adaptive ? std::min(stopping.min_trials, cap) : cap;

  const auto skipped = [&](std::size_t c) {
    return !opts.skip.empty() && opts.skip[c];
  };

  // Per-cell job state. `outstanding` and `executed` are the only fields
  // touched by concurrent trial tasks; everything else is owned by the wave
  // controller, which runs exclusively (the counter reaches zero exactly
  // once per wave, and the next wave's counter is set before any of its
  // tasks exist).
  struct CellControl {
    std::atomic<std::size_t> outstanding{0};
    std::atomic<std::size_t> executed{0};  ///< trials actually run (no holes)
    std::size_t scheduled = 0;  ///< trials submitted so far
    std::size_t consumed = 0;   ///< trials folded into the streaming CI
    std::unique_ptr<StreamingCi> ci;
  };
  std::vector<CellControl> control(num_cells);

  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<bool> errored{false};

  // Error stop: after a trial throws, workers stop *starting* work; the
  // first exception is rethrown once in-flight trials drain.
  const auto stop_requested = [&] {
    return errored.load(std::memory_order_acquire);
  };

  TaskScheduler scheduler(result.threads);

  std::function<void(std::size_t)> wave_complete;

  // Completes a cell: aggregate the deterministic trial data and hand the
  // finished SweepCellResult to the caller. Runs on whichever worker
  // finished the cell's last trial, concurrently with other cells' work —
  // safe because it touches only this cell's slot and the callback's own
  // synchronization is the callee's contract.
  auto finish_cell = [&](std::size_t c) {
    SweepCellResult& cr = result.cells[c];
    cr.trials_run = control[c].scheduled;
    aggregate_sweep_cell(cr);
    if (opts.on_cell) opts.on_cell(cr);
  };

  // One (cell, trial) task: run the trial into its pre-sized slot, then
  // decrement the cell's wave counter. The wave's last decrement (acq_rel)
  // acquires every slot write the wave made, so the controller running in
  // wave_complete reads settled data.
  auto trial_task = [&](std::size_t c, std::size_t t) {
    return [&, c, t] {
      if (!stop_requested()) {
        try {
          const std::uint64_t index = stream_index(c, cap, t);
          Xoshiro256pp rng = trial_stream(spec_.base_seed, index);
          const std::uint64_t seed = rng();
          const SweepTrial ctx{spec_.cells[c], c, t, index, seed, rng};
          result.cells[c].trials[t] = fn(ctx);
          control[c].executed.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          errored.store(true, std::memory_order_release);
        }
      }
      if (control[c].outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        wave_complete(c);
      }
    };
  };

  auto submit_wave = [&](std::size_t c, std::size_t from, std::size_t to) {
    CellControl& cc = control[c];
    cc.outstanding.store(to - from, std::memory_order_relaxed);
    cc.scheduled = to;
    for (std::size_t t = from; t < to; ++t) {
      scheduler.submit(trial_task(c, t));
    }
  };

  wave_complete = [&](std::size_t c) {
    CellControl& cc = control[c];
    SweepCellResult& cr = result.cells[c];
    // Holes (trials skipped or lost after an error) mean this cell has
    // incomplete data: leave it undelivered — the job rethrows anyway.
    if (cc.executed.load(std::memory_order_relaxed) != cc.scheduled) return;
    if (!stopping.adaptive) {
      finish_cell(c);
      return;
    }
    // Fold the newly completed prefix into the streaming CI in trial-index
    // order. The stopping decision therefore depends only on (base_seed,
    // cell, wave sizes) — never on which worker finished first.
    for (std::size_t t = cc.consumed; t < cc.scheduled; ++t) {
      for (const auto& [name_, value] : cr.trials[t]) {
        if (name_ == stopping.metric) {
          cc.ci->add(value);
          break;
        }
      }
    }
    cc.consumed = cc.scheduled;
    const bool metric_unobserved = cc.ci->count() == 0;
    if (cc.scheduled >= cap || metric_unobserved ||
        cc.ci->within_relative_error(stopping.rel_err)) {
      finish_cell(c);
      return;
    }
    // After an error, open no further wave and deliver nothing: a prefix
    // cut short by another cell's failure is not the cell's stopping
    // decision (a cache would otherwise store it).
    if (stop_requested()) return;
    submit_wave(c, cc.scheduled, std::min(cap, cc.scheduled * 2));
  };

  for (std::size_t c = 0; c < num_cells; ++c) {
    if (skipped(c)) continue;  // no tasks, no waves, no callback
    if (stopping.adaptive) {
      control[c].ci = std::make_unique<StreamingCi>(stopping.confidence);
    }
    control[c].outstanding.store(first_wave, std::memory_order_relaxed);
    control[c].scheduled = first_wave;
  }
  // Interleave the initial submission by trial index across cells (trial 0
  // of every cell, then trial 1, ...): expensive cells start on the first
  // scheduling round instead of queueing behind every earlier cell's full
  // trial range — the convoy a cell-major submission order suffers.
  for (std::size_t t = 0; t < first_wave; ++t) {
    for (std::size_t c = 0; c < num_cells; ++c) {
      if (!skipped(c)) scheduler.submit(trial_task(c, t));
    }
  }
  scheduler.wait_idle();
  result.scheduler_stats = scheduler.stats();
  if (first_error) std::rethrow_exception(first_error);

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.wall_seconds = elapsed.count();
  return result;
}

SweepMetrics consensus_metrics(const TrialResult& r) {
  return {
      {"stabilized", r.stabilized ? 1.0 : 0.0},
      {"parallel_time", r.parallel_time},
      {"interactions", static_cast<double>(r.interactions)},
      {"clamped", static_cast<double>(r.clamped)},
      {"effective_interactions", static_cast<double>(r.interactions - r.clamped)},
      {"winner", r.winner.has_value() ? static_cast<double>(*r.winner) : -1.0},
      {"majority_win", r.winner.has_value() && *r.winner == 0 ? 1.0 : 0.0},
  };
}

void SweepCliOptions::configure(SweepSpec& spec) const {
  spec.trials = trials;
  spec.base_seed = seed;
  spec.threads = threads;
  spec.stopping = stopping;
}

SweepCliOptions read_sweep_flags(Cli& cli, std::size_t default_trials,
                                 std::uint64_t default_seed,
                                 const std::string& default_json) {
  SweepCliOptions opts;
  const std::string trials_flag =
      cli.get_string("trials", std::to_string(default_trials));
  // Signed until checked: a negative count must not wrap to a huge size_t.
  const std::int64_t min_trials = cli.get_int("min-trials", 8);
  const std::int64_t max_trials = cli.get_int("max-trials", 512);
  if (trials_flag == "auto" || trials_flag.rfind("auto:", 0) == 0) {
    opts.stopping.adaptive = true;
    if (trials_flag.size() > 4) {
      const std::string rel = trials_flag.substr(5);
      std::size_t consumed = 0;
      double rel_err = 0.0;
      try {
        rel_err = std::stod(rel, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      PPSIM_CHECK(!rel.empty() && consumed == rel.size(),
                  "--trials auto:REL needs a numeric REL, got '" + rel + "'");
      opts.stopping.rel_err = rel_err;
    }
    PPSIM_CHECK(opts.stopping.rel_err > 0.0, "--trials auto rel_err must be > 0");
    PPSIM_CHECK(min_trials >= 2, "--min-trials must be at least 2, got " +
                                     std::to_string(min_trials));
    PPSIM_CHECK(max_trials >= min_trials,
                "--max-trials must be >= --min-trials, got " +
                    std::to_string(max_trials));
    opts.stopping.min_trials = static_cast<std::size_t>(min_trials);
    opts.trials = static_cast<std::size_t>(max_trials);  // the per-cell cap
  } else {
    std::size_t consumed = 0;
    long long fixed = 0;
    try {
      fixed = std::stoll(trials_flag, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    PPSIM_CHECK(!trials_flag.empty() && consumed == trials_flag.size() &&
                    fixed > 0,
                "--trials must be a positive count or auto[:rel_err], got '" +
                    trials_flag + "'");
    opts.trials = static_cast<std::size_t>(fixed);
  }
  opts.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(default_seed)));
  const std::int64_t threads = cli.get_int("threads", 0);
  PPSIM_CHECK(threads >= 0 && threads <= std::numeric_limits<unsigned>::max(),
              "--threads must be a non-negative thread count (0 = all "
              "hardware threads), got " + std::to_string(threads));
  opts.threads = static_cast<unsigned>(threads);
  opts.json = cli.get_string("json", default_json);
  return opts;
}

}  // namespace ppsim
