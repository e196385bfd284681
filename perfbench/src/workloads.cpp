// The three workloads. Every one is a sweep job: a SweepSpec, a trial
// function and a disk-backed cell cache, run in passes. A pass is
//
//   cold:  SweepRunner::run_job over fresh cache keys (all misses), each
//          completed cell inserted into the cache, then SweepResult::to_json;
//   warm:  a new CellCache over the same directory, every cell looked up
//          (all disk hits), run_job with the skip mask set for every cell,
//          hits replayed through aggregate_sweep_cell, then to_json —
//          repeated kWarmRepeats times.
//
// Pass p draws from base seed mix(--seed, p), so the same --seed gives the
// same trials. Untraced runs repeat passes until --seconds is used up and
// report medians over passes and trials; traced runs make a fixed number of
// passes twice, untraced and traced with the same base seeds, so counts
// repeat exactly for a seed and the difference in wall time is the tracing
// overhead.
//
// Workloads (the README gives the full rationale):
//   collapsed_1e9_k27   paper regime, scalar kernel, 1 worker: kernel-bound;
//   sequential_1e6_k27  exact engine: per-interaction cost, no rounds;
//   sweep_grid          24 collapsed cells on every core, trial 0 of each
//                       cell archived: scheduler, cache and .pptraj I/O.
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ppsim/analysis/initial.hpp"
#include "ppsim/cache/cell_cache.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/runner.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/io/trajectory.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace ppsim;

constexpr double kTauEpsilon = 0.05;
/// Budget in parallel time; every workload stabilizes an order of magnitude
/// sooner, so hitting it is a failure, not a long trial.
constexpr Interactions kBudgetParallelTime = 1000;
constexpr std::size_t kWarmRepeats = 20;
constexpr std::size_t kSetupProbes = 101;
constexpr std::size_t kMinPasses = 3;
/// Rounds of the first traced trial that get their own spans (the rest are
/// summed into the trial's layer shares).
constexpr std::uint64_t kDetailedRounds = 4000;

unsigned host_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct WorkloadDef {
  std::string name;
  std::vector<std::pair<Count, std::size_t>> grid;  ///< (n, k), cell order
  EngineKind engine = EngineKind::kCollapsed;
  kernels::KernelKind kernel = kernels::KernelKind::kScalar;
  std::size_t trials = 1;  ///< per cell per pass
  unsigned workers = 1;
  bool archive_trial0 = false;
  std::size_t trace_passes = 1;
};

WorkloadDef make_def(const std::string& name) {
  WorkloadDef d;
  d.name = name;
  if (name == "collapsed_1e9_k27") {
    d.grid = {{1'000'000'000, 27}};
    d.engine = EngineKind::kCollapsed;
    d.kernel = kernels::KernelKind::kScalar;
    d.trials = 4;
    d.workers = 1;
    d.trace_passes = 3;
  } else if (name == "sequential_1e6_k27") {
    // A trial takes ~5 s, so one worker would fit ~6 trials in a run: too
    // few for a tail percentile (it needs 11). Trials run one per core
    // instead, each still single-threaded.
    d.grid = {{1'000'000, 27}};
    d.engine = EngineKind::kSequential;
    d.workers = host_workers();
    d.trials = d.workers;
    d.trace_passes = 2;
  } else if (name == "sweep_grid") {
    for (const Count n : {Count{10'000}, Count{100'000}, Count{1'000'000},
                          Count{10'000'000}}) {
      for (const std::size_t k : {2, 3, 5, 9, 17, 27}) d.grid.emplace_back(n, k);
    }
    d.engine = EngineKind::kCollapsed;
    d.kernel = kernels::auto_kind();
    d.trials = 8;
    d.workers = host_workers();
    d.archive_trial0 = true;
    d.trace_passes = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return d;
}

struct CellInput {
  std::unique_ptr<UndecidedStateDynamics> protocol;
  std::unique_ptr<Configuration> initial;
  Count bias = 0;
};

std::vector<CellInput> build_inputs(const WorkloadDef& d) {
  std::vector<CellInput> inputs;
  for (const auto& [n, k] : d.grid) {
    const InitialConfig init = figure1_configuration(n, k);
    CellInput in;
    in.protocol = std::make_unique<UndecidedStateDynamics>(k);
    in.initial = std::make_unique<Configuration>(
        UndecidedStateDynamics::initial_configuration(init.opinion_counts));
    in.bias = init.bias;
    inputs.push_back(std::move(in));
  }
  return inputs;
}

SweepSpec make_spec(const WorkloadDef& d, const std::vector<CellInput>& inputs,
                    std::uint64_t base_seed) {
  SweepSpec spec;
  spec.name = "perfbench_" + d.name;
  spec.trials = d.trials;
  spec.base_seed = base_seed;
  spec.threads = d.workers;
  spec.kernel = d.kernel;
  for (std::size_t c = 0; c < d.grid.size(); ++c) {
    SweepCell cell;
    cell.n = d.grid[c].first;
    cell.k = d.grid[c].second;
    cell.bias = static_cast<double>(inputs[c].bias);
    cell.engine = d.engine;
    cell.protocol = "usd";
    cell.tau_epsilon = kTauEpsilon;
    cell.kernel = d.kernel;
    spec.cells.push_back(cell);
  }
  return spec;
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  SplitMix64 sm(seed * 0x9E3779B97F4A7C15ull + pass);
  return sm.next();
}

/// What the benchmark learns about one trial, written only by that trial's
/// task (one slot per stream index), read after run_job returns.
struct TrialRecord {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  Interactions interactions = 0;
  Interactions effective = 0;
  double parallel_time = 0.0;
  bool ok = false;
  bool majority = false;
  bool archived = false;
  bool archive_ok = true;
  std::uint64_t archive_bytes = 0;
  // Traced collapsed trials only.
  std::uint64_t rounds = 0;
  std::uint64_t exact_rounds = 0;
  double tau_sum = 0.0;
  std::int64_t stable_ns = 0;
  std::int64_t stage_ns = 0;
  std::int64_t advance_ns = 0;
  std::int64_t commit_ns = 0;

  double wall_s() const { return seconds_between(begin_ns, end_ns); }
};

/// Counts what the recorder hands to the archive, so the read-back can be
/// compared with what was written.
class CountingSink final : public RecordSink {
 public:
  void sample(Interactions, double, const std::vector<double>&) override {
    ++samples;
  }
  void checkpoint(const EngineCheckpoint&) override { ++checkpoints; }
  void finish(const RecordFinish& fin) override {
    end_interactions = fin.interactions;
  }
  std::size_t samples = 0;
  std::size_t checkpoints = 0;
  Interactions end_interactions = -1;
};

/// Agents summed over the states, independent of Configuration's own
/// population counter.
Count total_agents(const Configuration& config) {
  Count total = 0;
  for (const Count c : config.counts()) total += c;
  return total;
}

void truncate_half(const fs::path& path) {
  fs::resize_file(path, fs::file_size(path) / 2);
}

struct PassResult {
  std::vector<TrialRecord> trials;
  std::int64_t run_job_begin_ns = 0;
  double cold_s = 0.0;
  double run_job_s = 0.0;
  double to_json_s = 0.0;
  double aggregate_s = 0.0;
  std::vector<double> warm_s;
  TaskScheduler::Stats scheduler;
  unsigned threads = 1;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t failed_checks = 0;  ///< warm pass mismatches / misses
  std::uint64_t checks = 0;
  std::string cold_json;
};

class Harness {
 public:
  Harness(const RunOptions& opts, Tracer& tracer)
      : opts_(opts),
        def_(make_def(opts.workload)),
        tracer_(tracer),
        off_(false),
        cache_root_((fs::path(opts.work_dir) / "cache").string()),
        archive_dir_((fs::path(opts.work_dir) / "archives").string()) {}

  const WorkloadDef& def() const { return def_; }

  /// Set-up as a cold process pays it: inputs, transition table, kernel
  /// resolution, runner and scheduler spawn, cache open and lookups, timed
  /// to the moment the first trial is dispatched. The probe's trial function
  /// returns at once.
  double setup_probe(std::size_t probe) {
    cache_dir_ = (fs::path(cache_root_) / "probe").string();
    const std::int64_t begin = now_ns();
    std::vector<CellInput> inputs = build_inputs(def_);
    const TransitionTable table(*inputs.front().protocol);
    (void)table;
    (void)kernels::resolve(def_.kernel);
    const SweepRunner runner(make_spec(def_, inputs, pass_seed(~opts_.seed, probe)));
    cache::CellCache cache({.memory_capacity = 256, .disk_dir = cache_dir_});
    SweepJobOptions job;
    job.skip.assign(runner.spec().cells.size(), false);
    for (std::size_t c = 0; c < runner.spec().cells.size(); ++c) {
      job.skip[c] = cache.lookup(cache::canonical_cell_key(runner.spec(), c,
                                                           fn_id())).has_value();
    }
    std::atomic<std::int64_t> first{0};
    runner.run_job(
        [&](const SweepTrial&) {
          std::int64_t expected = 0;
          first.compare_exchange_strong(expected, now_ns());
          return SweepMetrics{};
        },
        job);
    return seconds_between(begin, first.load());
  }

  void prepare() {
    if (def_.archive_trial0) fs::create_directories(archive_dir_);
    inputs_ = build_inputs(def_);
  }

  PassResult run_pass(std::size_t pass, bool traced) {
    Tracer& tr = traced ? tracer_ : off_;
    cache_dir_ = (fs::path(cache_root_) / (traced ? "traced" : "plain")).string();
    fs::create_directories(cache_dir_);
    PassResult out;
    const std::int64_t begin = now_ns();
    Scope pass_span(tr, "pass.cold");
    const SweepRunner runner(make_spec(def_, inputs_, pass_seed(opts_.seed, pass)));
    const SweepSpec& spec = runner.spec();
    const std::size_t cells = spec.cells.size();
    out.trials.assign(cells * spec.trials, TrialRecord{});
    out.threads = SweepRunner::resolved_threads(spec);

    cache::CellCache cache({.memory_capacity = 256, .disk_dir = cache_dir_});
    std::vector<std::string> keys(cells);
    SweepJobOptions job;
    job.skip.assign(cells, false);
    {
      Scope s(tr, "cache.lookup", pass_span.id());
      for (std::size_t c = 0; c < cells; ++c) {
        keys[c] = cache::canonical_cell_key(spec, c, fn_id());
        ++out.lookups;
        if (cache.lookup(keys[c]).has_value()) {
          // A fresh work directory has no records: a hit here is stale data.
          ++out.hits;
          ++out.failed_checks;
        }
        ++out.checks;
      }
    }
    job.on_cell = [&](const SweepCellResult& cr) {
      Scope s(tr, "cache.insert", pass_span.id());
      cache.insert(keys[cr.cell_index],
                   {cr.trials_requested, cr.trials_run, cr.trials});
    };
    const std::uint64_t parent = pass_span.id();
    const SweepTrialFn fn = [&, parent, pass](const SweepTrial& ctx) {
      return run_trial(ctx, out.trials[ctx.stream_index], tr, parent, pass,
                       traced);
    };

    const std::int64_t job_begin = now_ns();
    SweepResult result;
    {
      Scope s(tr, "sweep.run_job", pass_span.id());
      result = runner.run_job(fn, job);
    }
    const std::int64_t json_begin = now_ns();
    {
      Scope s(tr, "sweep.to_json", pass_span.id());
      out.cold_json = result.to_json();
    }
    const std::int64_t end = now_ns();
    out.run_job_begin_ns = job_begin;
    out.cold_s = seconds_between(begin, end);
    out.run_job_s = seconds_between(job_begin, json_begin);
    out.to_json_s = seconds_between(json_begin, end);
    out.scheduler = result.scheduler_stats;

    // Aggregation cost, timed on copies of the finished cells.
    {
      Scope s(tr, "sweep.aggregate", pass_span.id());
      std::vector<SweepCellResult> copies = result.cells;
      const std::int64_t t0 = now_ns();
      for (SweepCellResult& cr : copies) aggregate_sweep_cell(cr);
      out.aggregate_s = seconds_between(t0, now_ns());
    }

    if (opts_.break_input && pass == 0) break_cache_record();
    for (std::size_t w = 0; w < kWarmRepeats; ++w) {
      out.warm_s.push_back(warm_pass(runner, fn, keys, out, tr));
    }
    return out;
  }

 private:
  std::string fn_id() const {
    return "perfbench/" + def_.name + "/v1;budget=" +
           std::to_string(kBudgetParallelTime);
  }

  void break_cache_record() {
    for (const auto& entry : fs::directory_iterator(cache_dir_)) {
      if (entry.is_regular_file()) {
        truncate_half(entry.path());
        return;
      }
    }
  }

  double warm_pass(const SweepRunner& runner, const SweepTrialFn& fn,
                   const std::vector<std::string>& keys, PassResult& out,
                   Tracer& tr) {
    const std::int64_t begin = now_ns();
    Scope span(tr, "pass.warm");
    const std::size_t cells = runner.spec().cells.size();
    cache::CellCache cache({.memory_capacity = 256, .disk_dir = cache_dir_});
    std::vector<std::optional<cache::CachedCellData>> hits(cells);
    // Every cell is skipped: a miss (a broken record) leaves its cell empty,
    // which the byte comparison below then reports.
    SweepJobOptions job;
    job.skip.assign(cells, true);
    bool all_hit = true;
    {
      Scope s(tr, "cache.lookup", span.id());
      for (std::size_t c = 0; c < cells; ++c) {
        hits[c] = cache.lookup(keys[c]);
        ++out.lookups;
        if (hits[c].has_value()) {
          ++out.hits;
        } else {
          all_hit = false;
        }
      }
    }
    SweepResult result;
    {
      Scope s(tr, "sweep.run_job", span.id());
      result = runner.run_job(fn, job);
    }
    {
      Scope s(tr, "sweep.replay", span.id());
      for (std::size_t c = 0; c < cells; ++c) {
        if (!hits[c].has_value()) continue;
        SweepCellResult& cr = result.cells[c];
        cr.cell = runner.spec().cells[c];
        cr.cell_index = c;
        cr.trials_requested = hits[c]->trials_requested;
        cr.trials_run = hits[c]->trials_run;
        cr.trials = std::move(hits[c]->trials);
        aggregate_sweep_cell(cr);
      }
    }
    std::string json;
    {
      Scope s(tr, "sweep.to_json", span.id());
      json = result.to_json();
    }
    const double wall = seconds_between(begin, now_ns());
    ++out.checks;
    if (!all_hit || json != out.cold_json) ++out.failed_checks;
    return wall;
  }

  SweepMetrics run_trial(const SweepTrial& ctx, TrialRecord& rec, Tracer& tr,
                         std::uint64_t parent, std::size_t pass, bool traced) {
    const CellInput& in = inputs_[ctx.cell_index];
    const Count n = ctx.cell.n;
    const Interactions budget = sat_mul(kBudgetParallelTime, n);
    rec.tid = thread_index();
    rec.begin_ns = now_ns();
    Scope span(tr, "trial", parent);
    TrialResult r;
    Count population = 0;
    if (def_.archive_trial0 && ctx.trial == 0) {
      r = archived_trial(ctx, in, budget, rec, tr, span.id(), pass, population);
    } else if (traced && ctx.cell.engine == EngineKind::kCollapsed) {
      // Per-round spans for one trial of the largest cell.
      const bool detailed = pass == 0 && ctx.trial == 1 &&
                            ctx.cell_index + 1 == def_.grid.size();
      r = staged_trial(ctx, in, budget, rec, tr, span.id(), detailed, population);
    } else if (traced) {
      // Exact engine: run_until_stable in chunks of one parallel-time unit
      // makes the same draws and stability checks as one call.
      Engine engine = ctx.make_engine(*in.protocol, *in.initial);
      RunOutcome o;
      for (Interactions target = n;; target = sat_add(target, n)) {
        Scope chunk(tr, "sequential.time_unit", span.id());
        o = engine.run_until_stable(std::min(target, budget));
        if (o.stabilized || target >= budget) break;
      }
      r.stabilized = o.stabilized;
      r.interactions = o.interactions;
      r.clamped = o.clamped;
      r.parallel_time = engine.parallel_time();
      r.winner = o.consensus;
      population = total_agents(engine.configuration());
    } else {
      Engine engine = ctx.make_engine(*in.protocol, *in.initial);
      r = run_engine_trial(engine, budget);
      population = total_agents(engine.configuration());
    }
    rec.end_ns = now_ns();
    rec.interactions = r.interactions;
    rec.effective = r.interactions - r.clamped;
    rec.parallel_time = r.parallel_time;
    rec.majority = r.winner.has_value() && *r.winner == 0;
    rec.ok = r.stabilized && r.winner.has_value() && population == n &&
             r.interactions <= budget;
    return consensus_metrics(r);
  }

  /// The loop run_until_stable makes — is_stable, stage_round, kernel
  /// advance, commit_round — driven through the public staging API so each
  /// step can be timed. Same draws as the untraced trial.
  TrialResult staged_trial(const SweepTrial& ctx, const CellInput& in,
                           Interactions budget, TrialRecord& rec, Tracer& tr,
                           std::uint64_t parent, bool detailed,
                           Count& population) {
    CollapsedSimulator sim(*in.protocol, *in.initial, ctx.rng(),
                           {.tau_epsilon = ctx.cell.tau_epsilon,
                            .kernel = ctx.cell.kernel.value_or(def_.kernel)});
    const kernels::RoundKernel& kernel = sim.kernel();
    while (sim.interactions() < budget) {
      const std::int64_t t0 = now_ns();
      const bool stable = sim.is_stable();
      const std::int64_t t1 = now_ns();
      rec.stable_ns += t1 - t0;
      if (stable) break;
      kernels::RoundTask task;
      const bool staged = sim.stage_round(budget - sim.interactions(), task);
      const std::int64_t t2 = now_ns();
      rec.stage_ns += t2 - t1;
      std::int64_t t3 = t2;
      std::int64_t t4 = t2;
      if (staged) {
        kernel.advance(task);
        t3 = now_ns();
        sim.commit_round(task);
        t4 = now_ns();
        rec.advance_ns += t3 - t2;
        rec.commit_ns += t4 - t3;
      }
      ++rec.rounds;
      rec.tau_sum += static_cast<double>(sim.last_round_size());
      if (sim.last_round_size() == 1) ++rec.exact_rounds;
      if (detailed && tr.enabled() && rec.rounds <= kDetailedRounds) {
        tr.record("collapsed.is_stable", tr.next_id(), parent, t0, t1);
        tr.record("collapsed.stage_round", tr.next_id(), parent, t1, t2);
        if (staged) {
          tr.record("kernel.advance", tr.next_id(), parent, t2, t3);
          tr.record("collapsed.commit_round", tr.next_id(), parent, t3, t4);
        }
      }
    }
    TrialResult r;
    r.stabilized = sim.is_stable();
    r.interactions = sim.interactions();
    r.clamped = sim.clamped_interactions();
    r.parallel_time = sim.parallel_time();
    r.winner = sim.consensus_output();
    population = total_agents(sim.configuration());
    return r;
  }

  /// Trial 0 of a cell, streamed to a .pptraj archive with checkpoints
  /// (as bench_scaling_lower_bound --record-to does) and read back.
  TrialResult archived_trial(const SweepTrial& ctx, const CellInput& in,
                             Interactions budget, TrialRecord& rec, Tracer& tr,
                             std::uint64_t parent, std::size_t pass,
                             Count& population) {
    const Count n = ctx.cell.n;
    const std::string path =
        (fs::path(archive_dir_) / ("cell" + std::to_string(ctx.cell_index) +
                                   "_t" + std::to_string(ctx.stream_index) +
                                   ".pptraj"))
            .string();
    Engine engine = ctx.make_engine(*in.protocol, *in.initial);
    io::ArchiveRunSpec rs;
    rs.engine = ctx.cell.engine;
    rs.protocol_name = "usd";
    rs.seed = ctx.stream_index;
    rs.k = static_cast<Count>(ctx.cell.k);
    rs.max_interactions = budget;
    rs.record_stride = std::max<Interactions>(1, n / 10);
    rs.checkpoint_every = n;
    rs.tau_epsilon = ctx.cell.tau_epsilon;
    CountingSink written;
    TrialResult r;
    {
      Scope s(tr, "pptraj.record", parent);
      io::ArchiveRecorder archive(rs, n, in.protocol->num_states(),
                                  io::usd_archive_channels(ctx.cell.k), path);
      archive.recorder().add_sink(written);
      archive.recorder().sample(engine.configuration(), 0);
      r = run_engine_trial(engine, budget, &archive.recorder());
    }
    population = total_agents(engine.configuration());
    if (opts_.break_input && pass == 0 && ctx.cell_index == 0) {
      truncate_half(path);
    }
    rec.archived = true;
    rec.archive_bytes = fs::file_size(path);
    Scope s(tr, "pptraj.read", parent);
    try {
      const io::TrajectoryReader reader(path);
      std::size_t decoded = 0;
      for (std::size_t b = 0; b < reader.num_blocks(); ++b) {
        decoded += reader.decode_block(b).interactions.size();
      }
      rec.archive_ok = reader.finished() && !reader.torn_tail() &&
                       reader.total_samples() == written.samples &&
                       decoded == written.samples &&
                       reader.checkpoints().size() == written.checkpoints &&
                       reader.end()->interactions == written.end_interactions &&
                       written.end_interactions == r.interactions;
    } catch (const std::exception&) {
      rec.archive_ok = false;
    }
    fs::remove(path);
    return r;
  }

  const RunOptions& opts_;
  WorkloadDef def_;
  Tracer& tracer_;
  Tracer off_;
  std::string cache_root_;
  std::string cache_dir_;  ///< per run_pass mode, so modes never share keys
  std::string archive_dir_;
  std::vector<CellInput> inputs_;
};

/// Highest percentile with at least ten trials beyond it: the 11th-largest
/// value. Returns (value, percentile); the maximum (p100) below 11 trials.
std::pair<double, int> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 11) return {v.empty() ? 0.0 : v.back(), 100};
  const std::size_t j = v.size() - 11;
  return {v[j], static_cast<int>(100 * (j + 1) / v.size())};
}

std::string iqr_note(const std::vector<double>& v, const char* what) {
  std::ostringstream os;
  os << "median of " << v.size() << " " << what << ", IQR ["
     << json_number(quantile(v, 0.25)) << ", " << json_number(quantile(v, 0.75))
     << "]";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Totals {
  std::vector<double> trial_s;
  double parallel_time_sum = 0.0;
  double effective_sum = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t majority = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
};

void tally(const std::vector<PassResult>& passes, Totals& t) {
  for (const PassResult& p : passes) {
    t.attempted += p.checks;
    t.failed += p.failed_checks;
    for (const TrialRecord& r : p.trials) {
      t.trial_s.push_back(r.wall_s());
      t.parallel_time_sum += r.parallel_time;
      t.effective_sum += static_cast<double>(r.effective);
      ++t.trials;
      t.majority += r.majority ? 1 : 0;
      ++t.attempted;
      t.failed += r.ok ? 0 : 1;
      if (r.archived) {
        ++t.attempted;
        t.failed += r.archive_ok ? 0 : 1;
      }
    }
  }
}

void science(const Totals& t, const std::string& extra, Report& report) {
  const auto trials = static_cast<double>(t.trials);
  std::ostringstream os;
  os << "science: trials " << t.trials << ", mean parallel time "
     << json_number(t.parallel_time_sum / trials)
     << ", effective interactions per trial "
     << json_number(t.effective_sum / trials)
     << ", majority-win rate "
     << json_number(static_cast<double>(t.majority) /
                    static_cast<double>(t.trials))
     << extra;
  report.info(os.str());
}

std::string failed_line(const Totals& t) {
  return "failed_frac " +
         json_number(static_cast<double>(t.failed) /
                     static_cast<double>(t.attempted)) +
         " (" + std::to_string(t.failed) + " of " +
         std::to_string(t.attempted) + " checked operations)";
}

Outcome run_untraced(const RunOptions& opts, Harness& h, Report& report) {
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupProbes; ++i) setup.push_back(h.setup_probe(i));
  h.prepare();

  std::vector<PassResult> passes;
  const std::int64_t begin = now_ns();
  std::vector<double> pass_s;
  for (std::size_t p = 0;; ++p) {
    const double elapsed = seconds_between(begin, now_ns());
    if (p >= kMinPasses && elapsed + median(pass_s) > opts.seconds) break;
    const std::int64_t t0 = now_ns();
    passes.push_back(h.run_pass(p, false));
    pass_s.push_back(seconds_between(t0, now_ns()));
  }

  std::vector<double> cold, warm;
  double cold_total = 0.0;
  for (const PassResult& p : passes) {
    cold.push_back(p.cold_s);
    cold_total += p.cold_s;
    warm.insert(warm.end(), p.warm_s.begin(), p.warm_s.end());
  }
  Totals t;
  tally(passes, t);
  const auto [tail_s, tail_pct] = tail(t.trial_s);
  science(t, "", report);

  report.add("setup_s", median(setup), "s", "lower",
             iqr_note(setup, "set-up probes") + "; first probe " +
                 json_number(setup.front()));
  report.add("wall_s", median(cold), "s", "lower", iqr_note(cold, "cold passes"));
  report.add("interactions_per_s", t.effective_sum / cold_total, "1/s", "higher",
             "effective interactions over the wall time of " +
                 std::to_string(passes.size()) + " cold passes");
  report.add("trial_s_p50", median(t.trial_s), "s", "lower",
             iqr_note(t.trial_s, "trials"));
  report.add("trial_s_tail", tail_s, "s", "lower",
             "p" + std::to_string(tail_pct) + " of " +
                 std::to_string(t.trial_s.size()) + " trials");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "lower", "getrusage ru_maxrss");
  // Printed, not gated: a warm pass is tens of microseconds of syscalls, and
  // its run-to-run spread on a shared host exceeds any allowed bound.
  report.info("warm_rerun_s " + json_number(median(warm)) +
              " s (lower is better, not in the result line) -- " +
              iqr_note(warm, "warm passes"));
  report.info(failed_line(t));
  return {t.attempted, t.failed};
}

Outcome run_traced(Harness& h, Tracer& tracer, Report& report) {
  h.prepare();
  const std::size_t passes = h.def().trace_passes;
  // Untraced and traced copies of each pass alternate, and alternate which
  // runs first, so drift in host speed does not land on one side.
  std::vector<PassResult> plain(passes), traced(passes);
  for (std::size_t p = 0; p < passes; ++p) {
    const bool traced_first = p % 2 == 1;
    if (traced_first) traced[p] = h.run_pass(p, true);
    plain[p] = h.run_pass(p, false);
    if (!traced_first) traced[p] = h.run_pass(p, true);
  }

  Totals t;
  tally(traced, t);
  // Traced trials must make exactly the draws of the untraced ones.
  std::uint64_t mismatched = 0;
  std::uint64_t compared = 0;
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < plain[p].trials.size(); ++i) {
      ++compared;
      if (plain[p].trials[i].interactions != traced[p].trials[i].interactions) {
        ++mismatched;
      }
    }
    ++compared;
    if (plain[p].cold_json != traced[p].cold_json) ++mismatched;
  }
  t.attempted += compared;
  t.failed += mismatched;

  std::uint64_t rounds = 0, exact = 0, collapsed_trials = 0, tasks = 0,
                steals = 0, stolen = 0, bytes = 0, lookups = 0, hits = 0;
  double tau_sum = 0.0, busy = 0.0, capacity = 0.0, record_s = 0.0;
  std::int64_t stable_ns = 0, stage_ns = 0, advance_ns = 0, commit_ns = 0;
  std::vector<double> gaps_us, aggregate_ms, to_json_ms, overhead_s, warm_us;
  for (std::size_t p = 0; p < passes; ++p) {
    overhead_s.push_back(traced[p].cold_s - plain[p].cold_s);
    for (const double w : plain[p].warm_s) warm_us.push_back(w * 1e6);
  }
  for (const PassResult& p : traced) {
    tasks += p.scheduler.executed;
    steals += p.scheduler.steals;
    stolen += p.scheduler.stolen_tasks;
    capacity += p.run_job_s * p.threads;
    lookups += p.lookups;
    hits += p.hits;
    aggregate_ms.push_back(p.aggregate_s * 1e3);
    to_json_ms.push_back(p.to_json_s * 1e3);
    std::vector<const TrialRecord*> by_start;
    for (const TrialRecord& r : p.trials) {
      busy += r.wall_s();
      by_start.push_back(&r);
      if (r.archived) {
        bytes += r.archive_bytes;
        record_s += r.wall_s();
      } else if (r.rounds > 0) {
        ++collapsed_trials;
        rounds += r.rounds;
        exact += r.exact_rounds;
        tau_sum += r.tau_sum;
        stable_ns += r.stable_ns;
        stage_ns += r.stage_ns;
        advance_ns += r.advance_ns;
        commit_ns += r.commit_ns;
      }
    }
    // Dispatch overhead: on each worker, the gap from run_job's start (for
    // its first trial) or from the previous trial's end to the trial's start.
    std::sort(by_start.begin(), by_start.end(),
              [](const TrialRecord* a, const TrialRecord* b) {
                return a->tid != b->tid ? a->tid < b->tid
                                        : a->begin_ns < b->begin_ns;
              });
    for (std::size_t i = 0; i < by_start.size(); ++i) {
      const bool first = i == 0 || by_start[i]->tid != by_start[i - 1]->tid;
      const std::int64_t from =
          first ? p.run_job_begin_ns : by_start[i - 1]->end_ns;
      gaps_us.push_back(static_cast<double>(by_start[i]->begin_ns - from) * 1e-3);
    }
  }
  const double ct = std::max<double>(1.0, static_cast<double>(collapsed_trials));
  const double trial_ns = busy * 1e9;
  const auto share = [&](std::int64_t ns) {
    return trial_ns > 0 ? static_cast<double>(ns) / trial_ns : 0.0;
  };
  const double pass_count = static_cast<double>(passes);

  science(t,
          collapsed_trials > 0
              ? ", rounds per collapsed trial " +
                    json_number(static_cast<double>(rounds) / ct)
              : std::string(),
          report);

  report.add("collapsed.rounds", static_cast<double>(rounds) / ct, "count", "",
             "mean rounds per traced collapsed trial (" +
                 std::to_string(collapsed_trials) + " trials)");
  report.add("collapsed.exact_rounds", static_cast<double>(exact) / ct, "count",
             "", "single-draw rounds per trial");
  report.add("collapsed.tau_mean",
             rounds > 0 ? tau_sum / static_cast<double>(rounds) : 0.0,
             "interactions", "", "mean round length");
  report.add("collapsed.stage_share", share(stage_ns), "ratio", "",
             "of traced trial time");
  report.add("collapsed.advance_share", share(advance_ns), "ratio", "",
             "of traced trial time");
  report.add("collapsed.commit_share", share(commit_ns), "ratio", "",
             "of traced trial time");
  report.add("collapsed.is_stable_share", share(stable_ns), "ratio", "",
             "of traced trial time");
  report.add("scheduler.tasks", static_cast<double>(tasks) / pass_count,
             "count", "", "per pass");
  report.add("scheduler.steals", static_cast<double>(steals) / pass_count,
             "count", "", "per pass");
  report.add("scheduler.stolen_tasks", static_cast<double>(stolen) / pass_count,
             "count", "", "per pass");
  report.add("scheduler.idle_share",
             capacity > 0 ? std::max(0.0, 1.0 - busy / capacity) : 0.0, "ratio",
             "lower", "1 - trial time / (workers x run_job wall)");
  report.add("scheduler.task_overhead_us", median(gaps_us), "us", "lower",
             iqr_note(gaps_us, "dispatch gaps"));
  report.add("sweep.aggregate_ms", median(aggregate_ms), "ms", "lower",
             "aggregate_sweep_cell over every cell of a pass");
  report.add("sweep.to_json_ms", median(to_json_ms), "ms", "lower",
             "SweepResult::to_json of a cold pass");
  report.add("pptraj.bytes", static_cast<double>(bytes) / pass_count, "bytes",
             "", "archived per pass");
  report.add("pptraj.record_share", trial_ns > 0 ? record_s * 1e9 / trial_ns : 0.0,
             "ratio", "", "of trial time spent in archived trials");
  report.add("cache.warm_rerun_us", median(warm_us), "us", "lower",
             iqr_note(warm_us, "untraced warm passes"));
  report.add("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                         : 0.0,
             "ratio", "", "hits / lookups over cold and warm passes");
  report.add("trace.overhead_s", median(overhead_s), "s", "lower",
             "traced minus untraced cold-pass wall, " +
                 iqr_note(overhead_s, "pass pairs"));
  report.info("traced spans: " + std::to_string(tracer.size()));
  report.info(failed_line(t));
  return {t.attempted, t.failed};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "collapsed_1e9_k27", "sequential_1e6_k27", "sweep_grid"};
  return names;
}

Outcome run_workload(const RunOptions& opts, Tracer& tracer, Report& report) {
  Harness h(opts, tracer);
  report.info("workload " + opts.workload + ": " +
              std::to_string(h.def().grid.size()) + " cell(s) x " +
              std::to_string(h.def().trials) + " trial(s) per pass, " +
              std::to_string(h.def().workers) + " worker(s), kernel " +
              kernels::to_string(h.def().kernel));
  return opts.trace ? run_traced(h, tracer, report)
                    : run_untraced(opts, h, report);
}

}  // namespace perfbench
