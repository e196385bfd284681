// Universal command-line runner: run any protocol in the library on a
// configurable population without writing C++. It doubles as the library's
// scripting entry point:
//
//   ppsim_run --protocol usd --n 100000 --k 8 --bias auto --seed 7
//   ppsim_run --protocol four-state --n 10000 --bias 100 --trials 20
//   ppsim_run --protocol usd-gossip --n 50000 --k 4
//   ppsim_run --protocol usd --n 100000 --k 8 --series out.tsv
//   ppsim_run --protocol usd --n 10000000 --k 3 --engine batched
//   ppsim_run --protocol usd --n 1000000000 --k 32 --engine collapsed
//   ppsim_run --protocol usd --n 100000 --trials 64 --threads 8
//   ppsim_run --protocol usd --n 100000 --k 8 --trials 16 --cache-dir cache/
//
// Protocols: usd | usd-gossip | three-majority | four-state | averaging |
//            cancel-duplicate | leader-election | epidemic.
// --bias auto = sqrt(n ln n). --series FILE writes the USD time series.
// --engine auto | sequential | virtual | batched | collapsed selects the
// generic engine (auto keeps each protocol's tuned default; batched and
// collapsed trade τ-leaping round granularity for orders of magnitude in
// wall clock — collapsed is counts-space with adaptive rounds and reaches
// n = 10^9-10^11; see README.md and docs/ARCHITECTURE.md).
// Trials run on the SweepRunner: --threads N fans them out over N workers
// (0 = hardware) with deterministic per-trial RNG streams, so results are
// identical at any thread count; --json writes the unified sweep report.
// --cache-dir DIR serves the cell through the content-addressed cell cache
// (cache/cell_cache.hpp): a rerun with the same flags executes zero trials
// and writes byte-identical --json. It cannot be combined with --record-to,
// --resume-from or --series, whose side effects a cache hit would skip.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/cache/cell_cache.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/gossip.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/protocols/averaging_majority.hpp"
#include "ppsim/protocols/cancel_duplicate.hpp"
#include "ppsim/protocols/epidemic.hpp"
#include "ppsim/protocols/four_state_majority.hpp"
#include "ppsim/protocols/leader_election.hpp"
#include "ppsim/protocols/three_majority.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/protocols/usd_gossip.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/json.hpp"
#include "ppsim/util/table.hpp"

namespace {

using namespace ppsim;

void print_cell(const SweepCellResult& cr) {
  const std::size_t trials = cr.trials.size();
  const auto stabilized = static_cast<std::size_t>(
      cr.rate("stabilized") * static_cast<double>(trials) + 0.5);
  std::cout << "trials:       " << trials << "\n"
            << "stabilized:   " << stabilized << " ("
            << format_double(cr.rate("stabilized") * 100.0, 1) << "%)\n";
  if (cr.find("parallel_time") != nullptr && stabilized > 0) {
    // Stabilized trials only, matching the legacy TrialAggregate semantics
    // (budget-capped trials would report the budget, not a time).
    std::cout << "parallel time: mean "
              << format_double(cr.mean_where("parallel_time", "stabilized"), 2)
              << ", min "
              << format_double(cr.min_where("parallel_time", "stabilized"), 2)
              << ", max "
              << format_double(cr.max_where("parallel_time", "stabilized"), 2)
              << "\n";
  }
  std::map<Opinion, std::size_t> wins;
  std::size_t no_winner = 0;
  const std::vector<double> winners = cr.values("winner");
  const std::vector<double> stab = cr.values("stabilized");
  for (std::size_t t = 0; t < winners.size(); ++t) {
    if (winners[t] >= 0.0) {
      ++wins[static_cast<Opinion>(winners[t])];
    } else if (t < stab.size() && stab[t] != 0.0) {
      ++no_winner;
    }
  }
  for (const auto& [opinion, count] : wins) {
    std::cout << "opinion " << opinion << " won " << count << "\n";
  }
  if (no_winner > 0) {
    std::cout << "no consensus: " << no_winner << "\n";
  }
  const double clamped = cr.sum("clamped");
  if (clamped > 0) {
    std::cout << "clamped interactions (batched τ-leaping overdraw): "
              << static_cast<std::int64_t>(clamped) << " of "
              << static_cast<std::int64_t>(cr.sum("interactions"))
              << " attempted\n";
  }
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string protocol = cli.get_string("protocol", "usd");
  const Count n = cli.get_int("n", 100'000);
  const auto k = static_cast<std::size_t>(cli.get_int("k", 2));
  const std::string bias_flag = cli.get_string("bias", "auto");
  const double max_parallel = cli.get_double("max-parallel", 100000.0);
  const std::string series_path = cli.get_string("series", "");
  const std::string engine_flag = cli.get_string("engine", "auto");
  const Interactions record_stride = cli.get_int("record-stride", 0);
  const std::string resume_from = cli.get_string("resume-from", "");
  const std::string cache_dir = cli.get_string("cache-dir", "");
  const SweepCliOptions opts = read_sweep_flags(cli, 1, 1, "");
  cli.validate_no_unknown_flags();
  PPSIM_CHECK(cache_dir.empty() || (opts.record_to.empty() &&
                                    resume_from.empty() && series_path.empty()),
              "--cache-dir cannot be combined with --record-to/--resume-from/"
              "--series: a cache hit would skip their side effects");
  PPSIM_CHECK((opts.record_to.empty() && resume_from.empty()) || protocol == "usd",
              "--record-to/--resume-from are implemented for --protocol usd");
  PPSIM_CHECK(opts.record_to.empty() || resume_from.empty(),
              "--record-to and --resume-from are mutually exclusive");

  std::optional<EngineKind> engine_override;
  if (engine_flag != "auto") {
    engine_override = parse_engine(engine_flag);
    PPSIM_CHECK(engine_override.has_value(),
                "--engine must be auto | sequential | virtual | batched | collapsed");
  }

  const Count bias =
      bias_flag == "auto"
          ? static_cast<Count>(bounds::whp_bias(n))
          : static_cast<Count>(std::stoll(bias_flag));
  const auto budget = static_cast<Interactions>(max_parallel * static_cast<double>(n));
  const std::uint64_t seed = opts.seed;
  const std::size_t trials = opts.trials;

  std::cout << "protocol=" << protocol << " n=" << n << " k=" << k << " bias=" << bias
            << " seed=" << seed << " trials=" << trials << " threads="
            << opts.threads << "\n";

  // Runs a one-cell sweep over the shared flags (through the cell cache
  // under --cache-dir) and prints the aggregate. `stopping_metric` overrides
  // the --trials auto target for protocols whose trials report rounds
  // instead of parallel time.
  auto run_one_cell = [&](SweepCell cell, const SweepTrialFn& fn,
                          const std::string& stopping_metric = "") {
    SweepSpec spec;
    spec.name = "ppsim_run";
    spec.cells.push_back(std::move(cell));
    opts.configure(spec);
    if (!stopping_metric.empty()) spec.stopping.metric = stopping_metric;
    const SweepRunner runner(spec);
    SweepResult result;
    if (cache_dir.empty()) {
      result = runner.run(fn);
    } else {
      // Beyond what the canonical cell key holds (n, k, bias, engine kind,
      // kernel, seed, trial count), the trial closures capture only the
      // engine flag and the budget.
      const std::string fn_id = "ppsim_run/v1;engine=" + engine_flag +
                                ";max_parallel=" +
                                JsonObject::render_double(max_parallel);
      cache::CellCache cache({.disk_dir = cache_dir});
      result = cache::run_cached(runner, fn, fn_id, cache);
      std::cerr << "cell cache " << cache_dir << ": " << cache.stats().hits
                << " of " << result.cells.size() << " cells replayed\n";
    }
    result.write_json(opts.json);
    print_cell(result.cells[0]);
    return std::move(result.cells[0]);
  };

  auto base_cell = [&](EngineKind kind) {
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(bias);
    cell.protocol = protocol;
    cell.engine = kind;
    return cell;
  };

  if (protocol == "usd") {
    const InitialConfig init = adversarial_configuration(n, k, bias);
    const UndecidedStateDynamics usd(k);
    const Configuration initial =
        UndecidedStateDynamics::initial_configuration(init.opinion_counts);
    // --series reproduces sweep trial 0 (same derived seed, same engine);
    // --record-to runs on that seed too.
    const std::uint64_t series_seed =
        SweepRunner::trial_stream(seed, 0)();  // = trial 0's derived seed
    if (!opts.record_to.empty() || !resume_from.empty()) {
      // Archive mode: one recorded run streamed to a trajectory archive
      // (io/archive_run.hpp), resumable from its embedded checkpoints.
      // --engine auto maps to collapsed, the engine archives exist to make
      // resumable. Archive runs always use the scalar kernel (--kernel is
      // ignored here): resume replays the recorded draw sequence, and the
      // archive format does not record which kernel produced it, so the
      // deterministic baseline is the only backend that can honour a
      // recorded checkpoint.
      const io::ArchiveChannels channels = io::usd_archive_channels(k);
      if (!opts.record_to.empty()) {
        io::ArchiveRunSpec rspec;
        rspec.engine = engine_override.value_or(EngineKind::kCollapsed);
        rspec.protocol_name = "usd";
        rspec.seed = series_seed;
        rspec.k = static_cast<Count>(k);
        rspec.max_interactions = budget;
        rspec.record_stride = record_stride;
        rspec.checkpoint_every = opts.checkpoint_every;
        const RunOutcome out =
            io::record_run(usd, initial, channels, rspec, opts.record_to);
        std::cout << "archive written to " << opts.record_to
                  << " (stabilized=" << (out.stabilized ? 1 : 0)
                  << " t=" << format_double(
                                  static_cast<double>(out.interactions) /
                                      static_cast<double>(n), 2)
                  << ")\n";
      } else {
        const std::optional<RunOutcome> out =
            io::resume_run(usd, initial, channels, resume_from);
        if (!out.has_value()) {
          std::cout << "archive " << resume_from
                    << " is already finished; nothing to resume\n";
        } else {
          std::cout << "archive " << resume_from << " resumed to completion"
                    << " (stabilized=" << (out->stabilized ? 1 : 0)
                    << " t=" << format_double(
                                    static_cast<double>(out->interactions) /
                                        static_cast<double>(n), 2)
                    << ")\n";
        }
      }
      return 0;
    }
    const EngineKind kind = engine_override.value_or(EngineKind::kSequential);
    if (!series_path.empty()) {
      std::ofstream out(series_path);
      PPSIM_CHECK(out.good(), "cannot open series file " + series_path);
      // The archive channels, sampled every n/10 interactions; run_until
      // stops at stability or budget.
      Recorder rec(std::max<Interactions>(1, n / 10));
      const io::ArchiveChannels channels = io::usd_archive_channels(k);
      for (std::size_t c = 0; c < channels.names.size(); ++c) {
        rec.add_channel(channels.names[c], channels.projections[c]);
      }
      Engine engine(kind, usd, initial, series_seed, {.kernel = opts.kernel});
      engine.run_until(
          [&](const Configuration& c, Interactions i) {
            rec.maybe_sample(c, i);
            return false;  // sampling only; the engine stops at stability
          },
          budget);
      // Capture the end state unless the strided sampler just did.
      if (rec.series().parallel_time.empty() ||
          rec.series().parallel_time.back() != engine.parallel_time()) {
        rec.sample(engine.configuration(), engine.interactions());
      }
      std::move(rec).take_series().write_tsv(out);
      std::cout << "series written to " << series_path << "\n";
    }
    run_one_cell(base_cell(kind), [&](const SweepTrial& ctx) {
      const kernels::KernelKind kernel = ctx.cell.kernel.value_or(opts.kernel);
      Engine engine(ctx.cell.engine, usd, initial, ctx.seed, {.kernel = kernel});
      return consensus_metrics(run_engine_trial(engine, budget));
    });
    return 0;
  }

  // The remaining round-based protocols run model-specific engines; reject
  // --engine instead of silently ignoring it.
  if (protocol == "usd-gossip" || protocol == "three-majority") {
    PPSIM_CHECK(!engine_override.has_value(),
                "--engine has no effect for " + protocol +
                    " (it runs a model-specific synchronous engine)");
  }

  if (protocol == "usd-gossip") {
    const UsdGossipRule rule(k);
    const InitialConfig init = adversarial_configuration(n, k, bias);
    const SweepCellResult cr = run_one_cell(
        base_cell(EngineKind::kSequential),
        [&](const SweepTrial& ctx) -> SweepMetrics {
          GossipEngine engine(rule, rule.initial(init.opinion_counts), ctx.seed);
          const GossipOutcome out = engine.run_until_stable(1'000'000);
          SweepMetrics m = {{"stabilized", out.stabilized ? 1.0 : 0.0}};
          if (out.stabilized) {
            m.emplace_back("rounds", static_cast<double>(out.rounds));
          }
          return m;
        },
        "rounds");
    std::cout << "mean rounds " << format_double(cr.mean("rounds"), 1) << "\n";
    return 0;
  }

  if (protocol == "three-majority") {
    const InitialConfig init = adversarial_configuration(n, k, bias);
    const SweepCellResult cr = run_one_cell(
        base_cell(EngineKind::kSequential),
        [&](const SweepTrial& ctx) -> SweepMetrics {
          ThreeMajorityEngine engine(init.opinion_counts, ctx.seed);
          const bool consensus = engine.run_until_consensus(1'000'000);
          SweepMetrics m = {{"stabilized", consensus ? 1.0 : 0.0}};
          if (consensus) {
            m.emplace_back("rounds", static_cast<double>(engine.rounds()));
          }
          return m;
        },
        "rounds");
    std::cout << "mean rounds " << format_double(cr.mean("rounds"), 1) << "\n";
    return 0;
  }

  // Two-party generic-simulator protocols share one driver; --engine
  // overrides each protocol's default engine kind.
  auto run_generic = [&](const Protocol& p, Configuration initial,
                         EngineKind default_kind) {
    const EngineKind kind = engine_override.value_or(default_kind);
    run_one_cell(base_cell(kind), [&](const SweepTrial& ctx) {
      Engine sim = ctx.make_engine(p, initial);
      return consensus_metrics(run_engine_trial(sim, budget));
    });
  };

  const Count a = (n + bias) / 2;
  const Count b = n - a;
  if (protocol == "four-state") {
    const FourStateMajority p;
    run_generic(p, FourStateMajority::initial(a, b), EngineKind::kSequential);
  } else if (protocol == "averaging") {
    const AveragingMajority p(std::max<Count>(64, n));
    run_generic(p, p.initial(a, b), EngineKind::kSequentialVirtual);
  } else if (protocol == "cancel-duplicate") {
    const CancellationDuplication p(4);
    run_generic(p, p.initial(a, b), EngineKind::kSequential);
  } else if (protocol == "leader-election") {
    const LeaderElection p;
    run_generic(p, LeaderElection::initial(n), EngineKind::kSequential);
  } else if (protocol == "epidemic") {
    const Epidemic p;
    run_generic(p, Epidemic::initial(n, 1), EngineKind::kSequential);
  } else {
    std::cerr << "unknown protocol: " << protocol
              << " (usd | usd-gossip | three-majority | four-state | averaging |"
                 " cancel-duplicate | leader-election | epidemic)\n";
    return 2;
  }
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
