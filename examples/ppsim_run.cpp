// Command-line runner: run USD on a configurable population without writing
// C++. It doubles as the library's scripting entry point:
//
//   ppsim_run --protocol usd --n 100000 --k 8 --bias auto --seed 7
//   ppsim_run --protocol usd --n 100000 --k 8 --series out.tsv
//   ppsim_run --protocol usd --n 10000000 --k 3 --engine collapsed
//   ppsim_run --protocol usd --n 1000000000 --k 32 --engine collapsed
//   ppsim_run --protocol usd --n 100000 --trials 64 --threads 8
//   ppsim_run --protocol usd --n 100000 --k 8 --trials 16 --cache-dir cache/
//
// --protocol accepts only usd, the protocol the paper bounds.
// --bias auto = sqrt(n ln n). --series FILE writes the USD time series.
// --engine auto | sequential | collapsed selects the engine (auto is the
// exact sequential engine up to n = 10^7 and collapsed above, as in the
// benches; collapsed trades τ-leaping round granularity for orders of
// magnitude in wall clock — it is counts-space with adaptive rounds and
// reaches n = 10^9-10^11; see README.md and docs/ARCHITECTURE.md).
// Trials run on the SweepRunner: --threads N fans them out over N workers
// (0 = hardware) with deterministic per-trial RNG streams, so results are
// identical at any thread count; --json writes the unified sweep report.
// --cache-dir DIR serves the cell through the content-addressed cell cache
// (cache/cell_cache.hpp): a rerun with the same flags executes zero trials
// and writes byte-identical --json. It cannot be combined with --series,
// whose side effect a cache hit would skip.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/cache/cell_cache.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/core/runner.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/protocols/usd.hpp"
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
  if (stabilized > 0) {
    // Stabilized trials only: budget-capped trials would report the budget,
    // not a time.
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
    std::cout << "clamped interactions (τ-leaping overdraw): "
              << static_cast<std::int64_t>(clamped) << " of "
              << static_cast<std::int64_t>(cr.sum("interactions"))
              << " attempted\n";
  }
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string protocol = cli.get_string("protocol", "usd", {"usd"});
  const Count n = cli.get_int("n", 100'000, {.lo = 2});
  const auto k = static_cast<std::size_t>(cli.get_int("k", 2, {.lo = 1}));
  const std::string bias_flag = cli.get_string("bias", "auto");
  const double max_parallel = cli.get_double("max-parallel", 100000.0, {.lo = 0.0});
  const std::string series_path = cli.get_string("series", "");
  const std::string engine_flag = cli.get_string(
      "engine", "auto", {"auto", "sequential", "collapsed"});
  const std::string cache_dir = cli.get_string("cache-dir", "");
  const SweepCliOptions opts = read_sweep_flags(cli, 1, 1, "");
  cli.validate_no_unknown_flags();
  PPSIM_CHECK(cache_dir.empty() || series_path.empty(),
              "--cache-dir cannot be combined with --series: a cache hit "
              "would skip its side effect");
  const Interactions budget = max_parallel_budget(max_parallel, n);
  const Count bias = bias_flag == "auto"
                         ? static_cast<Count>(bounds::whp_bias(n))
                         : Cli::parse<Count>("bias", bias_flag, {.lo = 0});
  check_bias_fits(n, k, static_cast<double>(bias), "--bias/--k");
  const std::uint64_t seed = opts.seed;
  const std::size_t trials = opts.trials;

  std::cout << "protocol=" << protocol << " n=" << n << " k=" << k << " bias=" << bias
            << " seed=" << seed << " trials=" << trials << " threads="
            << opts.threads << "\n";

  const InitialConfig init = adversarial_configuration(n, k, bias);
  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  const EngineKind kind = resolve_engine(engine_flag, n);
  if (!series_path.empty()) {
    std::ofstream out(series_path);
    PPSIM_CHECK(out.good(), "cannot open series file " + series_path);
    // --series reproduces sweep trial 0 (same derived seed, same engine,
    // same run_engine_trial call): the archive channels, sampled at the
    // start, then at the first engine step (interaction, batch or round) at
    // or past each multiple of n/10 interactions, then at the end. The
    // recorder only observes, so the draws are trial 0's.
    const std::uint64_t series_seed = SweepRunner::trial_stream(seed, 0)();
    Recorder rec(std::max<Interactions>(1, n / 10));
    const io::ArchiveChannels channels = io::usd_archive_channels(k);
    for (std::size_t c = 0; c < channels.names.size(); ++c) {
      rec.add_channel(channels.names[c], channels.projections[c]);
    }
    Engine engine(kind, usd, initial, series_seed);
    rec.sample(engine.configuration(), 0);
    run_engine_trial(engine, budget, &rec);
    std::move(rec).take_series().write_tsv(out);
    std::cout << "series written to " << series_path << "\n";
  }

  // One sweep cell over the shared flags, through the cell cache under
  // --cache-dir.
  SweepSpec spec;
  spec.name = "ppsim_run";
  SweepCell cell;
  cell.n = n;
  cell.k = k;
  cell.bias = static_cast<double>(bias);
  cell.protocol = protocol;
  cell.engine = kind;
  spec.cells.push_back(std::move(cell));
  opts.configure(spec);
  const SweepRunner runner(spec);
  const SweepTrialFn fn = [&](const SweepTrial& ctx) {
    Engine engine(ctx.cell.engine, usd, initial, ctx.seed);
    return consensus_metrics(run_engine_trial(engine, budget));
  };
  SweepResult result;
  if (cache_dir.empty()) {
    result = runner.run(fn);
  } else {
    // Beyond what the canonical cell key holds (n, k, bias, engine kind,
    // kernel, seed, trial count), the trial closure captures only the
    // resolved engine and the budget. Keying on the resolved engine lets
    // `--engine auto` and the engine it resolves to share entries.
    const std::string fn_id = "ppsim_run/v1;engine=" + to_string(kind) +
                              ";max_parallel=" +
                              JsonObject::render_double(max_parallel);
    cache::CellCache cache({.disk_dir = cache_dir});
    result = cache::run_cached(runner, fn, fn_id, cache);
    std::cerr << "cell cache " << cache_dir << ": " << cache.stats().hits
              << " of " << result.cells.size() << " cells replayed\n";
  }
  result.write_json(opts.json);
  print_cell(result.cells[0]);
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
