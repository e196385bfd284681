// Lemma 3.1 validation: max_t u(t) over full runs, against the paper's
// explicit ceiling n/2 - n/4k + 10n/(k-1)² + (20·13²+1)√(n ln n) and the
// settling point n/2 - n/4k. The ceiling's additive constant is loose by
// design (Oliveto–Witt machinery); the interesting empirical quantity is
// how far above the settle point the excursion actually goes, in units of
// √(n ln n) — the paper's drift analysis says O(1) such units.
//
// One sweep cell per k; the worst excursion per cell is the max over the
// per-trial "max_undecided" metric (no shared mutable state needed).
//
// Flags: --n, --trials, --seed, --kmin, --kmax, --threads, --json,
//        --tau-epsilon (collapsed only: drift tolerance, default 0.05),
//        --engine auto|sequential|collapsed (auto picks the counts-space
//        collapsed engine above n = 10^7; its per-round u(t) sampling makes
//        the excursion measurement round-granular — see docs/REPRODUCING.md).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/hitting_times.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 100'000, {.lo = 2});
  const auto [kmin, kmax] = benchutil::read_k_range(cli, 4, 64);
  const SweepCell engine_cell = benchutil::read_usd_engine(cli, n);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 5, 31, "BENCH_lemma31_undecided.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("lemma31_undecided",
                    "Lemma 3.1: max_t u(t) vs the explicit ceiling and the settle point");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));
  benchutil::param("engine", to_string(engine_cell.engine));
  benchutil::param("sqrt(n ln n)", std::sqrt(static_cast<double>(n) *
                                             std::log(static_cast<double>(n))));

  SweepSpec spec;
  spec.name = "lemma31_undecided";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "max_undecided";
  std::vector<InitialConfig> inits;
  std::vector<UndecidedStateDynamics> protocols;
  std::vector<Configuration> initials;
  for (std::int64_t k = kmin; k <= kmax; k *= 2) {
    const auto ku = static_cast<std::size_t>(k);
    benchutil::check_figure1_fits(n, ku, "--kmin/--kmax");
    inits.push_back(figure1_configuration(n, ku));
    protocols.emplace_back(ku);
    initials.push_back(
        UndecidedStateDynamics::initial_configuration(inits.back().opinion_counts));
    SweepCell cell = engine_cell;
    cell.n = n;
    cell.k = ku;
    cell.bias = static_cast<double>(inits.back().bias);
    spec.cells.push_back(cell);
  }

  const Interactions budget = sat_mul(100000, n);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    Engine sim = benchutil::make_usd_engine(ctx, protocols[ctx.cell_index],
                                            initials[ctx.cell_index]);
    const UndecidedExcursion exc = max_undecided_over_run(sim, budget);
    return {
        {"stabilized", exc.stabilized ? 1.0 : 0.0},
        {"max_undecided", static_cast<double>(exc.max_undecided)},
    };
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"k", "settle_point", "ceiling", "max_u_worst_trial",
               "excursion_over_settle_in_sqrt_nlogn", "ceiling_respected"});

  bool all_respected = true;
  for (const SweepCellResult& cr : result.cells) {
    const auto ku = cr.cell.k;
    const double settle = bounds::usd_settle_point(n, ku);
    const double ceiling = bounds::lemma31_ceiling(n, ku);
    const double unit =
        std::sqrt(static_cast<double>(n) * std::log(static_cast<double>(n)));
    const double worst_max_u = cr.max("max_undecided");
    const double excursion = (worst_max_u - settle) / unit;
    const bool respected = worst_max_u <= ceiling;
    all_respected = all_respected && respected;
    table.row()
        .cell(static_cast<std::int64_t>(ku))
        .cell(settle, 0)
        .cell(ceiling, 0)
        .cell(static_cast<std::int64_t>(worst_max_u))
        .cell(excursion, 3)
        .cell(respected ? "yes" : "NO")
        .done();
  }

  benchutil::tsv_block("lemma31_undecided", table);
  table.write_pretty(std::cout);
  std::cout << (all_respected ? "\nLemma 3.1 ceiling respected on every run.\n"
                              : "\nCEILING VIOLATED — investigate.\n");
  benchutil::finish_sweep(result, opts);
  return all_respected ? 0 : 1;
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
