// Lemma 3.3 and Lemma 3.4 validation: two hitting times from adversarial
// configurations, each lower-bounded w.h.p. by Θ(kn) interactions.
//
//   * Lemma 3.3: from the Figure 1 configuration (every opinion starts
//     near n/k < 3n/2k), how many interactions does the *majority* opinion
//     need to reach 2n/k? The lemma says at least kn/25.
//   * Lemma 3.4: from a configuration whose maximum pairwise difference is
//     α/2 = ω(√(n ln n)), how many interactions until Δmax reaches α (i.e.
//     doubles)? The lemma says at least kn/24.
//
// The measured hitting time divided by the bound should be >= 1 for every
// trial, and typically much larger (the constants are loose). One sweep:
// the Lemma 3.3 cells (one per k) first, then the Lemma 3.4 cells, each
// named by its lemma. Every trial reports the hit flag and, when the level
// was reached, the hitting time; violations are counted from the per-trial
// values.
//
// Flags: --n, --trials, --seed, --kmin, --kmax, --threads, --json,
//        --bias-mult (α/2 as a multiple of √(n ln n), Lemma 3.4 cells only),
//        --tau-epsilon (collapsed only: drift tolerance, default 0.05),
//        --engine auto|sequential|collapsed (auto picks the counts-space
//        collapsed engine above n = 10^7; hitting times are then
//        round-granular — see docs/REPRODUCING.md).
// Exit code 0 iff neither lemma's bound was beaten by any trial.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
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
  const auto [kmin, kmax] = benchutil::read_k_range(cli, 8, 64);
  const double bias_mult = cli.get_double("bias-mult", 2.0, {.lo = 0.0});
  const SweepCell engine_cell = benchutil::read_usd_engine(cli, n);
  const SweepCliOptions opts = read_sweep_flags(cli, 5, 33, "BENCH_lemma33_34.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("lemma33_34",
                    "Lemma 3.3: interactions for x_1 to reach 2n/k (bound: kn/25); "
                    "Lemma 3.4: interactions for the max difference to double "
                    "(bound: kn/24)");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));
  benchutil::param("engine", to_string(engine_cell.engine));
  benchutil::param("alpha/2 multiplier of sqrt(n ln n)", bias_mult);

  SweepSpec spec;
  spec.name = "lemma33_34";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "hit";
  std::vector<UndecidedStateDynamics> protocols;
  std::vector<Configuration> initials;
  // Lemma 3.3 cells come first, so their stream indices (cell * trials +
  // trial) do not depend on the Lemma 3.4 cells behind them.
  std::size_t growth_cells = 0;
  for (const bool growth : {true, false}) {
    for (std::int64_t k = kmin; k <= kmax; k *= 2) {
      const auto ku = static_cast<std::size_t>(k);
      // Figure 1's bias is ⌈√(n ln n)⌉; α/2 is bias_mult · √(n ln n).
      const double bias = growth ? std::ceil(bounds::whp_bias(n))
                                 : std::floor(bias_mult * bounds::whp_bias(n));
      check_bias_fits(n, ku, bias, "--kmin/--kmax/--bias-mult");
      const InitialConfig init =
          growth ? figure1_configuration(n, ku)
                 : adversarial_configuration(n, ku, static_cast<Count>(bias));
      protocols.emplace_back(ku);
      initials.push_back(UndecidedStateDynamics::initial_configuration(init.opinion_counts));
      SweepCell cell = engine_cell;
      cell.n = n;
      cell.k = ku;
      cell.bias = static_cast<double>(init.bias);
      cell.name = std::string(growth ? "lemma3.3" : "lemma3.4") + ",k=" + std::to_string(k);
      if (growth) {
        cell.params = {{"target", bounds::lemma33_target_level(n, ku)},
                       {"bound", bounds::lemma33_interactions(n, ku)}};
        ++growth_cells;
      } else {
        cell.params = {{"alpha", static_cast<double>(2 * init.bias)},
                       {"bound", bounds::lemma34_interactions(n, ku)}};
      }
      spec.cells.push_back(cell);
    }
  }

  const Interactions budget = sat_mul(100000, n);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const bool growth = ctx.cell_index < growth_cells;
    const auto level =
        static_cast<Count>(ctx.cell.param(growth ? "target" : "alpha", 0.0));
    // Lemma 3.3 cells wait for x_1 to reach `level`; Lemma 3.4 cells wait
    // for Δmax to reach it.
    Engine sim = benchutil::make_usd_engine(ctx, protocols[ctx.cell_index],
                                            initials[ctx.cell_index]);
    const HittingResult r = growth ? time_until_opinion_reaches(sim, 0, level, budget)
                                   : time_until_delta_reaches(sim, level, budget);
    SweepMetrics m = {{"hit", r.hit ? 1.0 : 0.0}};
    // A run that stabilized below the level never violated the bound (the
    // observable never grew that fast) — it simply reports no hitting time.
    if (r.hit) {
      m.emplace_back("hit_interactions", static_cast<double>(r.interactions_at_hit));
    }
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  // level: the target 2n/k (Lemma 3.3) or α (Lemma 3.4).
  Table table({"lemma", "k", "level", "bound", "mean_hit_interactions",
               "min_hit_interactions", "min_ratio_to_bound", "violations"});
  const char* const lemma_names[2] = {"3.3", "3.4"};
  bool held[2] = {true, true};
  for (const SweepCellResult& cr : result.cells) {
    const bool growth = cr.cell_index < growth_cells;
    const int lemma = growth ? 0 : 1;
    const double bound = cr.cell.param("bound", 0.0);
    const std::vector<double> hits = cr.values("hit_interactions");
    std::size_t violations = 0;
    for (const double hit : hits) {
      if (hit < bound) ++violations;
    }
    held[lemma] = held[lemma] && violations == 0;
    const bool any = !hits.empty();
    table.row()
        .cell(lemma_names[lemma])
        .cell(static_cast<std::int64_t>(cr.cell.k))
        .cell(static_cast<std::int64_t>(cr.cell.param(growth ? "target" : "alpha", 0.0)))
        .cell(bound, 0)
        .cell(any ? cr.mean("hit_interactions") : 0.0, 0)
        .cell(any ? cr.min("hit_interactions") : 0.0, 0)
        .cell(any ? cr.min("hit_interactions") / bound : 0.0, 2)
        .cell(static_cast<std::int64_t>(violations))
        .done();
  }

  benchutil::tsv_block("lemma33_34", table);
  table.write_pretty(std::cout);
  std::cout << "\n";
  for (const int lemma : {0, 1}) {
    std::cout << "Lemma " << lemma_names[lemma]
              << (held[lemma] ? " bound held on every trial (ratios >> 1: the "
                                "constant is loose, as expected for a w.h.p. bound).\n"
                              : " BOUND VIOLATED — investigate.\n");
  }
  benchutil::finish_sweep(result, opts);
  return held[0] && held[1] ? 0 : 1;
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
