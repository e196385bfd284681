// Lemma 3.3 validation: from the adversarial configuration (every opinion
// starts near n/k < 3n/2k), how many interactions does the *majority*
// opinion need to reach 2n/k? The lemma says at least kn/25 w.h.p. — the
// measured hitting time divided by kn/25 should be >= 1 for every trial,
// and typically much larger (the constant 1/25 is loose).
//
// One sweep cell per k; trials report the hit flag and the hitting time as
// metrics, and violations are counted from the per-trial values.
//
// Flags: --n, --trials, --seed, --kmin, --kmax, --threads, --json,
//        --tau-epsilon (collapsed drift tolerance, default 0.05),
//        --engine auto|sequential|collapsed (auto picks the counts-space
//        collapsed engine above n = 10^7; hitting times are then
//        round-granular — see docs/REPRODUCING.md).
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
  const Count n = cli.get_int("n", 100'000);
  const std::int64_t kmin = cli.get_int("kmin", 8);
  const std::int64_t kmax = cli.get_int("kmax", 64);
  const std::string engine_flag = cli.get_string("engine", "auto");
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const SweepCliOptions opts = read_sweep_flags(cli, 5, 33, "BENCH_lemma33_growth.json");
  cli.validate_no_unknown_flags();
  const benchutil::ResolvedEngine engine =
      benchutil::resolve_usd_engine(engine_flag, n, {"collapsed"});

  benchutil::banner(
      "lemma33_growth",
      "Lemma 3.3: interactions for x_1 to reach 2n/k (lower bound: kn/25)");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));
  benchutil::param("engine", engine.name);

  SweepSpec spec;
  spec.name = "lemma33_growth";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "hit";
  std::vector<InitialConfig> inits;
  std::vector<UndecidedStateDynamics> protocols;
  std::vector<Configuration> initials;
  for (std::int64_t k = kmin; k <= kmax; k *= 2) {
    const auto ku = static_cast<std::size_t>(k);
    inits.push_back(figure1_configuration(n, ku));
    protocols.emplace_back(ku);
    initials.push_back(
        UndecidedStateDynamics::initial_configuration(inits.back().opinion_counts));
    SweepCell cell;
    cell.n = n;
    cell.k = ku;
    cell.bias = static_cast<double>(inits.back().bias);
    cell.engine = engine.kind;
    cell.protocol = engine.protocol_label;
    cell.tau_epsilon = tau_epsilon;
    cell.params = {{"target", bounds::lemma33_target_level(n, ku)},
                   {"bound", bounds::lemma33_interactions(n, ku)}};
    spec.cells.push_back(cell);
  }

  const Interactions budget = sat_mul(100000, n);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const auto target = static_cast<Count>(ctx.cell.param("target", 0.0));
    HittingResult r;
    if (ctx.cell.engine == EngineKind::kCollapsed) {
      Engine sim = ctx.make_engine(protocols[ctx.cell_index], initials[ctx.cell_index]);
      r = time_until_opinion_reaches(sim, 0, target, budget);
    } else {
      Simulator sim(protocols[ctx.cell_index], initials[ctx.cell_index], ctx.seed);
      r = time_until_opinion_reaches(sim, 0, target, budget);
    }
    SweepMetrics m = {{"hit", r.hit ? 1.0 : 0.0}};
    // A run that stabilized below the target never violated the bound (the
    // opinion never grew that fast) — it simply reports no hitting time.
    if (r.hit) {
      m.emplace_back("hit_interactions", static_cast<double>(r.interactions_at_hit));
    }
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"k", "target_2n_over_k", "budget_kn_25", "mean_hit_interactions",
               "min_hit_interactions", "min_ratio_to_bound", "violations"});

  bool bound_held = true;
  for (const SweepCellResult& cr : result.cells) {
    const double bound = cr.cell.param("bound", 0.0);
    std::size_t violations = 0;
    for (const double hit : cr.values("hit_interactions")) {
      if (hit < bound) ++violations;
    }
    bound_held = bound_held && violations == 0;
    const bool any = !cr.values("hit_interactions").empty();
    table.row()
        .cell(static_cast<std::int64_t>(cr.cell.k))
        .cell(static_cast<std::int64_t>(cr.cell.param("target", 0.0)))
        .cell(bound, 0)
        .cell(any ? cr.mean("hit_interactions") : 0.0, 0)
        .cell(any ? cr.min("hit_interactions") : 0.0, 0)
        .cell(any ? cr.min("hit_interactions") / bound : 0.0, 2)
        .cell(static_cast<std::int64_t>(violations))
        .done();
  }

  benchutil::tsv_block("lemma33_growth", table);
  table.write_pretty(std::cout);
  std::cout << (bound_held
                    ? "\nLemma 3.3 bound held on every trial (ratios >> 1: the "
                      "1/25 constant is loose, as expected for a w.h.p. bound).\n"
                    : "\nBOUND VIOLATED — investigate.\n");
  benchutil::finish_sweep(result, opts);
  return bound_held ? 0 : 1;
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
