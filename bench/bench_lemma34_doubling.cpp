// Lemma 3.4 validation: starting from an adversarial configuration whose
// maximum pairwise difference is α/2 = ω(√(n ln n)), how many interactions
// until Δmax reaches α (i.e. doubles)? The lemma lower-bounds this by kn/24
// w.h.p. We sweep k (one cell per k) and report measured doubling times
// against the bound.
//
// Flags: --n, --trials, --seed, --kmin, --kmax, --bias-mult (α/2 as a
//        multiple of √(n ln n)), --threads, --json,
//        --tau-epsilon (collapsed drift tolerance, default 0.05),
//        --engine auto|sequential|collapsed (auto picks the counts-space
//        collapsed engine above n = 10^7; doubling times are then
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
  const double bias_mult = cli.get_double("bias-mult", 2.0);
  const std::string engine_flag = cli.get_string("engine", "auto");
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 5, 34, "BENCH_lemma34_doubling.json");
  cli.validate_no_unknown_flags();
  const benchutil::ResolvedEngine engine =
      benchutil::resolve_usd_engine(engine_flag, n, {"collapsed"});

  benchutil::banner(
      "lemma34_doubling",
      "Lemma 3.4: interactions for the max difference to double (bound: kn/24)");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));
  benchutil::param("engine", engine.name);
  benchutil::param("alpha/2 multiplier of sqrt(n ln n)", bias_mult);

  SweepSpec spec;
  spec.name = "lemma34_doubling";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "hit";
  std::vector<InitialConfig> inits;
  std::vector<UndecidedStateDynamics> protocols;
  std::vector<Configuration> initials;
  for (std::int64_t k = kmin; k <= kmax; k *= 2) {
    const auto ku = static_cast<std::size_t>(k);
    const auto alpha_half = static_cast<Count>(bias_mult * bounds::whp_bias(n));
    inits.push_back(adversarial_configuration(n, ku, alpha_half));
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
    cell.params = {{"alpha", static_cast<double>(2 * inits.back().bias)},
                   {"bound", bounds::lemma34_interactions(n, ku)}};
    spec.cells.push_back(cell);
  }

  const Interactions budget = sat_mul(100000, n);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const auto alpha = static_cast<Count>(ctx.cell.param("alpha", 0.0));
    HittingResult r;
    if (ctx.cell.engine == EngineKind::kCollapsed) {
      Engine sim = ctx.make_engine(protocols[ctx.cell_index], initials[ctx.cell_index]);
      r = time_until_delta_reaches(sim, alpha, budget);
    } else {
      Simulator sim(protocols[ctx.cell_index], initials[ctx.cell_index], ctx.seed);
      r = time_until_delta_reaches(sim, alpha, budget);
    }
    SweepMetrics m = {{"hit", r.hit ? 1.0 : 0.0}};
    if (r.hit) {  // Δmax never doubled: bound trivially held, no time to report
      m.emplace_back("doubling_interactions",
                     static_cast<double>(r.interactions_at_hit));
    }
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"k", "alpha_half", "alpha", "budget_kn_24", "mean_doubling",
               "min_doubling", "min_ratio_to_bound", "violations"});

  bool bound_held = true;
  for (const SweepCellResult& cr : result.cells) {
    const double bound = cr.cell.param("bound", 0.0);
    std::size_t violations = 0;
    for (const double hit : cr.values("doubling_interactions")) {
      if (hit < bound) ++violations;
    }
    bound_held = bound_held && violations == 0;
    const bool any = !cr.values("doubling_interactions").empty();
    table.row()
        .cell(static_cast<std::int64_t>(cr.cell.k))
        .cell(static_cast<std::int64_t>(cr.cell.bias))
        .cell(static_cast<std::int64_t>(cr.cell.param("alpha", 0.0)))
        .cell(bound, 0)
        .cell(any ? cr.mean("doubling_interactions") : 0.0, 0)
        .cell(any ? cr.min("doubling_interactions") : 0.0, 0)
        .cell(any ? cr.min("doubling_interactions") / bound : 0.0, 2)
        .cell(static_cast<std::int64_t>(violations))
        .done();
  }

  benchutil::tsv_block("lemma34_doubling", table);
  table.write_pretty(std::cout);
  std::cout << (bound_held ? "\nLemma 3.4 bound held on every trial.\n"
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
