// Population model vs Gossip model (Section 1.2): the same USD rule run
// under both schedulers, swept over k. Reports
//   * population-model stabilization in parallel time (interactions / n),
//   * gossip-model stabilization in rounds,
//   * the monochromatic distance md(c) of the initial configuration, whose
//     product with log n bounds the gossip time (Becchetti et al.),
//   * 3-majority gossip rounds as a second synchronous baseline.
//
// One sweep cell per k; each trial runs all three models back to back from
// disjoint draws of its private RNG stream, so the three measurements stay
// paired per trial at any thread count.
//
// The paper stresses the models differ qualitatively; quantitatively, for
// the adversarial configuration md(c) ≈ k, so the gossip bound is
// O(k log n) rounds — the same shape as the population model's Θ(k log ...)
// but reached by a very different mechanism (every agent updates once per
// round vs Ω(log n) changes per agent per parallel round).
//
// Flags: --n, --trials, --seed, --kmin, --kmax, --threads, --json.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/gossip.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/three_majority.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/protocols/usd_gossip.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 100'000);
  const std::int64_t kmin = cli.get_int("kmin", 4);
  const std::int64_t kmax = cli.get_int("kmax", 32);
  const SweepCliOptions opts = read_sweep_flags(cli, 3, 6, "BENCH_gossip_compare.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("gossip_compare",
                    "USD under the population scheduler vs the synchronous Gossip model");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));

  SweepSpec spec;
  spec.name = "gossip_compare";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "pop_parallel_time";
  std::vector<InitialConfig> inits;
  for (std::int64_t k = kmin; k <= kmax; k *= 2) {
    const auto ku = static_cast<std::size_t>(k);
    inits.push_back(figure1_configuration(n, ku));
    SweepCell cell;
    cell.n = n;
    cell.k = ku;
    cell.bias = static_cast<double>(inits.back().bias);
    cell.params = {{"md_initial", monochromatic_distance(inits.back().opinion_counts)}};
    spec.cells.push_back(cell);
  }

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const InitialConfig& init = inits[ctx.cell_index];
    const auto ku = ctx.cell.k;

    // population model
    const UndecidedStateDynamics usd(ku);
    Simulator pop(usd, UndecidedStateDynamics::initial_configuration(init.opinion_counts),
                  ctx.seed);
    pop.run_until_stable(100000 * n);

    // gossip model
    const UsdGossipRule rule(ku);
    GossipEngine gossip(rule, rule.initial(init.opinion_counts), ctx.rng());
    const GossipOutcome gossip_out = gossip.run_until_stable(1'000'000);

    // 3-majority gossip baseline
    ThreeMajorityEngine three(init.opinion_counts, ctx.rng());
    const bool three_ok = three.run_until_consensus(100000);

    SweepMetrics m = {
        {"pop_stabilized", pop.is_stable() ? 1.0 : 0.0},
        {"pop_parallel_time", pop.parallel_time()},
        {"gossip_stabilized", gossip_out.stabilized ? 1.0 : 0.0},
        {"three_majority_consensus", three_ok ? 1.0 : 0.0},
    };
    if (gossip_out.stabilized) {
      m.emplace_back("gossip_rounds", static_cast<double>(gossip_out.rounds));
    }
    if (three_ok) {
      m.emplace_back("three_majority_rounds", static_cast<double>(three.rounds()));
    }
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"k", "md_initial", "population_parallel_time", "gossip_rounds",
               "three_majority_rounds", "gossip_md_logn_ratio"});
  const double log_n = std::log(static_cast<double>(n));
  for (const SweepCellResult& cr : result.cells) {
    const double md = cr.cell.param("md_initial", 0.0);
    table.row()
        .cell(static_cast<std::int64_t>(cr.cell.k))
        .cell(md, 2)
        .cell(cr.mean_where("pop_parallel_time", "pop_stabilized"), 2)
        .cell(cr.mean("gossip_rounds"), 1)
        .cell(cr.mean("three_majority_rounds"), 1)
        .cell(cr.mean("gossip_rounds") / (md * log_n), 3)
        .done();
    std::cout << "  k=" << cr.cell.k << " done\n";
  }

  benchutil::tsv_block("gossip_compare", table);
  table.write_pretty(std::cout);
  std::cout << "\nExpected shape: gossip rounds track md(c)·ln n ≈ k·ln n (bounded "
               "ratio);\n3-majority is much faster (poly-log in n, ~independent of "
               "this k range);\npopulation parallel time grows ~linearly in k.\n";
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
