// Extension experiment: how much does the clique assumption matter?
//
// The paper's lower bound (like nearly all USD analyses) is proved on the
// clique with a uniform scheduler. The original Angluin et al. model allows
// arbitrary interaction graphs; this bench runs the *same* USD rule with the
// same biased initial opinions on different topologies (one sweep cell per
// topology; the graphs are built once and shared read-only across worker
// threads) and reports stabilization parallel time and the majority win
// rate.
//
// Expected shape: the clique is the fastest and most reliable; expanders
// (random regular) are close; cycles/paths are dramatically slower (mixing
// is Θ(n²) interactions) and much less reliable for the plurality outcome,
// because local clustering lets minority pockets survive.
//
// Flags: --n, --k, --trials, --seed, --threads, --json.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/graph.hpp"
#include "ppsim/core/graph_simulator.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

std::vector<State> spread_states(const InitialConfig& init, NodeId n,
                                 Xoshiro256pp& rng) {
  // Assign opinions to nodes in a random permutation so topology effects are
  // not confounded with placement effects.
  std::vector<State> states;
  states.reserve(n);
  for (std::size_t op = 0; op < init.opinion_counts.size(); ++op) {
    for (Count c = 0; c < init.opinion_counts[op]; ++c) {
      states.push_back(UndecidedStateDynamics::opinion_state(static_cast<Opinion>(op)));
    }
  }
  // Fisher-Yates
  for (std::size_t i = states.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(states[i - 1], states[j]);
  }
  return states;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = static_cast<NodeId>(cli.get_int("n", 300));
  const auto k = static_cast<std::size_t>(cli.get_int("k", 4));
  const SweepCliOptions opts = read_sweep_flags(cli, 5, 8, "BENCH_graph_topology.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("graph_topology",
                    "USD on general interaction graphs (extension beyond the clique)");
  benchutil::param("n", static_cast<std::int64_t>(n));
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("trials per topology", static_cast<std::int64_t>(opts.trials));

  const UndecidedStateDynamics usd(k);
  const InitialConfig init = figure1_configuration(n, k);
  benchutil::param("bias", init.bias);

  Xoshiro256pp gen_rng(opts.seed);
  std::vector<InteractionGraph> graphs;
  graphs.push_back(InteractionGraph::complete(n));
  graphs.push_back(InteractionGraph::random_regular(n, 4, gen_rng));
  graphs.push_back(InteractionGraph::star(n));
  graphs.push_back(InteractionGraph::cycle(n));
  const std::vector<std::string> names = {"clique", "random-4-regular", "star",
                                          "cycle"};

  SweepSpec spec;
  spec.name = "graph_topology";
  opts.configure(spec);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(init.bias);
    cell.name = names[i];
    cell.params = {{"edges", static_cast<double>(graphs[i].num_edges())}};
    spec.cells.push_back(cell);
  }

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const std::vector<State> placement = spread_states(init, n, ctx.rng);
    // The cycle coarsens diffusively: Θ(n²) parallel time, i.e. Θ(n³)
    // interactions — budget 20·n³ so it can actually finish.
    const auto budget = static_cast<Interactions>(20) *
                        static_cast<Interactions>(n) * n * n;
    const InteractionGraph& graph = graphs[ctx.cell_index];  // read-only share
    GraphSimulator sim(usd, graph, placement, ctx.rng());
    TrialResult r;
    r.stabilized = sim.run_until_stable(budget);
    r.parallel_time = sim.parallel_time();
    r.winner = sim.consensus_output();
    return consensus_metrics(r);
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"topology", "edges", "stabilized_rate", "mean_parallel_time",
               "max_parallel_time", "majority_win_rate"});
  for (const SweepCellResult& cr : result.cells) {
    table.row()
        .cell(cr.cell.label())
        .cell(static_cast<std::int64_t>(cr.cell.param("edges", 0.0)))
        .cell(cr.rate("stabilized"), 2)
        .cell(cr.mean_where("parallel_time", "stabilized"), 1)
        .cell(cr.max_where("parallel_time", "stabilized"), 1)
        .cell(cr.rate("majority_win"), 2)
        .done();
    std::cout << "  " << cr.cell.label() << " done\n";
  }

  benchutil::tsv_block("graph_topology", table);
  table.write_pretty(std::cout);
  std::cout << "\nExpected shape: clique fastest and most reliable; the expander is "
               "close;\nstar funnels everything through the hub; the cycle is orders "
               "of magnitude\nslower (diffusive mixing) and the majority win rate "
               "degrades.\n";
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
