// The conclusion's open question (C1): how much initial bias does the
// majority need to win w.h.p.? Known: Θ(√n) bias can stabilize to a
// minority with non-negligible probability [17]; Ω(√(n ln n)) bias secures
// the majority w.h.p. [6]. We sweep the two-opinion bias through
// β·√n for β ∈ {0, 0.5, 1, 2, √ln n, 2√ln n} — one sweep cell per β —
// and report win rates.
//
// Expected shape: win rate ≈ 0.5 at β = 0, clearly below 1 for β ∈ {0.5, 1}
// (minority wins are visible), and ≈ 1.0 from β = √ln n on.
//
// Flags: --n, --trials, --seed, --threads, --json.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  // From n = 7 on, two_party_configuration accepts the largest cell (bias
  // 2√(n ln n), majority ≤ n).
  const Count n = cli.get_int("n", 10'000, {.lo = 7});
  const SweepCliOptions opts =
      read_sweep_flags(cli, 400, 1, "BENCH_bias_threshold.json");
  cli.validate_no_unknown_flags();

  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const double sqrt_ln_n = std::sqrt(std::log(static_cast<double>(n)));

  benchutil::banner("bias_threshold",
                    "Conclusion C1: majority win rate vs initial bias (k = 2)");
  benchutil::param("n", n);
  benchutil::param("trials per bias", static_cast<std::int64_t>(opts.trials));
  benchutil::param("sqrt(n)", sqrt_n);
  benchutil::param("sqrt(n ln n)", sqrt_n * sqrt_ln_n);

  const std::vector<std::pair<std::string, double>> betas = {
      {"0", 0.0},           {"0.5", 0.5},
      {"1", 1.0},           {"2", 2.0},
      {"sqrt(ln n)", sqrt_ln_n}, {"2 sqrt(ln n)", 2.0 * sqrt_ln_n},
  };

  SweepSpec spec;
  spec.name = "bias_threshold";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "majority_win";
  std::vector<InitialConfig> inits;
  for (const auto& [label, beta] : betas) {
    const auto bias = static_cast<Count>(std::llround(beta * sqrt_n));
    // Even bias keeps the counts integral around n/2.
    const Count majority_count = (n + bias + 1) / 2;
    inits.push_back(two_party_configuration(n, majority_count));
    SweepCell cell;
    cell.n = n;
    cell.k = 2;
    cell.bias = static_cast<double>(inits.back().bias);
    cell.name = "beta=" + label;
    cell.params = {{"beta", beta}};
    spec.cells.push_back(cell);
  }

  const UndecidedStateDynamics usd(2);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    Engine engine(EngineKind::kSequential, usd,
                  UndecidedStateDynamics::initial_configuration(
                      inits[ctx.cell_index].opinion_counts),
                  ctx.seed);
    return consensus_metrics(run_engine_trial(engine, 10000 * n));
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"beta", "bias", "majority_win_rate", "minority_win_rate",
               "no_winner_rate", "mean_parallel_time"});
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCellResult& cr = result.cells[i];
    std::size_t minority_wins = 0;
    std::size_t no_winner = 0;
    const std::vector<double> winners = cr.values("winner");
    const std::vector<double> stabilized = cr.values("stabilized");
    for (std::size_t t = 0; t < winners.size(); ++t) {
      if (winners[t] == 1.0) ++minority_wins;
      if (winners[t] < 0.0 && stabilized[t] != 0.0) ++no_winner;
    }
    const auto trials = static_cast<double>(cr.trials.size());
    table.row()
        .cell(betas[i].first)
        .cell(static_cast<std::int64_t>(cr.cell.bias))
        .cell(cr.rate("majority_win"), 4)
        .cell(static_cast<double>(minority_wins) / trials, 4)
        .cell(static_cast<double>(no_winner) / trials, 4)
        .cell(cr.mean_where("parallel_time", "stabilized"), 2)
        .done();
    std::cout << "  beta=" << betas[i].first << " done (bias "
              << static_cast<Count>(cr.cell.bias) << ")\n";
  }

  benchutil::tsv_block("bias_threshold", table);
  table.write_pretty(std::cout);
  std::cout << "\nExpected shape: ~0.5 at beta=0, <1 for beta in {0.5, 1} "
               "(minority wins visible),\n~1.0 from beta = sqrt(ln n) on "
               "(the Omega(sqrt(n log n)) sufficiency).\n";
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
