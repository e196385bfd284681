// Lemma 3.2 validation: Monte-Carlo escape probabilities of the lazy ±1
// walk against the analytic Bernstein-based bound
//   P[Y reaches T within T/2q steps] <= exp(-(T²/8)/(N(p-q²) + 2T/3)).
// Also demonstrates the "laziness tames variance" phenomenon the paper's
// technical overview highlights: for fixed drift and budget, smaller p means
// exponentially fewer escapes.
//
// One sweep cell per walk configuration (the ablation configs are cells of
// the same sweep, tagged protocol = "laziness-ablation"), each trial running
// --walks walks from its private stream.
//
// Flags: --walks, --seed, --trials, --threads, --json.
#include <cmath>
#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/random_walks.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::int64_t walks = cli.get_int("walks", 4000, {.lo = 1});
  const SweepCliOptions opts = read_sweep_flags(cli, 1, 32, "BENCH_lemma32_walks.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("lemma32_walks",
                    "Lemma 3.2: lazy-walk escape probabilities vs the analytic bound");
  benchutil::param("walks per configuration", walks);

  struct Config {
    double p;
    double q;
    std::int64_t level;
  };
  // Regimes mirroring the lemma's uses: Lemma 3.3 uses p ≈ 5/k, q ≈ 6.25/k²,
  // T = n/2k; Lemma 3.4 uses p ≈ 9/k, q ≈ 6α/nk, T = α/2. Scaled-down
  // instances keep the Monte-Carlo affordable.
  const Config configs[] = {
      {0.20, 0.0050, 60},  {0.20, 0.0100, 60},  {0.10, 0.0050, 60},
      {0.40, 0.0050, 80},  {0.05, 0.0025, 40},  {0.80, 0.0100, 100},
  };

  SweepSpec spec;
  spec.name = "lemma32_walks";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "empirical_escape";
  for (const Config& cfg : configs) {
    const auto steps =
        static_cast<std::int64_t>(static_cast<double>(cfg.level) / (2.0 * cfg.q));
    SweepCell cell;
    cell.protocol = "lazy-walk";
    cell.params = {{"p", cfg.p},
                   {"q", cfg.q},
                   {"level", static_cast<double>(cfg.level)},
                   {"steps", static_cast<double>(steps)}};
    spec.cells.push_back(cell);
  }
  // Laziness ablation: same drift/budget, escape rate vs p.
  for (const double p : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    SweepCell cell;
    cell.protocol = "laziness-ablation";
    cell.params = {{"p", p}, {"q", 0.0}, {"level", 30.0}, {"steps", 20000.0}};
    spec.cells.push_back(cell);
  }

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const EscapeEstimate est = estimate_escape_probability(
        ctx.cell.param("p", 0.0), ctx.cell.param("q", 0.0),
        static_cast<std::int64_t>(ctx.cell.param("level", 0.0)),
        static_cast<std::int64_t>(ctx.cell.param("steps", 0.0)), walks, ctx.seed);
    return {{"empirical_escape", est.probability}};
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"p", "q", "level_T", "steps_T_over_2q", "analytic_bound",
               "empirical_escape", "respected"});
  Table ablation({"p", "empirical_escape"});
  bool all_ok = true;
  for (const SweepCellResult& cr : result.cells) {
    const double p = cr.cell.param("p", 0.0);
    const double empirical = cr.mean("empirical_escape");
    if (cr.cell.protocol == "laziness-ablation") {
      ablation.row().cell(p, 2).cell(empirical, 4).done();
      continue;
    }
    const double q = cr.cell.param("q", 0.0);
    const double level = cr.cell.param("level", 0.0);
    const double steps = cr.cell.param("steps", 0.0);
    const double analytic = bounds::lemma32_escape_bound(level, p, q, steps);
    // Empirical estimate must not exceed bound + 3 binomial sigma.
    const double sigma =
        std::sqrt(std::max(analytic * (1 - analytic), 1e-6) /
                  static_cast<double>(walks));
    const bool ok = empirical <= analytic + 3.0 * sigma + 0.005;
    all_ok = all_ok && ok;
    table.row()
        .cell(p, 3)
        .cell(q, 4)
        .cell(static_cast<std::int64_t>(level))
        .cell(static_cast<std::int64_t>(steps))
        .cell(analytic, 5)
        .cell(empirical, 5)
        .cell(ok ? "yes" : "NO")
        .done();
  }

  benchutil::tsv_block("lemma32_walks", table);
  table.write_pretty(std::cout);

  std::cout << "\nLaziness ablation (drift q = 0, level 30, 20000 steps):\n";
  benchutil::tsv_block("lemma32_laziness_ablation", ablation);
  ablation.write_pretty(std::cout);

  std::cout << (all_ok ? "\nAnalytic bound respected in every configuration.\n"
                       : "\nBOUND VIOLATED — investigate.\n");
  benchutil::finish_sweep(result, opts);
  return all_ok ? 0 : 1;
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
