// Theorem 3.5 bench: measured USD stabilization time on the adversarial
// configuration, swept over k at fixed n, against all three published
// curves at once —
//   * the paper's lower bound   (k/25)·ln(√n/(k ln n))     (Theorem 3.5) —
//     must lie below every measurement,
//   * the Amir et al. upper-bound shape  k·ln n            (arXiv:2302.12508),
//   * the Clementi et al. two-color bound  Θ(ln n)         (arXiv:1707.05135,
//     k = 2 only — the regime where plurality degenerates to majority).
//
// The paper's claim is about *shape*: stabilization time grows ~linearly in
// k (for fixed n), sandwiched between the bounds, making the lower bound
// "almost tight". One sweep cell per k, fanned out over --threads with
// deterministic per-trial streams; output: one row per k with measured
// mean/min/max parallel time, the bound values and the measured/LB ratio,
// then the fitted constants (and the affine fit T = a·k + b), and one
// combined JSON report carrying the fitted constant against every curve
// plus the full per-trial sweep. The k sweep starts at 2 by default so the
// Clementi curve has a cell to calibrate against (pass --kmin above 2 and
// the report marks that fit as not fitted).
//
// Every trial runs under the uniform scheduler, the one all three bounds
// are stated for.
//
// Flags: --n, --kmin, --kmax, --engine auto|sequential|batched|collapsed
//        (auto picks collapsed above n = 10^7 — the counts-space engine
//        makes n = 10^9-10^11 sweeps tractable; see docs/REPRODUCING.md),
//        --round-divisor, --tau-epsilon, plus the shared sweep flags
//        (--trials/--seed/--threads/--json).
// Exit code 0 iff the lower bound holds on every measured point.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/analysis/scaling.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/json.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 250'000);
  // Start at k = 2 so the Clementi two-color cell exists; stay well inside
  // k = o(√n/ln n) at the top (the LB degenerates beyond ~40 for n = 250k).
  const std::int64_t kmin = cli.get_int("kmin", 2);
  const std::int64_t kmax = cli.get_int("kmax", 32);
  const std::string engine_flag = cli.get_string("engine", "auto");
  const Interactions round_divisor = cli.get_int("round-divisor", 16);
  PPSIM_CHECK(round_divisor > 0, "--round-divisor must be positive");
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 5, 7, "BENCH_bounds_gap.json");
  cli.validate_no_unknown_flags();
  benchutil::check_k_range(kmin, kmax);
  const benchutil::ResolvedEngine engine =
      benchutil::resolve_usd_engine(engine_flag, n, {"batched", "collapsed"});

  benchutil::banner("bounds_gap",
                    "measured stabilization vs LB (k/25)ln(sqrt(n)/(k ln n)), "
                    "UB k ln n (Amir et al.) and two-color ln n (Clementi et al.)");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("engine", engine.name);
  benchutil::param("threads", static_cast<std::int64_t>(opts.threads));

  SweepSpec spec;
  spec.name = "bounds_gap";
  opts.configure(spec);
  std::vector<InitialConfig> inits;
  std::vector<UndecidedStateDynamics> protocols;
  std::vector<Configuration> initials;
  for (std::int64_t k = kmin; k <= kmax; k = k < 3 ? k + 1 : (k * 3) / 2) {
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
    cell.round_divisor = round_divisor;
    cell.tau_epsilon = tau_epsilon;
    spec.cells.push_back(cell);
  }

  const Interactions budget = sat_mul(100000, n);
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const UndecidedStateDynamics& usd = protocols[ctx.cell_index];
    const Configuration& initial = initials[ctx.cell_index];
    Engine sim = benchutil::make_usd_engine(ctx, usd, initial);
    return consensus_metrics(run_engine_trial(sim, budget));
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  const double ln_n = std::log(static_cast<double>(n));
  Table table({"k", "mean_parallel_time", "min", "max", "lower_bound",
               "amir_ub_kln_n", "clementi_ln_n", "measured_over_lb"});
  std::vector<ScalingPoint> points;
  std::vector<JsonObject> cell_reports;
  double two_color_mean = 0.0;
  bool have_two_color = false;
  for (const SweepCellResult& cr : result.cells) {
    const std::size_t k = cr.cell.k;
    const double lb = bounds::theorem35_parallel_lower_bound(n, k);
    const double ub = bounds::amir_parallel_upper_bound(n, k);
    // Stabilized trials only: a budget-capped trial would smuggle the
    // 100000-parallel-time budget into the fits and the LB verdict.
    const double mean = cr.mean_where("parallel_time", "stabilized");
    const bool two_color = k == 2;
    if (two_color) {
      two_color_mean = mean;
      have_two_color = true;
    }
    table.row()
        .cell(static_cast<std::int64_t>(k))
        .cell(mean, 2)
        .cell(cr.min_where("parallel_time", "stabilized"), 2)
        .cell(cr.max_where("parallel_time", "stabilized"), 2)
        .cell(lb, 3)
        .cell(ub, 1)
        .cell(two_color ? bounds::clementi_two_color_parallel_bound(n) : 0.0, 2)
        .cell(lb > 0 ? mean / lb : 0.0, 2)
        .done();
    points.push_back({n, k, mean});
    JsonObject cj;
    cj.field("k", static_cast<std::int64_t>(k))
        .field("mean_parallel_time", mean)
        .field("lower_bound", lb)
        .field("amir_upper_bound", ub);
    if (two_color) {
      cj.field("clementi_two_color", bounds::clementi_two_color_parallel_bound(n));
    }
    cell_reports.push_back(cj);
    const auto stabilized =
        static_cast<std::size_t>(cr.rate("stabilized") *
                                 static_cast<double>(cr.trials.size()) + 0.5);
    std::cout << "  k=" << k << " done: mean parallel time " << format_double(mean, 2)
              << " (" << stabilized << "/" << cr.trials.size() << " stabilized, majority won "
              << format_double(cr.rate("majority_win") * 100.0, 1) << "%)\n";
  }

  benchutil::tsv_block("bounds_gap", table);
  table.write_pretty(std::cout);

  const ScalingFit fit = fit_scaling(points);
  const double clementi_c = have_two_color ? two_color_mean / ln_n : 0.0;
  std::cout << "\naffine fit T = a*k + b (the testable form of the Θ(k·log) sandwich):\n"
            << "  a = " << format_double(fit.affine_in_k.slope, 3)
            << ", b = " << format_double(fit.affine_in_k.intercept, 2)
            << ", R^2 = " << format_double(fit.affine_in_k.r_squared, 4)
            << (fit.affine_in_k.r_squared > 0.9 ? "  -> linear in k\n"
                                                : "  -> WARNING: not cleanly linear in k\n");
  std::cout << "fit vs LB shape k·ln(sqrt(n)/(k ln n)): c = "
            << format_double(fit.lower_bound_shape.slope, 3)
            << " (paper constant 1/25 = 0.04)\n"
            << "fit vs Amir UB shape k·ln n:            c = "
            << format_double(fit.upper_bound_shape.slope, 3) << "\n";
  if (have_two_color) {
    std::cout << "Clementi two-color calibration (k=2):   c = "
              << format_double(clementi_c, 3) << " x ln n\n";
  } else {
    std::cout << "Clementi two-color calibration skipped (no k=2 cell; "
                 "run with --kmin 2)\n";
  }
  std::cout << "min measured/LB ratio: "
            << format_double(fit.min_ratio_to_lower_bound, 2)
            << (fit.min_ratio_to_lower_bound >= 1.0
                    ? "  -> lower bound HOLDS on every point\n"
                    : "  -> LOWER BOUND VIOLATED\n");

  std::cout << "sweep wall seconds: " << format_double(result.wall_seconds, 3)
            << " (threads " << result.threads << ")\n";
  if (!opts.json.empty()) {
    JsonObject lb_report;
    lb_report.field("source", "Theorem 3.5")
        .field("shape", "(k/25)*ln(sqrt(n)/(k*ln(n)))")
        .field("paper_constant", 1.0 / 25.0)
        .field("fitted_constant", fit.lower_bound_shape.slope)
        .field("r_squared", fit.lower_bound_shape.r_squared)
        .field("min_measured_over_bound", fit.min_ratio_to_lower_bound)
        .field("holds", fit.min_ratio_to_lower_bound >= 1.0);
    JsonObject amir_report;
    amir_report.field("source", "arXiv:2302.12508")
        .field("shape", "k*ln(n)")
        .field("fitted_constant", fit.upper_bound_shape.slope)
        .field("r_squared", fit.upper_bound_shape.r_squared);
    JsonObject clementi_report;
    clementi_report.field("source", "arXiv:1707.05135")
        .field("shape", "ln(n)")
        .field("fitted", have_two_color)
        .field("fitted_constant", clementi_c);
    JsonObject report;
    report.field("name", "bounds_gap")
        .field("n", static_cast<std::int64_t>(n))
        .field("lower_bound", lb_report)
        .field("amir_upper_bound", amir_report)
        .field("clementi_two_color", clementi_report)
        .field("cells", cell_reports)
        .field_json("sweep", result.to_json());
    report.write_file(opts.json);
    std::cout << "json report written to " << opts.json << "\n";
  }
  return fit.min_ratio_to_lower_bound >= 1.0 ? 0 : 1;
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
