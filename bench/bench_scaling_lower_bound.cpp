// The headline experiment (Theorem 3.5): measured stabilization time of USD
// on the adversarial configuration, swept over k at fixed n, compared
// against
//   * the paper's lower bound   (k/25)·ln(√n/(k ln n))   — must lie below
//     every measurement, and
//   * the Amir et al. upper-bound shape k·ln n           — must describe the
//     growth (good proportional fit).
//
// The paper's claim is about *shape*: stabilization time grows ~linearly in
// k (for fixed n), sandwiched between the two bounds, making the lower bound
// "almost tight". One sweep cell per k, fanned out over --threads with
// deterministic per-trial streams; output: one row per k with measured
// mean/min/max parallel time, the two bound values, and the measured/LB
// ratio; then the fitted constants. The unified sweep JSON (--json) carries
// every per-trial value for CI trend tracking.
//
// Flags: --n, --trials, --seed, --kmin, --kmax (sweep is geometric-ish),
//        --threads, --engine auto|sequential|batched|collapsed (auto picks
//        collapsed above n = 10^7 — the counts-space engine makes
//        n = 10^9-10^11 sweeps tractable; see docs/REPRODUCING.md),
//        --round-divisor, --tau-epsilon, --json (empty disables the report).
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/analysis/scaling.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 250'000);
  const std::int64_t kmin = cli.get_int("kmin", 8);
  // Stay well inside k = o(√n/ln n): for n = 250k, √n/ln n ≈ 40, so the
  // default sweep tops out at 32 (the bound degenerates beyond).
  const std::int64_t kmax = cli.get_int("kmax", 32);
  const std::string engine_flag = cli.get_string("engine", "auto");
  const Interactions round_divisor = cli.get_int("round-divisor", 16);
  PPSIM_CHECK(round_divisor > 0, "--round-divisor must be positive");
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const SweepCliOptions opts =
      read_sweep_flags(cli, 5, 7, "BENCH_scaling_lower_bound.json");
  cli.validate_no_unknown_flags();
  const benchutil::ResolvedEngine engine =
      benchutil::resolve_usd_engine(engine_flag, n, {"batched", "collapsed"});

  benchutil::banner("scaling_lower_bound",
                    "Theorem 3.5: stabilization time vs k, against LB (k/25)ln(sqrt(n)/(k ln n)) "
                    "and UB shape k ln n");
  benchutil::param("n", n);
  benchutil::param("trials per k", static_cast<std::int64_t>(opts.trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("engine", engine.name);
  benchutil::param("threads", static_cast<std::int64_t>(opts.threads));

  SweepSpec spec;
  spec.name = "scaling_lower_bound";
  opts.configure(spec);
  std::vector<InitialConfig> inits;
  std::vector<UndecidedStateDynamics> protocols;
  std::vector<Configuration> initials;
  for (std::int64_t k = kmin; k <= kmax; k = (k * 3) / 2) {
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
  if (!opts.record_to.empty()) {
    std::filesystem::create_directories(opts.record_to);
  }
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    TrialResult r;
    if (!opts.record_to.empty() && ctx.trial == 0 &&
        ctx.cell.engine != EngineKind::kSequential) {
      // Archive cell trial 0. record_run builds the engine with the exact
      // draw make_engine would take (one ctx.rng() call), so the recorded
      // trial's metrics are bit-identical to the unrecorded ones.
      io::ArchiveRunSpec rspec;
      rspec.engine = ctx.cell.engine;
      rspec.protocol_name = "usd";
      rspec.seed = ctx.rng();
      rspec.k = static_cast<Count>(ctx.cell.k);
      rspec.max_interactions = budget;
      rspec.checkpoint_every = opts.checkpoint_every;
      rspec.round_divisor = ctx.cell.round_divisor;
      rspec.tau_epsilon = ctx.cell.tau_epsilon;
      const std::string path =
          opts.record_to + "/scaling_k" + std::to_string(ctx.cell.k) + ".pptraj";
      const RunOutcome out =
          io::record_run(protocols[ctx.cell_index], initials[ctx.cell_index],
                         io::usd_archive_channels(ctx.cell.k), rspec, path);
      r.stabilized = out.stabilized;
      r.interactions = out.interactions;
      r.clamped = out.clamped;
      r.parallel_time = parallel_time(out.interactions, n);
      r.winner = out.consensus;
    } else {
      Engine sim = benchutil::make_usd_engine(ctx, protocols[ctx.cell_index],
                                              initials[ctx.cell_index]);
      r = run_engine_trial(sim, budget);
    }
    return consensus_metrics(r);
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"k", "bias", "mean_parallel_time", "min", "max", "lower_bound",
               "upper_bound_kln_n", "measured_over_lb"});
  std::vector<ScalingPoint> points;
  for (const SweepCellResult& cr : result.cells) {
    const std::size_t k = cr.cell.k;
    const double lb = bounds::theorem35_parallel_lower_bound(n, k);
    const double ub = bounds::amir_parallel_upper_bound(n, k);
    // Stabilized trials only: a budget-capped trial would smuggle the
    // 100000-parallel-time budget into the fit and the LB-ratio verdict.
    const double mean = cr.mean_where("parallel_time", "stabilized");
    table.row()
        .cell(static_cast<std::int64_t>(k))
        .cell(static_cast<std::int64_t>(cr.cell.bias))
        .cell(mean, 2)
        .cell(cr.min_where("parallel_time", "stabilized"), 2)
        .cell(cr.max_where("parallel_time", "stabilized"), 2)
        .cell(lb, 3)
        .cell(ub, 1)
        .cell(lb > 0 ? mean / lb : 0.0, 2)
        .done();
    points.push_back({n, k, mean});
    const auto stabilized =
        static_cast<std::size_t>(cr.rate("stabilized") *
                                 static_cast<double>(cr.trials.size()) + 0.5);
    std::cout << "  k=" << k << " done: mean parallel time " << format_double(mean, 2)
              << " (" << stabilized << "/" << cr.trials.size() << " stabilized, majority won "
              << format_double(cr.rate("majority_win") * 100.0, 1) << "%)\n";
  }

  benchutil::tsv_block("scaling_lower_bound", table);
  table.write_pretty(std::cout);

  const ScalingFit fit = fit_scaling(points);
  std::cout << "\naffine fit T = a*k + b (the testable form of the Θ(k·log) sandwich):\n"
            << "  a = " << format_double(fit.affine_in_k.slope, 3)
            << ", b = " << format_double(fit.affine_in_k.intercept, 2)
            << ", R^2 = " << format_double(fit.affine_in_k.r_squared, 4) << "\n";
  std::cout << "proportional fit vs LB shape k·ln(sqrt(n)/(k ln n)): c = "
            << format_double(fit.lower_bound_shape.slope, 3)
            << " (log factor ~constant at this n; see EXPERIMENTS.md)\n";
  std::cout << "proportional fit vs UB shape k·ln n:                 c = "
            << format_double(fit.upper_bound_shape.slope, 3) << "\n";
  std::cout << "min measured/LB ratio: "
            << format_double(fit.min_ratio_to_lower_bound, 2)
            << (fit.min_ratio_to_lower_bound >= 1.0
                    ? "  -> lower bound HOLDS on every point\n"
                    : "  -> LOWER BOUND VIOLATED\n");
  const bool linear_in_k = fit.affine_in_k.r_squared > 0.9;
  std::cout << (linear_in_k ? "growth is linear in k (R^2 > 0.9)\n"
                            : "WARNING: growth not cleanly linear in k\n");

  benchutil::finish_sweep(result, opts);
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
