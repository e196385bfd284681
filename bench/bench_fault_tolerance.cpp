// Extension experiment: USD under transient state corruption.
//
// The paper's guarantees assume a fault-free scheduler. This bench sweeps a
// per-interaction corruption rate ρ (one random agent teleports to a random
// *different* state — every fired Bernoulli corrupts, see faults.cpp) and
// reports the *consensus quality* (fraction of agents on the top opinion)
// held at a fixed horizon, plus recovery time to full consensus after
// faults stop. The interesting shape: quality degrades smoothly with ρ (no
// cliff), and recovery from any corrupted configuration succeeds — the USD
// dynamics are self-stabilizing for plurality, only the *identity* of the
// winner is at risk under heavy corruption. One sweep cell per rate.
//
// --engine collapsed routes the same experiment through the counts-space
// CollapsedSimulator with the CountsFaultInjector (core/faults.hpp): faults
// are applied per τ-leaping round as an exact Binomial(window, ρ) batch, so
// the realized corruption rate matches the agent-space injector's
// (faults_test pins the parity) while n = 10^9+ sweeps stay tractable.
//
// Flags: --n, --k, --trials, --seed, --horizon (parallel time), --threads,
//        --engine auto|sequential|collapsed, --json.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/faults.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 50'000);
  const auto k = static_cast<std::size_t>(cli.get_int("k", 8));
  const double horizon = cli.get_double("horizon", 200.0);
  const std::string engine_flag = cli.get_string("engine", "auto");
  const SweepCliOptions opts =
      read_sweep_flags(cli, 5, 21, "BENCH_fault_tolerance.json");
  cli.validate_no_unknown_flags();
  const benchutil::ResolvedEngine engine =
      benchutil::resolve_usd_engine(engine_flag, n, {"collapsed"});
  const bool collapsed = engine.kind == EngineKind::kCollapsed;

  benchutil::banner("fault_tolerance",
                    "USD under transient corruption: quality vs rate, and recovery");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("horizon (parallel time)", horizon);
  benchutil::param("trials per rate", static_cast<std::int64_t>(opts.trials));
  benchutil::param("engine", engine.name);

  const InitialConfig init = figure1_configuration(n, k);
  const auto horizon_interactions =
      static_cast<Interactions>(horizon * static_cast<double>(n));

  SweepSpec spec;
  spec.name = "fault_tolerance";
  opts.configure(spec);
  // --trials auto pins this bench's headline metric.
  spec.stopping.metric = "quality_at_horizon";
  for (const double rate : {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2}) {
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(init.bias);
    cell.engine = engine.kind;
    cell.protocol = engine.protocol_label;
    cell.name = "rate=" + format_sci(rate, 1);
    cell.params = {{"corruption_rate", rate}};
    spec.cells.push_back(cell);
  }

  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);

  // Quality at the horizon, then recovery: faults stop and the engine runs
  // to stabilization. Shared by both engines.
  auto measure = [&](auto& sim, Interactions corruptions) -> SweepMetrics {
    const Configuration& c = sim.configuration();
    const double quality = consensus_quality(c);
    bool majority_leads = true;
    for (Opinion j = 1; j < k; ++j) {
      if (opinion_count(c, j) > opinion_count(c, 0)) majority_leads = false;
    }
    const Interactions before = sim.interactions();
    const RunOutcome out = sim.run_until_stable(before + sat_mul(100000, n));
    SweepMetrics m = {
        {"quality_at_horizon", quality},
        {"majority_still_top", majority_leads ? 1.0 : 0.0},
        {"recovered", out.stabilized ? 1.0 : 0.0},
        {"corruptions", static_cast<double>(corruptions)},
    };
    if (out.stabilized) {
      m.emplace_back("recovery_parallel_time",
                     static_cast<double>(sim.interactions() - before) /
                         static_cast<double>(n));
    }
    return m;
  };

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const double rate = ctx.cell.param("corruption_rate", 0.0);
    if (collapsed) {
      // Counts-space path: same experiment, faults batched per τ-round via
      // the exact binomial — the realized rate matches the agent-space
      // injector below (faults_test pins the parity differentially).
      CollapsedSimulator::Options copts;
      copts.kernel = ctx.cell.kernel.value_or(opts.kernel);
      CollapsedSimulator sim(usd, initial, ctx.seed, copts);
      CountsFaultInjector injector(rate, ctx.rng());
      injector.run(sim, horizon_interactions);
      return measure(sim, injector.corruptions());
    }
    Simulator sim(usd, initial, ctx.seed);
    // The injector owns a separate stream (drawn from this trial's private
    // stream) so fault patterns are reproducible independently of the
    // trajectory randomness.
    UsdFaultInjector injector(rate, ctx.rng());
    injector.run(sim, horizon_interactions);
    return measure(sim, injector.corruptions());
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"corruption_rate", "mean_quality_at_horizon", "min_quality",
               "majority_still_top_rate", "mean_recovery_parallel_time"});
  for (const SweepCellResult& cr : result.cells) {
    table.row()
        .cell(format_sci(cr.cell.param("corruption_rate", 0.0), 1))
        .cell(cr.mean("quality_at_horizon"), 4)
        .cell(cr.min("quality_at_horizon"), 4)
        .cell(cr.rate("majority_still_top"), 2)
        .cell(cr.mean("recovery_parallel_time"), 2)
        .done();
    std::cout << "  rate=" << format_sci(cr.cell.param("corruption_rate", 0.0), 1)
              << " done\n";
  }

  benchutil::tsv_block("fault_tolerance", table);
  table.write_pretty(std::cout);
  std::cout << "\nExpected shape: quality ~1.0 through rate <= 1e-4, smooth "
               "degradation after;\nrecovery always succeeds (self-stabilization); "
               "the majority's identity survives\nmoderate rates but not heavy "
               "corruption.\n";
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
