// Baseline comparison (related-work landscape, Section 1.2): stabilization
// time of the two-opinion protocols on the same inputs —
//   * USD (3 states, approximate majority, fast with bias),
//   * 4-state exact majority (slow for small bias: Θ(n log n / d)),
//   * quantized averaging (many states, fast even with minimal bias),
//   * synchronized USD (phase-gated; convergence measured to opinion
//     consensus since its clock never stops).
// Swept over the initial difference d to exhibit the crossovers the
// literature describes: exactness costs time at small d; state count buys
// that time back. One sweep cell per (bias, protocol) pair, fanned out over
// --threads with deterministic per-trial streams.
//
// Flags: --n, --trials, --seed, --threads, --avg-resolution, --json.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/averaging_majority.hpp"
#include "ppsim/protocols/four_state_majority.hpp"
#include "ppsim/protocols/synchronized_usd.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"

namespace {

using namespace ppsim;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 10'000);
  const Count avg_resolution = cli.get_int("avg-resolution", 1 << 14);
  const SweepCliOptions opts = read_sweep_flags(cli, 5, 5, "BENCH_baselines.json");
  cli.validate_no_unknown_flags();

  benchutil::banner("baselines",
                    "Two-opinion majority baselines: parallel time to stabilize vs bias");
  benchutil::param("n", n);
  benchutil::param("trials", static_cast<std::int64_t>(opts.trials));
  benchutil::param("averaging resolution m", avg_resolution);

  const std::vector<Count> biases = {2, 16, 128, 1024};
  const std::vector<std::string> protocols = {"usd", "four-state", "averaging",
                                              "sync-usd"};
  const Interactions budget = 100000 * n;

  SweepSpec spec;
  spec.name = "baselines";
  opts.configure(spec);
  for (const Count d : biases) {
    for (const std::string& protocol : protocols) {
      SweepCell cell;
      cell.n = n;
      cell.k = 2;
      cell.bias = static_cast<double>(d);
      cell.protocol = protocol;
      cell.engine = protocol == "averaging" ? EngineKind::kSequentialVirtual
                                            : EngineKind::kSequential;
      cell.name = protocol + " d=" + std::to_string(d);
      spec.cells.push_back(cell);
    }
  }

  const UndecidedStateDynamics usd(2);
  const FourStateMajority four;
  const AveragingMajority avg(avg_resolution);
  const SynchronizedUsd sync(2, 8);

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const auto d = static_cast<Count>(ctx.cell.bias);
    const Count a = (n + d) / 2;
    const Count b = n - a;
    TrialResult r;
    if (ctx.cell.protocol == "usd") {
      Engine sim(EngineKind::kSequential, usd,
                 UndecidedStateDynamics::initial_configuration({a, b}), ctx.seed);
      r = run_engine_trial(sim, budget);
    } else if (ctx.cell.protocol == "four-state") {
      Engine sim = ctx.make_engine(four, FourStateMajority::initial(a, b));
      r = run_engine_trial(sim, budget);
    } else if (ctx.cell.protocol == "averaging") {
      Engine sim = ctx.make_engine(avg, avg.initial(a, b));
      r = run_engine_trial(sim, budget);
    } else {  // sync-usd: convergence = opinion consensus, checked per round
      Simulator sim(sync, sync.initial({a, b}), ctx.seed);
      while (sim.interactions() < budget) {
        for (Count i = 0; i < n; ++i) sim.step();
        if (sync.consensus_opinion(sim.configuration()).has_value()) {
          r.stabilized = true;
          break;
        }
      }
      r.interactions = sim.interactions();
      r.parallel_time = sim.parallel_time();
      r.winner = sync.consensus_opinion(sim.configuration());
    }
    return consensus_metrics(r);
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"bias", "usd_3state", "four_state", "averaging", "sync_usd",
               "usd_exact_rate", "four_state_exact_rate"});
  for (std::size_t bi = 0; bi < biases.size(); ++bi) {
    const std::size_t base = bi * protocols.size();
    const SweepCellResult& usd_cell = result.cells[base + 0];
    const SweepCellResult& four_cell = result.cells[base + 1];
    const SweepCellResult& avg_cell = result.cells[base + 2];
    const SweepCellResult& sync_cell = result.cells[base + 3];
    table.row()
        .cell(biases[bi])
        .cell(usd_cell.mean_where("parallel_time", "stabilized"), 2)
        .cell(four_cell.mean_where("parallel_time", "stabilized"), 2)
        .cell(avg_cell.mean_where("parallel_time", "stabilized"), 2)
        .cell(sync_cell.mean_where("parallel_time", "stabilized"), 2)
        .cell(usd_cell.rate("majority_win"), 3)
        .cell(four_cell.rate("majority_win"), 3)
        .done();
    std::cout << "  bias=" << biases[bi] << " done\n";
  }

  benchutil::tsv_block("baselines", table);
  table.write_pretty(std::cout);
  std::cout << "\nExpected shape: 4-state time ~ 1/bias (exactness tax at small d);\n"
               "averaging nearly flat in bias (state count amplifies it);\n"
               "USD fast but only *approximately* correct at tiny bias\n"
               "(usd_exact_rate < 1 at bias 2, = 1 at bias >= 128).\n";
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
