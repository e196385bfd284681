// SweepRunner: thread-count-invariant determinism (byte-identical JSON),
// the documented seeding scheme (base seed -> stream index = cell * trials
// + trial), per-cell aggregation, cell-driven engine construction and error
// propagation.
#include "ppsim/core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"

namespace ppsim {
namespace {

SweepSpec small_usd_spec(unsigned threads) {
  SweepSpec spec;
  spec.name = "sweep_test";
  spec.trials = 6;
  spec.base_seed = 99;
  spec.threads = threads;
  for (const Count n : {60, 100}) {
    for (const std::size_t k : {2, 3}) {
      SweepCell cell;
      cell.n = n;
      cell.k = k;
      spec.cells.push_back(cell);
    }
  }
  return spec;
}

SweepMetrics usd_trial(const SweepTrial& ctx) {
  std::vector<Count> counts(ctx.cell.k, ctx.cell.n / static_cast<Count>(ctx.cell.k));
  counts[0] += ctx.cell.n - counts[0] * static_cast<Count>(ctx.cell.k);
  const UndecidedStateDynamics usd(ctx.cell.k);
  Engine engine(EngineKind::kSequential, usd,
                UndecidedStateDynamics::initial_configuration(counts), ctx.seed);
  return consensus_metrics(run_engine_trial(engine, 1'000'000));
}

TEST(SweepRunnerTest, ThreadCountDoesNotChangeTheJsonByte4Byte) {
  // The acceptance property of the harness: a run with --threads 1 and a
  // run with --threads 8 produce byte-identical unified JSON reports.
  const SweepResult serial = SweepRunner(small_usd_spec(1)).run(usd_trial);
  const SweepResult parallel = SweepRunner(small_usd_spec(8)).run(usd_trial);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(parallel.threads, 8u);
}

TEST(SweepRunnerTest, PerTrialResultsMatchAcrossThreadCounts) {
  const SweepResult serial = SweepRunner(small_usd_spec(1)).run(usd_trial);
  const SweepResult parallel = SweepRunner(small_usd_spec(4)).run(usd_trial);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    EXPECT_EQ(serial.cells[c].trials, parallel.cells[c].trials) << "cell " << c;
  }
}

TEST(SweepRunnerTest, SeedingSchemeIsCellTimesTrialsPlusTrial) {
  SweepSpec spec;
  spec.name = "seeding";
  spec.trials = 4;
  spec.base_seed = 1234;
  spec.cells.resize(3);
  const SweepResult result = SweepRunner(spec).run([](const SweepTrial& ctx) {
    return SweepMetrics{
        {"stream_index", static_cast<double>(ctx.stream_index)},
        {"seed", static_cast<double>(ctx.seed >> 11)},  // exact in a double
    };
  });
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t t = 0; t < 4; ++t) {
      const std::uint64_t expected_index = c * 4 + t;
      EXPECT_EQ(result.cells[c].values("stream_index")[t],
                static_cast<double>(expected_index));
      // The derived seed is the first draw of the documented stream.
      Xoshiro256pp stream = SweepRunner::trial_stream(1234, expected_index);
      EXPECT_EQ(result.cells[c].values("seed")[t],
                static_cast<double>(stream() >> 11));
    }
  }
}

TEST(SweepRunnerTest, AggregatesMatchSummarize) {
  SweepSpec spec;
  spec.name = "agg";
  spec.trials = 5;
  spec.cells.resize(1);
  const SweepResult result = SweepRunner(spec).run([](const SweepTrial& ctx) {
    return SweepMetrics{{"value", static_cast<double>(ctx.trial * ctx.trial)}};
  });
  const SweepCellResult& cr = result.cells[0];
  const SweepMetricAggregate* agg = cr.find("value");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->summary.count, 5);
  EXPECT_DOUBLE_EQ(agg->summary.mean, (0.0 + 1 + 4 + 9 + 16) / 5);
  EXPECT_DOUBLE_EQ(agg->summary.min, 0.0);
  EXPECT_DOUBLE_EQ(agg->summary.max, 16.0);
  EXPECT_DOUBLE_EQ(agg->summary.median, 4.0);
  EXPECT_DOUBLE_EQ(cr.sum("value"), 30.0);
  EXPECT_DOUBLE_EQ(cr.max("value"), 16.0);
}

TEST(SweepRunnerTest, RaggedMetricsAggregateOverReportingTrials) {
  SweepSpec spec;
  spec.name = "ragged";
  spec.trials = 4;
  spec.cells.resize(1);
  const SweepResult result = SweepRunner(spec).run([](const SweepTrial& ctx) {
    SweepMetrics m = {{"always", 1.0}};
    if (ctx.trial % 2 == 0) m.emplace_back("sometimes", static_cast<double>(ctx.trial));
    return m;
  });
  const SweepCellResult& cr = result.cells[0];
  EXPECT_EQ(cr.values("always").size(), 4u);
  EXPECT_EQ(cr.values("sometimes").size(), 2u);
  EXPECT_DOUBLE_EQ(cr.mean("sometimes"), 1.0);  // (0 + 2) / 2
  EXPECT_DOUBLE_EQ(cr.mean("missing", -7.0), -7.0);
}

TEST(SweepRunnerTest, ConditionalHelpersSelectByFlag) {
  SweepSpec spec;
  spec.name = "cond";
  spec.trials = 4;
  spec.cells.resize(1);
  const SweepResult result = SweepRunner(spec).run([](const SweepTrial& ctx) {
    return SweepMetrics{
        {"flag", ctx.trial < 2 ? 1.0 : 0.0},
        {"value", static_cast<double>(ctx.trial + 10)},
    };
  });
  const SweepCellResult& cr = result.cells[0];
  EXPECT_DOUBLE_EQ(cr.rate("flag"), 0.5);
  EXPECT_DOUBLE_EQ(cr.mean_where("value", "flag"), 10.5);  // trials 0, 1
  EXPECT_DOUBLE_EQ(cr.min_where("value", "flag"), 10.0);
  EXPECT_DOUBLE_EQ(cr.max_where("value", "flag"), 11.0);
  EXPECT_EQ(cr.values_where("value", "flag").size(), 2u);
  EXPECT_DOUBLE_EQ(cr.min_where("value", "absent", -3.0), -3.0);
}

TEST(SweepRunnerTest, CellDrivesAnyEngineKindWithClampedAccounting) {
  // A cell builds the engine it names through the facade, and the standard
  // metric block separates attempted vs effective interactions (the
  // τ-leaping clamp used to be double-reported).
  const UndecidedStateDynamics usd(2);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({600, 400});
  for (const EngineKind kind :
       {EngineKind::kSequential, EngineKind::kCollapsed}) {
    SweepSpec spec;
    spec.name = "engine";
    spec.trials = 2;
    SweepCell cell;
    cell.n = 1000;
    cell.k = 2;
    cell.engine = kind;
    spec.cells.push_back(cell);
    const SweepResult result =
        SweepRunner(spec).run([&](const SweepTrial& ctx) {
          Engine engine = ctx.make_engine(usd, initial);
          EXPECT_EQ(engine.kind(), kind);
          const TrialResult r = run_engine_trial(engine, 10'000'000);
          EXPECT_EQ(engine.clamped_interactions(), r.clamped);
          return consensus_metrics(r);
        });
    const SweepCellResult& cr = result.cells[0];
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_DOUBLE_EQ(cr.values("effective_interactions")[t],
                       cr.values("interactions")[t] - cr.values("clamped")[t]);
    }
    if (kind == EngineKind::kSequential) {
      EXPECT_DOUBLE_EQ(cr.sum("clamped"), 0.0);  // exact engines never clamp
    }
  }
}

TEST(SweepRunnerTest, FiringClampIsSubtractedFromEffectiveInteractions) {
  // Coarse fixed rounds (n / 8) can overdraw the last minority agents: the
  // clamp fires in about one seed in four, and seed 14 clamps twice. The
  // metric block must report that overdraw and subtract it from the
  // effective count.
  const UndecidedStateDynamics usd(2);
  Engine engine(EngineKind::kCollapsed, usd,
                UndecidedStateDynamics::initial_configuration({600, 400}), 14,
                {.fixed_round = 125});
  const TrialResult r = run_engine_trial(engine, 10'000'000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_GT(r.clamped, 0);
  EXPECT_EQ(engine.clamped_interactions(), r.clamped);
  const SweepMetrics m = consensus_metrics(r);
  const std::map<std::string, double> metric(m.begin(), m.end());
  EXPECT_DOUBLE_EQ(metric.at("clamped"), static_cast<double>(r.clamped));
  EXPECT_DOUBLE_EQ(metric.at("effective_interactions"),
                   static_cast<double>(r.interactions - r.clamped));
}

TEST(SweepRunnerTest, CollapsedEngineSweepIsThreadCountInvariantByteForByte) {
  // The billion-agent workflow is a collapsed-engine sweep fanned out over
  // threads; its unified JSON must stay byte-identical at any thread count,
  // exactly like the sequential-engine sweeps pinned above.
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({500, 300, 200});
  auto spec_for = [&](unsigned threads) {
    SweepSpec spec;
    spec.name = "collapsed_sweep";
    spec.trials = 6;
    spec.base_seed = 77;
    spec.threads = threads;
    for (const double eps : {0.05, 0.2}) {
      SweepCell cell;
      cell.n = 1000;
      cell.k = 3;
      cell.engine = EngineKind::kCollapsed;
      cell.tau_epsilon = eps;
      spec.cells.push_back(cell);
    }
    return spec;
  };
  auto trial = [&](const SweepTrial& ctx) {
    Engine engine = ctx.make_engine(usd, initial);
    EXPECT_EQ(engine.kind(), EngineKind::kCollapsed);
    return consensus_metrics(run_engine_trial(engine, 50'000'000));
  };
  const SweepResult serial = SweepRunner(spec_for(1)).run(trial);
  const SweepResult parallel = SweepRunner(spec_for(8)).run(trial);
  const std::string json = serial.to_json();
  EXPECT_EQ(json, parallel.to_json());
  // The report names the engine and carries the collapsed-engine knob.
  EXPECT_NE(json.find("\"engine\": \"collapsed\""), std::string::npos);
  EXPECT_NE(json.find("\"tau_epsilon\": 0.2"), std::string::npos);
  for (const SweepCellResult& cr : serial.cells) {
    EXPECT_DOUBLE_EQ(cr.rate("stabilized"), 1.0);
  }
}

TEST(SweepRunnerTest, TrialExceptionsPropagate) {
  SweepSpec spec;
  spec.name = "boom";
  spec.trials = 8;
  spec.threads = 4;
  spec.cells.resize(2);
  std::atomic<int> calls{0};
  EXPECT_THROW(SweepRunner(spec).run([&](const SweepTrial& ctx) -> SweepMetrics {
    ++calls;
    if (ctx.stream_index == 5) throw std::runtime_error("trial failed");
    return {};
  }),
               std::runtime_error);
  EXPECT_LE(calls.load(), 16);
}

TEST(SweepRunnerTest, RejectsEmptyNameZeroTrialsAndNullFunction) {
  SweepSpec unnamed;
  unnamed.trials = 1;
  EXPECT_THROW(SweepRunner(std::move(unnamed)), CheckFailure);
  SweepSpec no_trials;
  no_trials.name = "x";
  no_trials.trials = 0;
  EXPECT_THROW(SweepRunner(std::move(no_trials)), CheckFailure);
  SweepSpec ok;
  ok.name = "x";
  EXPECT_THROW(SweepRunner(std::move(ok)).run(SweepTrialFn{}), CheckFailure);
}

TEST(SweepRunnerTest, EmptyCellListProducesEmptyResult) {
  SweepSpec spec;
  spec.name = "empty";
  const SweepResult result = SweepRunner(spec).run(
      [](const SweepTrial&) -> SweepMetrics { return {}; });
  EXPECT_TRUE(result.cells.empty());
  EXPECT_NE(result.to_json().find("\"cells\": []"), std::string::npos);
}

TEST(SweepRunnerTest, ResolvedThreadsClampsToInitialWorkItemCount) {
  // Regression: the clamp used to compare against cells.size() alone, so a
  // 1-cell grid with many trials was forced down to one worker no matter
  // what --threads asked for. The bound is the initial work-item count
  // cells x trials.
  SweepSpec spec;
  spec.name = "clamp";
  spec.trials = 3;
  spec.threads = 64;
  spec.cells.resize(1);
  EXPECT_EQ(SweepRunner::resolved_threads(spec), 3u);
  const auto seed_trial = [](const SweepTrial& ctx) {
    return SweepMetrics{{"seed", static_cast<double>(ctx.seed >> 11)}};
  };
  const SweepResult wide = SweepRunner(spec).run(seed_trial);
  EXPECT_EQ(wide.threads, 3u);
  // And the clamped run still reproduces the serial bytes exactly.
  SweepSpec serial_spec = spec;
  serial_spec.threads = 1;
  const SweepResult serial = SweepRunner(serial_spec).run(seed_trial);
  EXPECT_EQ(serial.to_json(), wide.to_json());
}

TEST(SweepRunnerTest, FixedTrialRunsReportRequestedEqualsRun) {
  // Satellite contract: the report distinguishes trials_requested from
  // trials_run, and for fixed-trial sweeps the two are always equal.
  const SweepResult result = SweepRunner(small_usd_spec(4)).run(usd_trial);
  for (const SweepCellResult& cr : result.cells) {
    EXPECT_EQ(cr.trials_requested, 6u);
    EXPECT_EQ(cr.trials_run, 6u);
    EXPECT_EQ(cr.trials.size(), 6u);
  }
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"trials_requested\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"trials_run\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"fixed\""), std::string::npos);
}

SweepSpec adaptive_usd_spec(unsigned threads) {
  SweepSpec spec = small_usd_spec(threads);
  spec.trials = 32;  // the cap
  spec.stopping.adaptive = true;
  spec.stopping.rel_err = 0.15;
  spec.stopping.min_trials = 4;
  spec.stopping.metric = "parallel_time";
  return spec;
}

TEST(SweepRunnerTest, AdaptiveSweepJsonIsThreadCountInvariant) {
  // The tentpole guarantee extended to --trials auto: stopping decisions are
  // evaluated over deterministic trial-index prefixes, so adaptive sweeps
  // serialize byte-identically at any thread count too.
  const SweepResult serial = SweepRunner(adaptive_usd_spec(1)).run(usd_trial);
  const SweepResult parallel = SweepRunner(adaptive_usd_spec(8)).run(usd_trial);
  const std::string json = serial.to_json();
  EXPECT_EQ(json, parallel.to_json());
  EXPECT_NE(json.find("\"mode\": \"auto\""), std::string::npos);
  EXPECT_NE(json.find("\"rel_err\": 0.15"), std::string::npos);
  for (const SweepCellResult& cr : serial.cells) {
    EXPECT_EQ(cr.trials_requested, 32u);
    EXPECT_GE(cr.trials_run, 4u);
    EXPECT_LE(cr.trials_run, 32u);
    EXPECT_EQ(cr.trials.size(), cr.trials_run);
  }
}

TEST(SweepRunnerTest, AdaptiveStoppingValidatesItsParameters) {
  auto adaptive = [] {
    SweepSpec spec;
    spec.name = "bad";
    spec.trials = 8;
    spec.cells.resize(1);
    spec.stopping.adaptive = true;
    return spec;
  };
  const auto noop = [](const SweepTrial&) -> SweepMetrics { return {}; };
  SweepSpec rel = adaptive();
  rel.stopping.rel_err = 0.0;
  EXPECT_THROW(SweepRunner(std::move(rel)).run(noop), CheckFailure);
  SweepSpec conf = adaptive();
  conf.stopping.confidence = 1.0;
  EXPECT_THROW(SweepRunner(std::move(conf)).run(noop), CheckFailure);
  SweepSpec floor = adaptive();
  floor.stopping.min_trials = 1;
  EXPECT_THROW(SweepRunner(std::move(floor)).run(noop), CheckFailure);
  SweepSpec metric = adaptive();
  metric.stopping.metric.clear();
  EXPECT_THROW(SweepRunner(std::move(metric)).run(noop), CheckFailure);
}

TEST(SweepCliTest, ThreadsFlagRejectsNegativeCounts) {
  const auto threads_of = [](const char* value) {
    const char* argv[] = {"prog", "--threads", value};
    Cli cli(3, argv);
    return read_sweep_flags(cli, 1, 42, "").threads;
  };
  EXPECT_THROW(threads_of("-1"), CheckFailure);
  EXPECT_EQ(threads_of("0"), 0u);
  EXPECT_EQ(threads_of("3"), 3u);
}

TEST(SweepCliTest, TrialBoundsRejectNegativeCounts) {
  // --min-trials/--max-trials are checked as signed values: a negative one
  // must be named in the error, not wrap to a huge size_t.
  const auto adaptive = [](const char* flag, const char* value) {
    const char* argv[] = {"prog", "--trials", "auto", flag, value};
    Cli cli(5, argv);
    return read_sweep_flags(cli, 1, 42, "");
  };
  const auto message = [&](const char* flag, const char* value) {
    try {
      adaptive(flag, value);
    } catch (const CheckFailure& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message("--max-trials", "-1").find("--max-trials"), std::string::npos);
  EXPECT_NE(message("--min-trials", "-3").find("--min-trials must be an integer in [2"),
            std::string::npos);
  const SweepCliOptions ok = adaptive("--max-trials", "16");
  EXPECT_EQ(ok.trials, 16u);
  EXPECT_EQ(ok.stopping.min_trials, 8u);
}

// The message of the CheckFailure read_sweep_flags throws for `args`, or "".
std::string sweep_flags_error(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  Cli cli(static_cast<int>(args.size()), args.data());
  try {
    read_sweep_flags(cli, 1, 42, "");
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

// A trial bound without --trials auto used to be dropped silently.
TEST(SweepCliTest, TrialBoundsNeedAdaptiveTrials) {
  const std::string error = sweep_flags_error({"--trials", "2", "--max-trials", "16"});
  EXPECT_NE(error.find("--max-trials"), std::string::npos);
  EXPECT_NE(error.find("--trials auto"), std::string::npos);
  EXPECT_NE(sweep_flags_error({"--min-trials", "4"}).find("--min-trials"),
            std::string::npos);
  EXPECT_NE(sweep_flags_error({"--trials", "auto", "--min-trials", "9", "--max-trials", "8"})
                .find("--min-trials 9 exceeds --max-trials 8"),
            std::string::npos);
  EXPECT_EQ(sweep_flags_error({"--trials", "auto", "--min-trials", "4"}), "");
}

// `--trials auto:inf` used to stop every cell at the min-trials floor.
TEST(SweepCliTest, AdaptiveRelErrMustBeFinitePositive) {
  for (const char* bad : {"auto:inf", "auto:nan", "auto:0", "auto:-0.1", "auto:",
                          "auto:0.1x"}) {
    EXPECT_NE(sweep_flags_error({"--trials", bad}).find("--trials must be a number"),
              std::string::npos)
        << bad;
  }
  for (const char* bad : {"0", "-2", "abc", ""}) {
    EXPECT_NE(sweep_flags_error({"--trials", bad}).find("--trials must be an integer"),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(sweep_flags_error({"--trials", "auto:0.02"}), "");
}

TEST(SweepCliTest, MaxParallelBudgetRejectsNonFiniteAndOverflow) {
  // The budget is max_parallel · n, truncated; a value whose product leaves
  // the Interactions range must be named in the error, not cast (undefined
  // behaviour) into a garbage budget.
  EXPECT_EQ(max_parallel_budget(100000.0, 1000), 100'000'000);
  EXPECT_EQ(max_parallel_budget(2.5, 3), 7);
  EXPECT_EQ(max_parallel_budget(0.0, 1000), 0);
  const auto message = [](double max_parallel, Count n) {
    try {
      max_parallel_budget(max_parallel, n);
    } catch (const CheckFailure& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -inf, inf, std::nan(""), 1e300}) {
    EXPECT_NE(message(bad, 1000).find("--max-parallel"), std::string::npos)
        << "max_parallel " << bad;
  }
  // 2^63 interactions is one past the largest budget; just below it fits.
  EXPECT_NE(message(9223372036854775808.0, 1).find("--max-parallel"),
            std::string::npos);
  EXPECT_EQ(max_parallel_budget(9223372036854774784.0, 1),
            std::numeric_limits<Interactions>::max() - 1023);
}

// The message of the CheckFailure that benchutil::read_usd_engine and then
// the unknown-flag check throw for `args` at population n, or "".
std::string engine_flags_error(std::vector<const char*> args, Count n = 1000) {
  args.insert(args.begin(), "prog");
  Cli cli(static_cast<int>(args.size()), args.data());
  try {
    benchutil::read_usd_engine(cli, n);
    cli.validate_no_unknown_flags();
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

// A tuning flag the resolved engine ignores used to be accepted silently.
TEST(BenchFlagsTest, RejectsTuningFlagsTheEngineIgnores) {
  EXPECT_NE(engine_flags_error({"--tau-epsilon", "0.1"})
                .find("--tau-epsilon applies only to --engine collapsed, not to "
                      "--engine sequential"),
            std::string::npos);
  EXPECT_EQ(engine_flags_error({"--engine", "collapsed", "--tau-epsilon", "0.1"}), "");
  EXPECT_EQ(engine_flags_error({"--tau-epsilon", "0.1"}, 100'000'000), "");
}

// The retired fixed-round engine's divisor flag used to be rejected as
// applying only to that engine, even by benches that never offered it. No
// bench registers it now, so it is an unknown flag.
TEST(BenchFlagsTest, RoundDivisorIsAnUnknownFlag) {
  EXPECT_NE(engine_flags_error({"--round-divisor", "8"})
                .find("unknown flag --round-divisor"),
            std::string::npos);
}

TEST(BenchFlagsTest, ResolvesAutoIntoTheCellTemplate) {
  const char* argv[] = {"prog", "--engine", "collapsed", "--tau-epsilon", "0.1"};
  Cli cli(5, argv);
  const SweepCell cell = benchutil::read_usd_engine(cli, 1000);
  EXPECT_EQ(cell.engine, EngineKind::kCollapsed);
  EXPECT_EQ(cell.protocol, "usd-collapsed");
  EXPECT_DOUBLE_EQ(cell.tau_epsilon, 0.1);

  const char* none[] = {"prog"};
  Cli small(1, none);
  EXPECT_EQ(benchutil::read_usd_engine(small, 1000).protocol, "usd-specialized");
  Cli large(1, none);
  EXPECT_EQ(benchutil::read_usd_engine(large, 100'000'000).engine,
            EngineKind::kCollapsed);
}

TEST(BenchFlagsTest, KRangeIsOrdered) {
  const auto range_error = [](const char* kmin, const char* kmax) {
    const char* argv[] = {"prog", "--kmin", kmin, "--kmax", kmax};
    Cli cli(5, argv);
    try {
      benchutil::read_k_range(cli, 2, 32);
    } catch (const CheckFailure& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(range_error("4", "4"), "");
  EXPECT_NE(range_error("8", "4").find("--kmin 8 exceeds --kmax 4"), std::string::npos);
  EXPECT_NE(range_error("1", "4").find("--kmin must be an integer in [2, inf)"),
            std::string::npos);
}

// Small populations used to die inside analysis/initial.cpp without naming
// a flag.
TEST(SweepCliTest, BiasMustLeaveAnAgentPerOpinion) {
  EXPECT_NO_THROW(check_bias_fits(10, 3, 7.0, "--k"));
  try {
    check_bias_fits(10, 3, 8.0, "--k");
    ADD_FAILURE() << "bias 8 + k 3 > n 10 accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "--k: k = 3 and bias 8 need --n of at least bias + k, got --n 10"),
              std::string::npos);
  }
  EXPECT_NO_THROW(adversarial_configuration(10, 3, 7));
  EXPECT_THROW(adversarial_configuration(10, 3, 8), CheckFailure);
  EXPECT_THROW(check_bias_fits(10, 3, 1e30, "--bias-mult"), CheckFailure);
  // A single opinion ignores the bias.
  EXPECT_NO_THROW(check_bias_fits(2, 1, 2.0, "--k"));
  EXPECT_NO_THROW(adversarial_configuration(2, 1, 2));
  // Figure 1's bias at n = 100 is ⌈√(100 ln 100)⌉ = 22.
  EXPECT_NO_THROW(benchutil::check_figure1_fits(100, 78, "--kmin/--kmax"));
  EXPECT_THROW(benchutil::check_figure1_fits(100, 79, "--kmin/--kmax"), CheckFailure);
  EXPECT_NO_THROW(figure1_configuration(100, 78));
  EXPECT_THROW(figure1_configuration(100, 79), CheckFailure);
}

TEST(SweepCellTest, ParamLookupAndLabel) {
  SweepCell cell;
  cell.n = 100;
  cell.k = 7;
  cell.params = {{"rate", 0.25}};
  EXPECT_DOUBLE_EQ(cell.param("rate", -1.0), 0.25);
  EXPECT_DOUBLE_EQ(cell.param("absent", -1.0), -1.0);
  EXPECT_EQ(cell.label(), "n=100,k=7");
  cell.name = "custom";
  EXPECT_EQ(cell.label(), "custom");
}

TEST(SweepResultTest, JsonCarriesCellAxesAndMetricValues) {
  SweepSpec spec;
  spec.name = "json";
  spec.trials = 2;
  SweepCell cell;
  cell.n = 10;
  cell.k = 2;
  cell.protocol = "usd";
  cell.params = {{"rho", 0.5}};
  spec.cells.push_back(cell);
  const SweepResult result = SweepRunner(spec).run([](const SweepTrial& ctx) {
    return SweepMetrics{{"m", static_cast<double>(ctx.trial)}};
  });
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"sweep\": \"json\""), std::string::npos);
  EXPECT_NE(json.find("\"rho\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"m\""), std::string::npos);
  EXPECT_NE(json.find("\"values\": [0, 1]"), std::string::npos);
  EXPECT_NE(json.find("stream(cell * trials + trial)"), std::string::npos);
  // Wall clock must stay out of the report (byte-identity across runs).
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(SweepRunnerTest, CellCallbackOrderNeverAffectsTheEmittedJson) {
  // run_job streams cells to on_cell in completion order — a schedule-
  // dependent order by design. The pin: whatever order the callbacks fire
  // in, the assembled report is the same bytes, and each streamed cell
  // carries exactly the data the report ends up holding at its cell_index.
  const std::string reference =
      SweepRunner(small_usd_spec(1)).run(usd_trial).to_json();
  for (const unsigned threads : {1u, 4u, 8u}) {
    std::mutex mutex;
    std::vector<std::size_t> order;
    std::vector<std::vector<SweepMetrics>> streamed(4);
    SweepJobOptions opts;
    opts.on_cell = [&](const SweepCellResult& cr) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(cr.cell_index);
      streamed[cr.cell_index] = cr.trials;
    };
    const SweepResult result =
        SweepRunner(small_usd_spec(threads)).run_job(usd_trial, opts);
    EXPECT_EQ(result.to_json(), reference) << "threads=" << threads;
    // Exactly one callback per cell, each carrying the final cell data.
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(streamed[c], result.cells[c].trials) << "cell " << c;
    }
  }
}

}  // namespace
}  // namespace ppsim
