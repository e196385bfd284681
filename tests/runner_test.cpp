// Monte-Carlo runner: seed derivation, thread-count independence,
// aggregation semantics.
#include "ppsim/core/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

TEST(RunnerTest, TrialSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) seeds.insert(trial_seed(7, i));
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_EQ(trial_seed(7, 50), trial_seed(7, 50));
  EXPECT_NE(trial_seed(7, 0), trial_seed(8, 0));
}

TEST(RunnerTest, ResultsIndependentOfThreadCount) {
  const UndecidedStateDynamics usd(2);
  auto trial = [&usd](std::uint64_t seed, std::size_t) {
    Engine engine(EngineKind::kSequential, usd,
                  UndecidedStateDynamics::initial_configuration({60, 40}), seed);
    return run_engine_trial(engine, 1'000'000);
  };
  const auto serial = run_trials(trial, 16, 99, 1);
  const auto parallel = run_trials(trial, 16, 99, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].interactions, parallel[i].interactions) << "trial " << i;
    EXPECT_EQ(serial[i].winner, parallel[i].winner) << "trial " << i;
  }
}

TEST(RunnerTest, ZeroTrialsIsEmpty) {
  const auto results = run_trials(
      [](std::uint64_t, std::size_t) { return TrialResult{}; }, 0, 1, 4);
  EXPECT_TRUE(results.empty());
}

TEST(RunnerTest, NullFunctionRejected) {
  EXPECT_THROW(run_trials(TrialFn{}, 1, 1, 1), CheckFailure);
}

TEST(RunnerTest, TrialIndexIsPassedThrough) {
  auto trial = [](std::uint64_t, std::size_t index) {
    TrialResult r;
    r.interactions = static_cast<Interactions>(index);
    r.stabilized = true;
    return r;
  };
  const auto results = run_trials(trial, 10, 5, 4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].interactions, static_cast<Interactions>(i));
  }
}

TEST(AggregateTest, CountsWinnersAndStabilization) {
  std::vector<TrialResult> results;
  for (int i = 0; i < 10; ++i) {
    TrialResult r;
    r.stabilized = i < 8;  // two trials time out
    r.parallel_time = 10.0 + i;
    if (i < 6) {
      r.winner = 0;
    } else if (i < 8) {
      r.winner = 1;
    }
    results.push_back(r);
  }
  const TrialAggregate agg = aggregate(results);
  EXPECT_EQ(agg.trials, 10u);
  EXPECT_EQ(agg.stabilized, 8u);
  EXPECT_DOUBLE_EQ(agg.stabilized_fraction(), 0.8);
  EXPECT_DOUBLE_EQ(agg.win_rate(0), 0.6);
  EXPECT_DOUBLE_EQ(agg.win_rate(1), 0.2);
  EXPECT_DOUBLE_EQ(agg.win_rate(2), 0.0);
  EXPECT_EQ(agg.no_winner, 0u);
  EXPECT_EQ(agg.parallel_time.count(), 8);
}

TEST(AggregateTest, EmptyBatch) {
  const TrialAggregate agg = aggregate({});
  EXPECT_EQ(agg.trials, 0u);
  EXPECT_DOUBLE_EQ(agg.stabilized_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(agg.win_rate(0), 0.0);
}

TEST(AggregateTest, StabilizedWithoutConsensusCounted) {
  TrialResult r;
  r.stabilized = true;  // e.g. all-undecided absorbing state
  const TrialAggregate agg = aggregate({r});
  EXPECT_EQ(agg.no_winner, 1u);
}

}  // namespace
}  // namespace ppsim
