// Hitting-time measurements: skip-ahead exactness against a step-by-step
// reference, budget semantics, and the undecided-excursion tracker.
#include "ppsim/analysis/hitting_times.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ppsim/core/simulator.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

/// The USD configuration `opinions` (plus `undecided` agents in ⊥).
Configuration usd_config(const std::vector<Count>& opinions, Count undecided = 0) {
  return UndecidedStateDynamics::initial_configuration(opinions, undecided);
}

const UndecidedStateDynamics kUsd2(2);
const UndecidedStateDynamics kUsd3(3);

TEST(HittingTimesTest, AlreadyAtLevelHitsImmediately) {
  Simulator engine(kUsd2, usd_config({50, 50}), 1);
  const HittingResult r = time_until_opinion_reaches(engine, 0, 50, 1000);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.interactions_at_hit, 0);
}

TEST(HittingTimesTest, SkipAheadMatchesStepByStepReference) {
  // Run the same seed twice: once through the skip-ahead helper, once
  // checking after every single interaction. First-hit times must agree
  // exactly.
  constexpr Count kLevel = 60;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Simulator fast(kUsd3, usd_config({50, 30, 20}), seed);
    const HittingResult via_helper =
        time_until_opinion_reaches(fast, 0, kLevel, 500000);

    Simulator slow(kUsd3, usd_config({50, 30, 20}), seed);
    Interactions reference = -1;
    while (slow.interactions() < 500000 && !slow.is_stable()) {
      if (opinion_count(slow.configuration(), 0) >= kLevel) {
        reference = slow.interactions();
        break;
      }
      slow.step();
    }
    if (reference < 0 && opinion_count(slow.configuration(), 0) >= kLevel) {
      reference = slow.interactions();
    }

    if (via_helper.hit) {
      ASSERT_EQ(via_helper.interactions_at_hit, reference) << "seed " << seed;
    } else {
      EXPECT_LT(reference, 0) << "seed " << seed;
    }
  }
}

TEST(HittingTimesTest, DeltaSkipAheadMatchesReference) {
  constexpr Count kLevel = 30;
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    Simulator fast(kUsd3, usd_config({40, 30, 30}), seed);
    const HittingResult via_helper = time_until_delta_reaches(fast, kLevel, 300000);

    Simulator slow(kUsd3, usd_config({40, 30, 30}), seed);
    Interactions reference = -1;
    while (slow.interactions() < 300000 && !slow.is_stable()) {
      if (delta_max(slow.configuration()) >= kLevel) {
        reference = slow.interactions();
        break;
      }
      slow.step();
    }
    if (reference < 0 && delta_max(slow.configuration()) >= kLevel) {
      reference = slow.interactions();
    }

    if (via_helper.hit) {
      ASSERT_EQ(via_helper.interactions_at_hit, reference) << "seed " << seed;
    } else {
      EXPECT_LT(reference, 0) << "seed " << seed;
    }
  }
}

TEST(HittingTimesTest, BudgetPreventsHit) {
  Simulator engine(kUsd2, usd_config({500, 500}), 5);
  // level n is unreachable in 10 interactions from a balanced start
  const HittingResult r = time_until_opinion_reaches(engine, 0, 1000, 10);
  EXPECT_FALSE(r.hit);
  EXPECT_LE(r.interactions_used, 10);
}

TEST(HittingTimesTest, StabilizationEndsTheRun) {
  // Tiny population stabilizes long before the budget; the helper must
  // report stabilized and not spin.
  Simulator engine(kUsd2, usd_config({3, 2}), 9);
  const HittingResult r = time_until_opinion_reaches(engine, 1, 5, 1'000'000);
  EXPECT_TRUE(r.stabilized || r.hit);
  EXPECT_LT(r.interactions_used, 1'000'000);
}

TEST(HittingTimesTest, InvalidArguments) {
  Simulator engine(kUsd2, usd_config({5, 5}), 1);
  EXPECT_THROW(time_until_opinion_reaches(engine, 2, 5, 100), CheckFailure);
  EXPECT_THROW(time_until_opinion_reaches(engine, 0, 5, -1), CheckFailure);
}

TEST(UndecidedExcursionTest, TracksRunningMaximum) {
  Engine engine(EngineKind::kSequential, kUsd3, usd_config({400, 300, 300}), 3);
  const UndecidedExcursion exc = max_undecided_over_run(engine, 200000);
  EXPECT_GT(exc.max_undecided, 0);
  // The maximum is at least the final value and at most n.
  EXPECT_GE(exc.max_undecided, 0);
  EXPECT_LE(exc.max_undecided, 1000);
  EXPECT_GE(exc.interactions_used, 1);
}

TEST(UndecidedExcursionTest, StartsFromCurrentValue) {
  // All-undecided start: the max is n immediately, and the config is stable.
  Engine engine(EngineKind::kSequential, kUsd2, usd_config({0, 0}, 10), 3);
  const UndecidedExcursion exc = max_undecided_over_run(engine, 1000);
  EXPECT_EQ(exc.max_undecided, 10);
  EXPECT_TRUE(exc.stabilized);
  EXPECT_EQ(exc.interactions_used, 0);
}

}  // namespace
}  // namespace ppsim
