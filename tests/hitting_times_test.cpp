// Hitting-time measurements: skip-ahead exactness against a step-by-step
// reference, budget semantics, and the undecided-excursion tracker.
#include "ppsim/analysis/hitting_times.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ppsim/core/engine.hpp"
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

/// The exact engine, as the benches build it.
Engine sequential(const UndecidedStateDynamics& usd, Configuration initial,
                  std::uint64_t seed) {
  return Engine(EngineKind::kSequential, usd, std::move(initial), seed);
}

TEST(HittingTimesTest, AlreadyAtLevelHitsImmediately) {
  Engine engine = sequential(kUsd2, usd_config({50, 50}), 1);
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
    Engine fast = sequential(kUsd3, usd_config({50, 30, 20}), seed);
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
    Engine fast = sequential(kUsd3, usd_config({40, 30, 30}), seed);
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

TEST(HittingTimesTest, CollapsedSkipAheadMatchesACheckAtEveryRound) {
  // A round of τ interactions moves x_i by at most τ and Δmax by at most 2τ,
  // so the skip-ahead reads the same first hitting round as a read at every
  // round boundary, on the same seed.
  const Configuration initial = usd_config({45000, 30000, 25000});
  const auto every_round = [&](std::uint64_t seed, auto value, Count level) {
    Engine engine(EngineKind::kCollapsed, kUsd3, initial, seed);
    HittingResult r;
    const RunOutcome out = engine.run_until(
        [&](const Configuration& c, Interactions t) {
          if (value(c) < level) return false;
          r.hit = true;
          r.interactions_at_hit = t;
          return true;
        },
        50'000'000);
    if (!r.hit && value(engine.configuration()) >= level) {
      r.hit = true;
      r.interactions_at_hit = out.interactions;
    }
    r.interactions_used = out.interactions;
    r.stabilized = out.stabilized;
    return r;
  };
  const auto x0 = [](const Configuration& c) { return opinion_count(c, 0); };
  const auto delta = [](const Configuration& c) { return delta_max(c); };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine growth(EngineKind::kCollapsed, kUsd3, initial, seed);
    const HittingResult g = time_until_opinion_reaches(growth, 0, 70000, 50'000'000);
    const HittingResult g_ref = every_round(seed, x0, 70000);
    ASSERT_TRUE(g.hit);
    EXPECT_EQ(g.interactions_at_hit, g_ref.interactions_at_hit);
    EXPECT_EQ(g.interactions_used, g_ref.interactions_used);

    Engine doubling(EngineKind::kCollapsed, kUsd3, initial, seed);
    const HittingResult d = time_until_delta_reaches(doubling, 40000, 50'000'000);
    const HittingResult d_ref = every_round(seed, delta, 40000);
    ASSERT_TRUE(d.hit);
    EXPECT_EQ(d.interactions_at_hit, d_ref.interactions_at_hit);
    EXPECT_EQ(d.interactions_used, d_ref.interactions_used);
  }
}

TEST(HittingTimesTest, BudgetPreventsHit) {
  Engine engine = sequential(kUsd2, usd_config({500, 500}), 5);
  // level n is unreachable in 10 interactions from a balanced start
  const HittingResult r = time_until_opinion_reaches(engine, 0, 1000, 10);
  EXPECT_FALSE(r.hit);
  EXPECT_LE(r.interactions_used, 10);
}

TEST(HittingTimesTest, StabilizationEndsTheRun) {
  // Tiny population stabilizes long before the budget; the helper must
  // report stabilized and not spin.
  Engine engine = sequential(kUsd2, usd_config({3, 2}), 9);
  const HittingResult r = time_until_opinion_reaches(engine, 1, 5, 1'000'000);
  EXPECT_TRUE(r.stabilized || r.hit);
  EXPECT_LT(r.interactions_used, 1'000'000);
}

TEST(HittingTimesTest, InvalidArguments) {
  Engine engine = sequential(kUsd2, usd_config({5, 5}), 1);
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
