// Exact-majority baselines: the 4-state protocol's invariant and exactness,
// and quantized averaging's conservation law and sign correctness.
#include <gtest/gtest.h>

#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/averaging_majority.hpp"
#include "ppsim/protocols/four_state_majority.hpp"
#include "ppsim/util/check.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

// ----------------------------------------------------------- four-state ----

TEST(FourStateMajorityTest, TransitionRules) {
  const FourStateMajority p;
  using M = FourStateMajority;
  // strong/strong cancellation, both orders
  EXPECT_EQ(p.apply(M::kStrongA, M::kStrongB), (Transition{M::kWeakA, M::kWeakB}));
  EXPECT_EQ(p.apply(M::kStrongB, M::kStrongA), (Transition{M::kWeakB, M::kWeakA}));
  // strong converts opposing weak
  EXPECT_EQ(p.apply(M::kStrongA, M::kWeakB), (Transition{M::kStrongA, M::kWeakA}));
  EXPECT_EQ(p.apply(M::kWeakB, M::kStrongA), (Transition{M::kWeakA, M::kStrongA}));
  EXPECT_EQ(p.apply(M::kStrongB, M::kWeakA), (Transition{M::kStrongB, M::kWeakB}));
  // null examples
  EXPECT_EQ(p.apply(M::kStrongA, M::kWeakA), (Transition{M::kStrongA, M::kWeakA}));
  EXPECT_EQ(p.apply(M::kWeakA, M::kWeakB), (Transition{M::kWeakA, M::kWeakB}));
}

TEST(FourStateMajorityTest, OutputGroupsStrongAndWeak) {
  const FourStateMajority p;
  using M = FourStateMajority;
  EXPECT_EQ(*p.output(M::kStrongA), M::kOpinionA);
  EXPECT_EQ(*p.output(M::kWeakA), M::kOpinionA);
  EXPECT_EQ(*p.output(M::kStrongB), M::kOpinionB);
  EXPECT_EQ(*p.output(M::kWeakB), M::kOpinionB);
}

TEST(FourStateMajorityTest, StrongDifferenceIsInvariant) {
  const FourStateMajority p;
  Simulator sim(p, FourStateMajority::initial(60, 40), 3);
  const Count initial_diff = 60 - 40;
  for (int i = 0; i < 20000; ++i) {
    sim.step();
    const auto& c = sim.configuration();
    ASSERT_EQ(c.count(FourStateMajority::kStrongA) - c.count(FourStateMajority::kStrongB),
              initial_diff);
  }
}

TEST(FourStateMajorityTest, ExactEvenWithMinimalBias) {
  // d = 1 out of n = 101: exact majority must still always pick A.
  const FourStateMajority p;
  const SweepCellResult cell = testutil::run_cell(20, 1234, [&p](std::uint64_t seed) {
    Simulator sim(p, FourStateMajority::initial(51, 50), seed);
    const RunOutcome out = sim.run_until_stable(50'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  for (const double winner : cell.values("winner")) {
    EXPECT_EQ(winner, FourStateMajority::kOpinionA);
  }
}

TEST(FourStateMajorityTest, MinorityNeverWins) {
  const FourStateMajority p;
  const SweepCellResult cell = testutil::run_cell(10, 555, [&p](std::uint64_t seed) {
    Simulator sim(p, FourStateMajority::initial(40, 60), seed);
    const RunOutcome out = sim.run_until_stable(50'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  for (const double winner : cell.values("winner")) {
    EXPECT_EQ(winner, FourStateMajority::kOpinionB);
  }
}

TEST(FourStateMajorityTest, TieEndsWithoutConsensus) {
  const FourStateMajority p;
  Simulator sim(p, FourStateMajority::initial(50, 50), 7);
  const RunOutcome out = sim.run_until_stable(50'000'000);
  ASSERT_TRUE(out.stabilized);
  // All strong agents cancelled; mixed weak states remain.
  EXPECT_EQ(sim.configuration().count(FourStateMajority::kStrongA), 0);
  EXPECT_EQ(sim.configuration().count(FourStateMajority::kStrongB), 0);
  EXPECT_FALSE(out.consensus.has_value());
}

// ------------------------------------------------------------ averaging ----

TEST(AveragingMajorityTest, StateValueRoundTrip) {
  const AveragingMajority p(10);
  EXPECT_EQ(p.num_states(), 21u);
  for (Count v = -10; v <= 10; ++v) {
    EXPECT_EQ(p.state_value(p.value_state(v)), v);
  }
  EXPECT_THROW(p.value_state(11), CheckFailure);
  EXPECT_THROW(AveragingMajority(0), CheckFailure);
}

TEST(AveragingMajorityTest, TransitionAveragesWithCeilFloor) {
  const AveragingMajority p(10);
  // (5, 2) -> (4, 3)
  EXPECT_EQ(p.apply(p.value_state(5), p.value_state(2)),
            (Transition{p.value_state(4), p.value_state(3)}));
  // (-5, 2) -> (-1, -2)  (sum -3: ceil -1, floor -2)
  EXPECT_EQ(p.apply(p.value_state(-5), p.value_state(2)),
            (Transition{p.value_state(-1), p.value_state(-2)}));
  // adjacent values are a null transition (multiset-preserving)
  const State a = p.value_state(3);
  const State b = p.value_state(4);
  EXPECT_EQ(p.apply(a, b), (Transition{a, b}));
  // equal values unchanged
  EXPECT_EQ(p.apply(a, a), (Transition{a, a}));
}

TEST(AveragingMajorityTest, OutputSign) {
  const AveragingMajority p(5);
  EXPECT_EQ(*p.output(p.value_state(3)), AveragingMajority::kOpinionA);
  EXPECT_EQ(*p.output(p.value_state(-1)), AveragingMajority::kOpinionB);
  EXPECT_FALSE(p.output(p.value_state(0)).has_value());
}

TEST(AveragingMajorityTest, ValueSumIsInvariant) {
  const AveragingMajority p(16);
  Simulator sim(p, p.initial(30, 20), 11, Simulator::Engine::kVirtual);
  const Count initial_sum = p.value_sum(sim.configuration());
  EXPECT_EQ(initial_sum, 16 * (30 - 20));
  for (int i = 0; i < 20000; ++i) {
    sim.step();
  }
  EXPECT_EQ(p.value_sum(sim.configuration()), initial_sum);
}

TEST(AveragingMajorityTest, ExactMajorityWithLargeResolution) {
  // m >= n makes the protocol exact: with a = 26 vs b = 24 (d = 2, n = 50),
  // the terminal mean is m·d/n = 64·2/50 > 1, so every agent ends positive.
  const AveragingMajority p(64);
  const SweepCellResult cell = testutil::run_cell(10, 2222, [&p](std::uint64_t seed) {
    Simulator sim(p, p.initial(26, 24), seed, Simulator::Engine::kVirtual);
    const RunOutcome out = sim.run_until_stable(20'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  for (const double winner : cell.values("winner")) {
    EXPECT_EQ(winner, AveragingMajority::kOpinionA);
  }
}

TEST(AveragingMajorityTest, TerminalValuesSpanAtMostTwoAdjacentLevels) {
  const AveragingMajority p(32);
  Simulator sim(p, p.initial(20, 12), 77, Simulator::Engine::kVirtual);
  const RunOutcome out = sim.run_until_stable(20'000'000);
  ASSERT_TRUE(out.stabilized);
  Count lo = 1000;
  Count hi = -1000;
  for (State s = 0; s < p.num_states(); ++s) {
    if (sim.configuration().count(s) == 0) continue;
    lo = std::min(lo, p.state_value(s));
    hi = std::max(hi, p.state_value(s));
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(AveragingMajorityTest, FasterThanFourStateOnSmallBias) {
  // The whole point of the averaging baseline: amplified bias beats the
  // 4-state protocol when the raw bias is small. Compare mean stabilization
  // interactions on n = 100, d = 2.
  const AveragingMajority avg(128);
  const FourStateMajority four;
  RunningStats avg_time;
  RunningStats four_time;
  for (int t = 0; t < 10; ++t) {
    Simulator s1(avg, avg.initial(51, 49), 100 + static_cast<std::uint64_t>(t),
                 Simulator::Engine::kVirtual);
    const RunOutcome o1 = s1.run_until_stable(100'000'000);
    ASSERT_TRUE(o1.stabilized);
    avg_time.add(static_cast<double>(o1.interactions));

    Simulator s2(four, FourStateMajority::initial(51, 49),
                 200 + static_cast<std::uint64_t>(t));
    const RunOutcome o2 = s2.run_until_stable(100'000'000);
    ASSERT_TRUE(o2.stabilized);
    four_time.add(static_cast<double>(o2.interactions));
  }
  EXPECT_LT(avg_time.mean(), four_time.mean());
}

}  // namespace
}  // namespace ppsim
