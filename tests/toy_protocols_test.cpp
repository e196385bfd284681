// The test-local fixtures of toy_protocols.hpp: their transition rules,
// their conserved quantities and their end states under the exact engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "ppsim/core/simulator.hpp"
#include "ppsim/util/check.hpp"
#include "stat_util.hpp"
#include "toy_protocols.hpp"

namespace ppsim {
namespace {

using toy::Averaging;
using toy::Epidemic;
using toy::FourStateMajority;
using toy::LeaderElection;

// -------------------------------------------------------- leader election ----

TEST(LeaderElectionTest, OnlyLeaderPairsReact) {
  const LeaderElection le;
  using L = LeaderElection;
  EXPECT_EQ(le.apply(L::kLeader, L::kLeader), (Transition{L::kLeader, L::kFollower}));
  EXPECT_EQ(le.apply(L::kLeader, L::kFollower), (Transition{L::kLeader, L::kFollower}));
  EXPECT_EQ(le.apply(L::kFollower, L::kFollower),
            (Transition{L::kFollower, L::kFollower}));
}

TEST(LeaderElectionTest, ElectsExactlyOneFromAnyStart) {
  const LeaderElection le;
  for (Count initial_leaders : {2, 10, 100}) {
    Simulator sim(le, Configuration({100 - initial_leaders, initial_leaders}),
                  static_cast<std::uint64_t>(initial_leaders));
    const RunOutcome out = sim.run_until_stable(10'000'000);
    ASSERT_TRUE(out.stabilized);
    EXPECT_EQ(sim.configuration().count(LeaderElection::kLeader), 1);
  }
}

TEST(LeaderElectionTest, LeaderCountMonotone) {
  const LeaderElection le;
  Simulator sim(le, LeaderElection::initial(500), 9);
  Count prev = 500;
  for (int i = 0; i < 100000 && !sim.is_stable(); ++i) {
    sim.step();
    const Count now = sim.configuration().count(LeaderElection::kLeader);
    ASSERT_LE(now, prev);
    ASSERT_GE(now, 1);
    prev = now;
  }
}

// --------------------------------------------------------------- epidemic ----

TEST(EpidemicTest, NoSourcesIsStable) {
  const Epidemic e;
  Simulator sim(e, Epidemic::initial(100, 0), 1);
  EXPECT_TRUE(sim.is_stable());
}

TEST(EpidemicTest, InfectionIsMonotone) {
  const Epidemic e;
  Simulator sim(e, Epidemic::initial(300, 1), 5);
  Count prev = 1;
  while (!sim.is_stable()) {
    sim.step();
    const Count now = sim.configuration().count(Epidemic::kInfected);
    ASSERT_GE(now, prev);
    prev = now;
  }
  EXPECT_EQ(prev, 300);
}

// ------------------------------------------------------------- four-state ----

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

// -------------------------------------------------------------- averaging ----

TEST(AveragingMajorityTest, StateValueRoundTrip) {
  const Averaging p(10);
  EXPECT_EQ(p.num_states(), 21u);
  for (Count v = -10; v <= 10; ++v) {
    EXPECT_EQ(p.state_value(p.value_state(v)), v);
  }
  EXPECT_THROW(p.value_state(11), CheckFailure);
  EXPECT_THROW(Averaging(0), CheckFailure);
}

TEST(AveragingMajorityTest, TransitionAveragesWithCeilFloor) {
  const Averaging p(10);
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
  const Averaging p(5);
  EXPECT_EQ(*p.output(p.value_state(3)), Averaging::kOpinionA);
  EXPECT_EQ(*p.output(p.value_state(-1)), Averaging::kOpinionB);
  EXPECT_FALSE(p.output(p.value_state(0)).has_value());
}

TEST(AveragingMajorityTest, ValueSumIsInvariant) {
  const Averaging p(16);
  Simulator sim(p, p.initial(30, 20), 11);
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
  const Averaging p(64);
  const SweepCellResult cell = testutil::run_cell(10, 2222, [&p](std::uint64_t seed) {
    Simulator sim(p, p.initial(26, 24), seed);
    const RunOutcome out = sim.run_until_stable(20'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  for (const double winner : cell.values("winner")) {
    EXPECT_EQ(winner, Averaging::kOpinionA);
  }
}

TEST(AveragingMajorityTest, TerminalValuesSpanAtMostTwoAdjacentLevels) {
  const Averaging p(32);
  Simulator sim(p, p.initial(20, 12), 77);
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

}  // namespace
}  // namespace ppsim
