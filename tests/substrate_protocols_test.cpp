// Substrate protocols: leader election, epidemic spreading, the leader-driven
// phase clock, synchronized USD, and 3-majority gossip dynamics.
#include <gtest/gtest.h>

#include <algorithm>

#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/epidemic.hpp"
#include "ppsim/protocols/leader_election.hpp"
#include "ppsim/protocols/phase_clock.hpp"
#include "ppsim/protocols/synchronized_usd.hpp"
#include "ppsim/protocols/three_majority.hpp"
#include "ppsim/util/check.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

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

// ------------------------------------------------------------ phase clock ----

TEST(PhaseClockTest, EncodingRoundTrip) {
  const PhaseClock clock(8);
  EXPECT_EQ(clock.num_states(), 16u);
  for (bool leader : {false, true}) {
    for (std::size_t p = 0; p < 8; ++p) {
      const State s = clock.encode(leader, p);
      EXPECT_EQ(clock.is_leader(s), leader);
      EXPECT_EQ(clock.phase(s), p);
    }
  }
  EXPECT_THROW(PhaseClock(3), CheckFailure);
}

TEST(PhaseClockTest, WindowedRingOrder) {
  const PhaseClock clock(8);
  EXPECT_TRUE(clock.ahead(1, 0));
  EXPECT_TRUE(clock.ahead(3, 0));
  EXPECT_FALSE(clock.ahead(0, 0));
  EXPECT_FALSE(clock.ahead(4, 0));  // outside the window (= P/2)
  EXPECT_TRUE(clock.ahead(0, 7));   // wraparound: 0 is one ahead of 7
  EXPECT_FALSE(clock.ahead(7, 0));
}

TEST(PhaseClockTest, LeaderAdvancesOnlyOnPhaseEcho) {
  const PhaseClock clock(8);
  const State leader2 = clock.encode(true, 2);
  // Meets a caught-up follower: leader increments.
  const Transition echo = clock.apply(leader2, clock.encode(false, 2));
  EXPECT_EQ(clock.phase(echo.initiator), 3u);
  // Meets a lagging follower: follower adopts, leader holds.
  const Transition lag = clock.apply(leader2, clock.encode(false, 1));
  EXPECT_EQ(clock.phase(lag.initiator), 2u);
  EXPECT_EQ(clock.phase(lag.responder), 2u);
}

TEST(PhaseClockTest, FollowersPropagateNewerPhase) {
  const PhaseClock clock(8);
  const Transition t = clock.apply(clock.encode(false, 5), clock.encode(false, 3));
  EXPECT_EQ(clock.phase(t.initiator), 5u);
  EXPECT_EQ(clock.phase(t.responder), 5u);
}

TEST(PhaseClockTest, ClockTicksAndFollowersStayClose) {
  const PhaseClock clock(16);
  Simulator sim(clock, clock.initial(200), 21);
  // Run 60 parallel-time units; the leader must have advanced several
  // phases, and no follower may be outside the half-ring window behind it.
  std::size_t max_leader_phase_seen = 0;
  for (int i = 0; i < 200 * 60; ++i) {
    sim.step();
    for (State s = 0; s < clock.num_states(); ++s) {
      if (!clock.is_leader(s) || sim.configuration().count(s) == 0) continue;
      max_leader_phase_seen = std::max(max_leader_phase_seen, clock.phase(s));
    }
  }
  EXPECT_GE(max_leader_phase_seen, 2u);
  // exactly one leader at all times
  Count leaders = 0;
  for (State s = 0; s < clock.num_states(); ++s) {
    if (clock.is_leader(s)) leaders += sim.configuration().count(s);
  }
  EXPECT_EQ(leaders, 1);
}

// -------------------------------------------------------- synchronized usd ----

TEST(SynchronizedUsdTest, EncodingRoundTrip) {
  const SynchronizedUsd p(3, 8);
  EXPECT_EQ(p.num_states(), 16u * 4u);
  for (State c = 0; c < 16; ++c) {
    for (State u = 0; u <= 3; ++u) {
      const State s = p.encode(c, u);
      EXPECT_EQ(p.clock_part(s), c);
      EXPECT_EQ(p.usd_part(s), u);
    }
  }
}

TEST(SynchronizedUsdTest, InitialPlacesOneLeader) {
  const SynchronizedUsd p(2, 8);
  const Configuration c = p.initial({30, 20});
  EXPECT_EQ(c.population(), 50);
  Count leaders = 0;
  for (State s = 0; s < p.num_states(); ++s) {
    if (p.clock().is_leader(p.clock_part(s))) leaders += c.count(s);
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_THROW(p.initial({0, 0}), CheckFailure);
  EXPECT_THROW(p.initial({1}), CheckFailure);
}

TEST(SynchronizedUsdTest, GatingBlocksWrongParityRules) {
  const SynchronizedUsd p(2, 8);
  const auto& clock = p.clock();
  // Both followers at phase 0 (parity 0 = cancellation): adoption must NOT
  // fire, clash must.
  const State f0 = clock.encode(false, 0);
  const State op0 = 1;
  const State op1 = 2;
  const State bot = 0;
  const Transition clash = p.apply(p.encode(f0, op0), p.encode(f0, op1));
  EXPECT_EQ(p.usd_part(clash.initiator), bot);
  EXPECT_EQ(p.usd_part(clash.responder), bot);
  const Transition no_adopt = p.apply(p.encode(f0, op0), p.encode(f0, bot));
  EXPECT_EQ(p.usd_part(no_adopt.responder), bot);

  // Both at phase 1 (parity 1 = recruitment): adoption fires, clash doesn't.
  const State f1 = clock.encode(false, 1);
  const Transition adopt = p.apply(p.encode(f1, op0), p.encode(f1, bot));
  EXPECT_EQ(p.usd_part(adopt.responder), op0);
  const Transition no_clash = p.apply(p.encode(f1, op0), p.encode(f1, op1));
  EXPECT_EQ(p.usd_part(no_clash.initiator), op0);
  EXPECT_EQ(p.usd_part(no_clash.responder), op1);
}

TEST(SynchronizedUsdTest, ReachesOpinionConsensusUnderBias) {
  const SynchronizedUsd p(2, 8);
  Simulator sim(p, p.initial({140, 60}), 33);
  bool consensus = false;
  for (int chunk = 0; chunk < 4000 && !consensus; ++chunk) {
    for (int i = 0; i < 200; ++i) sim.step();
    consensus = p.consensus_opinion(sim.configuration()).has_value();
  }
  ASSERT_TRUE(consensus);
  EXPECT_EQ(*p.consensus_opinion(sim.configuration()), 0u);
}

// ------------------------------------------------------------ 3-majority ----

TEST(ThreeMajorityTest, RejectsBadConstruction) {
  EXPECT_THROW(ThreeMajorityEngine({}, 1), CheckFailure);
  EXPECT_THROW(ThreeMajorityEngine({2, 1}, 1), CheckFailure);  // n = 3 < 4
  EXPECT_THROW(ThreeMajorityEngine({-1, 10}, 1), CheckFailure);
}

TEST(ThreeMajorityTest, PopulationConserved) {
  ThreeMajorityEngine engine({40, 30, 30}, 7);
  for (int r = 0; r < 30; ++r) {
    engine.step_round();
    Count total = 0;
    for (std::size_t i = 0; i < engine.num_opinions(); ++i) {
      total += engine.opinion_count(static_cast<Opinion>(i));
    }
    ASSERT_EQ(total, 100);
  }
}

TEST(ThreeMajorityTest, MonochromaticIsConsensus) {
  ThreeMajorityEngine engine({50, 0}, 1);
  EXPECT_TRUE(engine.consensus());
  ASSERT_TRUE(engine.winner().has_value());
  EXPECT_EQ(*engine.winner(), 0u);
  EXPECT_TRUE(engine.run_until_consensus(10));
  EXPECT_EQ(engine.rounds(), 0);
}

TEST(ThreeMajorityTest, BiasedStartConvergesToMajority) {
  const SweepCellResult cell = testutil::run_cell(10, 31, [](std::uint64_t seed) {
    ThreeMajorityEngine engine({700, 300}, seed);
    TrialResult r;
    r.stabilized = engine.run_until_consensus(10000);
    r.winner = engine.winner();
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  EXPECT_EQ(cell.rate("majority_win"), 1.0);
}

TEST(ThreeMajorityTest, ConvergesInLogarithmicRounds) {
  // 3-majority with strong bias converges in O(log n) rounds; allow a wide
  // band for n = 10000.
  ThreeMajorityEngine engine({7000, 3000}, 17);
  ASSERT_TRUE(engine.run_until_consensus(1000));
  EXPECT_LT(engine.rounds(), 100);
}

}  // namespace
}  // namespace ppsim
