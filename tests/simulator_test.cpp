// Generic engine: conservation, determinism, exact stability-driven
// termination, predicates, and the recorder.
#include "ppsim/core/simulator.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ppsim/core/recorder.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "toy_protocols.hpp"

namespace ppsim {
namespace {

using toy::Averaging;
using toy::Epidemic;
using toy::FourStateMajority;
using toy::LeaderElection;
using toy::Voter;

TEST(SimulatorTest, RejectsMismatchedConfiguration) {
  const UndecidedStateDynamics usd(2);
  EXPECT_THROW(Simulator(usd, Configuration({1, 1}), 1), CheckFailure);
}

TEST(SimulatorTest, PopulationIsConserved) {
  const UndecidedStateDynamics usd(3);
  Simulator sim(usd, Configuration({0, 40, 30, 30}), 11);
  for (int i = 0; i < 5000; ++i) {
    sim.step();
    ASSERT_EQ(sim.configuration().population(), 100);
  }
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  const UndecidedStateDynamics usd(3);
  Simulator a(usd, Configuration({0, 40, 30, 30}), 99);
  Simulator b(usd, Configuration({0, 40, 30, 30}), 99);
  for (int i = 0; i < 2000; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(SimulatorTest, DifferentSeedsDiverge) {
  const UndecidedStateDynamics usd(3);
  Simulator a(usd, Configuration({0, 400, 300, 300}), 1);
  Simulator b(usd, Configuration({0, 400, 300, 300}), 2);
  for (int i = 0; i < 5000; ++i) {
    a.step();
    b.step();
  }
  EXPECT_NE(a.configuration(), b.configuration());
}

TEST(SimulatorTest, EpidemicInfectsEveryone) {
  const Epidemic epidemic;
  Simulator sim(epidemic, Epidemic::initial(200, 1), 5);
  const RunOutcome out = sim.run_until_stable(1'000'000);
  ASSERT_TRUE(out.stabilized);
  EXPECT_EQ(sim.configuration().count(Epidemic::kInfected), 200);
  EXPECT_TRUE(out.consensus.has_value());
  EXPECT_EQ(*out.consensus, 1u);
}

TEST(SimulatorTest, EpidemicTakesAboutLogNParallelTime) {
  // Θ(log n) parallel time w.h.p.; for n = 1000, ln n ≈ 6.9. Accept a very
  // generous band — this is a sanity calibration, not a sharp test.
  const Epidemic epidemic;
  Simulator sim(epidemic, Epidemic::initial(1000, 1), 17);
  const RunOutcome out = sim.run_until_stable(10'000'000);
  ASSERT_TRUE(out.stabilized);
  EXPECT_GT(sim.parallel_time(), 2.0);
  EXPECT_LT(sim.parallel_time(), 60.0);
}

TEST(SimulatorTest, LeaderElectionLeavesExactlyOneLeader) {
  const LeaderElection le;
  Simulator sim(le, LeaderElection::initial(150), 23);
  const RunOutcome out = sim.run_until_stable(10'000'000);
  ASSERT_TRUE(out.stabilized);
  EXPECT_EQ(sim.configuration().count(LeaderElection::kLeader), 1);
  EXPECT_EQ(sim.configuration().count(LeaderElection::kFollower), 149);
}

TEST(SimulatorTest, StableConfigurationStopsImmediately) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 50, 0}), 3);
  const RunOutcome out = sim.run_until_stable(1'000'000);
  EXPECT_TRUE(out.stabilized);
  EXPECT_EQ(out.interactions, 0);
  ASSERT_TRUE(out.consensus.has_value());
  EXPECT_EQ(*out.consensus, 0u);
}

TEST(SimulatorTest, BudgetIsRespected) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 500, 500}), 3);
  const RunOutcome out = sim.run_until_stable(250);
  EXPECT_FALSE(out.stabilized);
  EXPECT_EQ(out.interactions, 250);
}

TEST(SimulatorTest, RunUntilPredicateFires) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 600, 400}), 7);
  const RunOutcome out = sim.run_until(
      [](const Configuration& c, Interactions) {
        return c.count(UndecidedStateDynamics::kUndecided) >= 100;
      },
      10'000'000);
  EXPECT_GE(sim.configuration().count(UndecidedStateDynamics::kUndecided), 100);
  EXPECT_LT(out.interactions, 10'000'000);
}

TEST(SimulatorTest, ConsensusOutputRules) {
  const UndecidedStateDynamics usd(2);
  // Mixed opinions: no consensus.
  Simulator mixed(usd, Configuration({0, 5, 5}), 1);
  EXPECT_FALSE(mixed.consensus_output().has_value());
  // Undecided agents present: no consensus (uncommitted output).
  Simulator undecided(usd, Configuration({5, 5, 0}), 1);
  EXPECT_FALSE(undecided.consensus_output().has_value());
  // Monochromatic opinion: consensus.
  Simulator mono(usd, Configuration({0, 0, 10}), 1);
  ASSERT_TRUE(mono.consensus_output().has_value());
  EXPECT_EQ(*mono.consensus_output(), 1u);
}

/// Reference stability: every ordered pair of two distinct present agents'
/// states is null under f (the O(S²) scan the witness replaces).
bool brute_force_stable(const Protocol& protocol, const Configuration& c) {
  const auto& counts = c.counts();
  for (State a = 0; a < counts.size(); ++a) {
    for (State b = 0; b < counts.size(); ++b) {
      if (counts[a] == 0 || counts[b] < (a == b ? 2 : 1)) continue;
      const Transition t = protocol.apply(a, b);
      if (t.initiator != a || t.responder != b) return false;
    }
  }
  return true;
}

TEST(SimulatorTest, StopsOnTheExactStabilizingInteraction) {
  // The stopping interaction changed a state, and the same-seed run one
  // interaction shorter is not yet stable: the stopping time is not rounded.
  const UndecidedStateDynamics usd(3);
  const Configuration initial({0, 40, 30, 30});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulator sim(usd, initial, seed);
    const RunOutcome out = sim.run_until_stable(10'000'000);
    ASSERT_TRUE(out.stabilized);
    ASSERT_GT(out.interactions, 0);

    Simulator early(usd, initial, seed);
    const RunOutcome before = early.run_until_stable(out.interactions - 1);
    EXPECT_FALSE(before.stabilized);
    EXPECT_EQ(before.interactions, out.interactions - 1);
    EXPECT_FALSE(brute_force_stable(usd, early.configuration()));
    EXPECT_TRUE(early.step());  // the stopping interaction changed a state
    EXPECT_TRUE(early.is_stable());
    EXPECT_EQ(early.configuration(), sim.configuration());
  }
}

TEST(SimulatorTest, StabilityWitnessMatchesBruteForceScan) {
  // is_stable() from construction and after every interaction, against the
  // full pair scan, on protocols whose null pairs differ in shape: a
  // non-null diagonal (leader election), ordered pairs that are not mirror
  // images (voter, averaging) and more than 32 states (averaging, 129).
  const UndecidedStateDynamics usd(3);
  const FourStateMajority four;
  const LeaderElection leader;
  const Voter voter;
  const Averaging averaging(64);
  const std::pair<const Protocol*, Configuration> cases[] = {
      {&usd, Configuration({2, 5, 4, 3})},
      {&four, FourStateMajority::initial(9, 7)},
      {&leader, LeaderElection::initial(12)},
      {&voter, Configuration({5, 4, 6})},
      {&averaging, averaging.initial(8, 6)},
  };
  for (const auto& [protocol, initial] : cases) {
    SCOPED_TRACE(protocol->name());
    Simulator sim(*protocol, initial, 5);
    const auto run_to_stability = [&] {
      ASSERT_EQ(sim.is_stable(), brute_force_stable(*protocol, sim.configuration()));
      while (sim.interactions() < 200'000 && !sim.is_stable()) {
        sim.step();
        ASSERT_EQ(sim.is_stable(),
                  brute_force_stable(*protocol, sim.configuration()))
            << "after interaction " << sim.interactions();
      }
      ASSERT_TRUE(sim.is_stable());
    };
    ASSERT_NO_FATAL_FAILURE(run_to_stability());
  }
}

TEST(RecorderTest, SamplesAtStride) {
  Recorder rec(10);
  rec.add_channel("undecided", [](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(0));
  });
  const Configuration c({3, 7});
  rec.maybe_sample(c, 0);   // sampled (first)
  rec.maybe_sample(c, 5);   // skipped
  rec.maybe_sample(c, 10);  // sampled
  rec.maybe_sample(c, 12);  // skipped
  rec.maybe_sample(c, 25);  // sampled (past due)
  EXPECT_EQ(rec.series().num_samples(), 3u);
  EXPECT_EQ(rec.series().channels[0][0], 3.0);
}

TEST(RecorderTest, ChannelsLockedAfterFirstSample) {
  Recorder rec(1);
  rec.add_channel("a", [](const Configuration&, Interactions) { return 0.0; });
  rec.sample(Configuration({1, 1}), 0);
  EXPECT_THROW(
      rec.add_channel("late", [](const Configuration&, Interactions) { return 0.0; }),
      CheckFailure);
}

TEST(RecorderTest, TsvHasHeaderAndRows) {
  Recorder rec(1);
  rec.add_channel("u", [](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(0));
  });
  rec.sample(Configuration({3, 7}), 0);
  rec.sample(Configuration({4, 6}), 10);
  std::ostringstream os;
  rec.series().write_tsv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("parallel_time\tu"), std::string::npos);
  EXPECT_NE(out.find("\t3"), std::string::npos);
  EXPECT_NE(out.find("\t4"), std::string::npos);
}

TEST(RecorderTest, RecordsDuringSimulatorRun) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 700, 300}), 13);
  Recorder rec(100);
  rec.add_channel("undecided", [](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(UndecidedStateDynamics::kUndecided));
  });
  for (int i = 0; i < 5000; ++i) {
    sim.step();
    rec.maybe_sample(sim.configuration(), sim.interactions());
  }
  EXPECT_GE(rec.series().num_samples(), 45u);
  EXPECT_LE(rec.series().num_samples(), 55u);
}

}  // namespace
}  // namespace ppsim
