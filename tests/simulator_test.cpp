// The exact USD engine: conservation, determinism, exact stability-driven
// termination, predicates, and the recorder.
#include "ppsim/core/simulator.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ppsim/core/recorder.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

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
/// states is null under USD's f (the O(S²) scan that the engine's count of
/// present opinions replaces).
bool brute_force_stable(const UndecidedStateDynamics& usd, const Configuration& c) {
  const auto& counts = c.counts();
  for (State a = 0; a < counts.size(); ++a) {
    for (State b = 0; b < counts.size(); ++b) {
      if (counts[a] == 0 || counts[b] < (a == b ? 2 : 1)) continue;
      const Transition t = usd.apply(a, b);
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
  // full pair scan, at k = 2, 3, 27 and 40 (41 states: two nodes of the pair
  // sampler's prefix-sum tree). Each k starts from a mixed configuration,
  // from one opinion plus ⊥ (not stable: ⊥ adopts), and from two stable
  // ones: all ⊥, and one opinion with u = 0.
  for (const std::size_t k : {2u, 3u, 27u, 40u}) {
    const UndecidedStateDynamics usd(k);
    std::vector<Count> mixed(k, 2);
    mixed[0] = 5;
    std::vector<Count> lone(k, 0);
    lone[k - 1] = 6;
    const Configuration cases[] = {
        UndecidedStateDynamics::initial_configuration(mixed, 3),
        UndecidedStateDynamics::initial_configuration(lone, 4),
        UndecidedStateDynamics::initial_configuration(std::vector<Count>(k, 0), 7),
        UndecidedStateDynamics::initial_configuration(lone),
    };
    for (const Configuration& initial : cases) {
      SCOPED_TRACE(usd.name() + " from u = " + std::to_string(initial.count(0)));
      Simulator sim(usd, initial, 5);
      const auto run_to_stability = [&] {
        ASSERT_EQ(sim.is_stable(), brute_force_stable(usd, sim.configuration()));
        while (sim.interactions() < 200'000 && !sim.is_stable()) {
          sim.step();
          ASSERT_EQ(sim.is_stable(), brute_force_stable(usd, sim.configuration()))
              << "after interaction " << sim.interactions();
        }
        ASSERT_TRUE(sim.is_stable());
        // The engine's consensus against the generic output-map scan.
        EXPECT_EQ(sim.consensus_output(), consensus_output(usd, sim.configuration()));
      };
      ASSERT_NO_FATAL_FAILURE(run_to_stability());
    }
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
