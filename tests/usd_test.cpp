// Undecided State Dynamics: transition semantics, the observables over a
// USD-layout Configuration, exact stopping of the sequential Simulator
// (pinned against stopping times of the retired hand-written USD engine),
// and consensus behaviour under bias.
#include "ppsim/protocols/usd.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

// ------------------------------------------------- protocol formulation ----

TEST(UsdProtocolTest, TransitionRulesMatchThePaper) {
  const UndecidedStateDynamics usd(3);
  const State bot = UndecidedStateDynamics::kUndecided;
  const State s1 = UndecidedStateDynamics::opinion_state(0);
  const State s2 = UndecidedStateDynamics::opinion_state(1);

  // f(s1, s2) = (⊥, ⊥) for distinct opinions
  EXPECT_EQ(usd.apply(s1, s2), (Transition{bot, bot}));
  EXPECT_EQ(usd.apply(s2, s1), (Transition{bot, bot}));
  // f(s, ⊥) = (s, s), both orders
  EXPECT_EQ(usd.apply(s1, bot), (Transition{s1, s1}));
  EXPECT_EQ(usd.apply(bot, s1), (Transition{s1, s1}));
  // identity otherwise
  EXPECT_EQ(usd.apply(s1, s1), (Transition{s1, s1}));
  EXPECT_EQ(usd.apply(bot, bot), (Transition{bot, bot}));
}

TEST(UsdProtocolTest, OutputMapsOpinionsAndUndecided) {
  const UndecidedStateDynamics usd(2);
  EXPECT_FALSE(usd.output(UndecidedStateDynamics::kUndecided).has_value());
  EXPECT_EQ(*usd.output(1), 0u);
  EXPECT_EQ(*usd.output(2), 1u);
  EXPECT_THROW(usd.output(3), CheckFailure);
}

TEST(UsdProtocolTest, StateSpaceIsKPlusOne) {
  EXPECT_EQ(UndecidedStateDynamics(1).num_states(), 2u);
  EXPECT_EQ(UndecidedStateDynamics(27).num_states(), 28u);
  EXPECT_THROW(UndecidedStateDynamics(0), CheckFailure);
}

// ------------------------------------------------ sequential Simulator ----

/// The USD configuration `opinions` (plus `undecided` agents in ⊥).
Configuration usd_config(const std::vector<Count>& opinions, Count undecided = 0) {
  return UndecidedStateDynamics::initial_configuration(opinions, undecided);
}

TEST(UsdSimulatorTest, ConstructionAndAccessors) {
  const UndecidedStateDynamics usd(3);
  const Simulator sim(usd, usd_config({50, 30, 20}, 5), 1);
  const Configuration& c = sim.configuration();
  EXPECT_EQ(c.population(), 105);
  EXPECT_EQ(undecided_count(c), 5);
  EXPECT_EQ(opinion_count(c, 0), 50);
  EXPECT_EQ(opinion_count(c, 2), 20);
  EXPECT_EQ(surviving_opinions(c), 3u);
  EXPECT_EQ(max_opinion_count(c), 50);
  EXPECT_EQ(delta_max(c), 30);
  EXPECT_THROW(opinion_count(c, 3), CheckFailure);
  // Δmax ranges over extinct opinions too.
  EXPECT_EQ(delta_max(usd_config({7, 0, 3})), 7);
  EXPECT_EQ(surviving_opinions(usd_config({7, 0, 3})), 2u);
}

TEST(UsdSimulatorTest, RejectsBadConstruction) {
  EXPECT_THROW(UndecidedStateDynamics(0), CheckFailure);
  EXPECT_THROW(usd_config({-1, 2}), CheckFailure);
  EXPECT_THROW(usd_config({1}, -1), CheckFailure);
  const UndecidedStateDynamics usd(1);
  EXPECT_THROW(Simulator(usd, usd_config({1}), 1), CheckFailure);  // population 1
}

TEST(UsdSimulatorTest, PopulationConservedOverRun) {
  const UndecidedStateDynamics usd(3);
  Simulator sim(usd, usd_config({400, 300, 300}), 7);
  for (int i = 0; i < 20000; ++i) {
    sim.step();
    const auto& c = sim.configuration().counts();
    ASSERT_EQ(std::accumulate(c.begin(), c.end(), Count{0}), 1000);
  }
}

TEST(UsdSimulatorTest, StabilizationDetection) {
  const UndecidedStateDynamics usd(2);
  // Monochromatic opinion: stable from the start.
  const Simulator mono(usd, usd_config({10, 0}), 1);
  EXPECT_TRUE(mono.is_stable());
  ASSERT_TRUE(mono.consensus_output().has_value());
  EXPECT_EQ(*mono.consensus_output(), 0u);

  // All undecided: stable, no winner.
  const Simulator all_undecided(usd, usd_config({0, 0}, 10), 1);
  EXPECT_TRUE(all_undecided.is_stable());
  EXPECT_FALSE(all_undecided.consensus_output().has_value());

  // Active configuration.
  const Simulator active(usd, usd_config({5, 5}), 1);
  EXPECT_FALSE(active.is_stable());
  EXPECT_FALSE(active.consensus_output().has_value());

  // Opinion + undecided: adoption still possible.
  const Simulator adopt(usd, usd_config({5, 0}, 5), 1);
  EXPECT_FALSE(adopt.is_stable());

  // One agent per opinion and one undecided: (op, ⊥) still fires.
  const Simulator lone(usd, usd_config({1, 0}, 1), 1);
  EXPECT_FALSE(lone.is_stable());
}

TEST(UsdSimulatorTest, TwoAgentClashThenAbsorbed) {
  // Two agents of different opinions must clash to all-undecided (the only
  // reachable stable state for n = 2 without bias).
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, usd_config({1, 1}), 42);
  EXPECT_TRUE(sim.run_until_stable(100).stabilized);
  EXPECT_EQ(undecided_count(sim.configuration()), 2);
  EXPECT_FALSE(sim.consensus_output().has_value());
}

TEST(UsdSimulatorTest, StepReportsStateChanges) {
  // From all-same-opinion-plus-one-other every non-null step changes counts.
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, usd_config({2, 2}), 3);
  int changes = 0;
  for (int i = 0; i < 50 && !sim.is_stable(); ++i) {
    if (sim.step()) ++changes;
  }
  EXPECT_GT(changes, 0);
}

TEST(UsdSimulatorTest, DeterministicForSeed) {
  const UndecidedStateDynamics usd(2);
  Simulator a(usd, usd_config({600, 400}), 31337);
  Simulator b(usd, usd_config({600, 400}), 31337);
  a.run_until_stable(1'000'000);
  b.run_until_stable(1'000'000);
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(UsdSimulatorTest, RunUntilVisitsEveryInteraction) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, usd_config({500, 500}), 77);
  Interactions visits = 0;
  const RunOutcome out = sim.run_until(
      [&](const Configuration&, Interactions t) {
        EXPECT_EQ(t, visits);
        ++visits;
        return false;
      },
      1000);
  // Once before every interaction (n = 1000 cannot stabilize in 1000).
  EXPECT_FALSE(out.stabilized);
  EXPECT_EQ(out.interactions, 1000);
  EXPECT_EQ(visits, 1000);
}

TEST(UsdSimulatorTest, RunUntilPredicate) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, usd_config({500, 500}), 13);
  const RunOutcome out = sim.run_until(
      [](const Configuration& c, Interactions) { return undecided_count(c) >= 100; },
      1'000'000);
  EXPECT_LT(out.interactions, 1'000'000);
  EXPECT_GE(undecided_count(sim.configuration()), 100);
}

/// Steps `sim` one interaction at a time until it is stable: the path
/// run_until takes, and run_until_stable's below the batch crossover.
RunOutcome step_until_stable(Simulator& sim) {
  while (!sim.is_stable()) sim.step();
  return RunOutcome{.stabilized = true,
                    .interactions = sim.interactions(),
                    .consensus = sim.consensus_output()};
}

// The sequential Simulator's step() draws the same pairs as the retired
// hand-written USD engine (PairSampler makes the same two `bounded`
// draws), so stepping must stop on the very interactions that engine
// reported. Captured from that engine on figure1_configuration(20000, 9).
TEST(UsdSimulatorTest, StopsWhereTheFormerSpecializedEngineStopped) {
  const UndecidedStateDynamics usd(9);
  const Configuration initial =
      usd_config(figure1_configuration(20000, 9).opinion_counts);
  const std::pair<std::uint64_t, Interactions> golden[] = {
      {1, 522904}, {2, 448670}, {42, 609578}};
  for (const auto& [seed, interactions] : golden) {
    Simulator sim(usd, initial, seed);
    const RunOutcome out = step_until_stable(sim);
    ASSERT_TRUE(out.stabilized) << "seed " << seed;
    EXPECT_EQ(out.interactions, interactions) << "seed " << seed;
    ASSERT_TRUE(out.consensus.has_value()) << "seed " << seed;
    EXPECT_EQ(*out.consensus, 0u) << "seed " << seed;
  }
}

// k = 40 gives 41 states, more than one 32-wide node of PairSampler's
// prefix-sum tree, so these stopping times pin draws taken through a
// two-level tree. Captured with the binary-indexed-tree urn that preceded it.
TEST(UsdSimulatorTest, StopsWhereTheFormerUrnStoppedAtK40) {
  const UndecidedStateDynamics usd(40);
  const Configuration initial =
      usd_config(figure1_configuration(20000, 40).opinion_counts);
  const std::tuple<std::uint64_t, Interactions, Opinion> golden[] = {
      {1, 1062189, 0}, {2, 728037, 0}, {42, 854138, 38}};
  for (const auto& [seed, interactions, winner] : golden) {
    Simulator sim(usd, initial, seed);
    const RunOutcome out = step_until_stable(sim);
    ASSERT_TRUE(out.stabilized) << "seed " << seed;
    EXPECT_EQ(out.interactions, interactions) << "seed " << seed;
    ASSERT_TRUE(out.consensus.has_value()) << "seed " << seed;
    EXPECT_EQ(*out.consensus, winner) << "seed " << seed;
  }
}

// run_until_stable on the same starts: at n = 20000 it batches from the
// start, so these pin the batch path's draws: the hypergeometrics, the run
// lengths, the collisions and deferred pairs, and the in-run stopping
// position.
TEST(UsdSimulatorTest, BatchedRunsStopWherePinned) {
  const std::tuple<std::size_t, std::uint64_t, Interactions, Opinion> golden[] = {
      {9, 1, 465215, 0}, {9, 2, 502581, 0}, {40, 1, 660492, 0}, {40, 42, 785533, 0}};
  for (const auto& [k, seed, interactions, winner] : golden) {
    const UndecidedStateDynamics usd(k);
    Simulator sim(usd, usd_config(figure1_configuration(20000, k).opinion_counts), seed);
    const RunOutcome out = sim.run_until_stable(1'000'000'000);
    ASSERT_TRUE(out.stabilized) << "k " << k << " seed " << seed;
    EXPECT_EQ(out.interactions, interactions) << "k " << k << " seed " << seed;
    ASSERT_TRUE(out.consensus.has_value()) << "k " << k << " seed " << seed;
    EXPECT_EQ(*out.consensus, winner) << "k " << k << " seed " << seed;
  }
}

// ----------------------------------------------------- consensus quality ----

TEST(UsdSimulatorTest, LargeBiasMajorityWinsAllTrials) {
  // n = 4000, k = 2, bias 800 >> √(n ln n) ≈ 182: the majority must win in
  // every one of 20 trials (failure probability is cosmically small).
  const UndecidedStateDynamics usd(2);
  const SweepCellResult cell = testutil::run_cell(20, 4242, [&](std::uint64_t seed) {
    Simulator sim(usd, usd_config({2400, 1600}), seed);
    const RunOutcome out = sim.run_until_stable(50'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    r.parallel_time = sim.parallel_time();
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  EXPECT_EQ(cell.rate("majority_win"), 1.0);
}

TEST(UsdSimulatorTest, MultiOpinionBiasMajorityWins) {
  // k = 8, majority has a huge lead: opinion 0 wins.
  std::vector<Count> counts(8, 100);
  counts[0] = 400;
  const UndecidedStateDynamics usd(8);
  const SweepCellResult cell = testutil::run_cell(10, 777, [&](std::uint64_t seed) {
    Simulator sim(usd, usd_config(counts), seed);
    const RunOutcome out = sim.run_until_stable(100'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  EXPECT_EQ(cell.rate("majority_win"), 1.0);
}

TEST(UsdSimulatorTest, SurvivingOpinionsMonotoneNonIncreasing) {
  const UndecidedStateDynamics usd(4);
  Simulator sim(usd, usd_config({100, 100, 100, 100}), 21);
  std::size_t prev = surviving_opinions(sim.configuration());
  while (sim.interactions() < 500'000 && !sim.is_stable()) {
    sim.step();
    const std::size_t now = surviving_opinions(sim.configuration());
    ASSERT_LE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace ppsim
