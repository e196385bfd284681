// CollapsedSimulator: the exact single-interaction pair law (chi-square at
// small n against the analytic ordered-pair distribution), count
// conservation and budget accounting under adaptive and fixed rounds, the
// 2^53 population / saturating-arithmetic guards, adaptivity of the τ
// controller, the Engine facade and auto engine resolution, and
// distributional equivalence of full stabilization runs against the
// sequential engine under both round policies.
#include "ppsim/core/collapsed_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"
#include "stat_util.hpp"
#include "toy_protocols.hpp"

namespace ppsim {
namespace {

constexpr std::size_t kK = 3;
const std::vector<Count> kUsdCounts = {0, 250, 200, 150};  // ⊥, x1, x2, x3

TEST(CollapsedSimulatorTest, RejectsDegenerateInputs) {
  const UndecidedStateDynamics usd(kK);
  EXPECT_THROW(CollapsedSimulator(usd, Configuration({1, 0, 0, 0}), 1, {}),
               CheckFailure);  // single agent
  EXPECT_THROW(CollapsedSimulator(usd, Configuration({0, 5, 5}), 1, {}),
               CheckFailure);  // state-space mismatch
  EXPECT_THROW(CollapsedSimulator(usd, Configuration(kUsdCounts), 1,
                                  {.tau_epsilon = 0.0}),
               CheckFailure);
  EXPECT_THROW(CollapsedSimulator(usd, Configuration(kUsdCounts), 1,
                                  {.tau_epsilon = 1.5}),
               CheckFailure);
  EXPECT_THROW(CollapsedSimulator(usd, Configuration(kUsdCounts), 1,
                                  {.fixed_round = -1}),
               CheckFailure);
}

TEST(CollapsedSimulatorTest, SaturationGuardRejectsPopulationsBeyondDoubleExactness) {
  // Counts above 2^53 are not exactly representable in the double-precision
  // pair weights; the constructor must refuse rather than silently round.
  const UndecidedStateDynamics usd(1);
  const Count over = CollapsedSimulator::kMaxPopulation + 1;
  EXPECT_THROW(CollapsedSimulator(usd, Configuration({0, over}), 1, {}),
               CheckFailure);
  // Exactly at the cap is accepted (and trivially stable: one opinion).
  CollapsedSimulator ok(usd, Configuration({0, CollapsedSimulator::kMaxPopulation}),
                        1, {});
  EXPECT_TRUE(ok.is_stable());
}

TEST(CollapsedSimulatorTest, SaturatingArithmeticClampsInsteadOfWrapping) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(sat_add(kMax, 1), kMax);
  EXPECT_EQ(sat_add(kMax, kMax), kMax);
  EXPECT_EQ(sat_add(kMin, -1), kMin);
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_mul(kMax, 2), kMax);
  EXPECT_EQ(sat_mul(kMax, -2), kMin);
  EXPECT_EQ(sat_mul(-3, 4), -12);
  EXPECT_EQ(sat_mul(4'000'000'000, 4'000'000'000), kMax);  // n(n−1) overflow zone
}

TEST(CollapsedSimulatorTest, InteractionAccountingSaturatesAtHugeBudgets) {
  // A stable configuration leaps over the whole remaining budget in one null
  // round; with the budget at int64 max the counter must saturate, not wrap.
  const UndecidedStateDynamics usd(kK);
  CollapsedSimulator sim(usd, Configuration({0, 600, 0, 0}), 1, {});
  ASSERT_TRUE(sim.is_stable());
  sim.step_round(std::numeric_limits<Interactions>::max());
  EXPECT_EQ(sim.interactions(), std::numeric_limits<Interactions>::max());
  sim.step_round(std::numeric_limits<Interactions>::max());
  EXPECT_EQ(sim.interactions(), std::numeric_limits<Interactions>::max());
  EXPECT_EQ(sim.configuration().count(1), 600);
}

// ------------------------------------------ exact pair law at round size 1 --

// From counts {⊥=2, x1=3, x2=1} (n = 6, W = 30 ordered pairs) the one-step
// law groups into four distinguishable configuration deltas:
//   null        (⊥,⊥), (x1,x1) identities           weight 2·1 + 3·2 = 8
//   clash       (x1,x2), (x2,x1) → (⊥,⊥)            weight 3·1 + 1·3 = 6
//   adopt x1    (x1,⊥), (⊥,x1) → (x1,x1)            weight 3·2 + 2·3 = 12
//   adopt x2    (x2,⊥), (⊥,x2) → (x2,x2)            weight 1·2 + 2·1 = 4
TEST(CollapsedSimulatorTest, OneStepLawMatchesExactPairDistribution) {
  const UndecidedStateDynamics usd(2);
  const std::vector<Count> start = {2, 3, 1};
  constexpr int kTrials = 40000;
  std::map<std::vector<Count>, std::int64_t> observed;
  for (int t = 0; t < kTrials; ++t) {
    CollapsedSimulator sim(usd, Configuration(start),
                           9000 + static_cast<std::uint64_t>(t), {});
    const Interactions done = sim.step_round(1);
    ASSERT_EQ(done, 1);
    ASSERT_EQ(sim.interactions(), 1);
    ++observed[sim.configuration().counts()];
  }
  const std::vector<std::vector<Count>> outcomes = {
      {2, 3, 1},  // null
      {4, 2, 0},  // clash
      {1, 4, 1},  // adopt x1
      {1, 3, 2},  // adopt x2
  };
  const std::vector<double> weights = {8.0, 6.0, 12.0, 4.0};
  std::vector<std::int64_t> counts;
  std::vector<double> expected;
  std::int64_t total_observed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto it = observed.find(outcomes[i]);
    counts.push_back(it == observed.end() ? 0 : it->second);
    total_observed += counts.back();
    expected.push_back(kTrials * weights[i] / 30.0);
  }
  ASSERT_EQ(total_observed, kTrials) << "one-step run reached an impossible state";
  const double stat = chi_square_statistic(counts, expected);
  // 3 degrees of freedom; reject only at the 10^-4 level so the test is
  // stable across toolchains while still pinning the law tightly.
  EXPECT_GT(chi_square_sf(stat, 3), 1e-4) << "chi-square statistic " << stat;
}

TEST(CollapsedSimulatorTest, FixedRoundOneForcesSingleInteractionRounds) {
  const UndecidedStateDynamics usd(kK);
  CollapsedSimulator sim(usd, Configuration(kUsdCounts), 17, {.fixed_round = 1});
  for (int i = 0; i < 500 && !sim.is_stable(); ++i) {
    EXPECT_EQ(sim.step_round(1'000'000), 1);
    EXPECT_EQ(sim.last_round_size(), 1);
  }
  EXPECT_EQ(sim.clamped_interactions(), 0);  // single draws can never overdraw
}

// ------------------------------------------------- conservation & budgets --

TEST(CollapsedSimulatorTest, AdaptiveRoundsConservePopulationAndAccountInteractions) {
  const UndecidedStateDynamics usd(kK);
  CollapsedSimulator sim(usd, Configuration(kUsdCounts), 42);
  Interactions total = 0;
  for (int round = 0; round < 2000 && !sim.is_stable(); ++round) {
    total += sim.step_round(1'000'000);
    ASSERT_EQ(sim.configuration().population(), 600) << "round " << round;
    for (const Count c : sim.configuration().counts()) ASSERT_GE(c, 0);
  }
  EXPECT_EQ(sim.interactions(), total);
}

TEST(CollapsedSimulatorTest, BudgetIsRespectedExactly) {
  const UndecidedStateDynamics usd(kK);
  CollapsedSimulator sim(usd, Configuration(kUsdCounts), 7);
  const RunOutcome out = sim.run_until_stable(10);  // budget < any τ round
  EXPECT_EQ(out.interactions, 10);
  EXPECT_EQ(sim.interactions(), 10);
}

TEST(CollapsedSimulatorTest, FixedRoundsHaveExactlyTheRequestedLength) {
  // fixed_round replaces the τ controller outright: every round is
  // min(fixed_round, budget) even where the adaptive policy would stay at or
  // below its ε·n = 30 aggregate cap.
  const UndecidedStateDynamics usd(kK);
  CollapsedSimulator sim(usd, Configuration(kUsdCounts), 42, {.fixed_round = 37});
  Interactions total = 0;
  for (int round = 0; round < 20'000 && !sim.is_stable(); ++round) {
    const Interactions budget = round % 3 == 0 ? 20 : 1'000'000;
    const Interactions done = sim.step_round(budget);
    ASSERT_EQ(done, std::min<Interactions>(37, budget)) << "round " << round;
    ASSERT_EQ(sim.last_round_size(), done) << "round " << round;
    ASSERT_EQ(sim.configuration().population(), 600) << "round " << round;
    for (const Count c : sim.configuration().counts()) ASSERT_GE(c, 0);
    total += done;
  }
  EXPECT_TRUE(sim.is_stable());
  EXPECT_EQ(sim.interactions(), total);

  // A budget that is not a multiple of the round ends on a short tail round.
  CollapsedSimulator capped(usd, Configuration(kUsdCounts), 7, {.fixed_round = 37});
  const RunOutcome out = capped.run_until_stable(100);
  EXPECT_EQ(out.interactions, 100);
  EXPECT_EQ(capped.last_round_size(), 100 - 2 * 37);
}

TEST(CollapsedSimulatorTest, SameSeedGivesIdenticalTrajectory) {
  const UndecidedStateDynamics usd(kK);
  CollapsedSimulator a(usd, Configuration(kUsdCounts), 99);
  CollapsedSimulator b(usd, Configuration(kUsdCounts), 99);
  for (int round = 0; round < 500 && !a.is_stable(); ++round) {
    a.step_round(1'000'000);
    b.step_round(1'000'000);
    ASSERT_EQ(a.configuration(), b.configuration()) << "diverged at round " << round;
  }
  EXPECT_EQ(a.interactions(), b.interactions());
}

TEST(CollapsedSimulatorTest, TauControllerAdaptsToThePopulationScale) {
  // Fixed rounds always leap the same number of interactions; the adaptive
  // controller must scale its rounds with n (ε·n aggregate cap) and stay
  // well below n (per-state drain bound).
  const UndecidedStateDynamics usd(kK);
  Interactions small_round = 0;
  Interactions large_round = 0;
  {
    CollapsedSimulator sim(usd, Configuration({0, 500, 300, 200}), 5);
    sim.step_round(std::numeric_limits<Interactions>::max() / 2);
    small_round = sim.last_round_size();
  }
  {
    CollapsedSimulator sim(usd, Configuration({0, 500'000, 300'000, 200'000}), 5);
    sim.step_round(std::numeric_limits<Interactions>::max() / 2);
    large_round = sim.last_round_size();
  }
  EXPECT_GT(large_round, 100 * small_round);
  EXPECT_LE(large_round, 1'000'000 * 0.05 + 1);  // ε·n aggregate cap
  EXPECT_GE(small_round, 1);
}

TEST(CollapsedSimulatorTest, HandlesNonNullSelfPairs) {
  // Leader election's (L, L) -> (L, F) transition exercises the a == b bulk
  // branch and drives a state down to a single agent.
  const toy::LeaderElection protocol;
  CollapsedSimulator sim(protocol, toy::LeaderElection::initial(1000), 5);
  const RunOutcome out = sim.run_until_stable(50'000'000);
  ASSERT_TRUE(out.stabilized);
  EXPECT_EQ(sim.configuration().population(), 1000);
  EXPECT_EQ(sim.configuration().count(toy::LeaderElection::kLeader), 1);
}

TEST(CollapsedSimulatorTest, StabilizesToUsdConsensus) {
  const UndecidedStateDynamics usd(kK);
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    CollapsedSimulator sim(usd, Configuration(kUsdCounts), seed);
    const RunOutcome out = sim.run_until_stable(10'000'000);
    ASSERT_TRUE(out.stabilized) << "seed " << seed;
    ASSERT_TRUE(out.consensus.has_value()) << "seed " << seed;
    EXPECT_TRUE(sim.configuration().is_monochromatic());
    EXPECT_EQ(sim.configuration().count(
                  UndecidedStateDynamics::opinion_state(*out.consensus)),
              600);
  }
}

TEST(CollapsedSimulatorTest, EngineFacadeSelectsCollapsed) {
  const UndecidedStateDynamics usd(kK);
  Engine engine(EngineKind::kCollapsed, usd, Configuration(kUsdCounts), 3);
  EXPECT_EQ(engine.kind(), EngineKind::kCollapsed);
  const RunOutcome out = engine.run_until_stable(10'000'000);
  EXPECT_TRUE(out.stabilized);
  EXPECT_TRUE(engine.is_stable());
  EXPECT_EQ(engine.interactions(), out.interactions);
  EXPECT_EQ(engine.consensus_output(), out.consensus);
  EXPECT_EQ(resolve_engine("collapsed", 600), EngineKind::kCollapsed);
  EXPECT_EQ(to_string(EngineKind::kCollapsed), "collapsed");
}

TEST(CollapsedSimulatorTest, ResolveEngineAutoIsCollapsedAboveTenMillion) {
  EXPECT_EQ(resolve_engine("auto", 10'000'000), EngineKind::kSequential);
  EXPECT_EQ(resolve_engine("auto", 10'000'001), EngineKind::kCollapsed);
  EXPECT_EQ(resolve_engine("sequential", 10'000'001), EngineKind::kSequential);
  EXPECT_EQ(resolve_engine("collapsed", 1000), EngineKind::kCollapsed);
  EXPECT_THROW(resolve_engine("warp-drive", 1000), CheckFailure);
}

// ----------------------------- distributional equivalence vs. sequential --

TEST(CollapsedSimulatorTest, StabilizationTimesShareDistributionWithSequential) {
  // Full-run comparison against the exact sequential chain under both round
  // policies: adaptive τ-leaping (ε = 0.05) and fixed rounds of n/16
  // (Options::fixed_round). With 300 samples a side the α = 0.001 KS
  // critical distance is ≈ 0.16; the τ-leaping bias of either policy
  // (measured: < 1% of the mean, well under the ~12% spread) stays far
  // below it. The sequential engine stops on the exact stabilizing
  // interaction, so the comparison is against the true sequential law.
  const UndecidedStateDynamics usd(kK);
  constexpr int kTrials = 300;
  std::vector<double> seq;
  for (int t = 0; t < kTrials; ++t) {
    Simulator s(usd, Configuration(kUsdCounts), 1000 + static_cast<std::uint64_t>(t));
    const RunOutcome so = s.run_until_stable(50'000'000);
    ASSERT_TRUE(so.stabilized);
    seq.push_back(static_cast<double>(so.interactions));
  }
  RunningStats s_stats;
  for (const double x : seq) s_stats.add(x);

  struct Policy {
    const char* name;
    CollapsedSimulator::Options options;
    std::uint64_t seed0;
  };
  const Policy policies[] = {{"adaptive", {}, 500'000},
                             {"fixed n/16", {.fixed_round = 600 / 16}, 501'000}};
  for (const Policy& policy : policies) {
    std::vector<double> col;
    for (int t = 0; t < kTrials; ++t) {
      CollapsedSimulator c(usd, Configuration(kUsdCounts),
                           policy.seed0 + static_cast<std::uint64_t>(t),
                           policy.options);
      const RunOutcome co = c.run_until_stable(50'000'000);
      ASSERT_TRUE(co.stabilized) << policy.name;
      ASSERT_TRUE(co.consensus.has_value()) << policy.name;
      col.push_back(static_cast<double>(co.interactions));
    }
    EXPECT_LE(testutil::ks_distance(seq, col), 0.195) << policy.name;
    RunningStats c_stats;
    for (const double x : col) c_stats.add(x);
    EXPECT_NEAR(s_stats.mean(), c_stats.mean(),
                5.0 * (s_stats.sem() + c_stats.sem()))
        << policy.name;
  }
}

}  // namespace
}  // namespace ppsim
