// BatchedSimulator: exact invariants (population conservation, accounting,
// determinism, single-interaction rounds), bulk-apply correctness on a
// protocol with non-null self-pairs, and the headline distributional
// equivalence — batched vs. sequential stabilization-time samples on
// 3-opinion USD must agree under a two-sample KS-style test for several
// distinct seeds.
#include "ppsim/core/batched_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/leader_election.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

constexpr std::size_t kK = 3;
const std::vector<Count> kUsdCounts = {0, 250, 200, 150};  // ⊥, x1, x2, x3

/// Two-sample Kolmogorov–Smirnov distance sup_x |F_a(x) - F_b(x)|.
double ks_distance(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] <= b[ib]) {
      ++ia;
    } else {
      ++ib;
    }
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  return d;
}

TEST(BatchedSimulatorTest, RejectsDegenerateInputs) {
  const UndecidedStateDynamics usd(kK);
  EXPECT_THROW(BatchedSimulator(usd, Configuration({1, 0, 0, 0}), 1, {}),
               CheckFailure);  // single agent
  EXPECT_THROW(BatchedSimulator(usd, Configuration({0, 5, 5}), 1, {}),
               CheckFailure);  // state-space mismatch
  EXPECT_THROW(BatchedSimulator(usd, Configuration(kUsdCounts), 1, {.round_divisor = 0}),
               CheckFailure);
}

TEST(BatchedSimulatorTest, RoundSizeFollowsDivisor) {
  const UndecidedStateDynamics usd(kK);
  BatchedSimulator coarse(usd, Configuration(kUsdCounts), 1, {.round_divisor = 16});
  EXPECT_EQ(coarse.round_size(), 600 / 16);
  BatchedSimulator exact(usd, Configuration(kUsdCounts), 1,
                         {.round_divisor = 1'000'000});
  EXPECT_EQ(exact.round_size(), 1);  // divisor ≥ n ⇒ sequential-exact rounds
}

TEST(BatchedSimulatorTest, RoundsConservePopulationAndAccountInteractions) {
  const UndecidedStateDynamics usd(kK);
  BatchedSimulator sim(usd, Configuration(kUsdCounts), 42);
  Interactions total = 0;
  for (int round = 0; round < 200 && !sim.is_stable(); ++round) {
    total += sim.step_round(1'000'000);
    ASSERT_EQ(sim.configuration().population(), 600) << "round " << round;
    for (const Count c : sim.configuration().counts()) ASSERT_GE(c, 0);
  }
  EXPECT_EQ(sim.interactions(), total);
  EXPECT_GE(sim.clamped_interactions(), 0);
  EXPECT_LE(sim.clamped_interactions(), sim.interactions());
}

TEST(BatchedSimulatorTest, BudgetIsRespectedExactly) {
  const UndecidedStateDynamics usd(kK);
  BatchedSimulator sim(usd, Configuration(kUsdCounts), 7);
  const RunOutcome out = sim.run_until_stable(100);  // budget < one round
  EXPECT_EQ(out.interactions, 100);
  EXPECT_EQ(sim.interactions(), 100);
}

TEST(BatchedSimulatorTest, SameSeedGivesIdenticalTrajectory) {
  const UndecidedStateDynamics usd(kK);
  BatchedSimulator a(usd, Configuration(kUsdCounts), 99);
  BatchedSimulator b(usd, Configuration(kUsdCounts), 99);
  for (int round = 0; round < 300; ++round) {
    a.step_round(1'000'000);
    b.step_round(1'000'000);
    ASSERT_EQ(a.configuration(), b.configuration()) << "diverged at round " << round;
  }
}

TEST(BatchedSimulatorTest, StabilizesToUsdConsensus) {
  const UndecidedStateDynamics usd(kK);
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    BatchedSimulator sim(usd, Configuration(kUsdCounts), seed);
    const RunOutcome out = sim.run_until_stable(10'000'000);
    ASSERT_TRUE(out.stabilized) << "seed " << seed;
    ASSERT_TRUE(out.consensus.has_value()) << "seed " << seed;
    // Stable USD with a consensus is monochromatic on one opinion state.
    EXPECT_TRUE(sim.configuration().is_monochromatic());
    EXPECT_EQ(sim.configuration().count(
                  UndecidedStateDynamics::opinion_state(*out.consensus)),
              600);
  }
}

TEST(BatchedSimulatorTest, HandlesNonNullSelfPairs) {
  // Leader election's (L, L) -> (L, F) transition exercises the a == b bulk
  // branch: every interaction drains one agent from the self-pair's state.
  const LeaderElection protocol;
  BatchedSimulator sim(protocol, LeaderElection::initial(1000), 5);
  const RunOutcome out = sim.run_until_stable(50'000'000);
  ASSERT_TRUE(out.stabilized);
  EXPECT_EQ(sim.configuration().population(), 1000);
  EXPECT_EQ(sim.configuration().count(LeaderElection::kLeader), 1);
}

TEST(BatchedSimulatorTest, EngineFacadeSelectsBatched) {
  const UndecidedStateDynamics usd(kK);
  Engine engine(EngineKind::kBatched, usd, Configuration(kUsdCounts), 3);
  const RunOutcome out = engine.run_until_stable(10'000'000);
  EXPECT_TRUE(out.stabilized);
  EXPECT_TRUE(engine.is_stable());
  EXPECT_EQ(engine.interactions(), out.interactions);
  EXPECT_EQ(engine.consensus_output(), out.consensus);
  EXPECT_EQ(parse_engine("batched"), EngineKind::kBatched);
  EXPECT_EQ(to_string(EngineKind::kBatched), "batched");
  EXPECT_FALSE(parse_engine("warp-drive").has_value());
}

// --------------------------- distributional equivalence vs. sequential ----

std::vector<double> sequential_stabilization_sample(int trials, std::uint64_t seed0) {
  const UndecidedStateDynamics usd(kK);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    Simulator sim(usd, Configuration(kUsdCounts), seed0 + static_cast<std::uint64_t>(t));
    sim.set_stability_check_stride(1);  // exact stopping times for the KS check
    const RunOutcome out = sim.run_until_stable(50'000'000);
    EXPECT_TRUE(out.stabilized);
    times.push_back(static_cast<double>(out.interactions));
  }
  return times;
}

std::vector<double> batched_stabilization_sample(int trials, std::uint64_t seed0,
                                                 Interactions round_divisor) {
  const UndecidedStateDynamics usd(kK);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    BatchedSimulator sim(usd, Configuration(kUsdCounts),
                         seed0 + static_cast<std::uint64_t>(t),
                         {.round_divisor = round_divisor});
    const RunOutcome out = sim.run_until_stable(50'000'000);
    EXPECT_TRUE(out.stabilized);
    EXPECT_TRUE(out.consensus.has_value());
    EXPECT_EQ(sim.configuration().population(), 600);
    times.push_back(static_cast<double>(out.interactions));
  }
  return times;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, StabilizationTimesShareDistributionWithSequential) {
  // KS-style two-sample check on stabilization-time samples. With 300
  // samples a side the α = 0.001 KS critical distance is ≈ 0.16; the
  // τ-leaping bias at round_divisor = 16 (measured: < 1% of the mean, well
  // under the ~12% distribution spread) stays far below that. The sequential
  // sampler records exact stopping times (stride 1) so the comparison is
  // against the true sequential law, not its stride-quantized readout.
  const std::uint64_t seed = GetParam();
  constexpr int kTrials = 300;
  const std::vector<double> seq = sequential_stabilization_sample(kTrials, seed);
  const std::vector<double> bat = batched_stabilization_sample(kTrials, seed + 500'000, 16);
  EXPECT_LE(ks_distance(seq, bat), 0.195);

  RunningStats s;
  RunningStats b;
  for (const double x : seq) s.add(x);
  for (const double x : bat) b.add(x);
  EXPECT_NEAR(s.mean(), b.mean(), 5.0 * (s.sem() + b.sem()));
}

INSTANTIATE_TEST_SUITE_P(ThreeSeeds, SeedSweep,
                         ::testing::Values<std::uint64_t>(1000, 2000, 3000),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(BatchedSimulatorTest, SingleInteractionRoundsMatchSequentialMean) {
  // With round size 1 the batched engine realises exactly the sequential
  // chain (one pair draw per round with the correct law), so stabilization
  // means must agree within Monte-Carlo error.
  constexpr int kTrials = 120;
  RunningStats seq;
  RunningStats bat;
  for (const double x : sequential_stabilization_sample(kTrials, 70'000)) seq.add(x);
  for (const double x : batched_stabilization_sample(kTrials, 80'000, 1'000'000)) {
    bat.add(x);
  }
  EXPECT_NEAR(seq.mean(), bat.mean(), 5.0 * (seq.sem() + bat.sem()));
}

}  // namespace
}  // namespace ppsim
