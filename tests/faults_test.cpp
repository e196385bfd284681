// Fault injection: invariant preservation under corruption, reproducible
// fault streams, near-consensus under sustained faults, recovery
// (self-stabilization) once faults stop, and the agent-space vs counts-space
// fault-rate parity that makes faulted sweeps meaningful under
// EngineKind::kCollapsed.
#include "ppsim/core/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

/// The USD configuration `opinions` (plus `undecided` agents in ⊥).
Configuration usd_config(const std::vector<Count>& opinions, Count undecided = 0) {
  return UndecidedStateDynamics::initial_configuration(opinions, undecided);
}

const UndecidedStateDynamics kUsd2(2);
const UndecidedStateDynamics kUsd3(3);

TEST(CorruptAgentTest, MaintainsEngineInvariants) {
  Simulator engine(kUsd3, usd_config({10, 5, 0}, 3), 1);
  const Configuration& c = engine.configuration();
  engine.corrupt_agent(1, 3);  // opinion 0 -> opinion 2 (previously extinct)
  EXPECT_EQ(opinion_count(c, 0), 9);
  EXPECT_EQ(opinion_count(c, 2), 1);
  EXPECT_EQ(surviving_opinions(c), 3u);
  EXPECT_EQ(c.population(), 18);
  EXPECT_EQ(engine.interactions(), 0);  // not an interaction

  engine.corrupt_agent(3, 0);  // back out: opinion 2 extinct again
  EXPECT_EQ(surviving_opinions(c), 2u);
  EXPECT_EQ(undecided_count(c), 4);

  EXPECT_THROW(engine.corrupt_agent(3, 0), CheckFailure);  // now empty
  EXPECT_THROW(engine.corrupt_agent(7, 0), CheckFailure);  // out of range

  // the engine still simulates correctly afterwards
  for (int i = 0; i < 1000; ++i) engine.step();
  EXPECT_EQ(std::accumulate(c.counts().begin(), c.counts().end(), Count{0}), 18);
}

TEST(CorruptAgentTest, CanRestartStabilizedEngine) {
  Simulator engine(kUsd2, usd_config({10, 0}), 1);
  ASSERT_TRUE(engine.is_stable());
  engine.corrupt_agent(1, 2);  // revive the extinct opinion
  EXPECT_FALSE(engine.is_stable());
  // ...and a corruption can also complete a consensus.
  engine.corrupt_agent(2, 1);
  EXPECT_TRUE(engine.is_stable());
}

TEST(FaultInjectorTest, ZeroRateNeverCorrupts) {
  UsdFaultInjector injector(0.0, 5);
  Simulator engine(kUsd2, usd_config({50, 50}), 7);
  injector.run(engine, 5000);
  EXPECT_EQ(injector.corruptions(), 0);
}

TEST(FaultInjectorTest, RateControlsCorruptionFrequency) {
  // Every fired Bernoulli(0.1) now corrupts (the pre-fix injector dropped
  // draws whose resampled target equalled the victim's state, deflating the
  // effective rate to rate * k/(k+1) ≈ 2/3 · rate here). Expect ~2000 ± 4σ,
  // σ = sqrt(20000 · 0.1 · 0.9) ≈ 42.
  UsdFaultInjector injector(0.1, 5);
  Simulator engine(kUsd2, usd_config({500, 500}), 7);
  injector.run(engine, 20000);
  EXPECT_GT(injector.corruptions(), 2000 - 4 * 42);
  EXPECT_LT(injector.corruptions(), 2000 + 4 * 42);
}

TEST(FaultInjectorTest, CorruptionTargetsAreUniformChiSquare) {
  // With every state equally populated the victim is uniform over the k+1
  // states, and the fixed target resampling is uniform over the other k, so
  // the post-corruption (target) state distribution must be uniform over all
  // k+1 states. The pre-fix injector hit this distribution too, but at a
  // deflated rate — the companion test above pins the rate; this one pins
  // the shape. Counts are diffed around each injection to observe the
  // target; large equal counts keep the victim distribution ~uniform for
  // the whole run.
  const std::size_t k = 3;  // 4 USD states: ⊥ + 3 opinions
  Simulator engine(kUsd3, usd_config({100000, 100000, 100000}, 100000), 99);
  UsdFaultInjector injector(1.0, 17);
  constexpr int kEvents = 40000;
  std::vector<std::int64_t> observed(k + 1, 0);
  for (int i = 0; i < kEvents; ++i) {
    const std::vector<Count> before = engine.configuration().counts();
    ASSERT_TRUE(injector.maybe_corrupt(engine));
    int gained = -1;
    for (std::size_t s = 0; s <= k; ++s) {
      if (engine.configuration().counts()[s] == before[s] + 1) {
        gained = static_cast<int>(s);
      }
    }
    ASSERT_GE(gained, 0) << "a fired corruption must move an agent";
    ++observed[static_cast<std::size_t>(gained)];
  }
  EXPECT_EQ(injector.corruptions(), kEvents);
  const double p = testutil::chi_square_pvalue(
      observed, testutil::uniform_expectation(k + 1, kEvents));
  // A correct injector fails this with probability < 1e-6; the pre-fix
  // injector (target sampled over all k+1 states, equal-state draws
  // dropped) passes the shape but fails the rate test above.
  EXPECT_GT(p, 1e-6);
}

TEST(FaultInjectorTest, FaultStreamIsReproducible) {
  Simulator a(kUsd2, usd_config({300, 200}), 42);
  UsdFaultInjector ia(0.05, 9);
  ia.run(a, 10000);

  Simulator b(kUsd2, usd_config({300, 200}), 42);
  UsdFaultInjector ib(0.05, 9);
  ib.run(b, 10000);

  EXPECT_EQ(a.configuration(), b.configuration());
  EXPECT_EQ(ia.corruptions(), ib.corruptions());
}

TEST(FaultInjectorTest, RejectsBadRate) {
  EXPECT_THROW(UsdFaultInjector(-0.1, 1), CheckFailure);
  EXPECT_THROW(UsdFaultInjector(1.5, 1), CheckFailure);
}

TEST(FaultInjectorTest, EmptyScheduleIsANoOp) {
  // Zero-interaction schedule: no steps, no corruption draws, configuration
  // untouched — and a negative budget is rejected rather than wrapping.
  UsdFaultInjector injector(1.0, 3);
  Simulator engine(kUsd2, usd_config({30, 20}), 7);
  const Configuration before = engine.configuration();
  injector.run(engine, 0);
  EXPECT_EQ(engine.interactions(), 0);
  EXPECT_EQ(injector.corruptions(), 0);
  EXPECT_EQ(engine.configuration(), before);
  EXPECT_THROW(injector.run(engine, -1), CheckFailure);
}

TEST(FaultInjectorTest, SingleAgentPopulationIsRejectedAtTheBoundary) {
  // The interaction model needs two distinct agents, so a one-agent engine
  // cannot exist: the fault machinery never has to special-case it.
  const UndecidedStateDynamics usd1(1);
  EXPECT_THROW(Simulator(usd1, usd_config({1}), 1), CheckFailure);
  EXPECT_THROW(Simulator(kUsd2, usd_config({0, 0}, 1), 1), CheckFailure);
  // Two agents is the smallest legal population; corruption still works.
  Simulator tiny(kUsd2, usd_config({1, 1}), 5);
  UsdFaultInjector injector(1.0, 6);
  injector.run(tiny, 50);
  EXPECT_EQ(tiny.configuration().population(), 2);
}

TEST(FaultInjectorTest, RunOnStabilizedEngineStillConsumesSchedule) {
  // run() deliberately ignores is_stable(): faults can re-activate the
  // dynamics, so the schedule must keep stepping (and possibly corrupting)
  // a consensus configuration.
  Simulator engine(kUsd2, usd_config({10, 0}), 4);
  ASSERT_TRUE(engine.is_stable());
  UsdFaultInjector injector(0.5, 8);
  injector.run(engine, 2000);
  EXPECT_EQ(engine.interactions(), 2000);
  EXPECT_GT(injector.corruptions(), 0);
}

TEST(FaultToleranceTest, NearConsensusUnderSustainedFaults) {
  // Strong bias, small corruption rate: after the fault-free stabilization
  // horizon the system should hold a near-consensus (quality >= 0.9) even
  // though formal stabilization is impossible under faults.
  const Count n = 10000;
  Simulator engine(kUsd2, usd_config({7000, 3000}), 11);
  UsdFaultInjector injector(0.001, 13);
  injector.run(engine, 100 * n);
  EXPECT_FALSE(engine.is_stable());  // faults keep it alive...
  EXPECT_GT(consensus_quality(engine.configuration()), 0.9);  // ...but the majority holds
}

TEST(FaultToleranceTest, RecoversAfterFaultsStop) {
  // Self-stabilization: run with heavy corruption, then stop the faults and
  // confirm the dynamics still reach a proper consensus.
  const Count n = 5000;
  Simulator engine(kUsd2, usd_config({3500, 1500}), 17);
  UsdFaultInjector injector(0.01, 19);
  injector.run(engine, 20 * n);
  ASSERT_FALSE(engine.is_stable());
  const RunOutcome out = engine.run_until_stable(100000 * n);
  ASSERT_TRUE(out.stabilized);
  EXPECT_TRUE(out.consensus.has_value());
}

TEST(ConsensusQualityTest, Definition) {
  EXPECT_DOUBLE_EQ(consensus_quality(usd_config({10, 0})), 1.0);
  EXPECT_DOUBLE_EQ(consensus_quality(usd_config({5, 5})), 0.5);
  EXPECT_DOUBLE_EQ(consensus_quality(usd_config({5, 0}, 5)), 0.5);
}

TEST(FaultParityTest, CollapsedCorruptionRateMatchesAgentSpaceInjector) {
  // The counts-space injector must realize the same corruption rate as the
  // agent-space one: both ~ Binomial(T, rate), T = 200000, rate = 0.01,
  // σ ≈ 44.5. Each realized count sits within 4σ of rate·T, which also
  // bounds their mutual gap.
  constexpr Interactions kBudget = 200000;
  constexpr double kRate = 0.01;
  const double mean = kRate * static_cast<double>(kBudget);
  const double sigma =
      std::sqrt(static_cast<double>(kBudget) * kRate * (1.0 - kRate));

  Simulator engine(kUsd3, usd_config({40000, 30000, 30000}), 61);
  UsdFaultInjector agent_space(kRate, 67);
  agent_space.run(engine, kBudget);
  EXPECT_EQ(engine.interactions(), kBudget);

  const UndecidedStateDynamics usd(3);
  CollapsedSimulator sim(usd, Configuration({0, 40000, 30000, 30000}), 61);
  CountsFaultInjector counts_space(kRate, 67);
  counts_space.run(sim, kBudget);
  EXPECT_EQ(sim.interactions(), kBudget);

  for (const double realized :
       {static_cast<double>(agent_space.corruptions()),
        static_cast<double>(counts_space.corruptions())}) {
    EXPECT_GT(realized, mean - 4.0 * sigma);
    EXPECT_LT(realized, mean + 4.0 * sigma);
  }
  // Population is invariant under corruption on both engines.
  EXPECT_EQ(engine.configuration().population(), 100000);
  EXPECT_EQ(sim.configuration().population(), 100000);
}

TEST(FaultParityTest, ZeroRateCountsInjectorMakesNoDraws) {
  const UndecidedStateDynamics usd(2);
  CollapsedSimulator faulted(usd, Configuration({0, 600, 400}), 83);
  CollapsedSimulator plain(usd, Configuration({0, 600, 400}), 83);
  CountsFaultInjector injector(0.0, 5);
  injector.run(faulted, 50000);
  plain.run_until_stable(50000);
  EXPECT_EQ(injector.corruptions(), 0);
  EXPECT_EQ(faulted.configuration().counts(), plain.configuration().counts());
}

}  // namespace
}  // namespace ppsim
