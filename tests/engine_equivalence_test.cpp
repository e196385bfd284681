// Cross-validation of the two USD execution paths — the sequential
// Simulator and the counts-space CollapsedSimulator restricted to
// single-interaction rounds — which by construction realise the *same*
// Markov chain. Rather than comparing trajectories (the engines consume
// randomness differently), we compare distributions: means and variances of
// the key observables at several horizons must agree within Monte-Carlo
// error, and exact one-step transition probabilities must match the drift
// formulas on every engine.
#include <gtest/gtest.h>

#include <tuple>

#include "ppsim/analysis/drift.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

constexpr std::size_t kK = 3;

struct Moments {
  RunningStats u;
  RunningStats x0;
};

template <typename StepFn, typename ReadU, typename ReadX0>
Moments collect(int trials, Interactions horizon, std::uint64_t seed_base,
                StepFn&& make_and_run, ReadU&& read_u, ReadX0&& read_x0) {
  Moments m;
  for (int t = 0; t < trials; ++t) {
    auto engine = make_and_run(seed_base + static_cast<std::uint64_t>(t), horizon);
    m.u.add(read_u(engine));
    m.x0.add(read_x0(engine));
  }
  return m;
}

class HorizonTest : public ::testing::TestWithParam<Interactions> {};

TEST_P(HorizonTest, AllEnginesAgreeOnMomentsOfU) {
  const Interactions horizon = GetParam();
  constexpr int kTrials = 500;
  const UndecidedStateDynamics usd(kK);

  const Moments table = collect(
      kTrials, horizon, 2000,
      [&](std::uint64_t seed, Interactions h) {
        Simulator s(usd, Configuration({0, 25, 20, 15}), seed);
        for (Interactions i = 0; i < h; ++i) s.step();
        return s.configuration();
      },
      [](const Configuration& c) { return static_cast<double>(c.count(0)); },
      [](const Configuration& c) { return static_cast<double>(c.count(1)); });

  // Single-interaction rounds (fixed_round = 1): each round is one draw from
  // the exact ordered-pair law, so the collapsed engine must realise the
  // sequential chain distribution step for step.
  const Moments collapsed = collect(
      kTrials, horizon, 5000,
      [&](std::uint64_t seed, Interactions h) {
        CollapsedSimulator s(usd, Configuration({0, 25, 20, 15}), seed,
                             {.fixed_round = 1});
        for (Interactions i = 0; i < h; ++i) s.step_round(1);
        return s.configuration();
      },
      [](const Configuration& c) { return static_cast<double>(c.count(0)); },
      [](const Configuration& c) { return static_cast<double>(c.count(1)); });

  const double tol_u = 4.5 * (table.u.sem() + collapsed.u.sem());
  EXPECT_NEAR(table.u.mean(), collapsed.u.mean(), tol_u)
      << "u mismatch: table vs collapsed at horizon " << horizon;
  const double tol_x = 4.5 * (table.x0.sem() + collapsed.x0.sem());
  EXPECT_NEAR(table.x0.mean(), collapsed.x0.mean(), tol_x)
      << "x0 mismatch: table vs collapsed at horizon " << horizon;
}

INSTANTIATE_TEST_SUITE_P(Horizons, HorizonTest,
                         ::testing::Values<Interactions>(1, 10, 100, 1000),
                         [](const ::testing::TestParamInfo<Interactions>& param_info) {
                           return "h" + std::to_string(param_info.param);
                         });

TEST(EngineEquivalenceTest, OneStepLawMatchesDriftOnEveryEngine) {
  // After exactly one interaction, P[u increased] must equal the drift
  // formula's clash probability for each engine.
  const UsdDrift drift({0, 25, 20, 15});
  const double p_clash = drift.prob_undecided_increase();
  constexpr int kTrials = 60000;
  const UndecidedStateDynamics usd(kK);

  int table_clash = 0;
  int collapsed_clash = 0;
  for (int t = 0; t < kTrials; ++t) {
    Simulator s(usd, Configuration({0, 25, 20, 15}), 50000 + static_cast<std::uint64_t>(t));
    s.step();
    if (undecided_count(s.configuration()) > 0) ++table_clash;

    CollapsedSimulator c(usd, Configuration({0, 25, 20, 15}),
                         130000 + static_cast<std::uint64_t>(t), {.fixed_round = 1});
    c.step_round(1);
    if (c.configuration().count(UndecidedStateDynamics::kUndecided) > 0) {
      ++collapsed_clash;
    }
  }
  EXPECT_NEAR(static_cast<double>(table_clash) / kTrials, p_clash, 0.006);
  EXPECT_NEAR(static_cast<double>(collapsed_clash) / kTrials, p_clash, 0.006);
}

TEST(EngineDeterminismTest, SameSeedReproducesRunOutcome) {
  const UndecidedStateDynamics usd(kK);
  Simulator a(usd, Configuration({0, 25, 20, 15}), 777);
  Simulator b(usd, Configuration({0, 25, 20, 15}), 777);
  const RunOutcome oa = a.run_until_stable(1'000'000);
  const RunOutcome ob = b.run_until_stable(1'000'000);
  EXPECT_EQ(oa.stabilized, ob.stabilized);
  EXPECT_EQ(oa.interactions, ob.interactions);
  EXPECT_EQ(oa.consensus, ob.consensus);
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(EngineEquivalenceTest, StabilizationTimesShareDistribution) {
  // Full-run comparison: mean stabilization interactions across engines on
  // a biased two-party instance. The sequential engine stops on the exact
  // stabilizing interaction; the collapsed engine runs in exactness mode
  // (fixed_round = 1), so its stopping times follow the sequential law too.
  const UndecidedStateDynamics usd(2);
  constexpr int kTrials = 150;
  RunningStats table_time;
  RunningStats collapsed_time;
  for (int t = 0; t < kTrials; ++t) {
    Simulator s(usd, Configuration({0, 70, 30}), 800 + static_cast<std::uint64_t>(t));
    const RunOutcome out = s.run_until_stable(10'000'000);
    ASSERT_TRUE(out.stabilized);
    table_time.add(static_cast<double>(out.interactions));

    CollapsedSimulator c(usd, Configuration({0, 70, 30}),
                         900'000 + static_cast<std::uint64_t>(t), {.fixed_round = 1});
    const RunOutcome cout_ = c.run_until_stable(10'000'000);
    ASSERT_TRUE(cout_.stabilized);
    collapsed_time.add(static_cast<double>(cout_.interactions));
  }
  EXPECT_NEAR(table_time.mean(), collapsed_time.mean(),
              4.5 * (table_time.sem() + collapsed_time.sem()));
}

// --------------------------------------- scalar-kernel determinism anchor --

// Golden trajectories of the scalar kernel, whose binomials come from the
// library's own inversion/BTRS sampler (util/random_variates). These pins
// hold the anchor in place across any kernel-layer refactor, and because no
// standard-library distribution is involved they hold on every toolchain and
// build type. (The values are draw-for-draw, not distributional: any change
// here means recorded archives and byte-identical-JSON sweep pins silently
// broke too, and io::kBuildVersion must move with it.)

TEST(ScalarKernelGoldenTest, CollapsedAdaptiveRounds) {
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator s(usd, Configuration({0, 40000, 35000, 25000}), 20250808);
  for (int r = 0; r < 25; ++r) s.step_round(1'000'000'000);
  EXPECT_EQ(s.interactions(), 83385);
  EXPECT_EQ(s.clamped_interactions(), 0);
  EXPECT_EQ(s.configuration().counts(),
            (std::vector<Count>{35120, 28379, 22773, 13728}));
}

TEST(ScalarKernelGoldenTest, CollapsedSingleDrawAliasPath) {
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator s(usd, Configuration({0, 40, 35, 25}), 777,
                       {.fixed_round = 1});
  for (int r = 0; r < 500; ++r) s.step_round(1);
  EXPECT_EQ(s.interactions(), 500);
  EXPECT_EQ(s.configuration().counts(), (std::vector<Count>{43, 35, 21, 1}));
}

TEST(ScalarKernelGoldenTest, BatchedFixedRounds) {
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator s(usd, Configuration({0, 40000, 35000, 25000}), 424242,
                       {.fixed_round = 6250});  // n / 16
  for (int r = 0; r < 25; ++r) s.step_round(1'000'000'000);
  EXPECT_EQ(s.interactions(), 156250);
  EXPECT_EQ(s.clamped_interactions(), 0);
  EXPECT_EQ(s.configuration().counts(),
            (std::vector<Count>{38022, 29434, 21202, 11342}));
}

TEST(ScalarKernelGoldenTest, FullRunsToStabilization) {
  const UndecidedStateDynamics usd(3);
  {
    CollapsedSimulator s(usd, Configuration({0, 4000, 3500, 2500}), 99);
    const RunOutcome out = s.run_until_stable(100'000'000);
    EXPECT_TRUE(out.stabilized);
    EXPECT_EQ(out.interactions, 109242);
    EXPECT_EQ(out.consensus, std::optional<Opinion>(0));
  }
  {
    CollapsedSimulator s(usd, Configuration({0, 4000, 3500, 2500}), 99,
                         {.fixed_round = 625});  // n / 16
    const RunOutcome out = s.run_until_stable(100'000'000);
    EXPECT_TRUE(out.stabilized);
    EXPECT_EQ(out.interactions, 99375);
    EXPECT_EQ(out.consensus, std::optional<Opinion>(0));
  }
}

TEST(ScalarKernelGoldenTest, ExplicitScalarKernelEqualsDefault) {
  // Options::kernel = kScalar is the default; requesting it explicitly must
  // route through the same kernel object and the same draws.
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator::Options copts;
  copts.kernel = kernels::KernelKind::kScalar;
  CollapsedSimulator expl(usd, Configuration({0, 4000, 3500, 2500}), 5, copts);
  CollapsedSimulator dflt(usd, Configuration({0, 4000, 3500, 2500}), 5);
  EXPECT_EQ(&expl.kernel(), &dflt.kernel());
  for (int r = 0; r < 20; ++r) {
    expl.step_round(1'000'000);
    dflt.step_round(1'000'000);
    ASSERT_EQ(expl.configuration().counts(), dflt.configuration().counts());
  }
}

}  // namespace
}  // namespace ppsim
