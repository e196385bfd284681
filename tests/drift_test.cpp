// UsdDrift: the paper's one-step conditional expectations, validated both
// against hand-computed values and against Monte-Carlo single-interaction
// averages from the real engine.
#include "ppsim/analysis/drift.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

TEST(UsdDriftTest, ConstructionValidation) {
  EXPECT_THROW(UsdDrift({5}), CheckFailure);        // no opinions
  EXPECT_THROW(UsdDrift({1, -1}), CheckFailure);    // negative
  EXPECT_THROW(UsdDrift({1, 0}), CheckFailure);     // n = 1
  const UsdDrift d({2, 5, 3});
  EXPECT_EQ(d.n(), 10);
  EXPECT_EQ(d.u(), 2);
  EXPECT_EQ(d.x(0), 5);
  EXPECT_EQ(d.x(1), 3);
  EXPECT_EQ(d.k(), 2u);
}

TEST(UsdDriftTest, HandComputedProbabilities) {
  // u = 4, x = (4, 2), n = 10, N2 = 90.
  const UsdDrift d({4, 4, 2});
  EXPECT_NEAR(d.prob_undecided_decrease(), 2.0 * 4 * 6 / 90.0, 1e-12);
  // clash mass: x1·(n-u-x1) + x2·(n-u-x2) = 4·2 + 2·4 = 16
  EXPECT_NEAR(d.prob_undecided_increase(), 16.0 / 90.0, 1e-12);
  EXPECT_NEAR(d.expected_undecided_change(), 2 * 16.0 / 90.0 - 48.0 / 90.0, 1e-12);

  EXPECT_NEAR(d.prob_opinion_up(0), 2.0 * 4 * 4 / 90.0, 1e-12);
  EXPECT_NEAR(d.prob_opinion_down(0), 2.0 * 4 * 2 / 90.0, 1e-12);
  EXPECT_NEAR(d.expected_opinion_change(0), 2.0 * 4 * (8 - 10 + 4) / 90.0, 1e-12);
}

TEST(UsdDriftTest, ProbabilitiesSumBelowOne) {
  const UsdDrift d({10, 30, 20, 40});
  const double total = d.prob_undecided_decrease() + d.prob_undecided_increase();
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, 1.0);
}

TEST(UsdDriftTest, ThresholdIsZeroCrossing) {
  // E[Δx_i] > 0 iff u > (n - x_i)/2: check right at and around the
  // threshold. n = 100, x_i = 20 -> u_i = 40.
  const UsdDrift at({40, 20, 40});
  EXPECT_NEAR(at.expected_opinion_change(0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(at.opinion_threshold(0), 40.0);
  const UsdDrift above({41, 20, 39});
  EXPECT_GT(above.expected_opinion_change(0), 0.0);
  const UsdDrift below({39, 20, 41});
  EXPECT_LT(below.expected_opinion_change(0), 0.0);
}

TEST(UsdDriftTest, ThresholdDecreasesInOpinionSize) {
  // "The larger x_i is, the smaller u_i is" (Section 2).
  const UsdDrift d({10, 50, 30, 10});
  EXPECT_LT(d.opinion_threshold(0), d.opinion_threshold(1));
  EXPECT_LT(d.opinion_threshold(1), d.opinion_threshold(2));
}

TEST(UsdDriftTest, DeltaDriftSignTracksGap) {
  // 2u - n + x_i + x_j > 0 with u large: the gap widens in expectation.
  const UsdDrift wide({60, 25, 15});
  EXPECT_GT(wide.expected_delta_change(0, 1), 0.0);
  EXPECT_LT(wide.expected_delta_change(1, 0), 0.0);
  // 2u - n + x_i + x_j < 0 (needs a third opinion holding most agents):
  // the gap narrows. Here 2·4 - 100 + 30 + 20 = -42.
  const UsdDrift narrow({4, 30, 20, 46});
  EXPECT_LT(narrow.expected_delta_change(0, 1), 0.0);
  // Antisymmetry.
  EXPECT_NEAR(wide.expected_delta_change(0, 1), -wide.expected_delta_change(1, 0),
              1e-15);
}

TEST(UsdDriftTest, EqualOpinionsHaveZeroDeltaDrift) {
  const UsdDrift d({20, 40, 40});
  EXPECT_DOUBLE_EQ(d.expected_delta_change(0, 1), 0.0);
}

TEST(UsdDriftTest, SettlePointFormula) {
  // The settle point of u lives in analysis/bounds: n = 1000, k = 3 gives
  // n/2 - n/(4k) = 500 - 83.33...
  EXPECT_NEAR(bounds::usd_settle_point(1000, 3), 500.0 - 1000.0 / 12.0, 1e-9);
}

// ------------------------------------------------- Monte-Carlo validation ----

class DriftMonteCarloTest : public ::testing::TestWithParam<std::vector<Count>> {};

TEST_P(DriftMonteCarloTest, OneStepExpectationsMatchEngine) {
  const std::vector<Count> counts = GetParam();
  const UsdDrift drift(counts);

  const UndecidedStateDynamics usd(counts.size() - 1);
  const Configuration initial(counts);
  constexpr int kTrials = 120000;
  RunningStats du;
  RunningStats dx0;
  for (int t = 0; t < kTrials; ++t) {
    Simulator engine(usd, initial, 10000 + static_cast<std::uint64_t>(t));
    const Configuration& c = engine.configuration();
    const Count u_before = undecided_count(c);
    const Count x0_before = opinion_count(c, 0);
    engine.step();
    du.add(static_cast<double>(undecided_count(c) - u_before));
    dx0.add(static_cast<double>(opinion_count(c, 0) - x0_before));
  }
  EXPECT_NEAR(du.mean(), drift.expected_undecided_change(), 5.0 * du.sem())
      << "E[Δu] mismatch";
  EXPECT_NEAR(dx0.mean(), drift.expected_opinion_change(0), 5.0 * dx0.sem())
      << "E[Δx_0] mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, DriftMonteCarloTest,
    ::testing::Values(std::vector<Count>{0, 30, 20},       // no undecided yet
                      std::vector<Count>{20, 15, 15},      // symmetric opinions
                      std::vector<Count>{40, 15, 5},       // near settle point
                      std::vector<Count>{10, 20, 15, 5},   // three opinions
                      std::vector<Count>{45, 5, 5, 5}));   // undecided-dominated

TEST(UsdDriftTest, DeltaUpProbabilityMatchesMonteCarloCounts) {
  // Directly validate P(Δ_01 increases) on a 3-opinion configuration where
  // both terms (adoption by 0, clash of 1 with opinion 2) contribute.
  const std::vector<Count> counts = {10, 20, 15, 5};
  const UsdDrift drift(counts);
  const UndecidedStateDynamics usd(3);
  const Configuration initial(counts);
  constexpr int kTrials = 200000;
  int up = 0;
  int down = 0;
  for (int t = 0; t < kTrials; ++t) {
    Simulator engine(usd, initial, 777000 + static_cast<std::uint64_t>(t));
    const Configuration& c = engine.configuration();
    const Count before = opinion_count(c, 0) - opinion_count(c, 1);
    engine.step();
    const Count after = opinion_count(c, 0) - opinion_count(c, 1);
    if (after > before) ++up;
    if (after < before) ++down;
  }
  const double p_up = static_cast<double>(up) / kTrials;
  const double p_down = static_cast<double>(down) / kTrials;
  EXPECT_NEAR(p_up, drift.prob_delta_up(0, 1), 0.004);
  EXPECT_NEAR(p_down, drift.prob_delta_down(0, 1), 0.004);
}

}  // namespace
}  // namespace ppsim
