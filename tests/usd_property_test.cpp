// Property-style parameterized sweeps over (n, k) grids: invariants that
// must hold for every population size and opinion count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/drift.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {
namespace {

using NK = std::tuple<Count, std::size_t>;

class UsdGridTest : public ::testing::TestWithParam<NK> {
 protected:
  Count n() const { return std::get<0>(GetParam()); }
  std::size_t k() const { return std::get<1>(GetParam()); }

  /// The exact sequential engine on `init`'s opinion counts.
  Simulator simulate(const InitialConfig& init, std::uint64_t seed) const {
    return Simulator(usd_, UndecidedStateDynamics::initial_configuration(init.opinion_counts),
                     seed);
  }

 private:
  const UndecidedStateDynamics usd_{k()};
};

TEST_P(UsdGridTest, PopulationConservedThroughoutRun) {
  const InitialConfig init = balanced_configuration(n(), k());
  Simulator engine = simulate(init, 1);
  for (int i = 0; i < 5000; ++i) {
    engine.step();
    const auto& c = engine.configuration().counts();
    ASSERT_EQ(std::accumulate(c.begin(), c.end(), Count{0}), n());
  }
}

TEST_P(UsdGridTest, CountsStayNonNegativeAndBounded) {
  const InitialConfig init = balanced_configuration(n(), k());
  Simulator engine = simulate(init, 2);
  for (int i = 0; i < 5000; ++i) {
    engine.step();
    for (const Count c : engine.configuration().counts()) {
      ASSERT_GE(c, 0);
      ASSERT_LE(c, n());
    }
  }
}

TEST_P(UsdGridTest, UndecidedCannotExceedHalfPlusSlack) {
  // Coarse version of Lemma 3.1 valid at any scale: u(t) <= n/2 + O(√(n ln n)).
  // (The n/2 barrier comes from E[Δu] < 0 whenever u > n/2.)
  const InitialConfig init = balanced_configuration(n(), k());
  Simulator engine = simulate(init, 3);
  const double cap =
      static_cast<double>(n()) / 2.0 +
      4.0 * std::sqrt(static_cast<double>(n()) * std::log(static_cast<double>(n())));
  Count max_u = 0;
  while (engine.interactions() < 50 * n() && !engine.is_stable()) {
    engine.step();
    max_u = std::max(max_u, undecided_count(engine.configuration()));
  }
  EXPECT_LT(static_cast<double>(max_u), cap);
}

TEST_P(UsdGridTest, DriftFormulasConsistentWithCounts) {
  // Algebraic identity: 2·P_inc - P_dec must equal Σ_i E[Δx_i]·(-1) ...
  // more directly, Σ_i E[Δx_i] + E[Δu] = 0 (agents are conserved).
  Xoshiro256pp rng(4);
  const InitialConfig init = random_configuration(n(), k(), rng);
  // put a third of agents into ⊥ to exercise all terms
  std::vector<Count> counts = init.opinion_counts;
  Count u = 0;
  for (auto& c : counts) {
    const Count take = c / 3;
    c -= take;
    u += take;
  }
  std::vector<Count> layout;
  layout.push_back(u);
  layout.insert(layout.end(), counts.begin(), counts.end());
  const UsdDrift drift(layout);
  double sum = drift.expected_undecided_change();
  for (Opinion i = 0; i < k(); ++i) sum += drift.expected_opinion_change(i);
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST_P(UsdGridTest, StabilizesWithinGenerousBudgetAndWinnerIsValid) {
  const InitialConfig init = figure1_configuration(n(), k());
  Simulator engine = simulate(init, 5);
  // Budget: 400·k·ln(n) parallel time — far above the Amir et al. bound.
  const auto budget = static_cast<Interactions>(
      400.0 * static_cast<double>(k()) * std::log(static_cast<double>(n())) *
      static_cast<double>(n()));
  const RunOutcome out = engine.run_until_stable(budget);
  ASSERT_TRUE(out.stabilized) << "did not stabilize within " << budget << " interactions";
  if (out.consensus.has_value()) {
    EXPECT_LT(*out.consensus, k());
    EXPECT_EQ(opinion_count(engine.configuration(), *out.consensus), n());
  } else {
    EXPECT_EQ(undecided_count(engine.configuration()), n());
  }
}

TEST_P(UsdGridTest, AdversarialBuilderProducesValidStart) {
  const InitialConfig init = figure1_configuration(n(), k());
  EXPECT_EQ(init.population(), n());
  EXPECT_EQ(init.opinion_counts.size(), k());
  for (std::size_t i = 1; i < k(); ++i) {
    EXPECT_EQ(init.opinion_counts[i], init.opinion_counts[1]);
  }
  EXPECT_GE(init.bias, static_cast<Count>(bounds::whp_bias(n())));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UsdGridTest,
    ::testing::Combine(::testing::Values<Count>(1000, 5000, 20000),
                       ::testing::Values<std::size_t>(2, 3, 8, 16)),
    [](const ::testing::TestParamInfo<NK>& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param));
    });

// --------------------------------------------------------- walk variance ----

class BiasSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BiasSweepTest, LargerBiasNeverHurtsTheMajority) {
  // Win-rate sanity across the bias spectrum at small n: with bias
  // >= 4·√(n ln n) the majority wins essentially always.
  const Count n = 2000;
  const double multiplier = GetParam();
  const auto bias = static_cast<Count>(multiplier * bounds::whp_bias(n));
  const InitialConfig init = two_party_configuration(n, (n + bias) / 2);
  const UndecidedStateDynamics usd(2);
  int wins = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    Simulator engine(usd, UndecidedStateDynamics::initial_configuration(init.opinion_counts),
                     1000 + static_cast<std::uint64_t>(t));
    const RunOutcome out = engine.run_until_stable(10'000'000);
    if (out.consensus.has_value() && *out.consensus == 0) ++wins;
  }
  if (multiplier >= 4.0) {
    EXPECT_EQ(wins, kTrials);
  } else {
    EXPECT_GE(wins, kTrials / 2);  // majority should still be favoured
  }
}

INSTANTIATE_TEST_SUITE_P(Multipliers, BiasSweepTest,
                         ::testing::Values(1.0, 2.0, 4.0, 6.0));

}  // namespace
}  // namespace ppsim
