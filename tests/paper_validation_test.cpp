// Integration tests that validate the paper's quantitative claims at
// CI-friendly scale (n = 10^4 – 10^5 instead of 10^6). These are the same
// measurements the bench harnesses perform at paper scale; docs/REPRODUCING.md
// gives the paper-scale commands.
#include <gtest/gtest.h>

#include <cmath>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/drift.hpp"
#include "ppsim/analysis/hitting_times.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/protocols/usd.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

/// The exact sequential engine on `init`'s opinion counts.
Simulator usd_sim(const UndecidedStateDynamics& usd, const InitialConfig& init,
                  std::uint64_t seed) {
  return Simulator(usd, UndecidedStateDynamics::initial_configuration(init.opinion_counts),
                   seed);
}

/// The same engine behind the Engine facade, which the run-analysis helpers
/// (analysis/hitting_times) take.
Engine usd_engine(const UndecidedStateDynamics& usd, const InitialConfig& init,
                  std::uint64_t seed) {
  return Engine(EngineKind::kSequential, usd,
                UndecidedStateDynamics::initial_configuration(init.opinion_counts), seed);
}

// ----------------------------------------------------------- Lemma 3.1 ----

TEST(PaperLemma31, UndecidedNeverExceedsCeiling) {
  // The ceiling holds w.p. >= 1 - n^{-4}; at n = 20000 a violation over a
  // handful of seeds is effectively impossible.
  const Count n = 20000;
  const std::size_t k = 10;
  const UndecidedStateDynamics usd(k);
  const double ceiling = bounds::lemma31_ceiling(n, k);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const InitialConfig init = figure1_configuration(n, k);
    Engine engine = usd_engine(usd, init, seed);
    const UndecidedExcursion exc = max_undecided_over_run(engine, 100 * n);
    EXPECT_LT(static_cast<double>(exc.max_undecided), ceiling) << "seed " << seed;
  }
}

TEST(PaperLemma31, UndecidedSettlesNearSettlePoint) {
  // After burn-in, u(t) should hover near n/2 - n/4k (Figure 1's guide
  // line); with the √(n log n) correction terms this is a loose band test.
  const Count n = 50000;
  const std::size_t k = 8;
  const UndecidedStateDynamics usd(k);
  const InitialConfig init = figure1_configuration(n, k);
  Simulator engine = usd_sim(usd, init, 42);
  // burn in 10 parallel time units
  for (Interactions i = 0; i < 10 * n; ++i) engine.step();
  const double settle = bounds::usd_settle_point(n, k);
  RunningStats u_obs;
  for (int s = 0; s < 1000; ++s) {
    for (Interactions i = 0; i < n / 100; ++i) engine.step();
    u_obs.add(static_cast<double>(undecided_count(engine.configuration())));
    if (engine.is_stable()) break;
  }
  const double slack = 3.0 * std::sqrt(static_cast<double>(n) *
                                       std::log(static_cast<double>(n)));
  EXPECT_NEAR(u_obs.mean(), settle, slack);
}

TEST(PaperLemma31, AmirSandwichHolds) {
  // Amir et al.: n/2 - x_1/2 <= u(t) <= n/2 after the first n·log n
  // interactions (up to the fluctuation terms; we allow the Lemma 3.1
  // √(n log n) slack on both sides).
  const Count n = 30000;
  const std::size_t k = 6;
  const UndecidedStateDynamics usd(k);
  const InitialConfig init = figure1_configuration(n, k);
  Simulator engine = usd_sim(usd, init, 7);
  const auto burn_in = static_cast<Interactions>(
      static_cast<double>(n) * std::log(static_cast<double>(n)));
  for (Interactions i = 0; i < burn_in && !engine.is_stable(); ++i) engine.step();
  const double slack =
      2.0 * std::sqrt(static_cast<double>(n) * std::log(static_cast<double>(n)));
  for (int probe = 0; probe < 200 && !engine.is_stable(); ++probe) {
    for (Interactions i = 0; i < n / 20; ++i) engine.step();
    const auto u = static_cast<double>(undecided_count(engine.configuration()));
    const auto x1 = static_cast<double>(max_opinion_count(engine.configuration()));
    ASSERT_LE(u, static_cast<double>(n) / 2.0 + slack);
    ASSERT_GE(u, static_cast<double>(n) / 2.0 - x1 / 2.0 - slack);
  }
}

// ----------------------------------------------------------- Lemma 3.3 ----

TEST(PaperLemma33, OpinionGrowthIsSlow) {
  // From the adversarial configuration, no opinion reaches 2n/k within
  // kn/25 interactions w.h.p. Verify for the majority opinion, the most
  // likely violator.
  const Count n = 50000;
  const std::size_t k = 10;
  const UndecidedStateDynamics usd(k);
  const auto target = static_cast<Count>(bounds::lemma33_target_level(n, k));
  const auto budget = static_cast<Interactions>(bounds::lemma33_interactions(n, k));
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    const InitialConfig init = figure1_configuration(n, k);
    ASSERT_LT(static_cast<double>(init.majority()),
              bounds::lemma33_start_level(n, k));
    Engine engine = usd_engine(usd, init, seed);
    const HittingResult r = time_until_opinion_reaches(engine, 0, target, budget);
    EXPECT_FALSE(r.hit) << "seed " << seed << ": x_0 reached 2n/k after "
                        << r.interactions_at_hit << " interactions (budget "
                        << budget << ")";
  }
}

// ----------------------------------------------------------- Lemma 3.4 ----

TEST(PaperLemma34, MaxDifferenceDoesNotDoubleFast) {
  // With initial difference α/2 = ω(√(n log n)), Δmax needs more than kn/24
  // interactions to reach α, w.h.p.
  const Count n = 50000;
  const std::size_t k = 10;
  const UndecidedStateDynamics usd(k);
  const auto alpha_half = static_cast<Count>(2.0 * bounds::whp_bias(n));
  const auto budget = static_cast<Interactions>(bounds::lemma34_interactions(n, k));
  for (std::uint64_t seed = 21; seed <= 25; ++seed) {
    const InitialConfig init = adversarial_configuration(n, k, alpha_half);
    Engine engine = usd_engine(usd, init, seed);
    const HittingResult r =
        time_until_delta_reaches(engine, 2 * init.bias, budget);
    EXPECT_FALSE(r.hit) << "seed " << seed << ": Δmax doubled after "
                        << r.interactions_at_hit << " interactions";
  }
}

// --------------------------------------------------------- Theorem 3.5 ----

TEST(PaperTheorem35, StabilizationSlowerThanLowerBound) {
  // Measured stabilization (parallel time) must exceed the paper's lower
  // bound (k/25)·ln(√n/(k ln n)) on the adversarial configuration.
  const Count n = 40000;
  const std::size_t k = 8;
  const UndecidedStateDynamics usd(k);
  const double lb = bounds::theorem35_parallel_lower_bound(n, k);
  ASSERT_GT(lb, 0.0);
  const SweepCellResult cell = testutil::run_cell(5, 123, [&](std::uint64_t seed) {
    const InitialConfig init = figure1_configuration(n, k);
    Simulator engine = usd_sim(usd, init, seed);
    engine.run_until_stable(5000 * n);
    TrialResult r;
    r.stabilized = engine.is_stable();
    r.parallel_time = engine.parallel_time();
    r.winner = engine.consensus_output();
    return r;
  });
  ASSERT_EQ(cell.rate("stabilized"), 1.0);
  for (const double parallel_time : cell.values("parallel_time")) {
    EXPECT_GT(parallel_time, lb);
  }
}

TEST(PaperTheorem35, BiasWithinTheoremStillWinsWithWhpBias) {
  // The subtle point: the lower bound applies even though the √(n ln n)
  // bias guarantees the majority wins. Check the winner is opinion 0 in
  // every trial.
  const Count n = 40000;
  const std::size_t k = 8;
  const UndecidedStateDynamics usd(k);
  const SweepCellResult cell = testutil::run_cell(8, 321, [&](std::uint64_t seed) {
    const InitialConfig init = figure1_configuration(n, k);
    Simulator engine = usd_sim(usd, init, seed);
    engine.run_until_stable(5000 * n);
    TrialResult r;
    r.stabilized = engine.is_stable();
    r.winner = engine.consensus_output();
    return r;
  });
  ASSERT_EQ(cell.rate("stabilized"), 1.0);
  // w.h.p. all trials; allow at most one upset at this small n.
  EXPECT_GE(cell.sum("majority_win"), 7.0);
}

// -------------------------------------------- Figure 1 qualitative shape ----

TEST(PaperFigure1, DoublingTakesMostOfTheStabilizationTime) {
  // Figure 1 (right): reaching 2·x_1(0) consumes the bulk of the run
  // (~70 of ~90 parallel time units at paper scale). At small scale we
  // assert it takes at least a third of the total stabilization time.
  const Count n = 30000;
  const std::size_t k = bounds::paper_k(n);  // paper's k(n)
  const UndecidedStateDynamics usd(k);
  const InitialConfig init = figure1_configuration(n, k);

  Engine doubling_engine = usd_engine(usd, init, 99);
  const HittingResult doubling = time_until_opinion_reaches(
      doubling_engine, 0, 2 * init.majority(), 100000 * n);
  ASSERT_TRUE(doubling.hit);

  Simulator full_engine = usd_sim(usd, init, 99);
  const RunOutcome full = full_engine.run_until_stable(100000 * n);
  ASSERT_TRUE(full.stabilized);

  EXPECT_GT(static_cast<double>(doubling.interactions_at_hit),
            static_cast<double>(full.interactions) / 3.0);
  EXPECT_LE(doubling.interactions_at_hit, full.interactions);
}

TEST(PaperFigure1, MinorityOpinionsAreNotMonotone) {
  // Figure 1 (left) observation: "not all minority opinions are strictly
  // decreasing over time, but many are actually increasing over a long time
  // period". After the initial burn-in (where every opinion halves while u
  // climbs), some minority must later exceed its post-burn-in level by a
  // clear margin.
  const Count n = 30000;
  const std::size_t k = 10;
  const UndecidedStateDynamics usd(k);
  const InitialConfig init = figure1_configuration(n, k);
  Simulator engine = usd_sim(usd, init, 5);
  for (Interactions i = 0; i < 5 * n; ++i) engine.step();  // burn-in
  std::vector<Count> after_burn_in(k);
  for (Opinion j = 0; j < k; ++j) after_burn_in[j] = opinion_count(engine.configuration(), j);

  bool some_minority_rose = false;
  for (int sample = 0; sample < 2000 && !engine.is_stable(); ++sample) {
    for (Interactions i = 0; i < n / 10; ++i) engine.step();
    for (Opinion j = 1; j < k; ++j) {
      if (static_cast<double>(opinion_count(engine.configuration(), j)) >
          1.1 * static_cast<double>(after_burn_in[j])) {
        some_minority_rose = true;
        break;
      }
    }
    if (some_minority_rose) break;
  }
  EXPECT_TRUE(some_minority_rose);
}

TEST(PaperFigure1, UndecidedClimbsFastThenStaysNearSettle) {
  // Figure 1 (left): u(0) = 0, climbs to ≈ n/2 - n/4k within a few parallel
  // time units, then stays in a band around it.
  const Count n = 30000;
  const std::size_t k = 10;
  const UndecidedStateDynamics usd(k);
  const InitialConfig init = figure1_configuration(n, k);
  Simulator engine = usd_sim(usd, init, 17);
  for (Interactions i = 0; i < 5 * n; ++i) engine.step();  // 5 parallel units
  const double settle = bounds::usd_settle_point(n, k);
  EXPECT_GT(static_cast<double>(undecided_count(engine.configuration())), 0.8 * settle);
  EXPECT_LT(static_cast<double>(undecided_count(engine.configuration())),
            bounds::lemma31_ceiling(n, k));
}

}  // namespace
}  // namespace ppsim
