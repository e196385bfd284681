// Alias table + binomial/multinomial/hypergeometric samplers: moment checks,
// conservation, degenerate cases, distribution-shape chi-square tests, and
// draw-for-draw pins of the binomial and hypergeometric samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "ppsim/util/alias_table.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

// ---------------------------------------------------------------- alias ----

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), CheckFailure);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}), CheckFailure);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), CheckFailure);
}

TEST(AliasTable, NormalizesProbabilities) {
  AliasTable t(std::vector<double>{2.0, 6.0});
  EXPECT_DOUBLE_EQ(t.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(t.probability(1), 0.75);
}

TEST(AliasTable, SingleCategoryAlwaysSampled) {
  AliasTable t(std::vector<double>{3.0});
  Xoshiro256pp rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightCategoryNeverSampled) {
  AliasTable t(std::vector<double>{1.0, 0.0, 1.0});
  Xoshiro256pp rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(t.sample(rng), 1u);
}

TEST(AliasTable, EmpiricalDistributionMatchesWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 10.0};
  AliasTable t(weights);
  Xoshiro256pp rng(77);
  constexpr int kDraws = 200000;
  std::vector<std::int64_t> hits(weights.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++hits[t.sample(rng)];
  std::vector<double> expected(weights.size());
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    expected[c] = weights[c] / sum * kDraws;
  }
  const double stat = chi_square_statistic(hits, expected);
  EXPECT_GT(chi_square_sf(stat, static_cast<int>(weights.size()) - 1), 1e-6);
}

// ------------------------------------------------------------- binomial ----

TEST(Binomial, DegenerateCases) {
  Xoshiro256pp rng(3);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100);
  EXPECT_THROW(binomial(rng, -1, 0.5), CheckFailure);
}

TEST(Binomial, ClampsProbability) {
  Xoshiro256pp rng(3);
  EXPECT_EQ(binomial(rng, 10, -0.2), 0);
  EXPECT_EQ(binomial(rng, 10, 1.7), 10);
}

TEST(Binomial, MomentsMatchTheory) {
  Xoshiro256pp rng(17);
  constexpr std::int64_t kTrials = 400;
  constexpr double kP = 0.3;
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(binomial(rng, kTrials, kP)));
  }
  const double mean = kTrials * kP;
  const double var = kTrials * kP * (1 - kP);
  EXPECT_NEAR(stats.mean(), mean, 4.0 * std::sqrt(var / 20000.0) + 0.5);
  EXPECT_NEAR(stats.variance(), var, 0.1 * var);
}

// ----------------------------------------------------------- multinomial ----

TEST(Multinomial, ConservesTrials) {
  Xoshiro256pp rng(5);
  const std::vector<double> w = {0.1, 0.5, 0.2, 0.2};
  for (std::int64_t trials : {0ll, 1ll, 17ll, 1000ll, 123456ll}) {
    const auto out = multinomial(rng, trials, w);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::int64_t{0}), trials);
  }
}

TEST(Multinomial, ZeroWeightBucketsGetNothing) {
  Xoshiro256pp rng(6);
  const auto out = multinomial(rng, 10000, std::vector<double>{1.0, 0.0, 1.0, 0.0});
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[3], 0);
  EXPECT_EQ(out[0] + out[2], 10000);
}

TEST(Multinomial, RejectsInvalidInput) {
  Xoshiro256pp rng(7);
  EXPECT_THROW(multinomial(rng, 5, std::vector<double>{1.0, -1.0}), CheckFailure);
  EXPECT_THROW(multinomial(rng, 5, std::vector<double>{0.0, 0.0}), CheckFailure);
  // zero trials with zero mass is fine
  const auto out = multinomial(rng, 0, std::vector<double>{0.0, 0.0});
  EXPECT_EQ(out[0] + out[1], 0);
}

TEST(Multinomial, IntegerWeightOverloadAgreesOnMarginals) {
  Xoshiro256pp rng(8);
  const std::vector<std::int64_t> w = {1, 2, 7};
  RunningStats bucket0;
  constexpr int kReps = 5000;
  constexpr std::int64_t kTrials = 100;
  for (int i = 0; i < kReps; ++i) {
    const auto out = multinomial(rng, kTrials, w);
    bucket0.add(static_cast<double>(out[0]));
  }
  EXPECT_NEAR(bucket0.mean(), kTrials * 0.1, 0.15);
}

TEST(Multinomial, MarginalsAreBinomial) {
  Xoshiro256pp rng(9);
  const std::vector<double> w = {0.25, 0.75};
  constexpr std::int64_t kTrials = 200;
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(multinomial(rng, kTrials, w)[0]));
  }
  EXPECT_NEAR(stats.mean(), 50.0, 0.5);
  EXPECT_NEAR(stats.variance(), 200 * 0.25 * 0.75, 0.1 * 37.5);
}

// --------------------------- binomial stability at paper-scale parameters --

// The collapsed engine feeds the null-split binomial n up to the 2^53 count
// cap with p that can be extreme on both ends (active weight is a vanishing
// or an overwhelming fraction of n(n−1)). These check the library's
// inversion/BTRS sampler in exactly those regimes: no overflow, no silent
// saturation, and the right first two moments.

TEST(BinomialStability, RejectsNaNProbability) {
  Xoshiro256pp rng(1);
  EXPECT_THROW(binomial(rng, 10, std::nan("")), CheckFailure);
}

TEST(BinomialStability, TinyPAtHugeNMatchesThePoissonLimit) {
  // Binomial(1e11, 1e-9) ≈ Poisson(100): mean 100, variance ~100. A naive
  // sampler walking the CDF from 0 in linear space would underflow the pmf
  // (log P(0) ≈ −100) or loop ~1e11 times; the real one must stay exact.
  Xoshiro256pp rng(2024);
  constexpr std::int64_t kN = 100'000'000'000;  // 1e11
  constexpr double kP = 1e-9;
  constexpr int kSamples = 2000;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t x = binomial(rng, kN, kP);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, kN);
    stats.add(static_cast<double>(x));
  }
  const double mean = static_cast<double>(kN) * kP;  // 100
  EXPECT_NEAR(stats.mean(), mean, 6.0 * std::sqrt(mean / kSamples));
  EXPECT_NEAR(stats.variance(), mean, 0.2 * mean);
}

TEST(BinomialStability, ReflectionAtPNearOne) {
  // p > 0.5 exercises the sampler's reflection: the complement count
  // Binomial(n, 1−p) must come out right, not the raw walk.
  Xoshiro256pp rng(2025);
  constexpr std::int64_t kN = 100'000'000'000;
  constexpr double kP = 1.0 - 1e-9;
  constexpr int kSamples = 2000;
  RunningStats complement;
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t x = binomial(rng, kN, kP);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, kN);
    complement.add(static_cast<double>(kN - x));
  }
  const double mean = static_cast<double>(kN) * 1e-9;  // 100
  EXPECT_NEAR(complement.mean(), mean, 6.0 * std::sqrt(mean / kSamples));
}

TEST(BinomialStability, HalfPAtTheCountCapKeepsExactMoments) {
  // n = 2^53 is the engines' kMaxPopulation guard: every count is still
  // exactly representable in a double. sd = sqrt(n)/2 ≈ 4.7e7.
  Xoshiro256pp rng(2026);
  constexpr std::int64_t kN = std::int64_t{1} << 53;
  constexpr int kSamples = 400;
  const double mean = static_cast<double>(kN) / 2.0;
  const double sd = std::sqrt(static_cast<double>(kN)) / 2.0;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t x = binomial(rng, kN, 0.5);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, kN);
    // Any individual draw beyond 8σ of the mean indicates a broken sampler,
    // not bad luck (P < 1e-15 per draw).
    ASSERT_NEAR(static_cast<double>(x), mean, 8.0 * sd);
    stats.add(static_cast<double>(x));
  }
  EXPECT_NEAR(stats.mean(), mean, 6.0 * sd / std::sqrt(kSamples));
}

TEST(BinomialStability, ExtremeTailsStayInBounds) {
  // 6σ two-sided bound at several (n, p) corners of the engines' operating
  // envelope; each corner gets enough draws to catch systematic bias.
  struct Corner {
    std::int64_t n;
    double p;
  };
  const std::vector<Corner> corners = {
      {std::int64_t{1} << 53, 1e-12}, {std::int64_t{1} << 53, 1.0 - 1e-12},
      {1'000'000'000'000, 0.3},       {1'000'000'000'000, 0.7},
  };
  Xoshiro256pp rng(2027);
  for (const Corner& c : corners) {
    RunningStats stats;
    constexpr int kSamples = 200;
    const double mean = static_cast<double>(c.n) * c.p;
    const double sd = std::sqrt(mean * (1.0 - c.p));
    for (int i = 0; i < kSamples; ++i) {
      const std::int64_t x = binomial(rng, c.n, c.p);
      ASSERT_GE(x, 0) << "n=" << c.n << " p=" << c.p;
      ASSERT_LE(x, c.n) << "n=" << c.n << " p=" << c.p;
      stats.add(static_cast<double>(x));
    }
    EXPECT_NEAR(stats.mean(), mean, 6.0 * sd / std::sqrt(kSamples) + 1e-9)
        << "n=" << c.n << " p=" << c.p;
  }
}

// ------------------------------------------- binomial pmf goodness of fit --

// Chi-square p-value of `hits[x]` draws of outcome lo + x against `pmf[x]`.
// Outcomes are pooled from each tail inward until every bin expects at
// least 5 hits, so the statistic's chi-square approximation holds.
double pmf_fit_pvalue(const std::vector<std::int64_t>& hits,
                      const std::vector<double>& pmf, int draws) {
  std::vector<std::int64_t> observed;
  std::vector<double> expected;
  std::int64_t bin_hits = 0;
  double bin_expect = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    bin_hits += hits[k];
    bin_expect += pmf[k] * draws;
    if (bin_expect >= 5.0) {
      observed.push_back(bin_hits);
      expected.push_back(bin_expect);
      bin_hits = 0;
      bin_expect = 0.0;
    }
  }
  // The upper tail left over joins the last full bin.
  observed.back() += bin_hits;
  expected.back() += bin_expect;
  const double stat = chi_square_statistic(observed, expected);
  return chi_square_sf(stat, static_cast<int>(observed.size()) - 1);
}

// Chi-square p-value of `draws` Binomial(n, p) samples against the exact pmf.
double binomial_fit_pvalue(Xoshiro256pp& rng, std::int64_t n, double p,
                           int draws) {
  const auto size = static_cast<std::size_t>(n) + 1;
  std::vector<double> pmf(size);
  for (std::size_t k = 0; k < size; ++k) {
    const double kd = static_cast<double>(k);
    const double nd = static_cast<double>(n);
    pmf[k] = std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                      std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                      (nd - kd) * std::log1p(-p));
  }
  std::vector<std::int64_t> hits(size, 0);
  for (int i = 0; i < draws; ++i) {
    const std::int64_t x = binomial(rng, n, p);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, n);
    ++hits[static_cast<std::size_t>(x)];
  }
  return pmf_fit_pvalue(hits, pmf, draws);
}

TEST(BinomialSampler, PmfFitsOnBothSidesOfTheInversionSwitch) {
  // n·p = 9.9 runs inversion, n·p = 10.1 runs BTRS.
  Xoshiro256pp rng(31);
  EXPECT_GT(binomial_fit_pvalue(rng, 99, 0.1, 100000), 1e-4);
  EXPECT_GT(binomial_fit_pvalue(rng, 101, 0.1, 100000), 1e-4);
  // Far inside each regime as well.
  EXPECT_GT(binomial_fit_pvalue(rng, 20, 0.05, 100000), 1e-4);
  EXPECT_GT(binomial_fit_pvalue(rng, 2000, 0.3, 100000), 1e-4);
}

TEST(BinomialSampler, PmfFitsUnderReflection) {
  // p > 0.5 is drawn as n − Binomial(n, 1 − p): p = 0.95 reflects onto the
  // inversion side (n·0.05 = 5), p = 0.7 onto the BTRS side (n·0.3 = 30).
  Xoshiro256pp rng(32);
  EXPECT_GT(binomial_fit_pvalue(rng, 100, 0.95, 100000), 1e-4);
  EXPECT_GT(binomial_fit_pvalue(rng, 100, 0.7, 100000), 1e-4);
}

TEST(BinomialSampler, DrawSequenceIsPinned) {
  // Draw-for-draw golden at a fixed seed in the five regimes the engines
  // reach: small n·p (inversion), moderate BTRS, the 2^53 count cap, the
  // Poisson limit and its reflection. The sampler owns every arithmetic step
  // from the raw 64-bit outputs onward, so these values do not depend on the
  // standard library, the compiler or the build type.
  struct Regime {
    std::int64_t n;
    double p;
  };
  const std::vector<Regime> regimes = {
      {50, 0.1},
      {1000, 0.3},
      {std::int64_t{1} << 53, 0.5},
      {100'000'000'000, 1e-9},
      {100'000'000'000, 1.0 - 1e-9},
  };
  Xoshiro256pp rng(20261016);
  std::vector<std::int64_t> draws;
  for (const Regime& r : regimes) {
    for (int i = 0; i < 4; ++i) draws.push_back(binomial(rng, r.n, r.p));
  }
  const std::vector<std::int64_t> golden = {
      5,                2,                3,                6,
      297,              306,              312,              290,
      4503599637226979, 4503599614268224, 4503599581223405, 4503599619636433,
      93,               96,               106,              82,
      99999999884,      99999999895,      99999999909,      99999999902,
  };
  EXPECT_EQ(draws, golden);
  // The stream position after the last draw pins how many uniforms BTRS
  // rejected along the way.
  EXPECT_EQ(rng(), 16675346312551007463ull);
}

TEST(MultinomialInto, MatchesTheAllocatingOverloadDrawForDraw) {
  // The kernels' hot path uses the buffer-reusing overload; it must consume
  // the RNG identically to the original (the wrapper contract).
  const std::vector<double> weights = {3.0, 1.0, 0.5, 7.5, 0.0, 2.0};
  Xoshiro256pp a(99);
  Xoshiro256pp b(99);
  std::vector<std::int64_t> buffer(1, 123);  // wrong size: must be resized
  for (int round = 0; round < 50; ++round) {
    multinomial_into(a, 1000 + round, weights, buffer);
    EXPECT_EQ(buffer, multinomial(b, 1000 + round, weights));
  }
  EXPECT_EQ(a(), b());  // identical stream positions afterwards
}

// -------------------------------------------------------- hypergeometric --

double log_choose(double n, double k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

// Chi-square p-value of `draws` Hypergeometric(N, K, m) samples against the
// exact pmf (from lgamma, in the test only) over the support, or over
// mean ± 12σ of it when that is narrower; a draw outside the window fails.
double hypergeometric_fit_pvalue(Xoshiro256pp& rng, std::int64_t N,
                                 std::int64_t K, std::int64_t m, int draws) {
  const double nd = static_cast<double>(N);
  const double kd = static_cast<double>(K);
  const double md = static_cast<double>(m);
  const double mean = kd * md / nd;
  const double sd = std::sqrt(mean * (1.0 - kd / nd) * (nd - md) / std::max(1.0, nd - 1.0));
  const std::int64_t lo = std::max<std::int64_t>(
      std::max<std::int64_t>(0, m - (N - K)), static_cast<std::int64_t>(mean - 12.0 * sd));
  const std::int64_t hi = std::min<std::int64_t>(
      std::min(K, m), static_cast<std::int64_t>(mean + 12.0 * sd) + 1);
  std::vector<double> pmf;
  for (std::int64_t x = lo; x <= hi; ++x) {
    const double xd = static_cast<double>(x);
    pmf.push_back(std::exp(log_choose(kd, xd) + log_choose(nd - kd, md - xd) -
                           log_choose(nd, md)));
  }
  std::vector<std::int64_t> hits(pmf.size(), 0);
  for (int i = 0; i < draws; ++i) {
    const std::int64_t x = hypergeometric(rng, N, K, m);
    if (x < lo || x > hi) {
      ADD_FAILURE() << "HG(" << N << ", " << K << ", " << m << ") drew " << x
                    << " outside [" << lo << ", " << hi << "]";
      return 0.0;
    }
    ++hits[static_cast<std::size_t>(x - lo)];
  }
  return pmf_fit_pvalue(hits, pmf, draws);
}

TEST(Hypergeometric, DegenerateCasesDrawNothing) {
  // good or sample 0 or the whole population: the answer is fixed, and no
  // uniform is consumed.
  struct Case {
    std::int64_t n, good, sample, expect;
  };
  const std::vector<Case> cases = {
      {10, 0, 4, 0},   {10, 10, 4, 4},  {10, 3, 0, 0},  {10, 3, 10, 3},
      {0, 0, 0, 0},    {1, 1, 1, 1},    {1, 0, 1, 0},   {1'000'000'000, 0, 999, 0},
      {1'000'000'000, 1'000'000'000, 999, 999}, {1'000'000'000, 77, 1'000'000'000, 77},
  };
  Xoshiro256pp rng(3);
  Xoshiro256pp twin(3);
  for (const Case& c : cases) {
    EXPECT_EQ(hypergeometric(rng, c.n, c.good, c.sample), c.expect)
        << c.n << " " << c.good << " " << c.sample;
  }
  EXPECT_EQ(rng(), twin());
}

TEST(Hypergeometric, RejectsInvalidArguments) {
  Xoshiro256pp rng(4);
  EXPECT_THROW(hypergeometric(rng, 10, 11, 3), CheckFailure);
  EXPECT_THROW(hypergeometric(rng, 10, 3, 11), CheckFailure);
  EXPECT_THROW(hypergeometric(rng, 10, -1, 3), CheckFailure);
  EXPECT_THROW(hypergeometric(rng, 10, 3, -1), CheckFailure);
  EXPECT_THROW(hypergeometric(rng, -1, 0, 0), CheckFailure);
}

TEST(Hypergeometric, MomentsMatchTheory) {
  // Both paths (a = min(good, sample) below and above 16) and each
  // reduction: good > N/2, sample > N/2, good > sample.
  struct Case {
    std::int64_t n, good, sample;
  };
  const std::vector<Case> cases = {
      {1000, 7, 300},        {1000, 300, 7},          {1000, 993, 300},
      {1000, 300, 400},      {1000, 700, 900},        {1'000'000, 37'000, 627},
      {1'000'000'000, 500'000'000, 19'800},
  };
  Xoshiro256pp rng(17);
  constexpr int kDraws = 20000;
  for (const Case& c : cases) {
    RunningStats stats;
    for (int i = 0; i < kDraws; ++i) {
      stats.add(static_cast<double>(hypergeometric(rng, c.n, c.good, c.sample)));
    }
    const double n = static_cast<double>(c.n);
    const double p = static_cast<double>(c.good) / n;
    const double m = static_cast<double>(c.sample);
    const double mean = m * p;
    const double var = m * p * (1.0 - p) * (n - m) / (n - 1.0);
    EXPECT_NEAR(stats.mean(), mean, 5.0 * std::sqrt(var / kDraws))
        << c.n << " " << c.good << " " << c.sample;
    EXPECT_NEAR(stats.variance(), var, 0.06 * var) << c.n << " " << c.good << " " << c.sample;
  }
}

TEST(Hypergeometric, PmfFitsAtSmallPopulation) {
  // N = 60 over the direct walk (a < 16), HRUA, and every reduction.
  Xoshiro256pp rng(41);
  for (const auto& [good, sample] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {5, 20}, {20, 5}, {15, 30}, {16, 30}, {20, 25}, {30, 30}, {45, 20},
           {20, 45}, {50, 50}, {59, 1}}) {
    EXPECT_GT(hypergeometric_fit_pvalue(rng, 60, good, sample, 100000), 1e-4)
        << "good " << good << " sample " << sample;
  }
}

TEST(Hypergeometric, PmfFitsAtLargePopulation) {
  // The engine's regimes: a run's agents drawn from n = 10⁶…10⁹ (the mean
  // from ~0.1 to ~10⁴), and the exact boundary of the 64-bit mode product.
  Xoshiro256pp rng(42);
  struct Case {
    std::int64_t n, good, sample;
  };
  for (const Case& c : std::vector<Case>{{1'000'000, 37'000, 627},
                                         {1'000'000, 100, 627},
                                         {1'000'000, 500'000, 627},
                                         {10'000'000, 370'000, 1'980},
                                         {1'000'000'000, 37'000'000, 19'800},
                                         {1'000'000'000, 500'000'000, 19'800},
                                         {1'000'000'000, 20, 400'000'000}}) {
    EXPECT_GT(hypergeometric_fit_pvalue(rng, c.n, c.good, c.sample, 100000), 1e-4)
        << c.n << " " << c.good << " " << c.sample;
  }
}

TEST(Hypergeometric, RatioOfUniformsHatCoversThePmf) {
  // HRUA is exact only if its rectangle holds the whole acceptance region:
  // |x − centre|·√(f(⌊x⌋)/f(mode)) ≤ h/2 for every real x. Checked
  // exhaustively over the support for every reduced (N, a, b), a ≥ 16,
  // on a grid up to N = 400, with the sampler's constants.
  constexpr double kD1 = 1.7155277699214135;
  constexpr double kD2 = 0.8989161620588988;
  int checked = 0;
  for (std::int64_t n = 32; n <= 400; n += 23) {
    for (std::int64_t a = 16; 2 * a <= n; a += 7) {
      for (std::int64_t b = a; 2 * b <= n; b += 5) {
        const double nd = static_cast<double>(n);
        const double ad = static_cast<double>(a);
        const double bd = static_cast<double>(b);
        const double var = ad * bd * (nd - ad) * (nd - bd) / (nd * nd * (nd - 1.0));
        const double centre = ad * bd / nd + 0.5;
        const double half = (kD1 * std::sqrt(var + 0.5) + kD2) / 2.0;
        const std::int64_t mode = (a + 1) * (b + 1) / (n + 2);
        const auto log_f = [&](std::int64_t x) {
          const double xd = static_cast<double>(x);
          return log_choose(ad, xd) + log_choose(nd - ad, bd - xd);
        };
        for (std::int64_t x = 0; x <= a; ++x) {
          const double reach = std::max(std::abs(static_cast<double>(x) - centre),
                                        std::abs(static_cast<double>(x + 1) - centre));
          ASSERT_LE(reach * std::exp(0.5 * (log_f(x) - log_f(mode))), half * (1.0 + 1e-12))
              << "N " << n << " a " << a << " b " << b << " x " << x;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 200);
}

TEST(Hypergeometric, DrawSequenceIsPinned) {
  // Draw-for-draw golden at a fixed seed across the paths: the direct walk,
  // HRUA at small and large N, and the reductions. No libm call is on
  // this path, so the values hold on any IEEE-754 host.
  struct Regime {
    std::int64_t n, good, sample;
  };
  const std::vector<Regime> regimes = {
      {1000, 7, 300},
      {1'000'000, 37'000, 627},
      {1'000'000, 990'000, 627},
      {1'000'000'000, 500'000'000, 19'800},
      {1'000'000'000, 2'000, 999'000'000},
  };
  Xoshiro256pp rng(20261020);
  std::vector<std::int64_t> draws;
  for (const Regime& r : regimes) {
    for (int i = 0; i < 4; ++i) draws.push_back(hypergeometric(rng, r.n, r.good, r.sample));
  }
  const std::vector<std::int64_t> golden = {
      2,    5,    2,    1,    29,   22,   17,   21,   622,  622,
      622,  621,  9775, 9837, 9931, 9923, 2000, 1999, 1998, 1999,
  };
  EXPECT_EQ(draws, golden);
  // The stream position after the last draw pins how many candidates HRUA
  // rejected along the way.
  EXPECT_EQ(rng(), 15922820159067007262ull);
}

// --------------------------------------------------- uniform subset max --

TEST(UniformSubsetMax, BoundaryCases) {
  Xoshiro256pp rng(5);
  EXPECT_EQ(uniform_subset_max(rng, 1, 1), 1);
  EXPECT_EQ(uniform_subset_max(rng, 40, 40), 40);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = uniform_subset_max(rng, 40, 3);
    ASSERT_GE(x, 3);
    ASSERT_LE(x, 40);
  }
  EXPECT_THROW(uniform_subset_max(rng, 5, 0), CheckFailure);
  EXPECT_THROW(uniform_subset_max(rng, 5, 6), CheckFailure);
}

TEST(UniformSubsetMax, PmfFitsTheOrderStatistic) {
  // P(X = j) = C(j − 1, m − 1) / C(ℓ, m), j = m … ℓ: the stopping position
  // a batch that ends stable samples for its last non-null interaction.
  Xoshiro256pp rng(43);
  for (const auto& [length, size] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {50, 1}, {50, 3}, {627, 2}, {627, 40}, {2000, 1990}}) {
    std::vector<double> pmf;
    for (std::int64_t j = size; j <= length; ++j) {
      pmf.push_back(std::exp(log_choose(static_cast<double>(j - 1), static_cast<double>(size - 1)) -
                             log_choose(static_cast<double>(length), static_cast<double>(size))));
    }
    constexpr int kDraws = 100000;
    std::vector<std::int64_t> hits(pmf.size(), 0);
    for (int i = 0; i < kDraws; ++i) {
      const std::int64_t x = uniform_subset_max(rng, length, size);
      ASSERT_GE(x, size);
      ASSERT_LE(x, length);
      ++hits[static_cast<std::size_t>(x - size)];
    }
    EXPECT_GT(pmf_fit_pvalue(hits, pmf, kDraws), 1e-4) << length << " " << size;
  }
}

}  // namespace
}  // namespace ppsim
