// The exact binomial sampler, after clamping p to [0, 1] and reflecting
// p > 0.5 to 1 − p:
//   * n·p < 10: inversion — one uniform, CDF walk from 0;
//   * n·p ≥ 10: BTRS transformed rejection (Hörmann 1993, the
//     TensorFlow/JAX formulation), drawing (u, v) pairs until one is
//     accepted. The acceptance bound uses the Stirling-series tail instead of
//     lgamma, so no per-draw setup touches the gamma function.
// Both are exact; every uniform is the top 52 bits of one 64-bit draw.
// The hypergeometric sampler (direct walk or HRUA) is documented at its
// declaration.
//
// This file is compiled with -ffp-contract=off (CMakeLists.txt): the draws
// are byte-pinned, and an FMA contraction under -march=native would
// otherwise make Release and Debug builds accept or reject different
// candidates.
#include "ppsim/util/random_variates.hpp"

#include <algorithm>
#include <cmath>

#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

/// Mean n·p (after reflection) at and above which BTRS replaces inversion.
constexpr double kBtrsMinMean = 10.0;

/// Uniform in [0, 1) from the top 52 bits of one generator output.
double uniform52(Xoshiro256pp& rng) {
  return static_cast<double>(rng() >> 12) * 0x1.0p-52;
}

/// Stirling series tail t(k) = lgamma(k+1) − (k+½)·log(k) + k − ½·log(2π):
/// tabulated for k < 10, three-term asymptotic series beyond. The BTRS
/// acceptance bound is built from these tails instead of lgamma calls.
double stirling_tail(double k) {
  static constexpr double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double inv = 1.0 / (k + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0) * inv2) * inv2) * inv;
}

/// Inversion sampler: walks the CDF with a single uniform. Requires
/// 0 < p ≤ 0.5 and n·p < kBtrsMinMean (so the start probability q^n cannot
/// underflow: n·|log1p(−p)| ≤ 2·n·p < 20).
std::int64_t binomial_inversion(Xoshiro256pp& rng, std::int64_t n, double p) {
  const double u = uniform52(rng);
  const double r = p / (1.0 - p);
  const double nd = static_cast<double>(n);
  double pmf = std::exp(nd * std::log1p(-p));
  double cdf = pmf;
  std::int64_t k = 0;
  while (u > cdf && k < n) {
    ++k;
    pmf *= (nd - static_cast<double>(k) + 1.0) * r / static_cast<double>(k);
    cdf += pmf;
  }
  return k;
}

/// BTRS transformed rejection. Requires 0 < p ≤ 0.5 and n·p ≥ kBtrsMinMean.
std::int64_t binomial_btrs(Xoshiro256pp& rng, std::int64_t trials, double p) {
  const double n = static_cast<double>(trials);
  const double q = 1.0 - p;
  const double r = p / q;
  const double spq = std::sqrt(n * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = n * p + 0.5;
  const double vr = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((n + 1.0) * p);
  for (;;) {
    const double u = uniform52(rng) - 0.5;
    const double v = uniform52(rng);
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > n) continue;
    if (us >= 0.07 && v <= vr) return static_cast<std::int64_t>(kd);
    const double lv = std::log(v * alpha / (a / (us * us) + b));
    const double bound =
        (m + 0.5) * std::log((m + 1.0) / (r * (n - m + 1.0))) +
        (n + 1.0) * std::log((n - m + 1.0) / (n - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (n - kd + 1.0) / (kd + 1.0)) +
        stirling_tail(m) + stirling_tail(n - m) - stirling_tail(kd) -
        stirling_tail(n - kd);
    if (lv > bound) continue;
    return static_cast<std::int64_t>(kd);
  }
}

/// At and above this a = min(good, sample) (after the reductions) HRUA
/// replaces the direct walk over the a items. The walk costs a bounded
/// draws; HRUA ~1.5 rounds of two uniforms plus its product walk.
constexpr std::int64_t kHruaMinDraws = 16;

/// Uniform in (0, 1]: HRUA divides by it.
double uniform_open0(Xoshiro256pp& rng) {
  return static_cast<double>((rng() >> 11) + 1) * 0x1.0p-53;
}

/// Hypergeometric with a ≤ b ≤ population/2, where (a, b) is (good, sample)
/// in either order — the law is symmetric in the two.
std::int64_t hypergeometric_reduced(Xoshiro256pp& rng, std::int64_t population,
                                    std::int64_t a, std::int64_t b) {
  if (a == 0) return 0;
  if (a < kHruaMinDraws) {
    // Item j of the a is in the b-subset with probability
    // (b − x) / (population − j), given x of the items before it are.
    std::int64_t x = 0;
    for (std::int64_t j = 0; j < a && x < b; ++j) {
      const auto left = static_cast<std::uint64_t>(population - j);
      x += static_cast<std::int64_t>(rng.bounded(left) <
                                     static_cast<std::uint64_t>(b - x));
    }
    return x;
  }
  // HRUA (Stadlober 1989; the constants are numpy's): the hat is the
  // rectangle [0, 1] × [0, 1] in (u, v) with x = mean + ½ + h·(v − ½)/u,
  // which holds the region u ≤ √(f(⌊x⌋)/f(mode)) for every x.
  constexpr double kD1 = 1.7155277699214135;  // 2·√(2/e)
  constexpr double kD2 = 0.8989161620588988;  // 3 − 2·√(3/e)
  const double nd = static_cast<double>(population);
  const double ad = static_cast<double>(a);
  const double bd = static_cast<double>(b);
  const double rest = nd - ad - bd;
  const double var = ((ad * bd) * ((nd - ad) * (nd - bd))) / ((nd * nd) * (nd - 1.0));
  const double centre = ad * bd / nd + 0.5;
  const double h = kD1 * std::sqrt(var + 0.5) + kD2;
  // The mode ⌊(a + 1)(b + 1)/(population + 2)⌋: the double quotient is
  // off by at most one, and 128-bit products settle it exactly.
  using Wide = unsigned __int128;
  const Wide top = static_cast<Wide>(a + 1) * static_cast<Wide>(b + 1);
  const auto below = static_cast<Wide>(population + 2);
  auto mode = static_cast<std::int64_t>((ad + 1.0) * (bd + 1.0) / (nd + 2.0));
  if (static_cast<Wide>(mode + 1) * below <= top) ++mode;
  if (static_cast<Wide>(mode) * below > top) --mode;
  for (;;) {
    const double u = uniform_open0(rng);
    const double v = uniform52(rng);
    const double x = centre + h * (v - 0.5) / u;
    if (x < 0.0 || x >= ad + 1.0) continue;
    const auto k = static_cast<std::int64_t>(x);
    // Accept iff u² ≤ f(k)/f(mode), the product of the pmf's term ratios
    // between k and the mode: f(j+1)/f(j) = (a − j)(b − j)/((j + 1)(rest +
    // j + 1)) above the mode, their inverses below it. The pmf is
    // log-concave, so every term is ≤ 1 and the walk rejects as soon as a
    // partial product is below u². num/den is renormalised before den can
    // leave double range (terms are < 2^106 for populations up to 2^53).
    const double u2 = u * u;
    const bool up = k > mode;
    const std::int64_t hi = up ? k : mode;
    double num = 1.0;
    double den = 1.0;
    for (std::int64_t j = up ? mode : k; j < hi; ++j) {
      const double jd = static_cast<double>(j);
      const double falling = (ad - jd) * (bd - jd);
      const double rising = (jd + 1.0) * (rest + jd + 1.0);
      num *= up ? falling : rising;
      den *= up ? rising : falling;
      if (u2 * den > num) break;
      if (den > 0x1.0p500) {
        num /= den;
        den = 1.0;
      }
    }
    if (u2 * den <= num) return k;
  }
}

}  // namespace

std::int64_t binomial(Xoshiro256pp& rng, std::int64_t trials, double p) {
  PPSIM_CHECK(trials >= 0, "binomial trials must be non-negative");
  PPSIM_CHECK(!std::isnan(p), "binomial p must not be NaN");
  p = std::clamp(p, 0.0, 1.0);
  if (trials == 0 || p == 0.0) return 0;
  if (p == 1.0) return trials;
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  const std::int64_t draw = static_cast<double>(trials) * q >= kBtrsMinMean
                                ? binomial_btrs(rng, trials, q)
                                : binomial_inversion(rng, trials, q);
  return flip ? trials - draw : draw;
}

void multinomial_into(Xoshiro256pp& rng, std::int64_t trials,
                      const std::vector<double>& weights,
                      std::vector<std::int64_t>& out) {
  PPSIM_CHECK(trials >= 0, "multinomial trials must be non-negative");
  double total = 0.0;
  for (const double w : weights) {
    PPSIM_CHECK(w >= 0.0, "multinomial weights must be non-negative");
    total += w;
  }
  PPSIM_CHECK(trials == 0 || total > 0.0,
              "multinomial needs positive total weight to place trials");

  out.assign(weights.size(), 0);
  std::int64_t remaining = trials;
  double mass = total;
  for (std::size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    // Conditional law of bucket i given what earlier buckets consumed is
    // Binomial(remaining, w_i / remaining-mass); this chain is exact.
    const double p = mass > 0.0 ? weights[i] / mass : 0.0;
    const std::int64_t draw = binomial(rng, remaining, p);
    out[i] = draw;
    remaining -= draw;
    mass -= weights[i];
  }
  if (!weights.empty()) out.back() += remaining;
}

std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<double>& weights) {
  std::vector<std::int64_t> out;
  multinomial_into(rng, trials, weights, out);
  return out;
}

std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<std::int64_t>& weights) {
  std::vector<double> w(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PPSIM_CHECK(weights[i] >= 0, "multinomial weights must be non-negative");
    w[i] = static_cast<double>(weights[i]);
  }
  return multinomial(rng, trials, w);
}

std::int64_t hypergeometric(Xoshiro256pp& rng, std::int64_t population,
                            std::int64_t good, std::int64_t sample) {
  PPSIM_CHECK(good >= 0 && good <= population && sample >= 0 &&
                  sample <= population,
              "hypergeometric needs 0 <= good, sample <= population");
  // X ~ HG(N, K, m): m − X ~ HG(N, N − K, m) and K − X ~ HG(N, K, N − m).
  std::int64_t sign = 1;
  std::int64_t offset = 0;
  if (2 * good > population) {
    good = population - good;
    offset = sample;
    sign = -1;
  }
  if (2 * sample > population) {
    sample = population - sample;
    offset += sign * good;
    sign = -sign;
  }
  const std::int64_t x = hypergeometric_reduced(
      rng, population, std::min(good, sample), std::max(good, sample));
  return offset + sign * x;
}

std::int64_t uniform_subset_max(Xoshiro256pp& rng, std::int64_t length,
                                std::int64_t size) {
  PPSIM_CHECK(size >= 1 && size <= length,
              "uniform_subset_max needs 1 <= size <= length");
  // Inversion from the top: F(j) = C(j, size)/C(length, size), F(length) = 1
  // and F(j − 1) = F(j)·(j − size)/j. X is the least j with F(j) > u.
  const double u = uniform52(rng);
  double cdf = 1.0;
  std::int64_t j = length;
  while (j > size) {
    const double jd = static_cast<double>(j);
    const double below = cdf * (jd - static_cast<double>(size)) / jd;
    if (below <= u) break;
    cdf = below;
    --j;
  }
  return j;
}

}  // namespace ppsim
