// The exact binomial sampler, after clamping p to [0, 1] and reflecting
// p > 0.5 to 1 − p:
//   * n·p < 10: inversion — one uniform, CDF walk from 0;
//   * n·p ≥ 10: BTRS transformed rejection (Hörmann 1993, the
//     TensorFlow/JAX formulation), drawing (u, v) pairs until one is
//     accepted. The acceptance bound uses the Stirling-series tail instead of
//     lgamma, so no per-draw setup touches the gamma function.
// Both are exact; every uniform is the top 52 bits of one 64-bit draw.
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

}  // namespace ppsim
