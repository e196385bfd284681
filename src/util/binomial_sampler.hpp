// The exact binomial sampler, in the form both of its consumers need:
// util/random_variates.cpp's scalar binomial() and the AVX2 round kernel's
// lanes (src/kernels/avx2_kernel.cpp), which feed several draws from one
// shared SIMD uniform supply and so need the per-(u, v) attempt rather than
// a sampler that owns its RNG. Private to the library: not installed under
// src/include.
//
// Algorithm, after clamping p to [0, 1] and reflecting p > 0.5 to 1 − p:
//   * n·p < 10: inversion — one uniform, CDF walk from 0;
//   * n·p ≥ 10: BTRS transformed rejection (Hörmann 1993, the
//     TensorFlow/JAX formulation), drawing (u, v) pairs until one is
//     accepted. The acceptance bound uses the Stirling-series tail instead of
//     lgamma, so no per-draw setup touches the gamma function.
// Both are exact; every uniform is the top 52 bits of one 64-bit draw.
//
// util/random_variates.cpp is compiled with -ffp-contract=off
// (CMakeLists.txt): the scalar draws are byte-pinned, and an FMA contraction
// under -march=native would otherwise make Release and Debug builds accept
// or reject different candidates. The AVX2 kernel compiles this header with
// -mavx2 and default contraction, so everything below has internal linkage:
// each includer keeps its own copy, and the linker can never hand the scalar
// path an AVX2-compiled or contracted out-of-line definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace ppsim::detail {
namespace {

/// Mean n·p (after reflection) at and above which BTRS replaces inversion.
inline constexpr double kBtrsMinMean = 10.0;

/// Uniform in [0, 1) from the top 52 bits of a raw 64-bit generator output:
/// (bits >> 12)·2⁻⁵², the value the AVX2 lanes build by splicing those bits
/// into the mantissa of 1.0 and subtracting 1.
inline double uniform52(std::uint64_t bits) {
  return static_cast<double>(bits >> 12) * 0x1.0p-52;
}

/// Stirling series tail t(k) = lgamma(k+1) − (k+½)·log(k) + k − ½·log(2π):
/// tabulated for k < 10, three-term asymptotic series beyond. The BTRS
/// acceptance bound is built from these tails instead of lgamma calls.
inline double stirling_tail(double k) {
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

/// BTRS per-(n, p) setup, shared by every attempt of one draw. Requires
/// 0 < p ≤ 0.5 and n·p ≥ kBtrsMinMean.
struct BtrsSetup {
  double r = 0.0, b = 0.0, a = 0.0, c = 0.0, vr = 0.0, alpha = 0.0, m = 0.0;
  double n = 0.0;

  void init(std::int64_t trials, double p) {
    n = static_cast<double>(trials);
    const double q = 1.0 - p;
    r = p / q;
    const double spq = std::sqrt(n * p * q);
    b = 1.15 + 2.53 * spq;
    a = -0.0873 + 0.0248 * b + 0.01 * p;
    c = n * p + 0.5;
    vr = 0.92 - 4.2 / b;
    alpha = (2.83 + 5.1 / b) * spq;
    m = std::floor((n + 1.0) * p);
  }

  /// One transformed-rejection attempt from the uniform pair (u, v).
  bool attempt(double u, double v, std::int64_t& out) const {
    u -= 0.5;
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > n) return false;
    if (us >= 0.07 && v <= vr) {
      out = static_cast<std::int64_t>(kd);
      return true;
    }
    const double lv = std::log(v * alpha / (a / (us * us) + b));
    const double bound =
        (m + 0.5) * std::log((m + 1.0) / (r * (n - m + 1.0))) +
        (n + 1.0) * std::log((n - m + 1.0) / (n - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (n - kd + 1.0) / (kd + 1.0)) +
        stirling_tail(m) + stirling_tail(n - m) - stirling_tail(kd) -
        stirling_tail(n - kd);
    if (lv > bound) return false;
    out = static_cast<std::int64_t>(kd);
    return true;
  }
};

/// Inversion sampler: walks the CDF with a single uniform. Requires
/// 0 < p ≤ 0.5 and n·p < kBtrsMinMean (so the start probability q^n cannot
/// underflow: n·|log1p(−p)| ≤ 2·n·p < 20).
inline std::int64_t binomial_inversion(std::int64_t n, double p, double u) {
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

/// One Binomial(trials, prob) draw after the clamp and the reflection: which
/// sampler runs, on which parameters, and how to map its draw back.
struct BinomialPlan {
  std::int64_t n = 0;
  double p = 0.0;      ///< min(prob, 1 − prob)
  bool flip = false;   ///< value = n − draw(n, p)
  bool use_btrs = false;
  BtrsSetup btrs;

  /// Returns false when the draw is trivial — trials ≤ 0, or prob clamps to
  /// 0 or 1 — with the answer in `fixed`; such a draw consumes no
  /// randomness. Otherwise the caller samples with inversion or btrs and
  /// maps the draw through value().
  bool init(std::int64_t trials, double prob, std::int64_t& fixed) {
    prob = std::clamp(prob, 0.0, 1.0);
    n = trials;
    flip = false;
    if (trials <= 0 || prob == 0.0) {
      fixed = 0;
      return false;
    }
    if (prob == 1.0) {
      fixed = trials;
      return false;
    }
    flip = prob > 0.5;
    p = flip ? 1.0 - prob : prob;
    use_btrs = static_cast<double>(n) * p >= kBtrsMinMean;
    if (use_btrs) btrs.init(n, p);
    return true;
  }

  std::int64_t value(std::int64_t draw) const { return flip ? n - draw : draw; }
};

}  // namespace
}  // namespace ppsim::detail
