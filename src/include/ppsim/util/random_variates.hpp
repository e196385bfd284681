// Exact samplers for the discrete distributions the engines and the
// workload generators need: binomial, multinomial and hypergeometric.
//
// Exactness matters: a round must be distributed *exactly* as the model
// prescribes, so approximations (normal/Poisson) are not used here.
// binomial() is the library's own inversion/BTRS sampler, so its draw
// sequence is a function of the RNG state alone, not of the C++ standard
// library that built the binary. The multinomial is a chain of conditional
// binomials. The hypergeometric calls no transcendental function at all.
#pragma once

#include <cstdint>
#include <vector>

#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Exact Binomial(trials, p) sample. p is clamped to [0, 1]; NaN p throws
/// (a NaN would silently pass the clamp and yield a meaningless draw).
/// Trivial draws (trials = 0, or p clamped to 0 or 1) consume no randomness.
///
/// p > 0.5 is reflected (the draw is trials − Binomial(trials, 1 − p)).
/// With the reflected p, n·p < 10 runs inversion on one 52-bit uniform
/// (rng() >> 12)·2⁻⁵²; otherwise BTRS transformed rejection (Hörmann 1993)
/// draws (u, v) pairs of such uniforms until one is accepted. Stable up to
/// n = 2^53, the engines' count cap: the inversion start q^n stays above
/// e^-20, and BTRS works in log space with Stirling-series tails.
/// tests/random_variates_test.cpp pins moments, tails and the pmf in those
/// regimes, and the draw sequence itself at a fixed seed.
std::int64_t binomial(Xoshiro256pp& rng, std::int64_t trials, double p);

/// Exact multinomial: partitions `trials` into weights.size() buckets where
/// bucket i receives each trial independently with probability
/// weights[i] / sum(weights). Implemented as sequential conditional
/// binomials, so the result is an exact multinomial sample.
/// Throws CheckFailure on negative weights or zero total with trials > 0.
std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<double>& weights);

/// multinomial() into a caller-owned buffer (resized to weights.size()),
/// so per-round callers — the round kernel — don't allocate on the
/// hot path. Identical draw sequence to multinomial(): the vector-returning
/// overload is a wrapper around this.
void multinomial_into(Xoshiro256pp& rng, std::int64_t trials,
                      const std::vector<double>& weights,
                      std::vector<std::int64_t>& out);

/// Convenience overload with integer weights (counts).
std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<std::int64_t>& weights);

/// Exact Hypergeometric(population, good, sample): the number of the `good`
/// marked items in a uniform `sample`-subset of `population` items. Throws
/// CheckFailure unless 0 ≤ good, sample ≤ population. Trivial draws (good
/// or sample 0 or the whole population) consume no randomness.
///
/// The symmetries X ↔ sample − X (good ↔ bad), X ↔ good − X (sample ↔ its
/// complement) and good ↔ sample reduce it to a ≤ b ≤ population/2 with
/// a = min(good, sample). Below a = 16 it walks the a items, each one
/// bounded draw; otherwise it runs Stadlober's ratio-of-uniforms (HRUA,
/// Stadlober 1989) with the exact mode, testing U² ≤ f(x)/f(mode) as a
/// product of the pmf's term ratios between x and the mode, stopping as
/// soon as a partial product falls below U². That costs O(|x − mode|)
/// multiplies and no exp, log or lgamma, so the draw sequence needs no
/// libm at all; the products stay in double range for populations up to
/// 2^53. tests/random_variates_test.cpp checks the hat against the pmf on
/// a grid, the pmf by χ² at N = 60 and N = 10⁶…10⁹, and pins the draws.
std::int64_t hypergeometric(Xoshiro256pp& rng, std::int64_t population,
                            std::int64_t good, std::int64_t sample);

/// The largest element of a uniform `size`-subset of {1, …, length}:
/// P(X ≤ j) = C(j, size) / C(length, size) for size ≤ j ≤ length. Drawn by
/// inversion from j = length downward, one uniform, O((length − X) + 1)
/// multiplies. Requires 1 ≤ size ≤ length.
std::int64_t uniform_subset_max(Xoshiro256pp& rng, std::int64_t length,
                                std::int64_t size);

}  // namespace ppsim
