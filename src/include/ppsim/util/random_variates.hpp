// Exact samplers for the discrete distributions the synchronous engines and
// workload generators need: binomial and multinomial.
//
// Exactness matters: the Gossip engine's correctness proof (tests/
// gossip_test.cpp) relies on each round being distributed *exactly* as the
// model prescribes, so approximations (normal/Poisson) are not used here.
// binomial() is the library's own inversion/BTRS sampler, so its draw
// sequence is a function of the RNG state alone, not of the C++ standard
// library that built the binary. The multinomial is a chain of conditional
// binomials.
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

}  // namespace ppsim
