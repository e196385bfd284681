// Pseudo-random number generation for the simulation engines.
//
// We implement xoshiro256++ (Blackman & Vigna) seeded through SplitMix64.
// Rationale instead of std::mt19937_64:
//   * ~2x faster per draw, which matters at 10^8+ interactions per run;
//   * jump() gives 2^128 non-overlapping subsequences for parallel
//     Monte-Carlo trials with a single user-facing seed;
//   * fully deterministic and portable across platforms, so every
//     experiment in docs/REPRODUCING.md is reproducible from (seed, trial).
//
// Bounded integers use Lemire's unbiased multiply-shift rejection method.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace ppsim {

/// SplitMix64: tiny PRNG used only to expand a 64-bit seed into the 256-bit
/// xoshiro state (as recommended by the xoshiro authors).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator. The
/// library's own variates (util/random_variates) consume it directly, so a
/// seed's draw sequence does not depend on the C++ standard library.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64(seed).
  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advances the state by 2^128 draws. Calling jump() t times on a copy
  /// yields a stream guaranteed not to overlap the first 2^128 draws of the
  /// original — the basis for deterministic parallel trials.
  void jump() noexcept;

  /// Advances the state by 2^192 draws (the xoshiro256 "long jump"): 2^64
  /// jump()-sized blocks in one O(1) call. Used by stream() so per-trial
  /// stream derivation does not degrade to O(index) chained jumps.
  void long_jump() noexcept;

  /// An independent stream for trial `index`, derived in O(1) regardless of
  /// the index: the index is folded into the 256-bit state through SplitMix64
  /// (distinct indices give distinct states by construction) and the result
  /// advanced by one long_jump(). This is the per-trial seeding primitive of
  /// the sweep harness: stream indices are cell * trials + trial, so every
  /// (cell, trial) pair maps to the same generator at any thread count.
  Xoshiro256pp stream(std::uint64_t index) const noexcept;

  /// Unbiased uniform integer in [0, bound) via Lemire's method.
  /// Precondition: bound > 0 (unchecked on the hot path; callers in this
  /// library always pass population sizes >= 1).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double canonical() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) noexcept { return canonical() < p; }

  /// The raw 256-bit generator state, for engine checkpoints (the trajectory
  /// archive stores it in its checkpoint records).
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

  /// Restores a state captured by state(). The all-zero state is xoshiro's
  /// one forbidden fixed point; restoring it is a no-op (callers that parse
  /// untrusted checkpoint bytes reject it loudly before getting here).
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    if ((state[0] | state[1] | state[2] | state[3]) == 0) return;
    state_ = state;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int s) noexcept {
    return (x << s) | (x >> (64 - s));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace ppsim
