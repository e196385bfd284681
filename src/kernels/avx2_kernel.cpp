// AVX2 round kernel: exact binomial/multinomial variates for one round of
// one trial, drawn from a SIMD xoshiro256++.
//
// Shape of the implementation (real code only when PPSIM_KERNELS_AVX2 is
// set by CMake after the -mavx2 feature check; otherwise this file compiles
// to the "compiled out" registry stubs):
//
//   * The generator is a SIMD xoshiro256++ (one __m256i per state word, the
//     exact update rule of util/rng.hpp's scalar generator). advance() loads
//     the task's live 256-bit state into lane 0, mirrors it into the unused
//     lanes (their output is discarded) and stores lane 0 back afterwards,
//     so a trial's randomness still flows through its own checkpointable
//     RNG. One _mm256 step yields a 52-bit uniform per lane via the
//     exponent-splice bit trick.
//   * Binomial draws are exact and use the library's one sampler
//     (src/util/binomial_sampler.hpp, shared with the scalar binomial()):
//     inversion (one uniform, CDF walk) when n·min(p,1−p) < 10, else BTRS
//     transformed rejection, drawing (u, v) uniform blocks until the
//     rejection test accepts.
//   * The multinomial is the same conditional-binomial chain as the scalar
//     kernel, walked bucket by bucket.
//
// Determinism: advance() is a pure function of (task RNG state, law,
// batch), so avx2 sweep JSON is --threads-invariant. The draw *sequence*
// differs from kScalar by design; equivalence is pinned distributionally in
// tests/kernel_distribution_test.cpp (chi-square on the exact pair law,
// binomial moments at extreme parameters, KS against scalar hitting times).
#include "ppsim/kernels/round_kernel.hpp"

#if PPSIM_KERNELS_AVX2

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "../util/binomial_sampler.hpp"

namespace ppsim::kernels {
namespace {

constexpr std::size_t kLanes = 4;

/// Four xoshiro256++ generators advanced in lockstep, states resident in
/// registers. Uses exactly util/rng.hpp's update rule so the states written
/// back remain valid checkpointable Xoshiro256pp states.
class Xoshiro4 {
 public:
  void load(RoundTask* const* tasks, std::size_t count) {
    std::array<std::array<std::uint64_t, 4>, kLanes> st;
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Unused trailing lanes mirror lane 0; their output is discarded and
      // their state is never stored back.
      st[l] = tasks[std::min(l, count - 1)]->rng->state();
    }
    for (int w = 0; w < 4; ++w) {
      s_[w] = _mm256_set_epi64x(
          static_cast<long long>(st[3][w]), static_cast<long long>(st[2][w]),
          static_cast<long long>(st[1][w]), static_cast<long long>(st[0][w]));
    }
  }

  void store(RoundTask* const* tasks, std::size_t count) const {
    alignas(32) std::uint64_t w[4][kLanes];
    for (int i = 0; i < 4; ++i) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(w[i]), s_[i]);
    }
    for (std::size_t l = 0; l < count; ++l) {
      tasks[l]->rng->set_state({w[0][l], w[1][l], w[2][l], w[3][l]});
    }
  }

  /// One lockstep step: writes a uniform in [0, 1) with 52 random bits per
  /// lane (top bits spliced into the [1, 2) mantissa, then shifted down).
  void uniforms(double out[kLanes]) {
    const __m256i bits = _mm256_srli_epi64(next(), 12);
    const __m256i one = _mm256_set1_epi64x(0x3FF0000000000000LL);
    const __m256d d = _mm256_castsi256_pd(_mm256_or_si256(bits, one));
    _mm256_storeu_pd(out, _mm256_sub_pd(d, _mm256_set1_pd(1.0)));
  }

 private:
  static __m256i rotl(__m256i x, int k) {
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
  }

  __m256i next() {
    const __m256i result =
        _mm256_add_epi64(rotl(_mm256_add_epi64(s_[0], s_[3]), 23), s_[0]);
    const __m256i t = _mm256_slli_epi64(s_[1], 17);
    s_[2] = _mm256_xor_si256(s_[2], s_[0]);
    s_[3] = _mm256_xor_si256(s_[3], s_[1]);
    s_[1] = _mm256_xor_si256(s_[1], s_[2]);
    s_[0] = _mm256_xor_si256(s_[0], s_[3]);
    s_[2] = _mm256_xor_si256(s_[2], t);
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  __m256i s_[4];
};

/// One pending per-lane binomial request; resolve_binomials() drains a set
/// of these against the shared uniform supply.
struct BinomialReq {
  detail::BinomialPlan plan;
  std::int64_t result = 0;
  bool pending = false;

  void init(std::int64_t trials, double prob) {
    pending = plan.init(trials, prob, result);
  }

  std::int64_t value() const { return plan.value(result); }
};

/// Drains up to kLanes pending requests: every iteration draws one shared
/// (u, v) uniform block and lets each still-pending lane consume its lane's
/// values — inversion lanes finish on the first block, BTRS lanes loop
/// until their rejection test accepts. Trivial lanes (resolved in init)
/// consume no randomness at all, matching the scalar kernel's convention
/// for p ∈ {0, 1}.
void resolve_binomials(Xoshiro4& gen, BinomialReq* reqs, std::size_t count) {
  bool pending = false;
  for (std::size_t l = 0; l < count; ++l) pending = pending || reqs[l].pending;
  double u[kLanes];
  double v[kLanes];
  while (pending) {
    gen.uniforms(u);
    gen.uniforms(v);
    pending = false;
    for (std::size_t l = 0; l < count; ++l) {
      BinomialReq& req = reqs[l];
      if (!req.pending) continue;
      if (req.plan.use_btrs) {
        if (!req.plan.btrs.attempt(u[l], v[l], req.result)) {
          pending = true;
          continue;
        }
      } else {
        req.result = detail::binomial_inversion(req.plan.n, req.plan.p, u[l]);
      }
      req.pending = false;
    }
  }
}

class Avx2Kernel final : public RoundKernel {
 public:
  KernelKind kind() const noexcept override { return KernelKind::kAvx2; }

  void advance(RoundTask& task) const override {
    RoundTask* one[1] = {&task};
    advance_group(one, 1);
  }

 private:
  static void advance_group(RoundTask* const* tasks, std::size_t count) {
    Xoshiro4 gen;
    gen.load(tasks, count);

    // Stage 1: the null split — Binomial(batch, active/total) per lane.
    BinomialReq reqs[kLanes];
    for (std::size_t l = 0; l < count; ++l) {
      const PairLaw& law = *tasks[l]->law;
      reqs[l].init(tasks[l]->batch, law.active_weight() / law.total_weight());
    }
    resolve_binomials(gen, reqs, count);

    // Stage 2: the conditional-binomial multinomial chain, bucket position
    // by bucket position across the lanes. Lane l walks its own law's
    // weights; lanes that finish (remaining hits 0 or buckets exhausted)
    // drop out of the uniform supply.
    std::int64_t remaining[kLanes];
    double mass[kLanes];
    for (std::size_t l = 0; l < count; ++l) {
      const PairLaw& law = *tasks[l]->law;
      tasks[l]->active = reqs[l].value();
      tasks[l]->draws->assign(law.size(), 0);
      remaining[l] = reqs[l].value();
      mass[l] = law.active_weight();
    }
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (std::size_t l = 0; l < count; ++l) {
        const std::vector<double>& w = tasks[l]->law->weights();
        if (remaining[l] <= 0 || i + 1 >= w.size()) {
          reqs[l].pending = false;
          continue;
        }
        const double p = mass[l] > 0.0 ? w[i] / mass[l] : 0.0;
        reqs[l].init(remaining[l], p);
        any = true;
      }
      if (!any) break;
      resolve_binomials(gen, reqs, count);
      for (std::size_t l = 0; l < count; ++l) {
        const std::vector<double>& w = tasks[l]->law->weights();
        if (remaining[l] <= 0 || i + 1 >= w.size()) continue;
        const std::int64_t draw = std::min(reqs[l].value(), remaining[l]);
        (*tasks[l]->draws)[i] = draw;
        remaining[l] -= draw;
        mass[l] -= w[i];
      }
    }
    // The last bucket absorbs what the chain left, exactly as the scalar
    // multinomial does.
    for (std::size_t l = 0; l < count; ++l) {
      if (remaining[l] > 0 && !tasks[l]->draws->empty()) {
        tasks[l]->draws->back() += remaining[l];
      }
    }

    gen.store(tasks, count);
  }
};

}  // namespace

bool avx2_compiled() noexcept { return true; }

const RoundKernel* avx2_kernel_or_null() noexcept {
  static const Avx2Kernel kernel;
  return &kernel;
}

}  // namespace ppsim::kernels

#else  // !PPSIM_KERNELS_AVX2

namespace ppsim::kernels {

bool avx2_compiled() noexcept { return false; }

const RoundKernel* avx2_kernel_or_null() noexcept { return nullptr; }

}  // namespace ppsim::kernels

#endif
