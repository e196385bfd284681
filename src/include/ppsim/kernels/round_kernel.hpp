// Round-sampling kernels with runtime capability dispatch.
//
// One simulated round of the counts-space engines is two draws against the
// frozen start-of-round PairLaw:
//
//   active ~ Binomial(batch, active_weight / total_weight)   // null split
//   draws  ~ Multinomial(active, bucket weights)             // bucket split
//
// A bucket is an ordered state pair or a merged mirror pair {a, b} whose two
// orders change the counts identically (see pair_law.hpp), so the chain has
// one conditional binomial per bucket: 378 for USD at k = 27, not 756.
//
// That sampling step — not the O(S²) law rebuild or the count updates — is
// the hot path at paper scale (n ≥ 10⁹, many trials per sweep cell), and it
// is what a RoundKernel implements. The layer follows the classic
// accelerator-dispatch shape: a scalar CPU baseline that is *always* built
// and whose draw sequence every byte-identical-JSON determinism pin is
// recorded against, plus optional accelerated backends compiled behind CMake
// feature checks and selected at *runtime* from CPU capability bits. Today's
// accelerated backend is kAvx2 (the same sampler built with -mavx2, its
// uniforms drawn from a SIMD xoshiro256++); a CUDA/OpenCL backend plugs in
// by adding a KernelKind, an implementation file gated in CMake, and a
// branch in resolve() — engines and the sweep runner are already written
// against the interface.
//
// Determinism contract:
//   * kScalar consumes the engine RNG through util/random_variates: one
//     binomial() for the null split, then the conditional-binomial
//     multinomial chain. The sampler is the library's own, so the sequence
//     is the same on every build type and standard library.
//   * kAvx2 runs the same inversion/BTRS sampler, but feeds it from the
//     trial's generator run as SIMD lanes, so its draw sequence
//     legitimately differs; it is validated distributionally (chi-square on
//     the exact pair law, KS against scalar hitting times —
//     tests/kernel_distribution_test.cpp). One advance() is still a pure
//     function of (RNG state, law, batch), so sweep JSON stays
//     byte-identical at any --threads for kAvx2 too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim::kernels {

enum class KernelKind {
  kScalar,  ///< always built; the determinism anchor
  kAvx2,    ///< CMake feature-gated, runtime cpuid-dispatched SIMD variates
};

/// "scalar" | "avx2" (flag values and JSON field).
std::string to_string(KernelKind kind);

/// Inverse of to_string; nullopt for unknown names (including "auto" —
/// resolve the auto policy with parse_kernel_flag/auto_kind instead).
std::optional<KernelKind> parse_kernel(const std::string& name);

/// One staged round: the kernel reads (law, batch, rng) and writes (active,
/// draws). `draws` is engine-owned scratch resized by the kernel to
/// law->size(); it is filled only when active > 0.
struct RoundTask {
  const PairLaw* law = nullptr;
  Interactions batch = 0;
  Xoshiro256pp* rng = nullptr;
  std::vector<std::int64_t>* draws = nullptr;
  Interactions active = 0;  ///< out: non-null interactions this round
};

class RoundKernel {
 public:
  virtual ~RoundKernel() = default;
  virtual KernelKind kind() const noexcept = 0;

  /// Samples one round into task.active / *task.draws.
  virtual void advance(RoundTask& task) const = 0;
};

/// True when the AVX2 backend was compiled in (CMake found -mavx2 and
/// PPSIM_ENABLE_AVX2 was ON).
bool avx2_compiled() noexcept;

/// True when the AVX2 backend is compiled in *and* this CPU reports the
/// avx2 capability bit — the runtime dispatch predicate.
bool avx2_supported() noexcept;

/// The always-available scalar baseline.
const RoundKernel& scalar_kernel() noexcept;

/// The AVX2 backend, or nullptr when compiled out. Does not check cpuid.
const RoundKernel* avx2_kernel_or_null() noexcept;

/// Kinds usable on this build + host, scalar first.
std::vector<KernelKind> available_kernels();

/// The kind `--kernel auto` resolves to: the fastest supported backend
/// (kAvx2 when compiled in and the CPU has it), else kScalar.
KernelKind auto_kind() noexcept;

/// Maps a kind to its kernel. Throws CheckFailure with a clear message when
/// the backend is compiled out or the CPU lacks the capability.
const RoundKernel& resolve(KernelKind kind);

/// Parses the CLI surface: "auto" → auto_kind(), "scalar"/"avx2" → the
/// explicit kind (throwing the resolve() error early when an explicitly
/// requested backend is unavailable on this build/host), anything else →
/// CheckFailure naming the valid values.
KernelKind parse_kernel_flag(const std::string& flag);

}  // namespace ppsim::kernels
