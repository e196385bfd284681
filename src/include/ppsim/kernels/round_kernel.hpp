// The round kernel of the counts-space engines.
//
// One simulated round is two draws against the frozen start-of-round
// PairLaw:
//
//   active ~ Binomial(batch, active_weight / total_weight)   // null split
//   draws  ~ Multinomial(active, bucket weights)             // bucket split
//
// A bucket is an ordered state pair or a merged mirror pair {a, b} whose two
// orders change the counts identically (see pair_law.hpp), so the chain has
// one conditional binomial per bucket: 378 for USD at k = 27, not 756.
//
// That sampling step — not the O(S²) law rebuild or the count updates — is
// the hot path at paper scale (n ≥ 10⁹, many trials per sweep cell).
//
// Determinism contract: advance() consumes the engine RNG through
// util/random_variates — one binomial() for the null split, then the
// conditional-binomial multinomial chain. The sampler is the library's own,
// so the draw sequence is a function of the seed alone, on every host,
// build type and standard library (tests/engine_equivalence_test.cpp pins
// it draw for draw).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim::kernels {

// One kernel remains. perfbench compiles against the names of the retired
// AVX2 backend, so they stay until ROADMAP item 4's benchmark-contract
// change removes them: KernelKind::kAvx2 (resolve() throws for it),
// avx2_supported() (always false, so perfbench reports its "AVX2 kernel
// unavailable" row), auto_kind() (always kScalar), and the `kernel` fields
// of SweepSpec, SweepCell and CollapsedSimulator::Options.
enum class KernelKind {
  kScalar,
  kAvx2,
};
bool avx2_supported() noexcept;
KernelKind auto_kind() noexcept;

/// "scalar" | "avx2" — the "kernel" field of reports, cache keys and
/// .pptraj headers.
std::string to_string(KernelKind kind);

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
  /// Samples one round into task.active / *task.draws.
  void advance(RoundTask& task) const;
};

/// The round kernel every engine samples with.
const RoundKernel& scalar_kernel() noexcept;

/// Maps a kind to its kernel: kScalar → scalar_kernel(); any other kind
/// throws CheckFailure.
const RoundKernel& resolve(KernelKind kind);

}  // namespace ppsim::kernels
