// The round kernel of the counts-space engine.
//
// One simulated round of τ interactions draws, against the frozen
// start-of-round PairLaw, in this fixed order:
//
//   1. active    ~ Binomial(τ, active_weight / total_weight)   null split
//   2. adoptions ~ Binomial(active, adoption_weight / active_weight)
//   3. A         ~ Multinomial(adoptions, c_i)                 over opinions
//   4. the X = active − adoptions clashes go down the law's split tree, in
//      pre-order from the root (X internal clashes, no inherited endpoint).
//      At each internal node V = A ∪ B, with x internal clashes and e
//      inherited endpoints:
//        x_AA ~ Binomial(x, p_left_internal)
//        x_BB ~ Binomial(x − x_AA, p_right_internal)
//        e_A  ~ Binomial(e, p_left)
//      then the left subtree gets (x_AA, e_A + x_AB) and the right subtree
//      (x_BB, e − e_A + x_AB), x_AB = x − x_AA − x_BB. A subtree with
//      nothing to split draws nothing, and a leaf's inherited endpoints
//      are L_i.
//
// That is ~4 binomials per present opinion: ~105 at k = 27 and ~2,000 at
// k = 503, against k(k+1)/2 = 378 and 126,756 pair buckets. The law is
// exact: clashes are a multinomial over the pairs {i, j} ∝ c_i·c_j,
// which the tree reproduces because on A × B the pair weight is a product.
// Trivial binomials (no trials, p of 0 or 1) consume no randomness.
//
// Determinism contract: advance() consumes the engine RNG only through
// util/random_variates, in the order above. The sampler is the library's
// own, so the draw sequence is a function of the seed alone, on every host,
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
/// draws). `draws` is engine-owned scratch that the kernel fills, when
/// active > 0, with (A_0..A_{k−1}, L_0..L_{k−1}): the adoptions into and
/// the clash endpoints on each opinion. apply_round commits it.
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
