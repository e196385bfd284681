// The scalar baseline kernel: always built, and the determinism anchor.
//
// Its draw sequence is one binomial() for the null split, then the
// conditional-binomial multinomial chain (multinomial_into), both on the
// library's own inversion/BTRS sampler. Every byte-identical-JSON pin and
// golden trajectory is therefore a function of the seed alone, whichever
// standard library built the binary (tests/engine_equivalence_test.cpp
// pins draw-for-draw values against this kernel).
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim::kernels {
namespace {

class ScalarKernel final : public RoundKernel {
 public:
  KernelKind kind() const noexcept override { return KernelKind::kScalar; }

  void advance(RoundTask& task) const override {
    const PairLaw& law = *task.law;
    task.active = binomial(*task.rng, task.batch,
                           law.active_weight() / law.total_weight());
    if (task.active > 0) {
      multinomial_into(*task.rng, task.active, law.weights(), *task.draws);
    }
  }
};

}  // namespace

const RoundKernel& scalar_kernel() noexcept {
  static const ScalarKernel kernel;
  return kernel;
}

}  // namespace ppsim::kernels
