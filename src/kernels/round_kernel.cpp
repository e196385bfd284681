#include "ppsim/kernels/round_kernel.hpp"

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim::kernels {

std::string to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void RoundKernel::advance(RoundTask& task) const {
  const PairLaw& law = *task.law;
  task.active = binomial(*task.rng, task.batch,
                         law.active_weight() / law.total_weight());
  if (task.active > 0) {
    multinomial_into(*task.rng, task.active, law.weights(), *task.draws);
  }
}

const RoundKernel& scalar_kernel() noexcept {
  static const RoundKernel kernel;
  return kernel;
}

const RoundKernel& resolve(KernelKind kind) {
  PPSIM_CHECK(kind == KernelKind::kScalar,
              "the " + to_string(kind) +
                  " round kernel was retired; scalar is the only kernel");
  return scalar_kernel();
}

bool avx2_supported() noexcept { return false; }

KernelKind auto_kind() noexcept { return KernelKind::kScalar; }

}  // namespace ppsim::kernels
