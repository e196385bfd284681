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

namespace {

/// Step 4 of advance(): splits node v's x internal clashes and e inherited
/// endpoints between its children, then recurses left, then right.
void descend(const std::vector<SplitNode>& tree, std::size_t v, std::int64_t x,
             std::int64_t e, Xoshiro256pp& rng, std::int64_t* endpoints) {
  if (x == 0 && e == 0) return;
  const SplitNode& node = tree[v];
  if (node.right == 0) {
    endpoints[node.opinion] = e;  // a leaf has no internal pair, so x = 0
    return;
  }
  const std::int64_t x_aa = binomial(rng, x, node.p_left_internal);
  const std::int64_t x_bb = binomial(rng, x - x_aa, node.p_right_internal);
  const std::int64_t x_ab = x - x_aa - x_bb;
  const std::int64_t e_a = binomial(rng, e, node.p_left);
  descend(tree, v + 1, x_aa, e_a + x_ab, rng, endpoints);
  descend(tree, node.right, x_bb, e - e_a + x_ab, rng, endpoints);
}

}  // namespace

void RoundKernel::advance(RoundTask& task) const {
  const PairLaw& law = *task.law;
  Xoshiro256pp& rng = *task.rng;
  task.active = binomial(rng, task.batch, law.active_weight() / law.total_weight());
  if (task.active == 0) return;
  const std::int64_t adoptions =
      binomial(rng, task.active, law.adoption_weight() / law.active_weight());
  std::vector<std::int64_t>& draws = *task.draws;
  multinomial_into(rng, adoptions, law.opinion_weights(), draws);
  const std::size_t k = draws.size();
  draws.resize(2 * k, 0);
  descend(law.tree(), 0, task.active - adoptions, 0, rng, draws.data() + k);
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
