#include "ppsim/kernels/pair_law.hpp"

#include <algorithm>

#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim::kernels {

namespace {

constexpr State kUndecided = UndecidedStateDynamics::kUndecided;

/// Applies up to m interactions of bucket i to the raw counts and returns how
/// many it applied. Earlier buckets in the same call may have drained a state
/// below what the start-of-round weights promised, so m is limited to the
/// live counts; no count can go negative, so the caller checks the
/// invariants once per commit instead of once per move.
Interactions clamp_apply(const PairLaw& law, std::size_t i, Interactions m,
                         std::vector<Count>& counts) {
  const State a = law.a(i);
  const State b = law.b(i);
  const Transition t = law.transition(i);
  // Both participants must be live, even on the side f leaves unchanged.
  if (counts[a] == 0 || counts[b] == 0) return 0;
  if (t.initiator != a) m = std::min<Interactions>(m, counts[a]);
  if (t.responder != b) m = std::min<Interactions>(m, counts[b]);
  if (m <= 0) return 0;
  counts[a] -= m;
  counts[t.initiator] += m;
  counts[b] -= m;
  counts[t.responder] += m;
  return m;
}

}  // namespace

void PairLaw::rebuild(const Configuration& config) {
  const auto& counts = config.counts();
  PPSIM_CHECK(counts.size() >= 2, "USD layout needs at least one opinion");
  const std::size_t k = counts.size() - 1;
  const auto n = static_cast<double>(config.population());
  total_weight_ = n * (n - 1.0);
  undecided_ = static_cast<double>(counts[kUndecided]);
  opinion_weight_.resize(k);
  present_.clear();
  double s = 0.0;  // exact: counts sum to n ≤ 2^53
  for (std::size_t i = 0; i < k; ++i) {
    opinion_weight_[i] = static_cast<double>(counts[i + 1]);
    s += opinion_weight_[i];
    if (counts[i + 1] > 0) present_.push_back(static_cast<Opinion>(i));
  }
  tree_.clear();
  const double w = present_.empty() ? 0.0 : grow(0, present_.size()).w;
  adoption_weight_ = 2.0 * undecided_ * s;
  active_weight_ = adoption_weight_ + 2.0 * w;
  consumption_.resize(k + 1);
  consumption_[kUndecided] = adoption_weight_;
  for (std::size_t i = 0; i < k; ++i) {
    consumption_[i + 1] = 2.0 * opinion_weight_[i] * (s - opinion_weight_[i]);
  }
  ++generation_;
}

void PairLaw::rebuild(const TransitionTable& table, const Configuration& config) {
  PPSIM_CHECK(table.num_states() == config.num_states(),
              "transition table and configuration disagree on the state count");
  rebuild(config);
}

PairLaw::Sums PairLaw::grow(std::size_t lo, std::size_t hi) {
  const std::size_t v = tree_.size();
  tree_.emplace_back();
  if (hi - lo == 1) {
    tree_[v].opinion = present_[lo];
    return {opinion_weight_[present_[lo]], 0.0};
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const Sums left = grow(lo, mid);
  const auto right_index = static_cast<std::uint32_t>(tree_.size());
  const Sums right = grow(mid, hi);
  // Every present opinion has c_i ≥ 1, so S_A, S_B and W_V are positive.
  const double cross = left.s * right.s;
  const Sums sums{left.s + right.s, left.w + right.w + cross};
  SplitNode& node = tree_[v];
  node.p_left_internal = left.w / sums.w;
  node.p_right_internal = right.w / (right.w + cross);
  node.p_left = left.s / sums.s;
  node.right = right_index;
  return sums;
}

Transition PairLaw::transition(std::size_t i) const {
  const State responder = b(i);
  // An adoption {⊥, j} makes both agents j; a clash sends both to ⊥.
  return a(i) == kUndecided ? Transition{responder, responder}
                            : Transition{kUndecided, kUndecided};
}

const PairLaw::Buckets& PairLaw::enumerate() const {
  buckets_.a.clear();
  buckets_.b.clear();
  buckets_.weight.clear();
  const auto add = [&](State a, State b, double ca, double cb) {
    double w = ca * cb;
    w += w;  // w(a, b) + w(b, a) = 2·c_a·c_b, exact in double
    buckets_.a.push_back(a);
    buckets_.b.push_back(b);
    buckets_.weight.push_back(w);
  };
  if (undecided_ > 0.0) {
    for (const Opinion i : present_) {
      add(kUndecided, UndecidedStateDynamics::opinion_state(i), undecided_,
          opinion_weight_[i]);
    }
  }
  for (std::size_t x = 0; x < present_.size(); ++x) {
    for (std::size_t y = x + 1; y < present_.size(); ++y) {
      add(UndecidedStateDynamics::opinion_state(present_[x]),
          UndecidedStateDynamics::opinion_state(present_[y]),
          opinion_weight_[present_[x]], opinion_weight_[present_[y]]);
    }
  }
  buckets_.generation = generation_;
  return buckets_;
}

const AliasTable& PairLaw::alias() const {
  PPSIM_CHECK(!empty(), "alias table requires at least one active pair");
  if (alias_generation_ != generation_) {
    alias_ = AliasTable(weights());
    alias_generation_ = generation_;
  }
  return alias_;
}

ApplyResult apply_one(const PairLaw& law, Configuration& config, std::size_t i,
                      Interactions m) {
  std::vector<Count> counts = config.counts();
  const Interactions applied = clamp_apply(law, i, m, counts);
  if (applied > 0) config.assign_counts(std::move(counts));
  return {m - applied, applied > 0};
}

ApplyResult apply_draws(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& draws) {
  ApplyResult result;
  std::vector<Count> counts = config.counts();
  for (std::size_t i = 0; i < draws.size(); ++i) {
    if (draws[i] <= 0) continue;
    const Interactions applied = clamp_apply(law, i, draws[i], counts);
    result.clamped = sat_add(result.clamped, draws[i] - applied);
    result.moved = result.moved || applied > 0;
  }
  if (result.moved) config.assign_counts(std::move(counts));
  return result;
}

ApplyResult apply_round(Configuration& config, Interactions active,
                        const std::vector<std::int64_t>& draws) {
  std::vector<Count> counts = config.counts();
  const std::size_t k = counts.size() - 1;
  PPSIM_CHECK(draws.size() == 2 * k, "a round draws A and L per opinion");
  Count& undecided = counts[kUndecided];
  ApplyResult result;
  Interactions adoptions = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Interactions m = draws[i];
    if (m == 0) continue;
    adoptions += m;
    const Interactions applied = std::min<Interactions>(m, undecided);
    undecided -= applied;
    counts[i + 1] += applied;
    result.clamped += m - applied;
    result.moved = result.moved || applied > 0;
  }
  Interactions lost_endpoints = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Interactions m = draws[k + i];
    if (m == 0) continue;
    const Interactions applied = std::min<Interactions>(m, counts[i + 1]);
    counts[i + 1] -= applied;
    undecided += applied;
    lost_endpoints += m - applied;
    result.moved = result.moved || applied > 0;
  }
  result.clamped += std::min(lost_endpoints, active - adoptions);
  if (result.moved) config.assign_counts(std::move(counts));
  return result;
}

}  // namespace ppsim::kernels
