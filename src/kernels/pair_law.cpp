#include "ppsim/kernels/pair_law.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"

namespace ppsim::kernels {

namespace {

/// True when f(b, a) is the mirror image of f(a, b): the two ordered pairs
/// then have the same count delta, the same leavers and the same catalysts,
/// so one bucket carries both.
bool mirrored(const TransitionTable& table, State a, State b) {
  const Transition ab = table.apply(a, b);
  const Transition ba = table.apply(b, a);
  return ba.initiator == ab.responder && ba.responder == ab.initiator;
}

/// The engines' one overdraw clamp: applies up to m interactions of bucket i to
/// the raw counts and returns how many it applied. Earlier buckets in this
/// round may have drained a state below what the start-of-round weights
/// promised, so m is limited to the live counts. Every clamp keeps the bulk
/// result inside the sequential chain's reachable set: each (a, a)
/// interaction needs two live a-agents, so with one leaver at most count-1
/// interactions can fire (never draining the state), and with two leavers at
/// most count/2. No count can go negative, so the caller checks the
/// invariants once per commit instead of once per move.
Interactions clamp_apply(const PairLaw& law, std::size_t i, Interactions m,
                         std::vector<Count>& counts) {
  const State a = law.a(i);
  const State b = law.b(i);
  const Transition& t = law.transition(i);
  if (a == b) {
    const int leavers = (t.initiator != a ? 1 : 0) + (t.responder != a ? 1 : 0);
    const Count cap = leavers == 2 ? counts[a] / 2 : counts[a] - 1;
    m = std::min(m, std::max<Interactions>(0, cap));
  } else {
    // Both participants must be live, even on the side f leaves unchanged.
    if (counts[a] == 0 || counts[b] == 0) return 0;
    if (t.initiator != a) m = std::min<Interactions>(m, counts[a]);
    if (t.responder != b) m = std::min<Interactions>(m, counts[b]);
  }
  if (m <= 0) return 0;
  counts[a] -= m;
  counts[t.initiator] += m;
  counts[b] -= m;
  counts[t.responder] += m;
  return m;
}

}  // namespace

void PairLaw::rebuild(const TransitionTable& table, const Configuration& config) {
  const auto n = static_cast<double>(config.population());
  total_weight_ = n * (n - 1.0);
  a_.clear();
  b_.clear();
  t_.clear();
  weight_.clear();
  consumption_.assign(config.num_states(), 0.0);
  active_weight_ = 0.0;
  const auto& counts = config.counts();
  const auto q = static_cast<State>(config.num_states());
  for (State a = 0; a < q; ++a) {
    if (counts[a] == 0) continue;
    for (State b = 0; b < q; ++b) {
      if (counts[b] == 0) continue;
      if (a == b && counts[a] < 2) continue;
      if (table.is_null(a, b)) continue;
      // A mirrored pair is one bucket, listed at (min, max) with f(min, max).
      const bool merged = a != b && mirrored(table, a, b);
      if (merged && b < a) continue;
      double w = static_cast<double>(counts[a]) *
                 static_cast<double>(a == b ? counts[b] - 1 : counts[b]);
      if (merged) w += w;  // w(a, b) + w(b, a) = 2·c_a·c_b, exact in double
      const Transition t = table.apply(a, b);
      a_.push_back(a);
      b_.push_back(b);
      t_.push_back(t);
      weight_.push_back(w);
      active_weight_ += w;
      // One interaction on (a, b) removes an agent from each side whose
      // state actually changes — exactly what apply_one will move, so the
      // collapsed engine's τ drain bound matches the clamp's exposure. The
      // mirror (b, a) removes the same agents, so a merged bucket adds both
      // ordered pairs' removal weight at once.
      if (t.initiator != a) consumption_[a] += w;
      if (t.responder != b) consumption_[b] += w;
    }
  }
  ++generation_;
}

const AliasTable& PairLaw::alias() const {
  PPSIM_CHECK(!empty(), "alias table requires at least one active pair");
  if (alias_generation_ != generation_) {
    alias_ = AliasTable(weight_);
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

}  // namespace ppsim::kernels
