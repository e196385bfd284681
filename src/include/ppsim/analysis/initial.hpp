// Initial-configuration builders for the paper's experiments.
//
// The lower-bound construction (Section 3) fixes the worst-case start: all
// k-1 minority opinions have equal support and the majority opinion leads by
// a controlled bias. Exact equality of the minorities matters for the proof,
// so the builder distributes agents as n = (k-1)·m + (m + bias'), where the
// realised bias' is the requested bias rounded up by at most k-1 agents to
// make the arithmetic exact. All builders return counts indexed by opinion
// (opinion 0 = majority), ready for
// UndecidedStateDynamics::initial_configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "ppsim/core/types.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

struct InitialConfig {
  std::vector<Count> opinion_counts;  ///< size k, opinion 0 = majority
  Count bias = 0;                     ///< realised x_0 - x_1 (>= requested)

  Count population() const;
  Count majority() const { return opinion_counts.at(0); }
  Count minority() const { return opinion_counts.size() > 1 ? opinion_counts.at(1) : 0; }
};

/// The adversarial configuration of Section 3: equal minorities, majority
/// ahead by ~`bias`. Requires n >= k and 0 <= bias <= n - k, so every
/// minority keeps an agent (k = 1 ignores the bias).
/// The realised bias is bias rounded up by < k (documented above); all
/// minorities are exactly equal.
InitialConfig adversarial_configuration(Count n, std::size_t k, Count requested_bias);

/// The paper's Figure 1 setup: n agents, k opinions, bias = ceil(√(n ln n)).
InitialConfig figure1_configuration(Count n, std::size_t k);

/// All opinions as equal as possible (remainder spread over the first few
/// opinions); the zero-bias stress case.
InitialConfig balanced_configuration(Count n, std::size_t k);

/// Two-party configuration: a agents for opinion 0, n - a for opinion 1.
InitialConfig two_party_configuration(Count n, Count majority_count);

/// Random multinomial split of n agents over k opinions (sorted descending
/// so opinion 0 is the plurality) — used by property tests and examples.
InitialConfig random_configuration(Count n, std::size_t k, Xoshiro256pp& rng);

}  // namespace ppsim
