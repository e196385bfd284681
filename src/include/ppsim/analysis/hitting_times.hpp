// First-hitting-time measurements over USD observables — the executable
// counterparts of Lemmas 3.1, 3.3 and 3.4.
//
// Exactness of the skip optimization: per interaction, any single opinion
// count changes by at most 1 and the max pairwise difference Δmax by at most
// 2, so after observing value v the earliest interaction at which a level
// L > v can be reached is ⌈(L-v)/c⌉ steps away (c = 1 or 2). Reading the
// observable only from there on cannot miss the first hit, which keeps the
// measured hitting times exact while avoiding an O(k) scan per interaction.
#pragma once

#include <cstdint>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/protocols/usd.hpp"

namespace ppsim {

/// Result of a first-hitting measurement.
struct HittingResult {
  bool hit = false;
  Interactions interactions_at_hit = 0;  ///< valid iff hit
  Interactions interactions_used = 0;    ///< total interactions consumed
  bool stabilized = false;               ///< run ended in a stable config
};

/// Tracks the maximum of u(t) over a run (Lemma 3.1's subject). Runs until
/// stabilization or budget exhaustion and returns max_t u(t).
struct UndecidedExcursion {
  Count max_undecided = 0;
  Interactions interactions_used = 0;
  bool stabilized = false;
};

// The engine's Configuration must use the USD state layout (state 0 = ⊥,
// state i+1 = opinion i). Each call starts from the engine's current state
// and consumes its randomness; call on a fresh engine. Observables are
// checked once per *round*, so hitting times are round-granular: exact for
// the sequential engine (one interaction per round), and within one τ-leap
// round (≤ tau_epsilon·n interactions) of the exact first-hitting time for
// the collapsed engine — see docs/REPRODUCING.md for how the benches report
// this.

/// First time x_i reaches `level`, found with the skip-ahead above.
HittingResult time_until_opinion_reaches(Engine& engine, Opinion i, Count level,
                                         Interactions max_interactions);

/// First time Δmax = max_{i,j}(x_i - x_j) reaches `level` (Lemma 3.4's
/// doubling event when level = 2·Δmax(0)).
HittingResult time_until_delta_reaches(Engine& engine, Count level,
                                       Interactions max_interactions);

UndecidedExcursion max_undecided_over_run(Engine& engine,
                                          Interactions max_interactions);

}  // namespace ppsim
