#include "ppsim/analysis/hitting_times.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"

namespace ppsim {

namespace {

/// First-hitting loop: run_until checks the predicate once per round
/// (including before the first round; a sequential round is one
/// interaction), so the recorded hit is the first round boundary at or past
/// the true hitting time. `value()` moves by at most `max_step_change` per
/// interaction, and a round of τ interactions by at most τ·max_step_change,
/// clamped or not; so after reading v at interaction t, the level cannot be
/// reached before t + ⌈(level − v)/max_step_change⌉, and the predicate skips
/// the O(k) read until then. Both engines thus report the hits of a read at
/// every round. run_until's loop condition skips the predicate on the round
/// that exhausts the budget, so the final configuration is re-checked here —
/// otherwise a hit inside the last round would be reported as a miss.
template <typename ValueFn>
HittingResult hit_level(Engine& engine, Count level, Count max_step_change,
                        Interactions max_interactions, ValueFn&& value) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  HittingResult result;
  Interactions next_read = 0;  // first interaction at which level may be hit
  const RunOutcome out = engine.run_until(
      [&](const Configuration& c, Interactions t) {
        if (t < next_read) return false;
        const Count v = value(c);
        if (v >= level) {
          result.hit = true;
          result.interactions_at_hit = t;
          return true;
        }
        next_read = sat_add(t, (level - v + max_step_change - 1) / max_step_change);
        return false;
      },
      max_interactions);
  if (!result.hit && value(engine.configuration()) >= level) {
    result.hit = true;
    result.interactions_at_hit = out.interactions;
  }
  result.interactions_used = out.interactions;
  result.stabilized = out.stabilized;
  return result;
}

}  // namespace

HittingResult time_until_opinion_reaches(Engine& engine, Opinion i, Count level,
                                         Interactions max_interactions) {
  const State s = UndecidedStateDynamics::opinion_state(i);
  PPSIM_CHECK(s < engine.configuration().num_states(), "opinion out of range");
  // x_i changes by at most 1 per interaction.
  return hit_level(engine, level, /*max_step_change=*/1, max_interactions,
                   [s](const Configuration& c) { return c.count(s); });
}

HittingResult time_until_delta_reaches(Engine& engine, Count level,
                                       Interactions max_interactions) {
  // One interaction moves at most one agent into an opinion (max +1) or two
  // agents out of two opinions (min -1 each, affecting max and min by at
  // most 1 each): |ΔΔmax| <= 2.
  return hit_level(engine, level, /*max_step_change=*/2, max_interactions,
                   [](const Configuration& c) { return delta_max(c); });
}

UndecidedExcursion max_undecided_over_run(Engine& engine,
                                          Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  UndecidedExcursion result;
  result.max_undecided = undecided_count(engine.configuration());
  const RunOutcome out = engine.run_until(
      [&result](const Configuration& c, Interactions) {
        result.max_undecided = std::max(result.max_undecided, undecided_count(c));
        return false;  // sampling only; the engine stops at stability
      },
      max_interactions);
  // run_until skips the predicate on the round that exhausts the budget;
  // sample the final configuration so the last round's u(t) is not dropped.
  result.max_undecided =
      std::max(result.max_undecided, undecided_count(engine.configuration()));
  result.interactions_used = out.interactions;
  result.stabilized = out.stabilized;
  return result;
}

}  // namespace ppsim

