#include "ppsim/analysis/hitting_times.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"

namespace ppsim {

namespace {

/// Shared skip-ahead loop: `value()` is monotone in nothing, but changes by
/// at most `max_step_change` per interaction, which makes the skip exact.
template <typename ValueFn>
HittingResult hit_level(Simulator& sim, Count level, Count max_step_change,
                        Interactions max_interactions, ValueFn&& value) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  HittingResult result;
  for (;;) {
    const Count v = value(sim.configuration());
    if (v >= level) {
      result.hit = true;
      result.interactions_at_hit = sim.interactions();
      break;
    }
    if (sim.is_stable() || sim.interactions() >= max_interactions) break;
    const Count gap = level - v;
    const Interactions skip = std::max<Interactions>(
        1, (gap + max_step_change - 1) / max_step_change);
    const Interactions budget =
        std::min(sim.interactions() + skip, max_interactions);
    while (sim.interactions() < budget && !sim.is_stable()) sim.step();
  }
  result.interactions_used = sim.interactions();
  result.stabilized = sim.is_stable();
  return result;
}

}  // namespace

HittingResult time_until_opinion_reaches(Simulator& sim, Opinion i, Count level,
                                         Interactions max_interactions) {
  PPSIM_CHECK(UndecidedStateDynamics::opinion_state(i) <
                  sim.configuration().num_states(),
              "opinion out of range");
  // x_i changes by at most 1 per interaction.
  return hit_level(sim, level, /*max_step_change=*/1, max_interactions,
                   [i](const Configuration& c) { return opinion_count(c, i); });
}

HittingResult time_until_delta_reaches(Simulator& sim, Count level,
                                       Interactions max_interactions) {
  // One interaction moves at most one agent into an opinion (max +1) or two
  // agents out of two opinions (min -1 each, affecting max and min by at
  // most 1 each): |ΔΔmax| <= 2.
  return hit_level(sim, level, /*max_step_change=*/2, max_interactions,
                   [](const Configuration& c) { return delta_max(c); });
}

namespace {

/// Facade-engine first-hitting loop: run_until checks the predicate once per
/// round (including before the first round), so the recorded hit is the
/// first round boundary at or past the true hitting time. run_until's loop
/// condition skips the predicate on the round that exhausts the budget, so
/// the final configuration is re-checked here — otherwise a hit inside the
/// last round would be reported as a miss, diverging from the Simulator
/// overloads.
template <typename ValueFn>
HittingResult hit_level_engine(Engine& engine, Count level,
                               Interactions max_interactions, ValueFn&& value) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  HittingResult result;
  const RunOutcome out = engine.run_until(
      [&](const Configuration& c, Interactions t) {
        if (value(c) >= level) {
          result.hit = true;
          result.interactions_at_hit = t;
          return true;
        }
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
  return hit_level_engine(engine, level, max_interactions,
                          [s](const Configuration& c) { return c.count(s); });
}

HittingResult time_until_delta_reaches(Engine& engine, Count level,
                                       Interactions max_interactions) {
  return hit_level_engine(engine, level, max_interactions,
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

namespace {

/// Interaction clock of the last recorded sample (0 for an empty archive).
Interactions archive_last_clock(const io::TrajectoryReader& archive) {
  const std::size_t blocks = archive.num_blocks();
  return blocks == 0 ? 0 : archive.block(blocks - 1).last_interactions;
}

}  // namespace

HittingResult archive_time_until_stable(const io::TrajectoryReader& archive) {
  HittingResult result;
  if (archive.finished()) {
    const io::TrajectoryEnd end = *archive.end();
    result.hit = end.stabilized;
    result.stabilized = end.stabilized;
    result.interactions_used = end.interactions;
    if (end.stabilized) result.interactions_at_hit = end.interactions;
  } else {
    result.interactions_used = archive_last_clock(archive);
  }
  return result;
}

HittingResult archive_first_hit(const io::TrajectoryReader& archive,
                                const std::string& channel, double level) {
  const auto idx = archive.channel_index(channel);
  PPSIM_CHECK(idx.has_value(), "unknown channel in archive: " + channel);
  HittingResult result;
  result.interactions_used = archive_last_clock(archive);
  if (archive.finished()) result.stabilized = archive.end()->stabilized;
  for (std::size_t i = 0; i < archive.num_blocks(); ++i) {
    if (archive.block(i).max[*idx] < level) continue;  // footer skip
    const io::TrajectoryReader::BlockData data = archive.decode_block(i);
    for (std::size_t j = 0; j < data.interactions.size(); ++j) {
      if (data.values[*idx][j] >= level) {
        result.hit = true;
        result.interactions_at_hit = data.interactions[j];
        return result;
      }
    }
  }
  return result;
}

UndecidedExcursion archive_max_undecided(const io::TrajectoryReader& archive) {
  UndecidedExcursion result;
  const double max_u = archive.channel_max("undecided");
  result.max_undecided = max_u == max_u ? static_cast<Count>(max_u) : 0;
  if (archive.finished()) {
    result.interactions_used = archive.end()->interactions;
    result.stabilized = archive.end()->stabilized;
  } else {
    result.interactions_used = archive_last_clock(archive);
  }
  return result;
}

}  // namespace ppsim

