// One Monte-Carlo trial of a consensus experiment: run an engine to
// stabilization (or a budget) and package the outcome. SweepRunner
// (core/sweep.hpp) owns seeding, scheduling and aggregation; this header is
// the glue its trial functions, the benches and perfbench share.
#pragma once

#include <optional>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/types.hpp"

namespace ppsim {

/// Outcome of one Monte-Carlo trial of a consensus experiment.
struct TrialResult {
  bool stabilized = false;
  Interactions interactions = 0;   ///< attempted interactions
  Interactions clamped = 0;        ///< τ-leaping overdraw (see RunOutcome)
  double parallel_time = 0.0;
  std::optional<Opinion> winner;
};

/// Runs `engine` to stabilization (or budget) and packages the outcome —
/// the glue letting any EngineKind be driven from a sweep cell with
/// identical accounting (attempted vs clamped interactions).
TrialResult run_engine_trial(Engine& engine, Interactions max_interactions);

/// Same, streaming through `recorder` (attached for the duration of the run,
/// finalized with the outcome afterwards). With recorder == nullptr this is
/// exactly the overload above, so benches can thread an optional archive
/// sink through one call site.
TrialResult run_engine_trial(Engine& engine, Interactions max_interactions,
                             Recorder* recorder);

}  // namespace ppsim
