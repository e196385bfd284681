#include "ppsim/core/runner.hpp"

namespace ppsim {

TrialResult run_engine_trial(Engine& engine, Interactions max_interactions) {
  return run_engine_trial(engine, max_interactions, nullptr);
}

TrialResult run_engine_trial(Engine& engine, Interactions max_interactions,
                             Recorder* recorder) {
  if (recorder != nullptr) engine.set_recorder(recorder);
  const RunOutcome out = engine.run_until_stable(max_interactions);
  if (recorder != nullptr) {
    recorder->finalize(engine.configuration(),
                       RecordFinish{.stabilized = out.stabilized,
                                    .interactions = out.interactions,
                                    .clamped = out.clamped,
                                    .consensus = out.consensus});
    engine.set_recorder(nullptr);
  }
  TrialResult r;
  r.stabilized = out.stabilized;
  r.interactions = out.interactions;
  r.clamped = out.clamped;
  r.parallel_time = engine.parallel_time();
  r.winner = out.consensus;
  return r;
}

}  // namespace ppsim
