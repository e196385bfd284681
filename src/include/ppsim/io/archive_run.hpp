// Ties the recording pipeline together for a caller that drives its own
// engine: a Recorder whose channels stream through a TrajectorySink into a
// TrajectoryWriter. perfbench's sweep workload archives trial 0 of each cell
// through it.
#pragma once

#include <string>
#include <vector>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/io/trajectory.hpp"

namespace ppsim::io {

/// A named set of recorder projections — the schema of an archive.
struct ArchiveChannels {
  std::vector<std::string> names;
  std::vector<Recorder::Projection> projections;
};

/// The standard USD observables (protocols/usd.hpp), and the columns of
/// ppsim_run --series: undecided u(t), majority x_1(t), delta_max Δ(t),
/// survivors. `k` ≥ 1 is the number of opinions.
ArchiveChannels usd_archive_channels(std::size_t k);

/// Everything that determines a recorded run (the header is built from it).
struct ArchiveRunSpec {
  EngineKind engine = EngineKind::kCollapsed;
  std::string protocol_name;         ///< stored in the header verbatim
  std::uint64_t seed = 0;
  Count k = 0;                       ///< opinions (0 = not applicable)
  Interactions max_interactions = 0;
  Interactions record_stride = 0;    ///< sampling stride, > 0
  Interactions checkpoint_every = 0; ///< 0 = no checkpoints
  double tau_epsilon = 0.05;         ///< collapsed-engine knob
};

/// Header for a run of `spec`.
TrajectoryHeader make_header(const ArchiveRunSpec& spec, Count population,
                             std::size_t num_states,
                             const std::vector<std::string>& channels);

/// Bundles writer + sink + configured recorder: construct, then run the
/// engine through run_engine_trial with &recorder(), which finalizes it.
class ArchiveRecorder {
 public:
  ArchiveRecorder(const ArchiveRunSpec& spec, Count population,
                  std::size_t num_states, const ArchiveChannels& channels,
                  const std::string& path);

  Recorder& recorder() noexcept { return recorder_; }

 private:
  TrajectoryWriter writer_;
  TrajectorySink sink_;
  Recorder recorder_;
};

}  // namespace ppsim::io
