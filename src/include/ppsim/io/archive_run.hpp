// One-call drivers tying the pieces of the recording pipeline together:
// Engine + Recorder + TrajectorySink. `record_run` simulates while streaming
// an archive to disk; `resume_run` re-opens a (possibly torn) archive,
// restores the last checkpoint into a fresh engine, and regenerates the rest
// of the run — byte-for-byte identical to what an uninterrupted run would
// have written, because checkpoints cut the stream at block boundaries and
// every draw after a checkpoint is a deterministic function of its state.
#pragma once

#include <optional>
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
  Interactions record_stride = 0;    ///< 0 = max(1, population / 10)
  Interactions checkpoint_every = 0; ///< 0 = no checkpoints
  Interactions round_divisor = 16;   ///< batched-engine knob
  double tau_epsilon = 0.05;         ///< collapsed-engine knob
};

/// Header for a run of `spec` (strides must already be resolved).
TrajectoryHeader make_header(const ArchiveRunSpec& spec, Count population,
                             std::size_t num_states,
                             const std::vector<std::string>& channels);

/// Rebuilds the spec a header was written from — how resume knows the
/// engine kind, seed, strides and budget without any side channel.
ArchiveRunSpec spec_from_header(const TrajectoryHeader& header);

/// Bundles writer + sink + configured recorder for callers that drive the
/// engine themselves (benches measuring custom observables while archiving):
/// construct, engine.set_recorder(&recorder()), run, finalize().
/// `spec.record_stride` must be resolved (> 0).
class ArchiveRecorder {
 public:
  ArchiveRecorder(const ArchiveRunSpec& spec, Count population,
                  std::size_t num_states, const ArchiveChannels& channels,
                  const std::string& path);

  Recorder& recorder() noexcept { return recorder_; }
  void finalize(const Configuration& config, const RecordFinish& fin) {
    recorder_.finalize(config, fin);
  }

 private:
  TrajectoryWriter writer_;
  TrajectorySink sink_;
  Recorder recorder_;
};

/// Runs `protocol` from `initial` under `spec`, archiving to `path`
/// (created/overwritten). Returns the run outcome.
RunOutcome record_run(const Protocol& protocol, const Configuration& initial,
                      const ArchiveChannels& channels, const ArchiveRunSpec& spec,
                      const std::string& path);

/// Continues an interrupted archive at `path`: truncates its torn tail,
/// restores the last checkpoint (or restarts, if none survived) and runs to
/// completion. `protocol`, `initial` and `channels` must match the original
/// call — the header pins population, state count and channel names, and
/// mismatches throw. Returns nullopt when the archive is already finished.
std::optional<RunOutcome> resume_run(const Protocol& protocol,
                                     const Configuration& initial,
                                     const ArchiveChannels& channels,
                                     const std::string& path);

}  // namespace ppsim::io
