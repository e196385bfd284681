// Destinations for recorded simulation data.
//
// The Recorder (core/recorder.hpp) decides *when* to observe a run — strided
// samples, periodic engine checkpoints, a final record. RecordSink is the
// *where*: an interface every destination implements, so the same run can
// stream to an in-memory series (MemorySink, the historical behavior), an
// on-disk trajectory archive (io/trajectory.hpp TrajectorySink), or both at
// once. Sinks receive fully evaluated channel values — projections run once
// per sample regardless of fan-out.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "ppsim/core/types.hpp"

namespace ppsim {

/// A recorded multi-channel time series.
struct TimeSeries {
  std::vector<std::string> channel_names;
  std::vector<double> parallel_time;            ///< sample times (interactions / n)
  std::vector<std::vector<double>> channels;    ///< channels[c][sample]

  std::size_t num_samples() const noexcept { return parallel_time.size(); }

  /// Writes "time <tab> ch0 <tab> ch1 ..." rows with a header line.
  void write_tsv(std::ostream& os) const;
};

/// Full mutable state of a simulation engine at one instant: the counts
/// vector (the PairSampler and the collapsed engine's pair caches are
/// deterministic functions of it), the 256-bit RNG state, and the
/// interaction clock. Archives store it in their checkpoint records.
struct EngineCheckpoint {
  std::vector<Count> counts;
  std::array<std::uint64_t, 4> rng_state{};
  Interactions interactions = 0;
  Interactions clamped = 0;            ///< τ-leaping overdraw so far
  /// Interaction count of the most recent sample (-1 if none yet). Filled in
  /// by the Recorder.
  Interactions last_sample = -1;
};

/// Terminal summary delivered to every sink exactly once, at the end of a
/// recorded run.
struct RecordFinish {
  bool stabilized = false;
  Interactions interactions = 0;
  Interactions clamped = 0;
  std::optional<Opinion> consensus;
};

/// Channel names become TSV column headers and archive metadata; embedded
/// separators or newlines would corrupt both. Throws CheckFailure on an
/// empty name or one containing '\t', '\n' or '\r'.
void validate_channel_name(const std::string& name);

class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Called once, before the first sample, with the final channel list.
  virtual void open(const std::vector<std::string>& channel_names) {
    (void)channel_names;
  }

  /// One strided observation: `values[c]` is channel c evaluated at
  /// `interactions` attempted interactions (`time` = interactions / n).
  virtual void sample(Interactions interactions, double time,
                      const std::vector<double>& values) = 0;

  /// Periodic full-engine snapshot (only emitted when a checkpoint stride is
  /// configured on the Recorder). Default: ignore.
  virtual void checkpoint(const EngineCheckpoint& state) { (void)state; }

  /// End of run. Default: ignore.
  virtual void finish(const RecordFinish& fin) { (void)fin; }
};

/// The drop-in equivalent of the pre-sink Recorder: accumulates every sample
/// into a TimeSeries in memory.
class MemorySink final : public RecordSink {
 public:
  void open(const std::vector<std::string>& channel_names) override;
  void sample(Interactions interactions, double time,
              const std::vector<double>& values) override;

  const TimeSeries& series() const noexcept { return series_; }
  TimeSeries take_series() && { return std::move(series_); }

 private:
  TimeSeries series_;
};

}  // namespace ppsim
