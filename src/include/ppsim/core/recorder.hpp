// Time-series recording for simulation runs.
//
// A Recorder owns a set of named channels, each a projection of the current
// configuration (plus the interaction counter) to a double. Engines call
// `maybe_sample` after every interaction (or round); the recorder keeps one
// sample per `stride` interactions — the sampling lattice 0, stride,
// 2·stride, … — which is how the Figure 1 benches obtain the series the
// paper plots without paying per-step overhead.
//
// The Recorder is the *when* of recording; RecordSink (core/record_sink.hpp)
// is the *where*. By default samples accumulate in a built-in MemorySink
// (the historical in-memory TimeSeries, still reachable via series() /
// take_series()); additional sinks — e.g. the on-disk trajectory archive of
// io/trajectory.hpp — fan out from the same projection evaluations. With a
// checkpoint stride configured, engines driven through set_recorder also
// deliver periodic EngineCheckpoint snapshots to the sinks.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/record_sink.hpp"
#include "ppsim/core/types.hpp"

namespace ppsim {

class Recorder {
 public:
  using Projection = std::function<double(const Configuration&, Interactions)>;

  /// Samples once every `stride` interactions (the sample at interaction 0
  /// is always taken).
  explicit Recorder(Interactions stride);

  /// Channel names are validated (validate_channel_name) so a stray tab or
  /// newline can never corrupt a TSV table or an archive header.
  void add_channel(std::string name, Projection projection);

  /// Attaches an additional destination (not owned; must outlive the
  /// recorder). Must be called before the first sample.
  void add_sink(RecordSink& sink);

  /// Disables the built-in MemorySink for pure-streaming runs, so an
  /// n = 10¹¹ archive job does not also grow an in-memory series.
  void set_keep_series(bool keep);

  /// Asks engines to deliver an EngineCheckpoint every `stride` interactions
  /// (0 = never, the default). Like samples, checkpoints live on a lattice:
  /// stride, 2·stride, … — an engine observing past a lattice point emits
  /// one checkpoint and the lattice advances by whole strides.
  void set_checkpoint_stride(Interactions stride);

  /// Called by engines after each interaction/round; cheap when not sampling.
  void maybe_sample(const Configuration& config, Interactions interactions) {
    if (interactions >= next_sample_) sample(config, interactions);
  }

  /// Forces a sample now (used to capture the final configuration).
  void sample(const Configuration& config, Interactions interactions);

  /// True iff an engine observing `interactions` should deliver a
  /// checkpoint via record_checkpoint.
  bool checkpoint_due(Interactions interactions) const noexcept {
    return checkpoint_stride_ > 0 && interactions >= next_checkpoint_;
  }

  /// Forwards an engine snapshot to every sink (stamping last_sample) and
  /// advances the checkpoint lattice.
  void record_checkpoint(EngineCheckpoint state);

  /// Ends a recorded run: forces a final sample (skipped when one already
  /// exists at exactly fin.interactions) and calls finish() on every sink.
  void finalize(const Configuration& config, const RecordFinish& fin);

  TimeSeries take_series() &&;
  const TimeSeries& series() const noexcept { return memory_.series(); }
  Interactions stride() const noexcept { return stride_; }
  /// Interaction count of the most recent sample (-1 before the first).
  Interactions last_sample() const noexcept { return last_sample_; }

 private:
  /// Announces the locked channel list to every sink before the first sample.
  void ensure_open();

  Interactions stride_;
  Interactions next_sample_ = 0;
  Interactions checkpoint_stride_ = 0;
  Interactions next_checkpoint_ = 0;
  Interactions last_sample_ = -1;
  bool keep_series_ = true;
  bool opened_ = false;
  std::vector<std::string> channel_names_;
  std::vector<Projection> projections_;
  std::vector<double> scratch_;
  MemorySink memory_;
  std::vector<RecordSink*> sinks_;
};

}  // namespace ppsim
