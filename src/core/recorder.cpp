#include "ppsim/core/recorder.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

Recorder::Recorder(Interactions stride) : stride_(stride) {
  PPSIM_CHECK(stride > 0, "recorder stride must be positive");
}

void Recorder::add_channel(std::string name, Projection projection) {
  PPSIM_CHECK(!opened_, "channels must be added before the first sample");
  validate_channel_name(name);
  channel_names_.push_back(std::move(name));
  projections_.push_back(std::move(projection));
}

void Recorder::add_sink(RecordSink& sink) {
  PPSIM_CHECK(!opened_, "sinks must be attached before the first sample");
  sinks_.push_back(&sink);
}

void Recorder::set_keep_series(bool keep) {
  PPSIM_CHECK(!opened_, "set_keep_series must precede the first sample");
  keep_series_ = keep;
}

void Recorder::set_checkpoint_stride(Interactions stride) {
  PPSIM_CHECK(stride >= 0, "checkpoint stride must be non-negative");
  checkpoint_stride_ = stride;
  next_checkpoint_ = stride;
}

void Recorder::ensure_open() {
  if (opened_) return;
  opened_ = true;
  if (keep_series_) memory_.open(channel_names_);
  for (auto* sink : sinks_) sink->open(channel_names_);
}

void Recorder::sample(const Configuration& config, Interactions interactions) {
  ensure_open();
  scratch_.clear();
  for (auto& projection : projections_) {
    scratch_.push_back(projection(config, interactions));
  }
  const double time = parallel_time(interactions, config.population());
  if (keep_series_) memory_.sample(interactions, time, scratch_);
  for (auto* sink : sinks_) sink->sample(interactions, time, scratch_);
  last_sample_ = interactions;
  // Advance by whole strides so the sampling lattice never drifts: a
  // collapsed round that overshoots a lattice point yields one (late)
  // sample, and the next sample is still due at the next lattice point —
  // not at overshoot + stride.
  while (next_sample_ <= interactions) next_sample_ += stride_;
}

void Recorder::record_checkpoint(EngineCheckpoint state) {
  ensure_open();
  state.last_sample = last_sample_;
  for (auto* sink : sinks_) sink->checkpoint(state);
  while (next_checkpoint_ <= state.interactions) {
    next_checkpoint_ += checkpoint_stride_;
  }
}

void Recorder::finalize(const Configuration& config, const RecordFinish& fin) {
  if (fin.interactions != last_sample_) {
    sample(config, fin.interactions);
  } else {
    ensure_open();
  }
  for (auto* sink : sinks_) sink->finish(fin);
}

TimeSeries Recorder::take_series() && { return std::move(memory_).take_series(); }

}  // namespace ppsim
