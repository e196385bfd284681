#include "ppsim/io/archive_run.hpp"

#include <algorithm>

#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim::io {

namespace {

/// The shared engine-drive loop behind record_run and resume_run. The writer
/// is positioned either at a fresh header (checkpoint == nullopt) or right
/// after the last surviving checkpoint record.
RunOutcome drive(const Protocol& protocol, const Configuration& initial,
                 const ArchiveChannels& channels, const ArchiveRunSpec& spec,
                 TrajectoryWriter& writer,
                 const std::optional<EngineCheckpoint>& checkpoint) {
  PPSIM_CHECK(channels.names.size() == channels.projections.size(),
              "archive channels: one projection per name");
  PPSIM_CHECK(spec.record_stride > 0, "archive record stride must be resolved");

  Engine engine(spec.engine, protocol, initial, spec.seed,
                {.tau_epsilon = spec.tau_epsilon}, spec.round_divisor);

  Recorder recorder(spec.record_stride);
  recorder.set_keep_series(false);  // archives stream; no in-memory copy
  for (std::size_t c = 0; c < channels.names.size(); ++c) {
    recorder.add_channel(channels.names[c], channels.projections[c]);
  }
  if (spec.checkpoint_every > 0) {
    recorder.set_checkpoint_stride(spec.checkpoint_every);
  }
  TrajectorySink sink(writer);
  recorder.add_sink(sink);

  if (checkpoint.has_value()) {
    engine.restore_checkpoint(*checkpoint);
    recorder.resume_at(*checkpoint);
  }
  engine.set_recorder(&recorder);
  if (!checkpoint.has_value()) {
    // Archive the initial configuration: engines only observe after their
    // first step, so without this the t = 0 point would never be stored.
    recorder.sample(engine.configuration(), 0);
  }
  const RunOutcome out = engine.run_until_stable(spec.max_interactions);
  recorder.finalize(engine.configuration(),
                    RecordFinish{.stabilized = out.stabilized,
                                 .interactions = out.interactions,
                                 .clamped = out.clamped,
                                 .consensus = out.consensus});
  engine.set_recorder(nullptr);
  return out;
}

}  // namespace

ArchiveChannels usd_archive_channels(std::size_t k) {
  PPSIM_CHECK(k >= 1, "USD needs at least one opinion");
  ArchiveChannels channels;
  channels.names = {"undecided", "majority", "delta_max", "survivors"};
  channels.projections = {
      [](const Configuration& c, Interactions) {
        return static_cast<double>(undecided_count(c));
      },
      [](const Configuration& c, Interactions) {
        return static_cast<double>(opinion_count(c, 0));
      },
      [](const Configuration& c, Interactions) {
        return static_cast<double>(delta_max(c));
      },
      [](const Configuration& c, Interactions) {
        return static_cast<double>(surviving_opinions(c));
      },
  };
  return channels;
}

TrajectoryHeader make_header(const ArchiveRunSpec& spec, Count population,
                             std::size_t num_states,
                             const std::vector<std::string>& channels) {
  TrajectoryHeader header;
  header.engine = to_string(spec.engine);
  header.protocol = spec.protocol_name;
  header.seed = spec.seed;
  header.population = population;
  header.k = spec.k;
  header.num_states = num_states;
  header.stride = spec.record_stride;
  header.checkpoint_every = spec.checkpoint_every;
  header.max_interactions = spec.max_interactions;
  header.tau_epsilon = spec.tau_epsilon;
  header.round_divisor = spec.round_divisor;
  header.channels = channels;
  return header;
}

ArchiveRunSpec spec_from_header(const TrajectoryHeader& header) {
  ArchiveRunSpec spec;
  const auto kind = parse_engine(header.engine);
  PPSIM_CHECK(kind.has_value(), "archive header names an unknown engine: " +
                                    header.engine);
  spec.engine = *kind;
  spec.protocol_name = header.protocol;
  spec.seed = header.seed;
  spec.k = header.k;
  spec.max_interactions = header.max_interactions;
  spec.record_stride = header.stride;
  spec.checkpoint_every = header.checkpoint_every;
  spec.round_divisor = header.round_divisor;
  spec.tau_epsilon = header.tau_epsilon;
  return spec;
}

ArchiveRecorder::ArchiveRecorder(const ArchiveRunSpec& spec, Count population,
                                 std::size_t num_states,
                                 const ArchiveChannels& channels,
                                 const std::string& path)
    : writer_(path, make_header(spec, population, num_states, channels.names)),
      sink_(writer_),
      recorder_(spec.record_stride) {
  PPSIM_CHECK(channels.names.size() == channels.projections.size(),
              "archive channels: one projection per name");
  recorder_.set_keep_series(false);
  for (std::size_t c = 0; c < channels.names.size(); ++c) {
    recorder_.add_channel(channels.names[c], channels.projections[c]);
  }
  if (spec.checkpoint_every > 0) {
    recorder_.set_checkpoint_stride(spec.checkpoint_every);
  }
  recorder_.add_sink(sink_);
}

RunOutcome record_run(const Protocol& protocol, const Configuration& initial,
                      const ArchiveChannels& channels, const ArchiveRunSpec& spec_in,
                      const std::string& path) {
  ArchiveRunSpec spec = spec_in;
  if (spec.record_stride == 0) {
    spec.record_stride = std::max<Interactions>(1, initial.population() / 10);
  }
  const TrajectoryHeader header =
      make_header(spec, initial.population(), protocol.num_states(), channels.names);
  TrajectoryWriter writer(path, header);
  return drive(protocol, initial, channels, spec, writer, std::nullopt);
}

std::optional<RunOutcome> resume_run(const Protocol& protocol,
                                     const Configuration& initial,
                                     const ArchiveChannels& channels,
                                     const std::string& path) {
  TrajectoryWriter::Resumed resumed = TrajectoryWriter::resume(path);
  if (resumed.finished) return std::nullopt;
  PPSIM_CHECK(resumed.header.channels == channels.names,
              "archive channels do not match the header's: " + path);
  PPSIM_CHECK(initial.population() == resumed.header.population,
              "initial configuration does not match the archive's population");
  PPSIM_CHECK(protocol.num_states() == resumed.header.num_states,
              "protocol state space does not match the archive's");
  const ArchiveRunSpec spec = spec_from_header(resumed.header);
  return drive(protocol, initial, channels, spec, *resumed.writer,
               resumed.checkpoint);
}

}  // namespace ppsim::io
