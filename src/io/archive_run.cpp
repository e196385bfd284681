#include "ppsim/io/archive_run.hpp"

#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim::io {

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

}  // namespace ppsim::io
