#include "ppsim/io/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>

#include "ppsim/util/check.hpp"

namespace ppsim::io {

namespace {

constexpr std::uint8_t kHeaderRecord = 1;
constexpr std::uint8_t kBlockRecord = 2;
constexpr std::uint8_t kCheckpointRecord = 3;
constexpr std::uint8_t kEndRecord = 4;

// Counts are capped at 2^53 (CollapsedSimulator::kMaxPopulation); any count
// or clock beyond int64 range in a checksummed record means real corruption.
bool fits_interactions(std::uint64_t v) {
  return v <= static_cast<std::uint64_t>(std::numeric_limits<Interactions>::max());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

Bytes encode_header(const TrajectoryHeader& h) {
  Bytes b;
  put_varint(b, kTrajectoryFormatVersion);
  put_string(b, h.engine);
  put_string(b, h.protocol);
  put_fixed64(b, h.seed);
  put_varint(b, static_cast<std::uint64_t>(h.population));
  put_varint(b, static_cast<std::uint64_t>(h.k));
  put_varint(b, h.num_states);
  put_varint(b, static_cast<std::uint64_t>(h.stride));
  put_varint(b, static_cast<std::uint64_t>(h.checkpoint_every));
  put_varint(b, static_cast<std::uint64_t>(h.max_interactions));
  put_f64(b, h.tau_epsilon);
  put_varint(b, static_cast<std::uint64_t>(h.round_divisor));
  put_fixed64(b, h.spec_hash);
  put_string(b, h.build_version);
  put_varint(b, h.channels.size());
  for (const auto& name : h.channels) put_string(b, name);
  return b;
}

// Strict header decode: the reader constructor throws on any inconsistency
// (an archive without a sound header carries no usable data).
TrajectoryHeader decode_header(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  const std::uint64_t version = r.varint();
  PPSIM_CHECK(r.ok() && version == kTrajectoryFormatVersion,
              "unsupported trajectory format version");
  TrajectoryHeader h;
  h.engine = r.string();
  h.protocol = r.string();
  h.seed = r.fixed64();
  const std::uint64_t population = r.varint();
  const std::uint64_t k = r.varint();
  h.num_states = r.varint();
  const std::uint64_t stride = r.varint();
  const std::uint64_t checkpoint_every = r.varint();
  const std::uint64_t max_interactions = r.varint();
  h.tau_epsilon = r.f64();
  const std::uint64_t round_divisor = r.varint();
  h.spec_hash = r.fixed64();
  h.build_version = r.string();
  const std::uint64_t num_channels = r.varint();
  PPSIM_CHECK(r.ok() && num_channels <= size,
              "trajectory header is malformed");
  h.channels.reserve(num_channels);
  for (std::uint64_t i = 0; i < num_channels; ++i) {
    h.channels.push_back(r.string());
  }
  PPSIM_CHECK(r.ok() && r.at_end(), "trajectory header is malformed");
  PPSIM_CHECK(fits_interactions(population) && fits_interactions(k) &&
                  fits_interactions(stride) && fits_interactions(checkpoint_every) &&
                  fits_interactions(max_interactions) &&
                  fits_interactions(round_divisor),
              "trajectory header field out of range");
  h.population = static_cast<Count>(population);
  h.k = static_cast<Count>(k);
  h.stride = static_cast<Interactions>(stride);
  h.checkpoint_every = static_cast<Interactions>(checkpoint_every);
  h.max_interactions = static_cast<Interactions>(max_interactions);
  h.round_divisor = static_cast<Interactions>(round_divisor);
  PPSIM_CHECK(h.population >= 2, "trajectory header: population must be >= 2");
  PPSIM_CHECK(h.num_states >= 1, "trajectory header: empty state space");
  PPSIM_CHECK(h.stride > 0, "trajectory header: sampling stride must be positive");
  for (const auto& name : h.channels) validate_channel_name(name);
  return h;
}

Bytes encode_checkpoint(const EngineCheckpoint& cp) {
  Bytes b;
  put_varint(b, static_cast<std::uint64_t>(cp.interactions));
  put_varint(b, static_cast<std::uint64_t>(cp.clamped));
  put_svarint(b, cp.last_sample);
  for (const std::uint64_t w : cp.rng_state) put_fixed64(b, w);
  put_varint(b, cp.counts.size());
  for (const Count c : cp.counts) put_varint(b, static_cast<std::uint64_t>(c));
  return b;
}

// Tolerant checkpoint decode used while indexing: nullopt means the record
// (although checksummed) is semantically unusable — the parse stops there.
std::optional<EngineCheckpoint> decode_checkpoint(const std::uint8_t* data,
                                                  std::size_t size,
                                                  std::uint64_t num_states) {
  ByteReader r(data, size);
  EngineCheckpoint cp;
  const std::uint64_t interactions = r.varint();
  const std::uint64_t clamped = r.varint();
  cp.last_sample = r.svarint();
  for (auto& w : cp.rng_state) w = r.fixed64();
  const std::uint64_t n_counts = r.varint();
  if (!r.ok() || n_counts != num_states || !fits_interactions(interactions) ||
      !fits_interactions(clamped)) {
    return std::nullopt;
  }
  cp.interactions = static_cast<Interactions>(interactions);
  cp.clamped = static_cast<Interactions>(clamped);
  cp.counts.reserve(n_counts);
  for (std::uint64_t i = 0; i < n_counts; ++i) {
    const std::uint64_t c = r.varint();
    if (c > (std::uint64_t{1} << 53)) return std::nullopt;
    cp.counts.push_back(static_cast<Count>(c));
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  if ((cp.rng_state[0] | cp.rng_state[1] | cp.rng_state[2] | cp.rng_state[3]) == 0) {
    return std::nullopt;  // xoshiro's forbidden all-zero state
  }
  if (cp.last_sample < -1 || cp.last_sample > cp.interactions) return std::nullopt;
  return cp;
}

Bytes encode_end(const TrajectoryEnd& end) {
  Bytes b;
  put_u8(b, end.stabilized ? 1 : 0);
  put_varint(b, static_cast<std::uint64_t>(end.interactions));
  put_varint(b, static_cast<std::uint64_t>(end.clamped));
  put_varint(b, end.consensus.has_value()
                    ? static_cast<std::uint64_t>(*end.consensus) + 1
                    : 0);
  return b;
}

std::optional<TrajectoryEnd> decode_end(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  TrajectoryEnd end;
  const std::uint8_t stabilized = r.u8();
  const std::uint64_t interactions = r.varint();
  const std::uint64_t clamped = r.varint();
  const std::uint64_t consensus = r.varint();
  if (!r.ok() || !r.at_end() || stabilized > 1 || !fits_interactions(interactions) ||
      !fits_interactions(clamped)) {
    return std::nullopt;
  }
  end.stabilized = stabilized == 1;
  end.interactions = static_cast<Interactions>(interactions);
  end.clamped = static_cast<Interactions>(clamped);
  if (consensus > 0) {
    if (consensus - 1 > std::numeric_limits<Opinion>::max()) return std::nullopt;
    end.consensus = static_cast<Opinion>(consensus - 1);
  }
  return end;
}

// True when every value in the column is an exactly representable integer,
// i.e. zigzag-delta coding is lossless for it. Counts (≤ 2^53) always are.
bool integral_column(const std::vector<double>& column) {
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  for (const double v : column) {
    if (!std::isfinite(v) || v < -kLimit || v > kLimit || v != std::trunc(v)) {
      return false;
    }
  }
  return true;
}

Bytes encode_block(const std::vector<Interactions>& clock,
                   const std::vector<std::vector<double>>& values) {
  Bytes summary;
  put_varint(summary, static_cast<std::uint64_t>(clock.front()));
  put_varint(summary, static_cast<std::uint64_t>(clock.back()));
  for (const auto& column : values) {
    const auto [lo, hi] = std::minmax_element(column.begin(), column.end());
    put_f64(summary, *lo);
    put_f64(summary, *hi);
  }

  Bytes b;
  put_varint(b, clock.size());
  put_varint(b, summary.size());
  b.insert(b.end(), summary.begin(), summary.end());

  // Interaction-clock column: the clock is monotone, so deltas are
  // non-negative and stay unsigned varints.
  put_varint(b, static_cast<std::uint64_t>(clock.front()));
  for (std::size_t j = 1; j < clock.size(); ++j) {
    put_varint(b, static_cast<std::uint64_t>(clock[j] - clock[j - 1]));
  }

  for (const auto& column : values) {
    if (integral_column(column)) {
      put_u8(b, 1);
      std::int64_t prev = 0;
      for (std::size_t j = 0; j < column.size(); ++j) {
        const auto v = static_cast<std::int64_t>(column[j]);
        put_svarint(b, j == 0 ? v : v - prev);
        prev = v;
      }
    } else {
      put_u8(b, 0);
      for (const double v : column) put_f64(b, v);
    }
  }
  return b;
}

// Tolerant summary decode used while indexing (columns stay untouched).
std::optional<BlockSummary> decode_block_summary(const std::uint8_t* data,
                                                 std::size_t size,
                                                 std::size_t num_channels) {
  ByteReader r(data, size);
  BlockSummary s;
  s.num_samples = r.varint();
  const std::uint64_t summary_len = r.varint();
  if (!r.ok() || s.num_samples == 0 || s.num_samples > size ||
      summary_len > r.remaining()) {
    return std::nullopt;
  }
  const std::uint64_t first = r.varint();
  const std::uint64_t last = r.varint();
  if (!r.ok() || !fits_interactions(first) || !fits_interactions(last) ||
      first > last) {
    return std::nullopt;
  }
  s.first_interactions = static_cast<Interactions>(first);
  s.last_interactions = static_cast<Interactions>(last);
  s.min.reserve(num_channels);
  s.max.reserve(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) {
    s.min.push_back(r.f64());
    s.max.push_back(r.f64());
  }
  if (!r.ok()) return std::nullopt;
  return s;
}

struct RawRecord {
  std::uint8_t type = 0;
  std::size_t payload_offset = 0;
  std::size_t payload_size = 0;
  std::size_t end_offset = 0;
};

// Frames one record at `pos`: nullopt when the bytes there are not a
// complete, checksummed record (the torn-tail case).
std::optional<RawRecord> parse_frame(const std::vector<std::uint8_t>& bytes,
                                     std::size_t pos) {
  ByteReader r(bytes.data() + pos, bytes.size() - pos);
  const std::uint8_t type = r.u8();
  const std::uint64_t len = r.varint();
  if (!r.ok() || type < kHeaderRecord || type > kEndRecord) return std::nullopt;
  if (len > r.remaining() || r.remaining() - len < 8) return std::nullopt;
  RawRecord rec;
  rec.type = type;
  rec.payload_offset = pos + r.pos();
  rec.payload_size = static_cast<std::size_t>(len);
  ByteReader tail(bytes.data() + rec.payload_offset + rec.payload_size, 8);
  if (fnv1a(bytes.data() + rec.payload_offset, rec.payload_size) != tail.fixed64()) {
    return std::nullopt;
  }
  rec.end_offset = rec.payload_offset + rec.payload_size + 8;
  return rec;
}

}  // namespace

std::uint64_t TrajectoryHeader::compute_spec_hash() const {
  std::string canon = engine;
  canon += '|';
  canon += protocol;
  canon += '|';
  canon += hex64(seed);
  canon += '|';
  canon += std::to_string(population);
  canon += '|';
  canon += std::to_string(k);
  canon += '|';
  canon += std::to_string(num_states);
  canon += '|';
  canon += std::to_string(stride);
  canon += '|';
  canon += std::to_string(checkpoint_every);
  canon += '|';
  canon += std::to_string(max_interactions);
  canon += '|';
  canon += hex64(std::bit_cast<std::uint64_t>(tau_epsilon));
  canon += '|';
  canon += std::to_string(round_divisor);
  for (const auto& name : channels) {
    canon += '|';
    canon += name;
  }
  return fnv1a(std::string_view{canon});
}

// ---------------------------------------------------------------- writer --

TrajectoryWriter::TrajectoryWriter(const std::string& path, TrajectoryHeader header)
    : TrajectoryWriter(path, std::move(header), Options{}) {}

TrajectoryWriter::TrajectoryWriter(const std::string& path,
                                   TrajectoryHeader header, Options options)
    : path_(path), header_(std::move(header)), options_(options) {
  PPSIM_CHECK(options_.block_samples > 0, "block size must be positive");
  PPSIM_CHECK(header_.population >= 2, "trajectory header: population must be >= 2");
  PPSIM_CHECK(header_.num_states >= 1, "trajectory header: empty state space");
  PPSIM_CHECK(header_.stride > 0, "trajectory header: sampling stride must be positive");
  for (const auto& name : header_.channels) validate_channel_name(name);
  header_.build_version = std::string(kBuildVersion);
  header_.spec_hash = header_.compute_spec_hash();
  out_.open(path, std::ios::binary | std::ios::trunc);
  PPSIM_CHECK(out_.good(), "cannot open trajectory for writing: " + path);
  out_.write(kTrajectoryMagic.data(),
             static_cast<std::streamsize>(kTrajectoryMagic.size()));
  write_record(kHeaderRecord, encode_header(header_));
  pending_values_.resize(header_.channels.size());
}

TrajectoryWriter::TrajectoryWriter(AppendTag, const std::string& path,
                                   TrajectoryHeader header, Options options)
    : path_(path), header_(std::move(header)), options_(options) {
  PPSIM_CHECK(options_.block_samples > 0, "block size must be positive");
  out_.open(path, std::ios::binary | std::ios::app);
  PPSIM_CHECK(out_.good(), "cannot open trajectory for appending: " + path);
  pending_values_.resize(header_.channels.size());
}

TrajectoryWriter::~TrajectoryWriter() {
  // Deliberately no flush of the pending partial block: an unfinished writer
  // mirrors a killed process, and resume regenerates the tail bit-for-bit.
  if (out_.is_open()) out_.close();
}

void TrajectoryWriter::write_record(std::uint8_t type, const Bytes& payload) {
  Bytes frame;
  frame.reserve(payload.size() + 18);
  put_u8(frame, type);
  put_varint(frame, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  put_fixed64(frame, fnv1a(payload));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  PPSIM_CHECK(out_.good(), "trajectory write failed: " + path_);
}

void TrajectoryWriter::sample(Interactions interactions,
                              const std::vector<double>& values) {
  PPSIM_CHECK(!finished_, "trajectory is finished: no further samples");
  PPSIM_CHECK(values.size() == header_.channels.size(),
              "sample arity must match the header's channel list");
  PPSIM_CHECK(interactions >= 0, "sample clock must be non-negative");
  PPSIM_CHECK(pending_clock_.empty() || interactions >= pending_clock_.back(),
              "sample clock must be monotone");
  pending_clock_.push_back(interactions);
  for (std::size_t c = 0; c < values.size(); ++c) {
    pending_values_[c].push_back(values[c]);
  }
  if (pending_clock_.size() >= options_.block_samples) flush_block();
}

void TrajectoryWriter::flush_block() {
  if (pending_clock_.empty()) return;
  write_record(kBlockRecord, encode_block(pending_clock_, pending_values_));
  pending_clock_.clear();
  for (auto& column : pending_values_) column.clear();
}

void TrajectoryWriter::checkpoint(const EngineCheckpoint& state) {
  PPSIM_CHECK(!finished_, "trajectory is finished: no further checkpoints");
  PPSIM_CHECK(state.counts.size() == header_.num_states,
              "checkpoint state-space size must match the header's");
  // A checkpoint is a clean cut: everything sampled so far must be on disk,
  // so the byte stream after this point is independent of when (or whether)
  // the process dies — the key to byte-identical resume.
  flush_block();
  write_record(kCheckpointRecord, encode_checkpoint(state));
}

void TrajectoryWriter::finish(const TrajectoryEnd& end) {
  PPSIM_CHECK(!finished_, "trajectory is already finished");
  flush_block();
  write_record(kEndRecord, encode_end(end));
  finished_ = true;
  out_.close();
  PPSIM_CHECK(out_.good(), "trajectory close failed: " + path_);
}

TrajectoryWriter::Resumed TrajectoryWriter::resume(const std::string& path) {
  return resume(path, Options{});
}

TrajectoryWriter::Resumed TrajectoryWriter::resume(const std::string& path,
                                                   Options options) {
  Resumed resumed;
  TrajectoryReader reader(path);
  resumed.header = reader.header();
  PPSIM_CHECK(resumed.header.build_version == kBuildVersion,
              "cannot resume " + path + ": it was written by " +
                  resumed.header.build_version + ", this build is " +
                  std::string(kBuildVersion));
  if (reader.finished()) {
    resumed.finished = true;
    return resumed;
  }
  resumed.checkpoint = reader.last_checkpoint();
  const std::size_t keep = reader.resume_offset();
  std::filesystem::resize_file(path, keep);
  resumed.writer.reset(
      new TrajectoryWriter(AppendTag{}, path, resumed.header, options));
  return resumed;
}

// ------------------------------------------------------------------ sink --

void TrajectorySink::open(const std::vector<std::string>& channel_names) {
  PPSIM_CHECK(channel_names == writer_.header().channels,
              "recorder channels must match the trajectory header's");
}

void TrajectorySink::sample(Interactions interactions, double time,
                            const std::vector<double>& values) {
  (void)time;  // derived on read: interactions / population
  writer_.sample(interactions, values);
}

void TrajectorySink::checkpoint(const EngineCheckpoint& state) {
  writer_.checkpoint(state);
}

void TrajectorySink::finish(const RecordFinish& fin) {
  writer_.finish(TrajectoryEnd{.stabilized = fin.stabilized,
                               .interactions = fin.interactions,
                               .clamped = fin.clamped,
                               .consensus = fin.consensus});
}

// ---------------------------------------------------------------- reader --

TrajectoryReader::TrajectoryReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PPSIM_CHECK(in.good(), "cannot open trajectory: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  bytes_.resize(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes_.data()), size);
  PPSIM_CHECK(in.good() || size == 0, "cannot read trajectory: " + path);
  parse();
}

void TrajectoryReader::parse() {
  PPSIM_CHECK(bytes_.size() >= kTrajectoryMagic.size() &&
                  std::memcmp(bytes_.data(), kTrajectoryMagic.data(),
                              kTrajectoryMagic.size()) == 0,
              "not a ppsim trajectory archive (bad magic)");
  std::size_t pos = kTrajectoryMagic.size();

  const auto header_frame = parse_frame(bytes_, pos);
  PPSIM_CHECK(header_frame.has_value() && header_frame->type == kHeaderRecord,
              "trajectory header record is missing or torn");
  header_ = decode_header(bytes_.data() + header_frame->payload_offset,
                          header_frame->payload_size);
  pos = header_frame->end_offset;
  resume_offset_ = pos;

  while (pos < bytes_.size()) {
    const auto frame = parse_frame(bytes_, pos);
    // A half-written record, trailing garbage, or anything after the end
    // record: keep everything parsed so far, report the tear, stop.
    if (!frame.has_value() || frame->type == kHeaderRecord || end_.has_value()) {
      torn_ = true;
      torn_offset_ = pos;
      return;
    }
    const std::uint8_t* payload = bytes_.data() + frame->payload_offset;
    switch (frame->type) {
      case kBlockRecord: {
        auto summary =
            decode_block_summary(payload, frame->payload_size, header_.channels.size());
        if (!summary.has_value()) {
          torn_ = true;
          torn_offset_ = pos;
          return;
        }
        blocks_.push_back(IndexedBlock{.summary = std::move(*summary),
                                       .payload_offset = frame->payload_offset,
                                       .payload_size = frame->payload_size});
        break;
      }
      case kCheckpointRecord: {
        auto cp = decode_checkpoint(payload, frame->payload_size, header_.num_states);
        if (!cp.has_value()) {
          torn_ = true;
          torn_offset_ = pos;
          return;
        }
        checkpoints_.push_back(std::move(*cp));
        resume_offset_ = frame->end_offset;
        break;
      }
      case kEndRecord: {
        auto end = decode_end(payload, frame->payload_size);
        if (!end.has_value()) {
          torn_ = true;
          torn_offset_ = pos;
          return;
        }
        end_ = *end;
        break;
      }
      default: {
        torn_ = true;
        torn_offset_ = pos;
        return;
      }
    }
    pos = frame->end_offset;
  }
}

TrajectoryReader::BlockData TrajectoryReader::decode_block(std::size_t i) const {
  const IndexedBlock& blk = blocks_.at(i);
  ByteReader r(bytes_.data() + blk.payload_offset, blk.payload_size);
  const std::uint64_t n = r.varint();
  const std::uint64_t summary_len = r.varint();
  PPSIM_CHECK(r.ok() && n == blk.summary.num_samples && n <= blk.payload_size,
              "trajectory block is inconsistent with its summary");
  r.skip(static_cast<std::size_t>(summary_len));

  BlockData data;
  data.interactions.reserve(n);
  const std::uint64_t first = r.varint();
  PPSIM_CHECK(r.ok() && fits_interactions(first),
              "trajectory block clock column is malformed");
  data.interactions.push_back(static_cast<Interactions>(first));
  for (std::uint64_t j = 1; j < n; ++j) {
    const std::uint64_t delta = r.varint();
    const Interactions prev = data.interactions.back();
    PPSIM_CHECK(r.ok() &&
                    delta <= static_cast<std::uint64_t>(
                                 std::numeric_limits<Interactions>::max() - prev),
                "trajectory block clock column is malformed");
    data.interactions.push_back(prev + static_cast<Interactions>(delta));
  }

  data.values.resize(header_.channels.size());
  for (auto& column : data.values) {
    column.reserve(n);
    const std::uint8_t encoding = r.u8();
    PPSIM_CHECK(r.ok() && encoding <= 1,
                "trajectory block has an unknown column encoding");
    if (encoding == 1) {
      std::int64_t value = 0;
      for (std::uint64_t j = 0; j < n; ++j) {
        const std::int64_t delta = r.svarint();
        value = j == 0 ? delta : value + delta;
        column.push_back(static_cast<double>(value));
      }
    } else {
      for (std::uint64_t j = 0; j < n; ++j) column.push_back(r.f64());
    }
  }
  PPSIM_CHECK(r.ok(), "trajectory block columns are truncated");
  PPSIM_CHECK(data.interactions.front() == blk.summary.first_interactions &&
                  data.interactions.back() == blk.summary.last_interactions,
              "trajectory block clock disagrees with its summary");
  return data;
}

std::optional<EngineCheckpoint> TrajectoryReader::last_checkpoint() const {
  if (checkpoints_.empty()) return std::nullopt;
  return checkpoints_.back();
}

std::size_t TrajectoryReader::total_samples() const noexcept {
  std::size_t total = 0;
  for (const auto& blk : blocks_) total += blk.summary.num_samples;
  return total;
}

std::optional<std::size_t> TrajectoryReader::channel_index(
    const std::string& name) const {
  for (std::size_t c = 0; c < header_.channels.size(); ++c) {
    if (header_.channels[c] == name) return c;
  }
  return std::nullopt;
}

TimeSeries TrajectoryReader::to_series(const std::vector<std::string>& channels,
                                       std::size_t every) const {
  PPSIM_CHECK(every >= 1, "downsampling factor must be >= 1");
  std::vector<std::size_t> selected;
  TimeSeries series;
  if (channels.empty()) {
    series.channel_names = header_.channels;
    for (std::size_t c = 0; c < header_.channels.size(); ++c) selected.push_back(c);
  } else {
    for (const auto& name : channels) {
      const auto idx = channel_index(name);
      PPSIM_CHECK(idx.has_value(), "unknown channel in archive: " + name);
      selected.push_back(*idx);
      series.channel_names.push_back(name);
    }
  }
  series.channels.resize(selected.size());
  const auto n = static_cast<double>(header_.population);
  std::size_t global = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const BlockData data = decode_block(i);
    for (std::size_t j = 0; j < data.interactions.size(); ++j, ++global) {
      if (global % every != 0) continue;
      series.parallel_time.push_back(static_cast<double>(data.interactions[j]) / n);
      for (std::size_t s = 0; s < selected.size(); ++s) {
        series.channels[s].push_back(data.values[selected[s]][j]);
      }
    }
  }
  return series;
}

double TrajectoryReader::first_time_at_least(const std::string& channel,
                                             double level) const {
  const auto idx = channel_index(channel);
  PPSIM_CHECK(idx.has_value(), "unknown channel in archive: " + channel);
  const auto n = static_cast<double>(header_.population);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    // The footer's max bounds every sample in the block: a block that never
    // reaches the level is skipped without decoding a single column.
    if (blocks_[i].summary.max[*idx] < level) continue;
    const BlockData data = decode_block(i);
    for (std::size_t j = 0; j < data.interactions.size(); ++j) {
      if (data.values[*idx][j] >= level) {
        return static_cast<double>(data.interactions[j]) / n;
      }
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double TrajectoryReader::channel_max(const std::string& channel) const {
  const auto idx = channel_index(channel);
  PPSIM_CHECK(idx.has_value(), "unknown channel in archive: " + channel);
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const auto& blk : blocks_) {
    const double m = blk.summary.max[*idx];
    if (std::isnan(best) || m > best) best = m;
  }
  return best;
}

double TrajectoryReader::channel_min(const std::string& channel) const {
  const auto idx = channel_index(channel);
  PPSIM_CHECK(idx.has_value(), "unknown channel in archive: " + channel);
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const auto& blk : blocks_) {
    const double m = blk.summary.min[*idx];
    if (std::isnan(best) || m < best) best = m;
  }
  return best;
}

}  // namespace ppsim::io
