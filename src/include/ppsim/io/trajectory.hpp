// The on-disk trajectory archive: a chunked columnar format for recorded
// simulation runs, with embedded engine checkpoints. Its only consumer is
// perfbench, which measures writing and reading it back as one layer of a
// sweep.
//
// File layout (all multi-byte integers are varints or little-endian fixed
// words — see io/wire.hpp):
//
//   "PPTRAJ1\n"                                  8-byte magic
//   record*                                      framed records, in order
//
//   record   := u8 type | varint payload_len | payload | fixed64 fnv1a(payload)
//   types    := 1 header | 2 block | 3 checkpoint | 4 end
//
//   header     self-describing run metadata: engine, protocol, seed,
//              population, k, channel names, strides, budget, spec hash,
//              build version. Always the first record.
//   block      up to `block_samples` consecutive samples in columnar form:
//              a summary (sample count, first/last interaction clock,
//              per-channel min/max) readable without decoding the columns,
//              then the interaction-clock column (varint deltas — the clock
//              is monotone) and one column per channel (zigzag-delta varints
//              when every value in the block is integral, raw f64 words
//              otherwise).
//   checkpoint full engine state: interaction clock, clamped count, the
//              recorder's last-sample clock, the 256-bit RNG state, and the
//              counts vector. The writer flushes any pending partial block
//              *before* a checkpoint, so checkpoints always sit on block
//              boundaries.
//   end        terminal summary (stabilized?, final clocks, consensus).
//              An archive without one is an interrupted run.
//
// Torn tails: every record is independently checksummed, so a reader hitting
// a half-written record (the process died mid-write) keeps everything before
// it and reports the tail instead of failing.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ppsim/core/record_sink.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/io/wire.hpp"

namespace ppsim::io {

inline constexpr std::string_view kTrajectoryMagic = "PPTRAJ1\n";
inline constexpr std::uint64_t kTrajectoryFormatVersion = 1;
/// Stamped into every header; bump when the producing code changes in a way
/// that affects archived bytes.
inline constexpr std::string_view kBuildVersion = "ppsim-0.13";

struct TrajectoryHeader {
  std::string engine;                  ///< to_string(EngineKind)
  std::string protocol;                ///< protocol name ("usd", ...)
  std::uint64_t seed = 0;
  Count population = 0;
  Count k = 0;                         ///< opinions (0 = not applicable)
  std::uint64_t num_states = 0;
  Interactions stride = 0;             ///< sampling stride (interactions)
  Interactions checkpoint_every = 0;   ///< checkpoint stride (0 = none)
  Interactions max_interactions = 0;   ///< run budget
  double tau_epsilon = 0.0;            ///< collapsed-engine knob (0 = n/a)
  Interactions round_divisor = 0;      ///< retired fixed-round knob; 0 = n/a
  std::uint64_t spec_hash = 0;         ///< fnv1a over the canonical spec string
  std::string build_version;
  std::vector<std::string> channels;

  /// Canonical hash over everything that determines the run (engine,
  /// protocol, seed, shape, strides, knobs, channels). Writers stamp it.
  std::uint64_t compute_spec_hash() const;
};

/// Terminal record payload.
struct TrajectoryEnd {
  bool stabilized = false;
  Interactions interactions = 0;
  Interactions clamped = 0;
  std::optional<Opinion> consensus;
};

/// Per-block metadata, readable without decoding the block's columns.
struct BlockSummary {
  std::uint64_t num_samples = 0;
  Interactions first_interactions = 0;
  Interactions last_interactions = 0;
  std::vector<double> min;  ///< per channel
  std::vector<double> max;  ///< per channel
};

class TrajectoryWriter {
 public:
  struct Options {
    /// Samples per column block. Checkpoints cut blocks early (by design);
    /// this caps how much an unflushed tail can lose on a crash.
    std::size_t block_samples = 256;
  };

  /// Creates/overwrites `path` and writes the magic + header record.
  /// The header's spec_hash and build_version are stamped here.
  TrajectoryWriter(const std::string& path, TrajectoryHeader header);
  TrajectoryWriter(const std::string& path, TrajectoryHeader header,
                   Options options);
  ~TrajectoryWriter();

  TrajectoryWriter(const TrajectoryWriter&) = delete;
  TrajectoryWriter& operator=(const TrajectoryWriter&) = delete;

  const TrajectoryHeader& header() const noexcept { return header_; }

  /// Appends one sample (values.size() must equal the header's channel
  /// count). Flushes a block every Options::block_samples samples.
  void sample(Interactions interactions, const std::vector<double>& values);

  /// Flushes the pending block, then writes a checkpoint record.
  void checkpoint(const EngineCheckpoint& state);

  /// Flushes the pending block, writes the end record, and closes. No
  /// further writes are allowed.
  void finish(const TrajectoryEnd& end);

 private:
  void write_record(std::uint8_t type, const Bytes& payload);
  void flush_block();

  std::ofstream out_;
  std::string path_;
  TrajectoryHeader header_;
  Options options_;
  bool finished_ = false;
  std::vector<Interactions> pending_clock_;
  std::vector<std::vector<double>> pending_values_;  // [channel][sample]
};

/// RecordSink adapter: plugs a TrajectoryWriter into a Recorder, so the same
/// run can stream to disk and to the in-memory series at once.
class TrajectorySink final : public RecordSink {
 public:
  /// The writer must outlive the sink; open() validates the recorder's
  /// channel list against the archive header's.
  explicit TrajectorySink(TrajectoryWriter& writer) : writer_(writer) {}

  void open(const std::vector<std::string>& channel_names) override;
  void sample(Interactions interactions, double time,
              const std::vector<double>& values) override;
  void checkpoint(const EngineCheckpoint& state) override;
  void finish(const RecordFinish& fin) override;

 private:
  TrajectoryWriter& writer_;
};

class TrajectoryReader {
 public:
  struct BlockData {
    std::vector<Interactions> interactions;
    std::vector<std::vector<double>> values;  ///< [channel][sample]
  };

  /// Loads and indexes `path`. Throws CheckFailure when the file is not a
  /// trajectory archive at all (missing/short magic, torn or corrupt header
  /// record); any later corruption is reported via torn_tail() instead.
  explicit TrajectoryReader(const std::string& path);

  const TrajectoryHeader& header() const noexcept { return header_; }

  std::size_t num_blocks() const noexcept { return blocks_.size(); }
  const BlockSummary& block(std::size_t i) const { return blocks_.at(i).summary; }
  /// Decodes block i's columns (lazy: summaries alone never touch these
  /// bytes). Throws CheckFailure on a block whose checksummed payload is
  /// semantically inconsistent.
  BlockData decode_block(std::size_t i) const;

  const std::vector<EngineCheckpoint>& checkpoints() const noexcept {
    return checkpoints_;
  }

  std::optional<TrajectoryEnd> end() const noexcept { return end_; }
  bool finished() const noexcept { return end_.has_value(); }

  /// True iff the file ended inside a record (or carried trailing bytes
  /// after the end record): everything before torn_offset() parsed clean.
  bool torn_tail() const noexcept { return torn_; }
  std::size_t torn_offset() const noexcept { return torn_offset_; }

  std::size_t total_samples() const noexcept;

 private:
  struct IndexedBlock {
    BlockSummary summary;
    std::size_t payload_offset = 0;  ///< into bytes_
    std::size_t payload_size = 0;
  };

  void parse();

  std::vector<std::uint8_t> bytes_;
  TrajectoryHeader header_;
  std::vector<IndexedBlock> blocks_;
  std::vector<EngineCheckpoint> checkpoints_;
  std::optional<TrajectoryEnd> end_;
  bool torn_ = false;
  std::size_t torn_offset_ = 0;
};

}  // namespace ppsim::io
