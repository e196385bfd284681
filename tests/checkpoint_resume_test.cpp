// Checkpoint/resume: engine state snapshots continue bit-exact, and the
// acceptance pin for the trajectory archive — a recorded run killed at an
// arbitrary byte offset and resumed produces a final archive byte-identical
// to the uninterrupted one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ppsim/analysis/hitting_times.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/io/trajectory.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(size));
}

void expect_same_configuration(const Configuration& a, const Configuration& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  for (State s = 0; s < static_cast<State>(a.num_states()); ++s) {
    EXPECT_EQ(a.count(s), b.count(s)) << "state " << s;
  }
}

/// Snapshot mid-run, restore into a *fresh* engine (different seed, so only
/// the restored RNG state can explain agreement), continue both: the restored
/// engine must replay the original's draw sequence exactly.
void roundtrip_engine(EngineKind kind) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({900, 600, 500});
  const Interactions seg1 = 50'000;
  const Interactions seg2 = 400'000;

  Engine original(kind, usd, initial, /*seed=*/42);
  original.run_until_stable(seg1);
  const EngineCheckpoint snapshot = original.checkpoint_state();
  EXPECT_EQ(snapshot.interactions, original.interactions());

  Engine restored(kind, usd, initial, /*seed=*/777);
  restored.restore_checkpoint(snapshot);
  expect_same_configuration(restored.configuration(), original.configuration());

  const RunOutcome a = original.run_until_stable(seg2);
  const RunOutcome b = restored.run_until_stable(seg2);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.stabilized, b.stabilized);
  EXPECT_EQ(a.clamped, b.clamped);
  expect_same_configuration(original.configuration(), restored.configuration());
}

TEST(EngineCheckpointTest, SequentialRoundtripContinuesBitExact) {
  roundtrip_engine(EngineKind::kSequential);
}

TEST(EngineCheckpointTest, BatchedRoundtripContinuesBitExact) {
  roundtrip_engine(EngineKind::kBatched);
}

TEST(EngineCheckpointTest, CollapsedRoundtripContinuesBitExact) {
  roundtrip_engine(EngineKind::kCollapsed);
}

/// A checkpoint whose counts are valid but whose clock is not must be
/// rejected before anything is restored: the engine keeps its counts, clock,
/// stability flag and draw sequence, so it continues exactly like a twin that
/// never saw the checkpoint.
void rejected_restore_changes_nothing(EngineKind kind, Interactions interactions,
                                      Interactions clamped) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({900, 600, 500});
  Engine engine(kind, usd, initial, /*seed=*/42);
  Engine twin(kind, usd, initial, /*seed=*/42);
  engine.run_until_stable(50'000);
  twin.run_until_stable(50'000);
  const Configuration before = engine.configuration();
  const Interactions clock = engine.interactions();
  const bool stable = engine.is_stable();

  EngineCheckpoint bad;
  bad.counts = initial.counts();
  bad.rng_state = {1, 2, 3, 4};
  bad.interactions = interactions;
  bad.clamped = clamped;
  EXPECT_THROW(engine.restore_checkpoint(bad), CheckFailure);

  expect_same_configuration(engine.configuration(), before);
  EXPECT_EQ(engine.interactions(), clock);
  EXPECT_EQ(engine.is_stable(), stable);
  const RunOutcome a = engine.run_until_stable(400'000);
  const RunOutcome b = twin.run_until_stable(400'000);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.stabilized, b.stabilized);
  EXPECT_EQ(a.clamped, b.clamped);
  expect_same_configuration(engine.configuration(), twin.configuration());
}

TEST(EngineCheckpointTest, RejectedRestoreLeavesSequentialUnchanged) {
  rejected_restore_changes_nothing(EngineKind::kSequential, -1, 0);
}

TEST(EngineCheckpointTest, RejectedRestoreLeavesCollapsedUnchanged) {
  rejected_restore_changes_nothing(EngineKind::kCollapsed, -1, 0);
  rejected_restore_changes_nothing(EngineKind::kCollapsed, 10, -1);
  rejected_restore_changes_nothing(EngineKind::kBatched, 10, -1);
}

io::ArchiveRunSpec acceptance_spec() {
  io::ArchiveRunSpec spec;
  spec.engine = EngineKind::kCollapsed;
  spec.protocol_name = "usd";
  spec.seed = 0xabcdef12u;
  spec.k = 3;
  spec.max_interactions = 5'000'000;
  spec.record_stride = 500;
  spec.checkpoint_every = 4'000;
  return spec;
}

// THE acceptance pin: record a collapsed run with checkpoints, kill it at an
// arbitrary byte offset (simulated by truncating a copy), resume, and
// require the resumed archive to be byte-identical to the uninterrupted one.
TEST(ArchiveResumeTest, TruncatedArchiveResumesToIdenticalBytes) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({1200, 900, 900});
  const io::ArchiveChannels channels = io::usd_archive_channels(3);
  const io::ArchiveRunSpec spec = acceptance_spec();

  const std::string original = tmp_path("acceptance_original.pptraj");
  const RunOutcome full = io::record_run(usd, initial, channels, spec, original);
  EXPECT_TRUE(full.stabilized);
  const std::vector<std::uint8_t> golden = read_file(original);
  {
    io::TrajectoryReader check(original);
    ASSERT_GE(check.checkpoints().size(), 2u)
        << "spec must produce several checkpoints for the sweep to mean much";
  }

  const std::size_t size = golden.size();
  const std::vector<std::size_t> cuts = {
      0,        8,           40,           size / 8,     size / 4,
      size / 3, size / 2,    2 * size / 3, 3 * size / 4, size - 20,
      size - 1};
  const std::string chopped = tmp_path("acceptance_chop.pptraj");
  int resumed_ok = 0;
  for (const std::size_t cut : cuts) {
    write_file(chopped, golden, cut);
    std::optional<RunOutcome> out;
    try {
      out = io::resume_run(usd, initial, channels, chopped);
    } catch (const CheckFailure&) {
      // Legal only while the magic/header region itself is incomplete —
      // such a file is not an archive at all.
      EXPECT_LT(cut, std::size_t{64}) << "cut " << cut;
      continue;
    }
    ASSERT_TRUE(out.has_value()) << "cut " << cut;
    EXPECT_EQ(out->interactions, full.interactions) << "cut " << cut;
    EXPECT_EQ(out->stabilized, full.stabilized) << "cut " << cut;
    EXPECT_EQ(read_file(chopped), golden) << "cut " << cut;
    ++resumed_ok;
  }
  EXPECT_GE(resumed_ok, 7);
}

TEST(ArchiveResumeTest, FinishedArchiveHasNothingToResume) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({500, 300, 200});
  const io::ArchiveChannels channels = io::usd_archive_channels(3);
  io::ArchiveRunSpec spec = acceptance_spec();
  spec.seed = 7;

  const std::string path = tmp_path("finished.pptraj");
  io::record_run(usd, initial, channels, spec, path);
  const std::vector<std::uint8_t> before = read_file(path);
  EXPECT_FALSE(io::resume_run(usd, initial, channels, path).has_value());
  EXPECT_EQ(read_file(path), before);  // resume of a finished run is a no-op
}

TEST(ArchiveResumeTest, ResumeRejectsMismatchedShape) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({500, 300, 200});
  const io::ArchiveChannels channels = io::usd_archive_channels(3);
  io::ArchiveRunSpec spec = acceptance_spec();
  spec.seed = 11;

  const std::string path = tmp_path("mismatch.pptraj");
  io::record_run(usd, initial, channels, spec, path);
  // Chop off the end record so there is something to resume, then hand
  // resume_run a different population: the header must catch it.
  std::vector<std::uint8_t> bytes = read_file(path);
  write_file(path, bytes, bytes.size() - 4);
  const Configuration wrong_n =
      UndecidedStateDynamics::initial_configuration({400, 300, 200});
  EXPECT_THROW(io::resume_run(usd, wrong_n, channels, path), CheckFailure);
}

TEST(ArchiveResumeTest, ResumeRejectsAnotherBuildVersion) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({500, 300, 200});
  const io::ArchiveChannels channels = io::usd_archive_channels(3);
  io::ArchiveRunSpec spec = acceptance_spec();
  spec.seed = 13;

  const std::string path = tmp_path("stale.pptraj");
  io::record_run(usd, initial, channels, spec, path);
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.resize(bytes.size() - 4);  // torn end record: there is work to resume

  // Re-stamp the header as another build. The frame after the magic is
  // [type u8][varint size][payload][fnv1a(payload) fixed64]; the version
  // string keeps its length, so only the payload and its checksum change.
  const std::size_t size_at = io::kTrajectoryMagic.size() + 1;
  io::ByteReader reader(bytes.data() + size_at, bytes.size() - size_at);
  const std::uint64_t payload_size = reader.varint();
  io::Bytes size_bytes;
  io::put_varint(size_bytes, payload_size);
  const auto payload = bytes.begin() + static_cast<std::ptrdiff_t>(
                                           size_at + size_bytes.size());
  const auto payload_end = payload + static_cast<std::ptrdiff_t>(payload_size);
  const std::string current(io::kBuildVersion);
  // Another build's stamp of the same length: flip the last character.
  std::string stale = current;
  stale.back() = stale.back() == '0' ? '1' : '0';
  ASSERT_EQ(stale.size(), current.size());
  const auto at = std::search(payload, payload_end, current.begin(), current.end());
  ASSERT_NE(at, payload_end);
  std::copy(stale.begin(), stale.end(), at);
  io::Bytes checksum;
  io::put_fixed64(checksum, io::fnv1a(&*payload, payload_size));
  std::copy(checksum.begin(), checksum.end(), payload_end);
  write_file(path, bytes, bytes.size());
  ASSERT_EQ(io::TrajectoryReader(path).header().build_version, stale);

  try {
    io::resume_run(usd, initial, channels, path);
    FAIL() << "resume_run accepted an archive from another build";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(stale), std::string::npos) << what;
    EXPECT_NE(what.find(current), std::string::npos) << what;
  }
  EXPECT_EQ(read_file(path), bytes);  // rejected before any truncation
}

// Archive replay reproduces live-run statistics without re-simulating.
// record_stride = 1 makes the recorder sample at every engine observation
// (once per round), so the archived channels see exactly the clocks the
// live analysis loops see.
TEST(ArchiveReplayTest, ReplayMatchesLiveStatistics) {
  const UndecidedStateDynamics usd(3);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration({1100, 800, 600});
  const io::ArchiveChannels channels = io::usd_archive_channels(3);
  io::ArchiveRunSpec spec = acceptance_spec();
  spec.seed = 31337;
  spec.record_stride = 1;
  spec.checkpoint_every = 0;

  const std::string path = tmp_path("replay.pptraj");
  const RunOutcome recorded = io::record_run(usd, initial, channels, spec, path);
  const io::TrajectoryReader archive(path);

  // Live runs with the identical engine construction and seed.
  Engine live_stable(spec.engine, usd, initial, spec.seed,
                     {.tau_epsilon = spec.tau_epsilon}, spec.round_divisor);
  const UndecidedExcursion live_exc =
      max_undecided_over_run(live_stable, spec.max_interactions);

  const HittingResult stable = archive_time_until_stable(archive);
  EXPECT_TRUE(stable.hit);
  EXPECT_EQ(stable.interactions_used, recorded.interactions);
  EXPECT_EQ(stable.interactions_used, live_exc.interactions_used);
  EXPECT_EQ(stable.stabilized, live_exc.stabilized);

  const UndecidedExcursion replay_exc = archive_max_undecided(archive);
  EXPECT_EQ(replay_exc.max_undecided, live_exc.max_undecided);
  EXPECT_EQ(replay_exc.interactions_used, live_exc.interactions_used);

  // First-hitting of Δmax, replayed from the delta_max channel against the
  // live engine-facade measurement (both round-granular on the same rounds).
  const Count level = 600;
  Engine live_hit(spec.engine, usd, initial, spec.seed,
                  {.tau_epsilon = spec.tau_epsilon}, spec.round_divisor);
  const HittingResult live = time_until_delta_reaches(
      live_hit, level, spec.max_interactions);
  const HittingResult replay =
      archive_first_hit(archive, "delta_max", static_cast<double>(level));
  EXPECT_EQ(replay.hit, live.hit);
  if (live.hit) {
    EXPECT_EQ(replay.interactions_at_hit, live.interactions_at_hit);
  }
}

}  // namespace
}  // namespace ppsim
