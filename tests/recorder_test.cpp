// Recorder edge cases: stride validation, stride larger than the whole run,
// forced final samples, channel registration rules, TSV round-trip of the
// recorded series, and run_engine_trial's attach/finalize/detach sequence
// and engine checkpoints.
#include "ppsim/core/recorder.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/runner.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

Recorder::Projection count_of(State s) {
  return [s](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(s));
  };
}

TEST(RecorderTest, RejectsNonPositiveStride) {
  EXPECT_THROW(Recorder(0), CheckFailure);
  EXPECT_THROW(Recorder(-5), CheckFailure);
}

TEST(RecorderTest, StrideLargerThanRunKeepsOnlyInitialSample) {
  // A stride beyond the run's horizon must still record the t = 0 sample
  // (maybe_sample at interaction 0 always fires) and nothing else.
  Recorder rec(1'000'000);
  rec.add_channel("x", count_of(0));
  const Configuration config({40, 60});
  for (Interactions i = 0; i <= 500; ++i) rec.maybe_sample(config, i);
  ASSERT_EQ(rec.series().num_samples(), 1u);
  EXPECT_DOUBLE_EQ(rec.series().parallel_time[0], 0.0);
  EXPECT_DOUBLE_EQ(rec.series().channels[0][0], 40.0);
}

TEST(RecorderTest, ForcedSampleCapturesFinalConfiguration) {
  Recorder rec(1'000'000);
  rec.add_channel("x", count_of(0));
  rec.maybe_sample(Configuration({40, 60}), 0);
  rec.sample(Configuration({25, 75}), 500);  // engines force a sample at run end
  ASSERT_EQ(rec.series().num_samples(), 2u);
  EXPECT_DOUBLE_EQ(rec.series().channels[0][1], 25.0);
  EXPECT_DOUBLE_EQ(rec.series().parallel_time[1], 5.0);  // 500 / n=100
}

TEST(RecorderTest, SamplesOncePerStride) {
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  const Configuration config({100});
  for (Interactions i = 0; i < 100; ++i) rec.maybe_sample(config, i);
  EXPECT_EQ(rec.series().num_samples(), 10u);
}

TEST(RecorderTest, ChannelsMustBeAddedBeforeFirstSample) {
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  const Configuration config({100});
  rec.sample(config, 0);
  EXPECT_THROW(rec.add_channel("late", count_of(0)), CheckFailure);
}

TEST(RecorderTest, ZeroChannelRecorderStillTracksTime) {
  // Degenerate but legal: no channels, just the sampling clock.
  Recorder rec(5);
  const Configuration config({10});
  rec.maybe_sample(config, 0);
  rec.maybe_sample(config, 5);
  EXPECT_EQ(rec.series().num_samples(), 2u);
  EXPECT_TRUE(rec.series().channels.empty());
}

TEST(RecorderTest, WriteTsvAndTakeSeries) {
  Recorder rec(10);
  rec.add_channel("a", count_of(0));
  rec.add_channel("b", count_of(1));
  const Configuration config({30, 70});
  rec.maybe_sample(config, 0);
  rec.maybe_sample(config, 10);
  const TimeSeries series = std::move(rec).take_series();
  ASSERT_EQ(series.num_samples(), 2u);
  std::ostringstream os;
  series.write_tsv(os);
  EXPECT_EQ(os.str(),
            "parallel_time\ta\tb\n"
            "0\t30\t70\n"
            "0.1\t30\t70\n");
}

TEST(RecorderTest, UnevenJumpsStayOnTheStrideLattice) {
  // Regression: the sampler advances by whole strides, so an observation
  // arriving late (the engine leapt past several lattice points) must not
  // shift the lattice. With the old `next = interactions + stride` drift,
  // the sample at 32 below would have waited until 35.
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  const Configuration config({100});
  rec.maybe_sample(config, 0);
  rec.maybe_sample(config, 25);  // leapt past 10 and 20
  rec.maybe_sample(config, 32);  // next lattice point is 30, so this samples
  EXPECT_EQ(rec.series().num_samples(), 3u);
  EXPECT_EQ(rec.last_sample(), 32);
}

TEST(RecorderTest, RejectsChannelNamesThatWouldCorruptTables) {
  Recorder rec(10);
  EXPECT_THROW(rec.add_channel("a\tb", count_of(0)), CheckFailure);
  EXPECT_THROW(rec.add_channel("a\nb", count_of(0)), CheckFailure);
  EXPECT_THROW(rec.add_channel("a\rb", count_of(0)), CheckFailure);
  EXPECT_THROW(rec.add_channel("", count_of(0)), CheckFailure);
  rec.add_channel("still fine", count_of(0));  // spaces are legal
}

/// RecordSink that logs every pipeline call for fan-out assertions.
struct CapturingSink final : RecordSink {
  std::vector<std::string> opened;
  std::vector<Interactions> samples;
  std::vector<std::vector<double>> values;
  std::vector<EngineCheckpoint> checkpoints;
  std::vector<RecordFinish> finishes;
  void open(const std::vector<std::string>& names) override { opened = names; }
  void sample(Interactions i, double, const std::vector<double>& v) override {
    samples.push_back(i);
    values.push_back(v);
  }
  void checkpoint(const EngineCheckpoint& cp) override { checkpoints.push_back(cp); }
  void finish(const RecordFinish& fin) override { finishes.push_back(fin); }
};

TEST(RecorderTest, FansSamplesOutToSinksAndMemory) {
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  CapturingSink sink;
  rec.add_sink(sink);
  const Configuration config({40, 60});
  rec.maybe_sample(config, 0);
  rec.maybe_sample(config, 10);
  ASSERT_EQ(sink.opened, std::vector<std::string>{"x"});
  ASSERT_EQ(sink.samples, (std::vector<Interactions>{0, 10}));
  EXPECT_EQ(sink.values[1], std::vector<double>{40.0});
  // The built-in memory sink saw the same stream.
  EXPECT_EQ(rec.series().num_samples(), 2u);
}

TEST(RecorderTest, SinksMustAttachBeforeFirstSample) {
  Recorder rec(10);
  const Configuration config({10});
  rec.sample(config, 0);
  CapturingSink sink;
  EXPECT_THROW(rec.add_sink(sink), CheckFailure);
}

TEST(RecorderTest, KeepSeriesFalseStreamsWithoutAccumulating) {
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  rec.set_keep_series(false);
  CapturingSink sink;
  rec.add_sink(sink);
  const Configuration config({10});
  rec.maybe_sample(config, 0);
  rec.maybe_sample(config, 10);
  EXPECT_EQ(sink.samples.size(), 2u);
  EXPECT_EQ(rec.series().num_samples(), 0u);
}

TEST(RecorderTest, CheckpointLatticeAndLastSampleStamping) {
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  rec.set_checkpoint_stride(25);
  CapturingSink sink;
  rec.add_sink(sink);
  const Configuration config({10});
  rec.maybe_sample(config, 12);
  EXPECT_FALSE(rec.checkpoint_due(24));
  ASSERT_TRUE(rec.checkpoint_due(30));
  EngineCheckpoint cp;
  cp.counts = {10};
  cp.rng_state = {1, 2, 3, 4};
  cp.interactions = 30;
  rec.record_checkpoint(cp);
  ASSERT_EQ(sink.checkpoints.size(), 1u);
  // The recorder stamps its own sampling position into the checkpoint, so
  // the checkpoint says whether the end-of-run sample is still pending.
  EXPECT_EQ(sink.checkpoints[0].last_sample, 12);
  // Lattice advanced by whole strides past 30: next due at 50, not 55.
  EXPECT_FALSE(rec.checkpoint_due(49));
  EXPECT_TRUE(rec.checkpoint_due(50));
}

TEST(RecorderTest, FinalizeSkipsDuplicateFinalSample) {
  Recorder rec(10);
  rec.add_channel("x", count_of(0));
  CapturingSink sink;
  rec.add_sink(sink);
  const Configuration config({10});
  rec.maybe_sample(config, 10);
  // The run ended exactly at the last sample's clock: no duplicate sample,
  // but every sink still learns the outcome.
  rec.finalize(config, RecordFinish{.stabilized = true, .interactions = 10});
  EXPECT_EQ(sink.samples, (std::vector<Interactions>{10}));
  ASSERT_EQ(sink.finishes.size(), 1u);
  EXPECT_TRUE(sink.finishes[0].stabilized);
}

TEST(RecorderTest, FinalizeCapturesEndStateWhenNotSampled) {
  Recorder rec(1'000'000);
  rec.add_channel("x", count_of(0));
  CapturingSink sink;
  rec.add_sink(sink);
  const Configuration config({10});
  rec.maybe_sample(config, 0);
  rec.finalize(config, RecordFinish{.stabilized = false, .interactions = 777});
  EXPECT_EQ(sink.samples, (std::vector<Interactions>{0, 777}));
}

TEST(RunEngineTrialTest, AttachesFinalizesAndDetachesTheRecorder) {
  // One budget-capped sequential run and one stabilizing collapsed run: the
  // recorder streams samples during the run, gets one finish record equal
  // to the trial's outcome, and hears nothing once the trial returns.
  const UndecidedStateDynamics usd(2);
  struct Case {
    EngineKind kind;
    std::vector<Count> opinions;
    Interactions budget;
  };
  for (const Case& c : {Case{EngineKind::kSequential, {600, 400}, 2'000},
                        Case{EngineKind::kCollapsed, {900, 100}, 10'000'000}}) {
    Engine engine(c.kind, usd,
                  UndecidedStateDynamics::initial_configuration(c.opinions), 5);
    Recorder rec(100);
    rec.add_channel("undecided", count_of(UndecidedStateDynamics::kUndecided));
    CapturingSink sink;
    rec.add_sink(sink);

    const TrialResult r = run_engine_trial(engine, c.budget, &rec);

    EXPECT_GT(sink.samples.size(), 1u) << to_string(c.kind);
    ASSERT_EQ(sink.finishes.size(), 1u) << to_string(c.kind);
    const RecordFinish& fin = sink.finishes.front();
    EXPECT_EQ(fin.stabilized, r.stabilized);
    EXPECT_EQ(fin.interactions, r.interactions);
    EXPECT_EQ(fin.clamped, r.clamped);
    EXPECT_EQ(fin.consensus, r.winner);
    EXPECT_EQ(sink.samples.back(), r.interactions);
    EXPECT_EQ(r.stabilized, c.kind == EngineKind::kCollapsed);

    const std::size_t samples = sink.samples.size();
    engine.run_until_stable(c.budget + 2'000);
    EXPECT_EQ(sink.samples.size(), samples) << to_string(c.kind);
  }
}

TEST(RunEngineTrialTest, CheckpointsSnapshotTheEngineWithoutPerturbingIt) {
  // With a checkpoint stride every engine kind hands the recorder snapshots
  // of its own state. Taking them must not change a single draw: the trial
  // ends exactly where an unrecorded twin on the same seed ends. At
  // n = 200000 the sequential engine runs collision-free batches and
  // observes at batch ends.
  const UndecidedStateDynamics usd(3);
  for (const auto& [kind, opinions] :
       std::vector<std::pair<EngineKind, std::vector<Count>>>{
           {EngineKind::kSequential, {900, 600, 500}},
           {EngineKind::kSequential, {90'000, 60'000, 50'000}},
           {EngineKind::kCollapsed, {900, 600, 500}},
           {EngineKind::kCollapsed, {90'000, 60'000, 50'000}}}) {
    const Configuration initial = UndecidedStateDynamics::initial_configuration(opinions);
    SCOPED_TRACE(to_string(kind) + " at n = " + std::to_string(initial.population()));
    Engine twin(kind, usd, initial, 42);
    const TrialResult plain = run_engine_trial(twin, 50'000'000);
    Engine engine(kind, usd, initial, 42);
    Recorder rec(1'000);
    rec.add_channel("undecided", count_of(UndecidedStateDynamics::kUndecided));
    rec.set_checkpoint_stride(20'000);
    CapturingSink sink;
    rec.add_sink(sink);
    const TrialResult r = run_engine_trial(engine, 50'000'000, &rec);

    ASSERT_TRUE(r.stabilized);
    EXPECT_EQ(r.interactions, plain.interactions);
    EXPECT_EQ(r.clamped, plain.clamped);
    EXPECT_EQ(r.winner, plain.winner);
    EXPECT_EQ(engine.configuration(), twin.configuration());
    // One checkpoint per crossed lattice point, each a whole snapshot.
    ASSERT_EQ(sink.checkpoints.size(),
              static_cast<std::size_t>(r.interactions / 20'000));
    Interactions lattice = 0;
    for (const EngineCheckpoint& cp : sink.checkpoints) {
      lattice += 20'000;
      EXPECT_GE(cp.interactions, lattice);
      EXPECT_LT(cp.interactions, lattice + 20'000);
      EXPECT_LE(cp.clamped, r.clamped);
      ASSERT_EQ(cp.counts.size(), usd.num_states());
      Count total = 0;
      for (const Count c : cp.counts) total += c;
      EXPECT_EQ(total, initial.population());
      EXPECT_NE(cp.rng_state, (std::array<std::uint64_t, 4>{}));
    }
  }
}

TEST(TimeSeriesTest, WriteTsvNeverEmitsUnescapedNames) {
  // Channel names are validated at add_channel, so by the time a series is
  // written its header row cannot contain separators. Pin the validator.
  EXPECT_THROW(validate_channel_name("tab\there"), CheckFailure);
  EXPECT_THROW(validate_channel_name("newline\n"), CheckFailure);
  EXPECT_NO_THROW(validate_channel_name("plain_name"));
}

TEST(MemorySinkTest, RejectsMismatchedArity) {
  MemorySink sink;
  sink.open({"a", "b"});
  EXPECT_THROW(sink.sample(0, 0.0, {1.0}), CheckFailure);
  sink.sample(0, 0.0, {1.0, 2.0});
  EXPECT_EQ(sink.series().num_samples(), 1u);
}

}  // namespace
}  // namespace ppsim
