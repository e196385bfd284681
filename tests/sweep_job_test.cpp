// SweepRunner::run_job — the per-cell sweep surface the cell cache builds
// on: per-cell completion callbacks (fired by the last finisher), skip masks
// that hold cache-served cells empty at their original index, and
// aggregate_sweep_cell as the shared (runner + cache replay) aggregation
// path.
#include "ppsim/core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

SweepSpec counting_spec(unsigned threads, std::size_t cells = 3,
                        std::size_t trials = 4) {
  SweepSpec spec;
  spec.name = "sweep_job_test";
  spec.trials = trials;
  spec.base_seed = 2024;
  spec.threads = threads;
  spec.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    spec.cells[c].n = 10 * (c + 1);
    spec.cells[c].k = 2;
  }
  return spec;
}

SweepMetrics stream_trial(const SweepTrial& ctx) {
  return {{"stream_index", static_cast<double>(ctx.stream_index)},
          {"seed_bits", static_cast<double>(ctx.seed >> 11)}};
}

TEST(SweepJobTest, RunIsRunJobWithDefaults) {
  const SweepResult a = SweepRunner(counting_spec(2)).run(stream_trial);
  const SweepResult b =
      SweepRunner(counting_spec(2)).run_job(stream_trial, SweepJobOptions{});
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(SweepJobTest, CallbackCarriesAggregatedCellsExactlyOnce) {
  std::mutex mutex;
  std::set<std::size_t> seen;
  SweepJobOptions opts;
  opts.on_cell = [&](const SweepCellResult& cr) {
    const std::lock_guard<std::mutex> lock(mutex);
    // Delivered once, already aggregated, with the final trial data.
    EXPECT_TRUE(seen.insert(cr.cell_index).second);
    EXPECT_EQ(cr.trials_run, 4u);
    EXPECT_EQ(cr.trials.size(), 4u);
    ASSERT_NE(cr.find("stream_index"), nullptr);
    EXPECT_EQ(cr.find("stream_index")->values.size(), 4u);
    EXPECT_DOUBLE_EQ(cr.values("stream_index")[0],
                     static_cast<double>(cr.cell_index * 4));
  };
  const SweepResult result =
      SweepRunner(counting_spec(4)).run_job(stream_trial, opts);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(result.cells.size(), 3u);
}

TEST(SweepJobTest, SkippedCellsStayEmptyAtTheirOriginalIndex) {
  // The cache-hit path: the caller serves cells 0 and 2 itself and asks the
  // runner for cell 1 only. Cell 1 must keep stream indices 4..7 — the
  // seeding discipline indexes by cell position, so skipping must never
  // compact the grid.
  std::atomic<int> callbacks{0};
  SweepJobOptions opts;
  opts.skip = {true, false, true};
  opts.on_cell = [&](const SweepCellResult& cr) {
    ++callbacks;
    EXPECT_EQ(cr.cell_index, 1u);
  };
  const SweepResult result =
      SweepRunner(counting_spec(2)).run_job(stream_trial, opts);
  EXPECT_EQ(callbacks.load(), 1);
  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_EQ(result.cells[0].trials_run, 0u);
  EXPECT_TRUE(result.cells[0].trials.empty());
  EXPECT_TRUE(result.cells[0].aggregates.empty());
  EXPECT_EQ(result.cells[2].trials_run, 0u);
  const std::vector<double> streams = result.cells[1].values("stream_index");
  EXPECT_EQ(streams, (std::vector<double>{4, 5, 6, 7}));
  // And the executed cell's bytes equal the full run's cell 1.
  const SweepResult full = SweepRunner(counting_spec(2)).run(stream_trial);
  EXPECT_EQ(result.cells[1].trials, full.cells[1].trials);
}

TEST(SweepJobTest, SpliceAfterSkipReproducesTheFullRunByteForByte) {
  // The invariant the cell cache is built on: run cells {0,2} in one job and
  // cell {1} in another (skipping complements), splice the completed cells
  // together, and the assembled report is byte-identical to one cold run.
  const SweepResult full = SweepRunner(counting_spec(3)).run(stream_trial);
  SweepJobOptions first;
  first.skip = {false, true, false};
  SweepResult a = SweepRunner(counting_spec(2)).run_job(stream_trial, first);
  SweepJobOptions second;
  second.skip = {true, false, true};
  const SweepResult b =
      SweepRunner(counting_spec(2)).run_job(stream_trial, second);
  a.cells[1] = b.cells[1];
  EXPECT_EQ(a.to_json(), full.to_json());
}

TEST(SweepJobTest, SkipMaskMustMatchTheGrid) {
  SweepJobOptions opts;
  opts.skip = {true};  // 1 entry, 3 cells
  EXPECT_THROW(SweepRunner(counting_spec(1)).run_job(stream_trial, opts),
               CheckFailure);
}

TEST(SweepJobTest, AdaptiveJobsStreamConvergedCells) {
  SweepSpec spec = counting_spec(4, /*cells=*/2, /*trials=*/32);
  spec.stopping.adaptive = true;
  spec.stopping.rel_err = 0.2;
  spec.stopping.min_trials = 4;
  spec.stopping.metric = "seed_bits";
  std::mutex mutex;
  std::set<std::size_t> seen;
  SweepJobOptions opts;
  opts.on_cell = [&](const SweepCellResult& cr) {
    const std::lock_guard<std::mutex> lock(mutex);
    seen.insert(cr.cell_index);
    EXPECT_GE(cr.trials_run, 4u);
    EXPECT_LE(cr.trials_run, 32u);
  };
  const SweepResult result = SweepRunner(spec).run_job(stream_trial, opts);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(result.to_json(), SweepRunner(spec).run(stream_trial).to_json());
}

TEST(SweepJobTest, AggregateSweepCellMatchesTheRunnerOutput) {
  // The cache replays stored raw trials through aggregate_sweep_cell; its
  // output must equal what the runner computed for the same data.
  const SweepResult full = SweepRunner(counting_spec(1)).run(stream_trial);
  for (const SweepCellResult& cr : full.cells) {
    SweepCellResult replay;
    replay.cell = cr.cell;
    replay.cell_index = cr.cell_index;
    replay.trials_requested = cr.trials_requested;
    replay.trials_run = cr.trials_run;
    replay.trials = cr.trials;
    aggregate_sweep_cell(replay);
    ASSERT_EQ(replay.aggregates.size(), cr.aggregates.size());
    for (std::size_t m = 0; m < cr.aggregates.size(); ++m) {
      EXPECT_EQ(replay.aggregates[m].metric, cr.aggregates[m].metric);
      EXPECT_EQ(replay.aggregates[m].values, cr.aggregates[m].values);
    }
  }
}

TEST(SweepJobTest, ErrorsStillPropagateThroughTheJobSurface) {
  SweepJobOptions opts;
  std::atomic<int> delivered{0};
  opts.on_cell = [&](const SweepCellResult&) { ++delivered; };
  EXPECT_THROW(
      SweepRunner(counting_spec(4)).run_job(
          [](const SweepTrial& ctx) -> SweepMetrics {
            if (ctx.cell_index == 2) throw std::runtime_error("boom");
            return {{"v", 1.0}};
          },
          opts),
      std::runtime_error);
}

TEST(SweepJobTest, AnErrorNeverDeliversAnAdaptiveCellCutShort) {
  // Cell 0 never converges (rel_err is unreachable), so its true result
  // runs to the cap. Its second wave is held in flight until cell 1 throws;
  // when that wave lands, the cell must not be delivered with the truncated
  // prefix — a caching caller would store it as the cell's result. (Cell 0
  // may still legitimately reach the cap before the error is recorded.)
  SweepSpec spec = counting_spec(3, /*cells=*/2, /*trials=*/64);
  spec.stopping.adaptive = true;
  spec.stopping.min_trials = 2;
  spec.stopping.rel_err = 1e-12;
  spec.stopping.metric = "seed_bits";
  std::atomic<bool> thrown{false};
  std::atomic<int> held{0};
  std::atomic<int> truncated{0};
  SweepJobOptions opts;
  opts.on_cell = [&](const SweepCellResult& cr) {
    if (cr.trials_run < 64) ++truncated;
  };
  const auto wait_for = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  EXPECT_THROW(
      SweepRunner(spec).run_job(
          [&](const SweepTrial& ctx) -> SweepMetrics {
            if (ctx.cell_index == 1 && ctx.trial == 2) {
              // Throw only once both of cell 0's second-wave trials run.
              wait_for([&] { return held.load() >= 2; });
              thrown = true;
              throw std::runtime_error("boom");
            }
            if (ctx.cell_index == 0 && ctx.trial >= 2) {
              ++held;
              wait_for([&] { return thrown.load(); });
              // Give the throwing worker time to record the error.
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
            return stream_trial(ctx);
          },
          opts),
      std::runtime_error);
  EXPECT_EQ(truncated.load(), 0);
}

}  // namespace
}  // namespace ppsim
