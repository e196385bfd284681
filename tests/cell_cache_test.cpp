// CellCache: content-addressed storage of raw sweep-cell trial data.
//
// The invariant under test everywhere here: a cell served from cache and
// replayed through aggregate_sweep_cell() is byte-identical to the cell a
// cold run computes — the cache stores only raw trials, never derived
// aggregates, so there is no second code path that could drift.
#include "ppsim/cache/cell_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ppsim/io/wire.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim::cache {
namespace {

SweepSpec tiny_spec(std::size_t cells = 3, std::size_t trials = 4) {
  SweepSpec spec;
  spec.name = "cell_cache_test";
  spec.trials = trials;
  spec.base_seed = 77;
  spec.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    spec.cells[c].n = 100 + static_cast<Count>(c);
    spec.cells[c].k = 2;
    spec.cells[c].bias = 0.1;
  }
  return spec;
}

SweepMetrics stamp_trial(const SweepTrial& ctx) {
  return {{"stream_index", static_cast<double>(ctx.stream_index)},
          {"seed_bits", static_cast<double>(ctx.seed >> 11)}};
}

CachedCellData cached_from(const SweepCellResult& cr) {
  return {cr.trials_requested, cr.trials_run, cr.trials};
}

TEST(CanonicalCellKeyTest, KeysContentNotPresentation) {
  SweepSpec a = tiny_spec();
  const std::string key = canonical_cell_key(a, 1, "fn/v1");
  // Presentation-only fields don't move the key: sweep name, cell label,
  // thread count (all pinned byte-invariant elsewhere).
  SweepSpec b = tiny_spec();
  b.name = "renamed";
  b.threads = 8;
  b.cells[1].name = "labelled";
  EXPECT_EQ(canonical_cell_key(b, 1, "fn/v1"), key);
  // Content fields do: position, seed, trial cap, the trial fn identity,
  // any cell axis.
  EXPECT_NE(canonical_cell_key(a, 0, "fn/v1"), key);
  EXPECT_NE(canonical_cell_key(a, 1, "fn/v2"), key);
  SweepSpec seed = tiny_spec();
  seed.base_seed = 78;
  EXPECT_NE(canonical_cell_key(seed, 1, "fn/v1"), key);
  SweepSpec cap = tiny_spec();
  cap.trials = 5;
  EXPECT_NE(canonical_cell_key(cap, 1, "fn/v1"), key);
  SweepSpec axis = tiny_spec();
  axis.cells[1].bias = 0.2;
  EXPECT_NE(canonical_cell_key(axis, 1, "fn/v1"), key);
  // Per-cell knobs live in the cell params, so a swept knob never
  // shares entries with the otherwise identical plain cell.
  SweepSpec knob = tiny_spec();
  knob.cells[1].params = {{"beta", 0.001}};
  EXPECT_NE(canonical_cell_key(knob, 1, "fn/v1"), key);
  SweepSpec kern = tiny_spec();
  kern.cells[1].kernel = kernels::KernelKind::kScalar;
  // Stamping the default explicitly is identity (value_or(spec.kernel)).
  EXPECT_EQ(canonical_cell_key(kern, 1, "fn/v1"), key);
  // The build version is embedded, so numeric-affecting rebuilds miss.
  EXPECT_NE(key.find("\"build\""), std::string::npos);
  EXPECT_NE(key.find("\"cell_index\": 1"), std::string::npos);
}

TEST(CanonicalCellKeyTest, HashIsSixteenHexDigitsOfFnv1a) {
  const std::string key = canonical_cell_key(tiny_spec(), 0, "fn");
  const std::string hash = cell_key_hash(key);
  ASSERT_EQ(hash.size(), 16u);
  char expected[17];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(io::fnv1a(key)));
  EXPECT_EQ(hash, expected);
}

TEST(CellCacheTest, MemoryHitsMissesAndLruEviction) {
  CellCache cache({.memory_capacity = 2, .disk_dir = ""});
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", {4, 2, {{{"m", 1.0}}, {{"m", 2.0}}}});
  cache.insert("b", {4, 1, {{{"m", 3.0}}}});
  ASSERT_TRUE(cache.lookup("a").has_value());  // refreshes a
  EXPECT_EQ(cache.lookup("a")->trials_run, 2u);
  cache.insert("c", {4, 1, {{{"m", 4.0}}}});   // evicts b (LRU)
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  const CellCacheStats s = cache.stats();
  EXPECT_EQ(s.memory_hits, 4u);  // a, a, a, c
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.disk_hits, 0u);
  EXPECT_EQ(s.misses, 2u);  // first "a", then evicted "b"
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(CellCacheTest, ReinsertUpdatesInPlaceWithoutEviction) {
  CellCache cache({.memory_capacity = 2, .disk_dir = ""});
  cache.insert("a", {2, 1, {{{"m", 1.0}}}});
  cache.insert("a", {2, 2, {{{"m", 1.0}}, {{"m", 5.0}}}});
  EXPECT_EQ(cache.lookup("a")->trials_run, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CellCacheTest, InsertRejectsInconsistentCounts) {
  CellCache cache({.memory_capacity = 2, .disk_dir = ""});
  EXPECT_THROW(cache.insert("x", {2, 2, {{{"m", 1.0}}}}), CheckFailure);
  EXPECT_THROW(cache.insert("x", {1, 2, {{{"m", 1.0}}, {{"m", 2.0}}}}),
               CheckFailure);
  EXPECT_THROW(CellCache({.memory_capacity = 0, .disk_dir = ""}),
               CheckFailure);
}

TEST(CellCacheTest, DiskBackSurvivesProcessBoundaries) {
  const std::string dir = testing::TempDir() + "/ppcell_disk";
  const CachedCellData data{4, 3,
                            {{{"m", 0.5}, {"x", -1.0}},
                             {{"m", 0.25}},
                             {{"m", 0.7071067811865476}}}};
  {
    CellCache writer({.memory_capacity = 4, .disk_dir = dir});
    writer.insert("key-1", data);
  }
  // A fresh cache (cold memory) over the same directory: first lookup is a
  // disk hit and promotes, second is a memory hit.
  CellCache reader({.memory_capacity = 4, .disk_dir = dir});
  const auto first = reader.lookup("key-1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->trials_requested, 4u);
  EXPECT_EQ(first->trials_run, 3u);
  EXPECT_EQ(first->trials, data.trials);
  ASSERT_TRUE(reader.lookup("key-1").has_value());
  const CellCacheStats s = reader.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.memory_hits, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(CellCacheTest, CorruptOrMismatchedDiskRecordsDegradeToMisses) {
  const std::string dir = testing::TempDir() + "/ppcell_corrupt";
  {
    CellCache writer({.memory_capacity = 4, .disk_dir = dir});
    writer.insert("victim", {1, 1, {{{"m", 1.0}}}});
  }
  const std::string path = dir + "/" + cell_key_hash("victim") + ".ppcell";
  // Flip one payload byte: the checksum catches it, lookup misses.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(10);
    f.put('\xff');
  }
  CellCache reader({.memory_capacity = 4, .disk_dir = dir});
  EXPECT_FALSE(reader.lookup("victim").has_value());
  EXPECT_EQ(reader.stats().misses, 1u);
  // A record stored under a colliding file name but a different canonical
  // key is rejected by the embedded-key comparison, not served wrongly.
  {
    CellCache writer({.memory_capacity = 4, .disk_dir = dir});
    writer.insert("other", {1, 1, {{{"m", 2.0}}}});
  }
  std::filesystem::rename(dir + "/" + cell_key_hash("other") + ".ppcell",
                          path);
  CellCache reader2({.memory_capacity = 4, .disk_dir = dir});
  EXPECT_FALSE(reader2.lookup("victim").has_value());
}

TEST(CellCacheTest, CachedReplaySplicesIntoAByteIdenticalReport) {
  // End to end through run_cached: hits replay stored raw trials through
  // aggregate_sweep_cell, misses run on the SweepRunner. Every pass must
  // serialize the bytes a plain cold run does — the acceptance invariant of
  // the whole cache layer.
  const std::string dir = testing::TempDir() + "/ppcell_replay";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = tiny_spec(4, 5);
  const SweepRunner runner(spec);
  const std::string oracle = runner.run(stamp_trial).to_json();
  std::atomic<int> calls{0};
  const SweepTrialFn counted = [&](const SweepTrial& ctx) {
    ++calls;
    return stamp_trial(ctx);
  };

  // Cold: every cell misses, runs once and is inserted.
  {
    CellCache cache({.memory_capacity = 8, .disk_dir = dir});
    EXPECT_EQ(run_cached(runner, counted, "stamp/v1", cache).to_json(), oracle);
    EXPECT_EQ(calls.load(), 20);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().insertions, 4u);
  }
  // Warm: a fresh cache (cold memory) over the same directory serves every
  // cell from disk, and the trial function never runs.
  calls = 0;
  {
    CellCache cache({.memory_capacity = 8, .disk_dir = dir});
    EXPECT_EQ(run_cached(runner, counted, "stamp/v1", cache).to_json(), oracle);
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(cache.stats().disk_hits, 4u);
  }
  // Another trial-function identity (ppsim_run's fn id carries e.g. its
  // max_parallel) shares no entries: everything runs again.
  {
    CellCache cache({.memory_capacity = 8, .disk_dir = dir});
    EXPECT_EQ(run_cached(runner, counted, "stamp/v1;max_parallel=2", cache)
                  .to_json(),
              oracle);
    EXPECT_EQ(calls.load(), 20);
    EXPECT_EQ(cache.stats().hits, 0u);
  }
}

TEST(CellCacheTest, PartiallyWarmGridsSpliceByteIdenticallyAtAnyThreadCount) {
  // Cells 1 and 3 cached, cells 0 and 2 cold: the misses keep their stream
  // indices (cell_index * trials + trial), so the spliced report equals the
  // cold one at any worker count.
  for (const unsigned threads : {1u, 4u}) {
    SweepSpec spec = tiny_spec(4, 5);
    spec.threads = threads;
    const SweepRunner runner(spec);
    const SweepResult cold = runner.run(stamp_trial);
    CellCache cache({.memory_capacity = 8, .disk_dir = ""});
    for (const std::size_t c : {1u, 3u}) {
      cache.insert(canonical_cell_key(spec, c, "stamp/v1"),
                   cached_from(cold.cells[c]));
    }
    std::atomic<int> calls{0};
    const SweepResult spliced = run_cached(
        runner,
        [&](const SweepTrial& ctx) {
          ++calls;
          EXPECT_TRUE(ctx.cell_index == 0 || ctx.cell_index == 2);
          return stamp_trial(ctx);
        },
        "stamp/v1", cache);
    EXPECT_EQ(spliced.to_json(), cold.to_json()) << "threads " << threads;
    EXPECT_EQ(calls.load(), 10);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().insertions, 4u);
  }
}

}  // namespace
}  // namespace ppsim::cache
