// Content-addressed cache of completed sweep cells.
//
// A sweep cell's raw trial data is a pure function of its canonical inputs:
// the cell's axes and params, its position in the grid (stream indices are
// cell_index * trials + trial, so position IS an input), the trial count
// cap, the base seed, the stopping discipline, the resolved kernel, the
// identity of the trial function, and the build version. The cache keys on
// a canonical JSON rendering of exactly those inputs — render_double keeps
// the float spelling platform-invariant — and stores ONLY the raw per-trial
// metrics. Aggregates are deliberately not stored: a hit is replayed
// through the same aggregate_sweep_cell() path a cold run uses, so a cached
// cell can never diverge by a byte from a computed one (the load-bearing
// invariant cell_cache_test and the CI cold/warm `ppsim_run --cache-dir`
// comparison pin). The cache is an optimization, never a second code path
// for results.
//
// Two tiers: an in-memory LRU front (capacity in entries) and an optional
// write-through on-disk back (one checksummed record per key, named by the
// key's fnv1a hash, reusing io/wire primitives). Disk records embed the
// full canonical key and are verified on load — a hash collision or a
// corrupted file degrades to a miss, never to wrong data.
//
// run_cached() is the one sweep path through the cache: hits replay, misses
// run on the SweepRunner and are inserted as they complete.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ppsim/core/sweep.hpp"

namespace ppsim::cache {

/// The canonical content address of cell `cell_index` of `spec` as computed
/// by the trial function identified by `trial_fn_id`. Deliberately EXCLUDES
/// spec.name, spec.threads and cell.name — none of them influence the
/// cell's trial data (thread-count invariance is pinned by sweep_test and
/// sweep_stress_test) — and INCLUDES io::kBuildVersion, so a rebuild that
/// could change numerics starts from a cold cache. `trial_fn_id` must encode
/// everything the trial closure captures that varies results (e.g.
/// ppsim_run uses "ppsim_run/v1;engine=<flag>;max_parallel=<x>").
std::string canonical_cell_key(const SweepSpec& spec, std::size_t cell_index,
                               std::string_view trial_fn_id);

/// Stable 64-bit content address of a canonical key (fnv1a), also the disk
/// file stem, rendered as 16 lowercase hex digits.
std::string cell_key_hash(std::string_view canonical_key);

/// What the cache stores per cell: the raw deterministic trial data, nothing
/// derived. The caller stamps cell/cell_index from its own spec and rebuilds
/// aggregates via aggregate_sweep_cell().
struct CachedCellData {
  std::size_t trials_requested = 0;
  std::size_t trials_run = 0;
  std::vector<SweepMetrics> trials;  ///< sized to trials_run
};

struct CellCacheStats {
  std::uint64_t hits = 0;         ///< memory_hits + disk_hits
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;    ///< misses in memory served from disk
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;    ///< LRU entries displaced from memory
};

class CellCache {
 public:
  struct Options {
    /// Entries held by the in-memory LRU front (>= 1).
    std::size_t memory_capacity = 256;
    /// Directory for the persistent back; "" = memory-only. Created on
    /// demand; each entry is one "<fnv1a-hex>.ppcell" checksummed record.
    std::string disk_dir;
  };

  explicit CellCache(Options options);

  /// Returns the stored data for `canonical_key`, consulting memory first,
  /// then disk (a disk hit is promoted into memory). A corrupt, truncated
  /// or key-mismatched disk record counts as a miss. Thread-safe.
  std::optional<CachedCellData> lookup(const std::string& canonical_key);

  /// Stores `data` under `canonical_key` in memory and (when configured)
  /// write-through to disk. Throws CheckFailure on disk IO failure —
  /// a persistent cache that silently drops writes would turn "second run
  /// is all hits" into a flaky property. Thread-safe.
  void insert(const std::string& canonical_key, const CachedCellData& data);

  CellCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    CachedCellData data;
    /// Intrusive LRU list indices into entries_ (npos-terminated).
    std::size_t prev = npos;
    std::size_t next = npos;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::string disk_path(std::string_view canonical_key) const;
  void lru_unlink(std::size_t i);
  void lru_push_front(std::size_t i);
  void memory_insert(const std::string& key, const CachedCellData& data);
  std::optional<CachedCellData> disk_load(const std::string& canonical_key);
  void disk_store(const std::string& canonical_key,
                  const CachedCellData& data);

  Options options_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;                          ///< slab, LRU-linked
  std::unordered_map<std::string, std::size_t> index_;  ///< key -> slab slot
  std::vector<std::size_t> free_;                       ///< recycled slots
  std::size_t lru_head_ = npos;  ///< most recently used
  std::size_t lru_tail_ = npos;  ///< eviction candidate
  CellCacheStats stats_;
};

/// Runs `runner`'s sweep through `cache`: every cell whose canonical key
/// (under `trial_fn_id`) hits is replayed through aggregate_sweep_cell at
/// its original index, the misses run in one run_job call and are inserted
/// as each completes. A cold, warm or partially warm call returns a report
/// byte-identical to runner.run(fn); a fully warm one calls `fn` zero times.
SweepResult run_cached(const SweepRunner& runner, const SweepTrialFn& fn,
                       std::string_view trial_fn_id, CellCache& cache);

}  // namespace ppsim::cache
