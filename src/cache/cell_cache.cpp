#include "ppsim/cache/cell_cache.hpp"

#include <filesystem>
#include <fstream>

#include "ppsim/io/trajectory.hpp"
#include "ppsim/io/wire.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/json.hpp"

namespace ppsim::cache {

namespace {

constexpr std::string_view kMagic = "PPCELL1\n";

}  // namespace

std::string canonical_cell_key(const SweepSpec& spec, std::size_t cell_index,
                               std::string_view trial_fn_id) {
  PPSIM_CHECK(cell_index < spec.cells.size(),
              "canonical_cell_key: cell index out of range");
  const SweepCell& cell = spec.cells[cell_index];
  JsonObject params;
  for (const auto& [key, value] : cell.params) params.field(key, value);
  JsonObject cell_obj;
  cell_obj.field("n", cell.n)
      .field("k", static_cast<std::int64_t>(cell.k))
      .field("bias", cell.bias)
      .field("engine", to_string(cell.engine))
      .field("protocol", cell.protocol)
      .field("tau_epsilon", cell.tau_epsilon)
      .field("kernel", kernels::to_string(cell.kernel.value_or(spec.kernel)))
      .field("params", params);
  JsonObject stopping;
  stopping.field("mode", spec.stopping.adaptive ? "auto" : "fixed");
  if (spec.stopping.adaptive) {
    stopping.field("rel_err", spec.stopping.rel_err)
        .field("confidence", spec.stopping.confidence)
        .field("min_trials",
               static_cast<std::int64_t>(spec.stopping.min_trials))
        .field("metric", spec.stopping.metric);
  }
  JsonObject key;
  key.field("build", std::string(io::kBuildVersion))
      .field("fn", std::string(trial_fn_id))
      .field("cell_index", static_cast<std::int64_t>(cell_index))
      .field("trials", static_cast<std::int64_t>(spec.trials))
      .field("base_seed", static_cast<std::int64_t>(spec.base_seed))
      .field("stopping", stopping)
      .field("cell", cell_obj);
  return key.str();
}

std::string cell_key_hash(std::string_view canonical_key) {
  const std::uint64_t h = io::fnv1a(canonical_key);
  constexpr char hex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = hex[(h >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

CellCache::CellCache(Options options) : options_(std::move(options)) {
  PPSIM_CHECK(options_.memory_capacity >= 1,
              "cell cache needs a memory capacity of at least one entry");
  if (!options_.disk_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.disk_dir, ec);
    PPSIM_CHECK(!ec, "cannot create cell cache directory " + options_.disk_dir +
                         ": " + ec.message());
  }
}

std::string CellCache::disk_path(std::string_view canonical_key) const {
  return options_.disk_dir + "/" + cell_key_hash(canonical_key) + ".ppcell";
}

void CellCache::lru_unlink(std::size_t i) {
  Entry& e = entries_[i];
  if (e.prev != npos) {
    entries_[e.prev].next = e.next;
  } else {
    lru_head_ = e.next;
  }
  if (e.next != npos) {
    entries_[e.next].prev = e.prev;
  } else {
    lru_tail_ = e.prev;
  }
  e.prev = e.next = npos;
}

void CellCache::lru_push_front(std::size_t i) {
  Entry& e = entries_[i];
  e.prev = npos;
  e.next = lru_head_;
  if (lru_head_ != npos) entries_[lru_head_].prev = i;
  lru_head_ = i;
  if (lru_tail_ == npos) lru_tail_ = i;
}

void CellCache::memory_insert(const std::string& key,
                              const CachedCellData& data) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    entries_[it->second].data = data;
    lru_unlink(it->second);
    lru_push_front(it->second);
    return;
  }
  if (index_.size() >= options_.memory_capacity) {
    const std::size_t victim = lru_tail_;
    lru_unlink(victim);
    index_.erase(entries_[victim].key);
    entries_[victim] = Entry{};
    free_.push_back(victim);
    ++stats_.evictions;
  }
  std::size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = entries_.size();
    entries_.emplace_back();
  }
  entries_[slot].key = key;
  entries_[slot].data = data;
  lru_push_front(slot);
  index_.emplace(key, slot);
}

std::optional<CachedCellData> CellCache::lookup(
    const std::string& canonical_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(canonical_key);
  if (it != index_.end()) {
    lru_unlink(it->second);
    lru_push_front(it->second);
    ++stats_.hits;
    ++stats_.memory_hits;
    return entries_[it->second].data;
  }
  if (!options_.disk_dir.empty()) {
    std::optional<CachedCellData> loaded = disk_load(canonical_key);
    if (loaded.has_value()) {
      memory_insert(canonical_key, *loaded);  // promote
      ++stats_.hits;
      ++stats_.disk_hits;
      return loaded;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void CellCache::insert(const std::string& canonical_key,
                       const CachedCellData& data) {
  PPSIM_CHECK(data.trials.size() == data.trials_run &&
                  data.trials_run <= data.trials_requested,
              "cell cache insert: inconsistent trial counts");
  const std::lock_guard<std::mutex> lock(mutex_);
  memory_insert(canonical_key, data);
  ++stats_.insertions;
  if (!options_.disk_dir.empty()) disk_store(canonical_key, data);
}

CellCacheStats CellCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::optional<CachedCellData> CellCache::disk_load(
    const std::string& canonical_key) {
  // Disk records are untrusted input (another build, a torn write, bit
  // rot): every anomaly — bad magic, checksum mismatch, malformed body,
  // or a hash collision surfacing as a key mismatch — degrades to a miss.
  std::ifstream in(disk_path(canonical_key), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::size_t header = kMagic.size();
  if (raw.size() < header + 8 ||
      std::string_view(raw.data(), header) != kMagic) {
    return std::nullopt;
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(raw.data());
  const std::size_t body_len = raw.size() - header - 8;
  std::uint64_t stored_sum = 0;
  for (int i = 0; i < 8; ++i) {
    stored_sum |= static_cast<std::uint64_t>(bytes[header + body_len +
                                                   static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  if (io::fnv1a(bytes + header, body_len) != stored_sum) return std::nullopt;

  io::ByteReader reader(bytes + header, body_len);
  if (reader.string() != canonical_key) return std::nullopt;
  CachedCellData data;
  data.trials_requested = static_cast<std::size_t>(reader.varint());
  data.trials_run = static_cast<std::size_t>(reader.varint());
  const std::uint64_t trial_count = reader.varint();
  if (!reader.ok() || trial_count != data.trials_run ||
      data.trials_run > data.trials_requested) {
    return std::nullopt;
  }
  data.trials.resize(static_cast<std::size_t>(trial_count));
  for (SweepMetrics& trial : data.trials) {
    const std::uint64_t metric_count = reader.varint();
    if (!reader.ok() || metric_count > reader.remaining()) return std::nullopt;
    trial.reserve(static_cast<std::size_t>(metric_count));
    for (std::uint64_t m = 0; m < metric_count; ++m) {
      std::string name = reader.string();
      const double value = reader.f64();
      trial.emplace_back(std::move(name), value);
    }
  }
  if (!reader.ok() || !reader.at_end()) return std::nullopt;
  return data;
}

void CellCache::disk_store(const std::string& canonical_key,
                           const CachedCellData& data) {
  io::Bytes body;
  io::put_string(body, canonical_key);
  io::put_varint(body, data.trials_requested);
  io::put_varint(body, data.trials_run);
  io::put_varint(body, data.trials.size());
  for (const SweepMetrics& trial : data.trials) {
    io::put_varint(body, trial.size());
    for (const auto& [name, value] : trial) {
      io::put_string(body, name);
      io::put_f64(body, value);
    }
  }
  const std::string path = disk_path(canonical_key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    PPSIM_CHECK(out.good(), "cannot open cell cache file " + tmp);
    out.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
    out.write(reinterpret_cast<const char*>(body.data()),
              static_cast<std::streamsize>(body.size()));
    io::Bytes sum;
    io::put_fixed64(sum, io::fnv1a(body));
    out.write(reinterpret_cast<const char*>(sum.data()),
              static_cast<std::streamsize>(sum.size()));
    PPSIM_CHECK(out.good(), "failed writing cell cache file " + tmp);
  }
  // Atomic publish: a reader (this process or another sharing the
  // directory) sees either the old record or the complete new one.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  PPSIM_CHECK(!ec, "cannot publish cell cache file " + path + ": " +
                       ec.message());
}

SweepResult run_cached(const SweepRunner& runner, const SweepTrialFn& fn,
                       std::string_view trial_fn_id, CellCache& cache) {
  // Key off the runner's spec: it has the resolved kernel stamped into
  // every cell, which the canonical key must see.
  const SweepSpec& spec = runner.spec();
  const std::size_t num_cells = spec.cells.size();
  std::vector<std::string> keys(num_cells);
  std::vector<std::optional<CachedCellData>> hits(num_cells);
  SweepJobOptions opts;
  opts.skip.assign(num_cells, false);
  for (std::size_t c = 0; c < num_cells; ++c) {
    keys[c] = canonical_cell_key(spec, c, trial_fn_id);
    hits[c] = cache.lookup(keys[c]);
    opts.skip[c] = hits[c].has_value();
  }
  opts.on_cell = [&](const SweepCellResult& cr) {
    cache.insert(keys[cr.cell_index],
                 {cr.trials_requested, cr.trials_run, cr.trials});
  };
  // Skipped cells come back empty at their original index (the seeding
  // discipline keys streams by position); fill them from the hits.
  SweepResult result = runner.run_job(fn, opts);
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (!hits[c].has_value()) continue;
    SweepCellResult& cr = result.cells[c];
    cr.trials_requested = hits[c]->trials_requested;
    cr.trials_run = hits[c]->trials_run;
    cr.trials = std::move(hits[c]->trials);
    aggregate_sweep_cell(cr);
  }
  return result;
}

}  // namespace ppsim::cache
