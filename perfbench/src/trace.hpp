// Shared plumbing of the benchmark: the clock, order statistics, the metric
// report and the span tracer.
//
// Spans are recorded by the benchmark's own code around calls into library
// modules — never inside the library — so the layers are measured without
// editing them. They are kept in memory and written once, at exit, as
// Chrome trace-event JSON (Perfetto and chrome://tracing open it).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// One reported number: the value the final JSON line carries plus the
/// human-readable context printed beside it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" | "higher" | "" (a count or share)
  std::string note;    ///< sample count, IQR, percentile, ...
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string better = "", std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(better), std::move(note)});
  }
  /// Free-text line printed before the metrics (fingerprint, science).
  void info(std::string line) { info_.push_back(std::move(line)); }

  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<std::string>& info_lines() const noexcept { return info_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
};

/// In-memory span recorder. When disabled every call is one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::uint32_t tid;
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Fresh span id (ids are process-unique; 0 means "no span").
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stores a finished span recorded on the calling thread.
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t begin_ns, std::int64_t end_ns);

  std::size_t size() const;

  /// Writes {"traceEvents": [...], "metadata": {...}} with one complete
  /// ("X") event per span; `metadata` is (key, already-JSON value) pairs.
  void write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Scoped span: records [construction, destruction) when the tracer is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), name_(name), parent_(parent) {
    if (tracer_.enabled()) {
      id_ = tracer_.next_id();
      begin_ = now_ns();
    }
  }
  ~Scope() {
    if (tracer_.enabled()) tracer_.record(name_, id_, parent_, begin_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::int64_t begin_ = 0;
};

/// Small dense id of the calling thread (0 = first thread that asked).
std::uint32_t thread_index();

/// Escapes `s` as a JSON string literal (with quotes).
std::string json_string(const std::string& s);

/// Shortest round-trip decimal spelling of a double ("null" if not finite).
std::string json_number(double v);

}  // namespace perfbench
