#include "trace.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t begin_ns, std::int64_t end_ns) {
  const std::uint32_t tid = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, parent, tid, begin_ns, end_ns});
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::lock_guard<std::mutex> lock(mutex_);
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":" << json_string(s.name) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.tid
        << ",\"ts\":" << json_number(static_cast<double>(s.begin_ns) * 1e-3)
        << ",\"dur\":"
        << json_number(static_cast<double>(s.end_ns - s.begin_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"metadata\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    out << (i == 0 ? "" : ",") << json_string(metadata[i].first) << ":"
        << metadata[i].second;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
