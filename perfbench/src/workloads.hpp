// The benchmark's workloads and layer rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for cell caches, archives and layer-row files;
  /// created and removed by the caller.
  std::string work_dir;
  /// Deliberately break one input (truncate an archive and a cached cell
  /// record) to show that the output checks catch it.
  bool break_input = false;
};

/// Checked operations of one run: trials, archives, warm reports and
/// traced-versus-untraced comparisons.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

const std::vector<std::string>& workload_names();

/// Runs one workload. Untraced (opts.trace false) it adds every end-to-end
/// metric to `report`; traced it adds the workload's per-layer metrics and
/// records spans into `tracer`.
Outcome run_workload(const RunOptions& opts, Tracer& tracer, Report& report);

/// The layer microbenchmark rows: each public function called on fixed
/// inputs derived from `seed`, timed after a warm-up, reported as a median
/// (the IQR goes into the note).
void run_layer_rows(std::uint64_t seed, const std::string& work_dir,
                    Report& report);

}  // namespace perfbench
