// perfbench — one workload of the perf ledger per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-file PATH] [--break-input]
//
// Prints the host fingerprint, the science outputs and every metric with
// its unit and direction, then, as the last line, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the layer rows
// and a traced pass of the workload, reports the per-layer metrics and
// writes the spans as Chrome trace-event JSON to --trace-file.
// --work-dir must not exist yet: the run creates it for caches and archives
// and removes it at exit.
// Exits 1 (printing no result) on bad arguments or an error, 3 when the
// binary is not a Release build.
#include <cpuid.h>

#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "ppsim/kernels/round_kernel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

struct Args {
  RunOptions run;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--break-input") {
      a.run.break_input = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.run.seconds = std::stod(value);
      if (!(a.run.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.run.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.run.work_dir = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.run.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  const std::string kernel = ppsim::kernels::to_string(ppsim::kernels::auto_kind());
  std::cout << "perfbench workload=" << args.run.workload
            << " seed=" << args.run.seed << " seconds=" << args.run.seconds
            << " trace=" << (args.run.trace ? 1 : 0) << "\n"
            << "host: cpu " << json_string(cpu_model()) << ", nproc "
            << std::thread::hardware_concurrency() << ", kernel auto=" << kernel
            << ", compiler " << json_string(PERFBENCH_COMPILER) << ", flags "
            << json_string(PERFBENCH_FLAGS) << ", build " << PERFBENCH_BUILD_TYPE
#ifndef NDEBUG
            << " (assertions ON)"
#endif
            << "\n";

  // The scratch directory is removed wholesale at the end, so it must be
  // one this run creates.
  if (!std::filesystem::create_directories(args.run.work_dir)) {
    throw std::invalid_argument("--work-dir " + args.run.work_dir +
                                " already exists; pass a new directory");
  }
  Tracer tracer(args.run.trace);
  Report report;
  if (args.run.trace) run_layer_rows(args.run.seed, args.run.work_dir, report);
  const Outcome outcome = run_workload(args.run, tracer, report);
  std::filesystem::remove_all(args.run.work_dir);

  if (args.run.trace && !args.trace_file.empty()) {
    tracer.write_chrome_json(
        args.trace_file,
        {{"workload", json_string(args.run.workload)},
         {"seed", std::to_string(args.run.seed)},
         {"cpu", json_string(cpu_model())},
         {"nproc", std::to_string(std::thread::hardware_concurrency())},
         {"kernel_auto", json_string(kernel)},
         {"compiler", json_string(PERFBENCH_COMPILER)},
         {"flags", json_string(PERFBENCH_FLAGS)},
         {"build_type", json_string(PERFBENCH_BUILD_TYPE)}});
    report.info("trace written to " + args.trace_file +
                " (Chrome trace-event JSON; open in ui.perfetto.dev)");
  }

  for (const std::string& line : report.info_lines()) std::cout << line << "\n";
  std::string metrics;
  for (const Metric& m : report.metrics()) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit;
    if (!m.better.empty()) std::cout << " (" << m.better << " is better)";
    if (!m.note.empty()) std::cout << " -- " << m.note;
    std::cout << "\n";
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
