// Shared scaffolding for the bench harnesses: every bench resolves its
// parameters from the command line, echoes them (so captured output is
// self-describing), emits a machine-readable TSV block delimited by
// "### begin tsv <name>" / "### end tsv", and usually an ASCII rendering.
// Machine-readable JSON comes from the SweepRunner's unified reporter
// (ppsim/core/sweep.hpp).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>

#include "ppsim/core/sweep.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/json.hpp"
#include "ppsim/util/table.hpp"

namespace ppsim::benchutil {

/// Above this population the per-agent-cost engines take minutes per trial;
/// "--engine auto" switches the USD benches to the counts-space collapsed
/// engine there.
inline constexpr Count kAutoCollapsedThreshold = 10'000'000;

/// Resolution of the shared --engine flag for the USD benches. `name` is the
/// resolved flag value, `protocol_label` the sweep-cell protocol string
/// ("usd-specialized" for the exact sequential Simulator: the label predates
/// the engine and stays so that published reports keep their bytes).
struct ResolvedEngine {
  EngineKind kind;
  std::string name;
  std::string protocol_label;
};

/// Resolves `engine` ("auto" picks collapsed above kAutoCollapsedThreshold,
/// sequential otherwise) and validates it against "sequential" plus
/// `extra_allowed`. Throws CheckFailure on anything else.
inline ResolvedEngine resolve_usd_engine(
    std::string engine, Count n,
    std::initializer_list<const char*> extra_allowed) {
  if (engine == "auto") {
    engine = n > kAutoCollapsedThreshold ? "collapsed" : "sequential";
  }
  bool ok = engine == "sequential";
  std::string options = "auto, sequential";
  for (const char* allowed : extra_allowed) {
    ok = ok || engine == allowed;
    options += std::string(", ") + allowed;
  }
  PPSIM_CHECK(ok, "--engine must be one of: " + options);
  return {*parse_engine(engine), engine,
          engine == "sequential" ? "usd-specialized" : "usd-" + engine};
}

/// The engine a USD bench trial runs. Sequential cells seed the Simulator
/// with the trial's scalar `seed`, the stream their reports have always
/// used; the round kinds take make_engine's own draw.
inline Engine make_usd_engine(const SweepTrial& ctx, const Protocol& protocol,
                              Configuration initial) {
  if (ctx.cell.engine == EngineKind::kSequential) {
    return Engine(EngineKind::kSequential, protocol, std::move(initial), ctx.seed);
  }
  return ctx.make_engine(protocol, std::move(initial));
}

/// Checks a --kmin/--kmax sweep range at parse time: 2 ≤ kmin ≤ kmax. The
/// k loops double from kmin, and k = 1 has no minority opinion.
inline void check_k_range(std::int64_t kmin, std::int64_t kmax) {
  PPSIM_CHECK(kmin >= 2, "--kmin must be at least 2, got " + std::to_string(kmin));
  PPSIM_CHECK(kmax >= kmin, "--kmax must be at least --kmin, got --kmin " +
                                std::to_string(kmin) + " --kmax " +
                                std::to_string(kmax));
}

/// Prints the bench banner with the resolved parameter set.
inline void banner(const std::string& name, const std::string& purpose) {
  std::cout << "==============================================================\n"
            << "bench: " << name << "\n"
            << purpose << "\n"
            << "==============================================================\n";
}

inline void param(const std::string& name, const std::string& value) {
  std::cout << "  " << name << " = " << value << "\n";
}

inline void param(const std::string& name, std::int64_t value) {
  param(name, std::to_string(value));
}

inline void param(const std::string& name, double value) {
  param(name, format_double(value, 4));
}

/// Emits a named TSV block (greppable from recorded output).
inline void tsv_block(const std::string& name, const Table& table) {
  std::cout << "### begin tsv " << name << "\n";
  table.write_tsv(std::cout);
  std::cout << "### end tsv\n";
}

/// Echoes the shared sweep flags and writes the unified JSON report — the
/// common tail of every refactored bench's run().
inline void finish_sweep(const SweepResult& result, const SweepCliOptions& opts) {
  std::cout << "sweep wall seconds: " << format_double(result.wall_seconds, 3)
            << " (threads " << result.threads << ")\n";
  if (!opts.json.empty()) {
    result.write_json(opts.json);
    std::cout << "json report written to " << opts.json << "\n";
  }
}

}  // namespace ppsim::benchutil
