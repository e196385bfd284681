// Shared scaffolding for the bench harnesses: every bench resolves its
// parameters from the command line, echoes them (so captured output is
// self-describing), emits a machine-readable TSV block delimited by
// "### begin tsv <name>" / "### end tsv", and usually an ASCII rendering.
// Machine-readable JSON comes from the SweepRunner's unified reporter
// (ppsim/core/sweep.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/json.hpp"
#include "ppsim/util/table.hpp"

namespace ppsim::benchutil {

/// Domain of the collapsed engine's tuning flag, --tau-epsilon.
inline constexpr RealDomain kTauEpsilon{.lo = 0.0, .hi = 1.0, .lo_open = true};

/// Reads --engine (auto, sequential or collapsed; resolve_engine picks auto
/// by n) and --tau-epsilon into a cell template: engine, protocol label and
/// tuning. --tau-epsilon given explicitly to the sequential engine, which
/// ignores it, is an error.
inline SweepCell read_usd_engine(Cli& cli, Count n) {
  const std::string name =
      cli.get_string("engine", "auto", {"auto", "sequential", "collapsed"});
  SweepCell cell;
  cell.engine = resolve_engine(name, n);
  // The exact sequential Simulator's label predates the engine and stays so
  // that published reports keep their bytes.
  cell.protocol = cell.engine == EngineKind::kSequential
                      ? "usd-specialized"
                      : "usd-" + to_string(cell.engine);
  cell.tau_epsilon = cli.get_double("tau-epsilon", 0.05, kTauEpsilon);
  PPSIM_CHECK(!cli.has("tau-epsilon") || cell.engine == EngineKind::kCollapsed,
              "--tau-epsilon applies only to --engine collapsed, not to --engine " +
                  to_string(cell.engine));
  return cell;
}

/// The engine a USD bench trial runs. Sequential cells seed the Simulator
/// with the trial's scalar `seed`, the stream their reports have always
/// used; the collapsed kind takes make_engine's own draw.
inline Engine make_usd_engine(const SweepTrial& ctx, const UndecidedStateDynamics& usd,
                              Configuration initial) {
  if (ctx.cell.engine == EngineKind::kSequential) {
    return Engine(EngineKind::kSequential, usd, std::move(initial), ctx.seed);
  }
  return ctx.make_engine(usd, std::move(initial));
}

/// Reads --kmin and --kmax: 2 ≤ kmin ≤ kmax. The k loops grow from kmin,
/// and k = 1 has no minority opinion.
inline std::pair<std::int64_t, std::int64_t> read_k_range(Cli& cli, std::int64_t kmin,
                                                          std::int64_t kmax) {
  kmin = cli.get_int("kmin", kmin, {.lo = 2});
  kmax = cli.get_int("kmax", kmax, {.lo = 2});
  PPSIM_CHECK(kmin <= kmax, "--kmin " + std::to_string(kmin) + " exceeds --kmax " +
                                std::to_string(kmax));
  return {kmin, kmax};
}

/// check_bias_fits (core/sweep) for figure1_configuration's bias ⌈√(n ln n)⌉.
inline void check_figure1_fits(Count n, std::size_t k, const std::string& flags) {
  check_bias_fits(n, k, std::ceil(bounds::whp_bias(n)), flags);
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
