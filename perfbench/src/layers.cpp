// Layer microbenchmark rows. Each row calls one public library function on
// fixed inputs (random streams seeded from --seed), runs one warm-up block,
// then kReps timed blocks, and reports the median per-operation time; the
// IQR over blocks goes into the note.
//
// The round-level rows use the paper-scale law: k = 27 (S = 28 states, 756
// active pairs) at n = 10^9 with a third of the agents undecided, and one
// round of τ = 0.05·n interactions — the collapsed engine's ε·n cap.
#include <filesystem>
#include <functional>
#include <sstream>

#include "ppsim/analysis/initial.hpp"
#include "ppsim/cache/cell_cache.hpp"
#include "ppsim/core/scheduler.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/io/trajectory.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/alias_table.hpp"
#include "ppsim/util/random_variates.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace ppsim;

constexpr int kReps = 7;
constexpr Count kPaperN = 1'000'000'000;
constexpr Interactions kRoundTau = kPaperN / 20;

template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Times `block` (which performs `ops` operations) once to warm up and
/// kReps times for the record; adds the median time per operation, in
/// `unit_scale` units per second (1e9 for ns, 1e6 for us).
void row(Report& report, const std::string& name, const std::string& unit,
         double unit_scale, double ops, const std::function<void()>& block) {
  block();
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    block();
    per_op.push_back(seconds_between(t0, now_ns()) * unit_scale / ops);
  }
  std::ostringstream note;
  note << "layer row, median of " << kReps << " blocks of " << ops
       << " ops, IQR [" << json_number(quantile(per_op, 0.25)) << ", "
       << json_number(quantile(per_op, 0.75)) << "]";
  report.add(name, median(per_op), unit, "lower", note.str());
}

/// Throughput row: `block` moves `bytes()` bytes; reports median MB/s.
void throughput_row(Report& report, const std::string& name,
                    const std::function<double()>& block) {
  block();
  std::vector<double> mb_s;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    const double bytes = block();
    mb_s.push_back(bytes / 1e6 / seconds_between(t0, now_ns()));
  }
  std::ostringstream note;
  note << "layer row, median of " << kReps << " blocks, IQR ["
       << json_number(quantile(mb_s, 0.25)) << ", "
       << json_number(quantile(mb_s, 0.75)) << "]";
  report.add(name, median(mb_s), "MB/s", "higher", note.str());
}

/// USD at n with k opinions, a third of every opinion moved to undecided:
/// every one of the law's pairs is active.
Configuration mid_run(Count n, std::size_t k) {
  InitialConfig init = figure1_configuration(n, k);
  Count undecided = 0;
  for (Count& c : init.opinion_counts) {
    const Count moved = c / 3;
    c -= moved;
    undecided += moved;
  }
  return UndecidedStateDynamics::initial_configuration(init.opinion_counts,
                                                       undecided);
}

void variate_rows(std::uint64_t seed, Report& report) {
  Xoshiro256pp rng(seed);
  constexpr double kWords = 1 << 20;
  row(report, "rng.next_ns", "ns", 1e9, kWords, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < (1 << 20); ++i) acc ^= rng();
    keep(acc);
  });
  row(report, "rng.bounded_ns", "ns", 1e9, kWords, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < (1 << 20); ++i) acc ^= rng.bounded(1'000'000'007);
    keep(acc);
  });
  constexpr int kDraws = 1 << 15;
  const auto binomial_row = [&](const char* name, std::int64_t trials,
                                double p) {
    row(report, name, "ns", 1e9, kDraws, [&, trials, p] {
      std::int64_t acc = 0;
      for (int i = 0; i < kDraws; ++i) acc += binomial(rng, trials, p);
      keep(acc);
    });
  };
  binomial_row("binomial.small_np_ns", 1000, 0.004);          // n·p = 4
  binomial_row("binomial.btrs_ns", kRoundTau, 0.3);           // large n·p
  binomial_row("binomial.n2p53_ns", std::int64_t{1} << 53, 0.25);
}

void round_rows(std::uint64_t seed, Report& report) {
  const UndecidedStateDynamics usd27(27);
  const UndecidedStateDynamics usd64(64);
  const TransitionTable table27(usd27);
  const TransitionTable table64(usd64);
  const Configuration config27 = mid_run(kPaperN, 27);
  const Configuration config64 = mid_run(kPaperN, 64);
  kernels::PairLaw law27;
  kernels::PairLaw law64;
  law27.rebuild(table27, config27);
  law64.rebuild(table64, config64);
  Xoshiro256pp rng(seed ^ 0x5bd1e995ull);

  constexpr int kCalls = 256;
  std::vector<std::int64_t> draws;
  row(report, "multinomial.pairs756_us", "us", 1e6, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      multinomial_into(rng, kRoundTau, law27.weights(), draws);
    }
    keep(draws);
  });
  const auto alias_row = [&](const char* name, const kernels::PairLaw& law,
                             int calls) {
    row(report, name, "us", 1e6, calls, [&, calls] {
      for (int i = 0; i < calls; ++i) {
        const AliasTable table(law.weights());
        keep(table);
      }
    });
  };
  alias_row("alias.build_s28_us", law27, kCalls);
  alias_row("alias.build_s65_us", law64, kCalls / 4);
  const auto rebuild_row = [&](const char* name, const TransitionTable& table,
                               const Configuration& config, int calls) {
    kernels::PairLaw law;
    row(report, name, "us", 1e6, calls, [&, calls] {
      for (int i = 0; i < calls; ++i) law.rebuild(table, config);
      keep(law);
    });
  };
  rebuild_row("pair_law.rebuild_s28_us", table27, config27, kCalls);
  rebuild_row("pair_law.rebuild_s65_us", table64, config64, kCalls / 4);

  multinomial_into(rng, kRoundTau, law27.weights(), draws);
  row(report, "pair_law.apply_draws_us", "us", 1e6, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      Configuration live = config27;
      keep(kernels::apply_draws(law27, live, draws));
    }
  });

  const auto advance_row = [&](const char* name,
                               const kernels::RoundKernel& kernel) {
    row(report, name, "us", 1e6, kCalls, [&] {
      for (int i = 0; i < kCalls; ++i) {
        kernels::RoundTask task{&law27, kRoundTau, &rng, &draws, 0};
        kernel.advance(task);
        keep(task.active);
      }
    });
  };
  advance_row("kernel.advance_scalar_us", kernels::scalar_kernel());
  if (kernels::avx2_supported()) {
    advance_row("kernel.advance_avx2_us", kernels::resolve(kernels::KernelKind::kAvx2));
  } else {
    report.add("kernel.advance_avx2_us", 0.0, "us", "lower",
               "AVX2 kernel unavailable on this build or CPU");
  }
}

void sequential_rows(std::uint64_t seed, Report& report) {
  const UndecidedStateDynamics usd(27);
  const InitialConfig init = figure1_configuration(1'000'000, 27);
  const Configuration config =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  const TransitionTable table(usd);
  constexpr int kSteps = 1 << 20;

  Simulator sim(usd, config, seed);
  row(report, "sequential.interaction_ns", "ns", 1e9, kSteps, [&] {
    for (int i = 0; i < kSteps; ++i) sim.step();
    keep(sim.interactions());
  });
  PairSampler sampler(config);
  Xoshiro256pp rng(seed ^ 0x2545f4914f6cdd1dull);
  row(report, "pair_sampler.sample_ns", "ns", 1e9, kSteps, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < kSteps; ++i) {
      const auto [a, b] = sampler.sample(rng);
      acc += a ^ b;
    }
    keep(acc);
  });
  constexpr int kChecks = 1 << 16;
  row(report, "transition_table.is_stable_us", "us", 1e6, kChecks, [&] {
    int stable = 0;
    for (int i = 0; i < kChecks; ++i) stable += table.is_stable(config) ? 1 : 0;
    keep(stable);
  });
}

void archive_rows(std::uint64_t seed, const fs::path& dir, Report& report) {
  constexpr std::size_t kSamples = 20'000;
  constexpr std::size_t kCheckpointEvery = 2'000;
  constexpr Count kN = 1'000'000;
  const io::ArchiveChannels channels = io::usd_archive_channels(27);
  io::ArchiveRunSpec spec;
  spec.engine = EngineKind::kCollapsed;
  spec.protocol_name = "usd";
  spec.seed = seed;
  spec.k = 27;
  spec.max_interactions = kN * 1000;
  spec.record_stride = kN / 10;
  spec.checkpoint_every = kN;
  const io::TrajectoryHeader header =
      io::make_header(spec, kN, 28, channels.names);
  const std::string path = (dir / "row.pptraj").string();

  throughput_row(report, "pptraj.write_mb_s", [&] {
    Xoshiro256pp rng(seed);
    io::TrajectoryWriter writer(path, header);
    std::vector<double> values = {0.0, 500'000.0, 10'000.0, 27.0};
    EngineCheckpoint cp;
    cp.counts.assign(28, kN / 28);
    for (std::size_t i = 0; i < kSamples; ++i) {
      for (double& v : values) {
        v = std::max(0.0, v + static_cast<double>(rng.bounded(201)) - 100.0);
      }
      const auto clock = static_cast<Interactions>(i) * spec.record_stride;
      writer.sample(clock, values);
      if ((i + 1) % kCheckpointEvery == 0) {
        cp.interactions = clock;
        cp.rng_state = rng.state();
        writer.checkpoint(cp);
      }
    }
    writer.finish({.stabilized = true,
                   .interactions = static_cast<Interactions>(kSamples) *
                                   spec.record_stride,
                   .clamped = 0,
                   .consensus = 0});
    return static_cast<double>(fs::file_size(path));
  });
  throughput_row(report, "pptraj.read_mb_s", [&] {
    const io::TrajectoryReader reader(path);
    std::size_t samples = 0;
    for (std::size_t b = 0; b < reader.num_blocks(); ++b) {
      samples += reader.decode_block(b).interactions.size();
    }
    keep(samples);
    return static_cast<double>(fs::file_size(path));
  });
  fs::remove(path);
}

void cache_rows(const fs::path& dir, Report& report) {
  // 64 distinct canonical keys of realistic shape, each holding 32 trials
  // of the standard consensus metric block.
  SweepSpec spec;
  spec.trials = 32;
  for (std::size_t k = 2; k < 66; ++k) {
    SweepCell cell;
    cell.n = 1'000'000;
    cell.k = k;
    cell.engine = EngineKind::kCollapsed;
    spec.cells.push_back(cell);
  }
  std::vector<std::string> keys;
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    keys.push_back(cache::canonical_cell_key(spec, c, "perfbench/layers/v1"));
  }
  cache::CachedCellData data;
  data.trials_requested = data.trials_run = spec.trials;
  for (std::size_t t = 0; t < spec.trials; ++t) {
    TrialResult r;
    r.stabilized = true;
    r.interactions = 123'456'789 + static_cast<Interactions>(t);
    r.parallel_time = static_cast<double>(r.interactions) / 1e6;
    r.winner = 0;
    data.trials.push_back(consensus_metrics(r));
  }
  const auto ops = static_cast<double>(keys.size());
  int generation = 0;
  fs::path current;
  const auto fresh_dir = [&] {
    current = dir / ("cache" + std::to_string(generation++));
    return current.string();
  };
  row(report, "cache.insert_us", "us", 1e6, ops, [&] {
    cache::CellCache cache({.memory_capacity = 256, .disk_dir = fresh_dir()});
    for (const std::string& key : keys) cache.insert(key, data);
  });
  cache::CellCache warm({.memory_capacity = 256, .disk_dir = current.string()});
  for (const std::string& key : keys) keep(warm.lookup(key));
  row(report, "cache.lookup_mem_us", "us", 1e6, ops, [&] {
    for (const std::string& key : keys) keep(warm.lookup(key));
  });
  row(report, "cache.lookup_disk_us", "us", 1e6, ops, [&] {
    cache::CellCache cold({.memory_capacity = 256, .disk_dir = current.string()});
    for (const std::string& key : keys) keep(cold.lookup(key));
  });
}

}  // namespace

void run_layer_rows(std::uint64_t seed, const std::string& work_dir,
                    Report& report) {
  const fs::path dir = fs::path(work_dir) / "layers";
  fs::create_directories(dir);
  variate_rows(seed, report);
  round_rows(seed, report);
  sequential_rows(seed, report);
  archive_rows(seed, dir, report);
  cache_rows(dir, report);
}

}  // namespace perfbench
