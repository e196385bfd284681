// Scheduler determinism stress battery (the tentpole's pin): seeded
// randomized grids with deliberately skewed per-cell costs run at 1, 2, 8
// and 64 threads and must serialize byte-identical JSON every time — for
// fixed trial counts and for adaptive stopping. The 1-thread run is the
// oracle: it executes every task on one worker in submission order. Each case is kept to ~100 ms so the CI TSan lane can
// repeat the whole suite 50x (`ctest -R SweepStress --repeat until-fail:50`)
// and still finish in minutes.
//
// The trial metric is pure RNG + spin: cheap cells return after a handful
// of xorshift rounds, expensive cells after ~100x more, so trial completion
// order is thoroughly scrambled across runs while every reported number is
// a deterministic function of (base_seed, cell, trial).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ppsim/core/sweep.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {
namespace {

// Deterministic per-trial work: mixes the trial's private stream through a
// spin loop whose length is the cell's "cost" knob. Returns metrics that
// depend on every spin iteration, so skipping or reordering work would
// change the bytes.
SweepMetrics spin_trial(const SweepTrial& ctx) {
  const auto spins =
      static_cast<std::uint64_t>(ctx.cell.param("spins", 100.0));
  std::uint64_t acc = ctx.seed;
  for (std::uint64_t i = 0; i < spins; ++i) {
    acc ^= ctx.rng();
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  return SweepMetrics{
      {"digest", static_cast<double>(acc >> 11)},  // exact in a double
      {"draws", static_cast<double>(spins)},
  };
}

// A seeded random grid: 3-8 cells whose spin costs span two orders of
// magnitude, in shuffled order so expensive cells land at random submission
// positions (the convoy scenario the scheduler exists to fix).
SweepSpec random_spec(std::uint64_t grid_seed, unsigned threads) {
  Xoshiro256pp rng(grid_seed);
  SweepSpec spec;
  spec.name = "stress_" + std::to_string(grid_seed);
  spec.base_seed = grid_seed * 1000 + 7;
  spec.trials = 2 + static_cast<std::size_t>(rng() % 5);  // 2..6
  spec.threads = threads;
  const std::size_t cells = 3 + static_cast<std::size_t>(rng() % 6);  // 3..8
  for (std::size_t c = 0; c < cells; ++c) {
    SweepCell cell;
    cell.n = 100 + static_cast<Count>(rng() % 900);
    cell.k = 2 + static_cast<std::size_t>(rng() % 3);
    // Costs from ~40 to ~4000 spins: two orders of magnitude of skew.
    const double magnitude = static_cast<double>(rng() % 3);
    const double base = 40.0 + static_cast<double>(rng() % 60);
    double spins = base;
    for (double m = 0; m < magnitude; ++m) spins *= 10.0;
    cell.params = {{"spins", spins}};
    cell.name = "cell-" + std::to_string(c);
    spec.cells.push_back(cell);
  }
  return spec;
}

class SweepStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepStressTest, FixedTrialsByteIdenticalAcrossThreadCounts) {
  const std::uint64_t grid_seed = GetParam();
  const std::string reference =
      SweepRunner(random_spec(grid_seed, 1)).run(spin_trial).to_json();
  for (const unsigned threads : {2u, 8u, 64u}) {
    const SweepResult result =
        SweepRunner(random_spec(grid_seed, threads)).run(spin_trial);
    EXPECT_EQ(reference, result.to_json())
        << "grid " << grid_seed << " threads " << threads;
  }
}

TEST_P(SweepStressTest, AdaptiveStoppingByteIdenticalAcrossThreadCounts) {
  const std::uint64_t grid_seed = GetParam();
  auto adaptive = [grid_seed](unsigned threads) {
    SweepSpec spec = random_spec(grid_seed, threads);
    spec.trials = 16;  // the cap
    spec.stopping.adaptive = true;
    spec.stopping.min_trials = 2;
    spec.stopping.rel_err = 0.05;
    spec.stopping.metric = "digest";
    return spec;
  };
  const SweepResult reference = SweepRunner(adaptive(1)).run(spin_trial);
  const std::string reference_json = reference.to_json();
  for (const SweepCellResult& cr : reference.cells) {
    EXPECT_GE(cr.trials_run, 2u);
    EXPECT_LE(cr.trials_run, 16u);
  }
  for (const unsigned threads : {2u, 8u, 64u}) {
    const SweepResult result = SweepRunner(adaptive(threads)).run(spin_trial);
    EXPECT_EQ(reference_json, result.to_json())
        << "grid " << grid_seed << " threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(SeededGrids, SweepStressTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ppsim
