// Distributional validation of the AVX2 round kernel against the exact
// two-stage law the scalar kernel realises. The AVX2 backend uses its own
// binomial samplers (inversion + BTRS rejection) and a vectorised
// xoshiro256++, so its draw *values* differ from scalar — correctness is the
// distribution, pinned three ways:
//   1. chi-square of accumulated pair draws (including the null bucket)
//      against the exact start-of-round law;
//   2. moments of the stage-1 null-split binomial at extreme p, including
//      paper-scale batch sizes;
//   3. two-sample KS between avx2 and scalar stabilization times on USD.
// Every test SKIPs on hosts without AVX2 (the CI avx2 lane runs them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"
#include "stat_util.hpp"

namespace ppsim::kernels {
namespace {

/// One-directional epidemic on {0, 1}: f(1, 0) = (1, 1), all else null.
/// With counts (c0, c1) the only active pair has weight c1·c0, giving a
/// single-bucket law whose null-split binomial is easy to reason about.
class OneWayEpidemic final : public Protocol {
 public:
  std::size_t num_states() const override { return 2; }
  Transition apply(State initiator, State responder) const override {
    if (initiator == 1 && responder == 0) return {1, 1};
    return {initiator, responder};
  }
  std::optional<Opinion> output(State) const override { return 0; }
  std::string name() const override { return "one-way epidemic"; }
};

class Avx2DistributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2_supported()) {
      GTEST_SKIP() << "host lacks AVX2 (or the kernel was compiled out)";
    }
    kernel_ = &resolve(KernelKind::kAvx2);
  }

  /// Advances one task per generator over `law` with the given batch, one
  /// advance() call each — the per-trial path a sweep runs; returns
  /// per-generator (active, draws).
  void advance_lanes(const PairLaw& law, Interactions batch,
                     std::vector<Xoshiro256pp>& rngs,
                     std::vector<RoundTask>& tasks,
                     std::vector<std::vector<std::int64_t>>& draws) {
    tasks.resize(rngs.size());
    draws.resize(rngs.size());
    for (std::size_t l = 0; l < rngs.size(); ++l) {
      tasks[l].law = &law;
      tasks[l].batch = batch;
      tasks[l].rng = &rngs[l];
      tasks[l].draws = &draws[l];
      tasks[l].active = 0;
      kernel_->advance(tasks[l]);
    }
  }

  const RoundKernel* kernel_ = nullptr;
};

TEST_F(Avx2DistributionTest, PairDrawsMatchTheExactLawByChiSquare) {
  const UndecidedStateDynamics usd(3);
  const TransitionTable table(usd);
  PairLaw law;
  law.rebuild(table, Configuration({10, 40, 35, 25}));
  ASSERT_FALSE(law.empty());

  constexpr Interactions kBatch = 500;
  constexpr int kRounds = 400;
  std::vector<Xoshiro256pp> rngs;
  for (int l = 0; l < 4; ++l) rngs.emplace_back(900 + l);
  std::vector<RoundTask> tasks;
  std::vector<std::vector<std::int64_t>> draws;

  // Accumulate every draw into one histogram: bucket i = active pair i,
  // last bucket = null interactions. The counts never change (we never
  // apply the draws), so every round samples the same multinomial law.
  std::vector<std::int64_t> observed(law.size() + 1, 0);
  for (int r = 0; r < kRounds; ++r) {
    advance_lanes(law, kBatch, rngs, tasks, draws);
    for (std::size_t l = 0; l < rngs.size(); ++l) {
      std::int64_t sum = 0;
      if (tasks[l].active > 0) {
        ASSERT_EQ(draws[l].size(), law.size());
        for (std::size_t i = 0; i < law.size(); ++i) {
          ASSERT_GE(draws[l][i], 0);
          observed[i] += draws[l][i];
          sum += draws[l][i];
        }
      }
      // Conservation: the multinomial places exactly `active` draws.
      ASSERT_EQ(sum, tasks[l].active);
      ASSERT_LE(tasks[l].active, kBatch);
      observed.back() += kBatch - tasks[l].active;
    }
  }

  const double total =
      static_cast<double>(kBatch) * kRounds * static_cast<double>(rngs.size());
  std::vector<double> expected(law.size() + 1, 0.0);
  for (std::size_t i = 0; i < law.size(); ++i) {
    expected[i] = total * law.weight(i) / law.total_weight();
  }
  expected.back() =
      total * (1.0 - law.active_weight() / law.total_weight());

  const double stat = chi_square_statistic(observed, expected);
  const double p = chi_square_sf(stat, static_cast<int>(law.size()));
  EXPECT_GT(p, 1e-4) << "chi-square " << stat << " on " << law.size()
                     << " dof";
}

TEST_F(Avx2DistributionTest, NullSplitBinomialMomentsAtExtremeP) {
  // One active pair: stage-1 active ~ Binomial(batch, c1·c0 / n(n−1)).
  // Near-epidemic-end counts make p extreme; the large batch drives the
  // sampler through its BTRS branch, the tiny p through inversion.
  const OneWayEpidemic epidemic;
  const TransitionTable table(epidemic);
  struct Case {
    Count c0, c1;
    Interactions batch;
  };
  const std::vector<Case> cases = {
      {1, 99'999, 2'000'000},     // p ≈ 1e-5·…: inversion branch
      {50'000, 50'000, 200'000},  // p ≈ 0.25: BTRS branch
      {99'999, 1, 400'000},       // tiny p again, asymmetric counts
  };
  for (const Case& c : cases) {
    PairLaw law;
    law.rebuild(table, Configuration({c.c0, c.c1}));
    ASSERT_EQ(law.size(), 1u);
    const double p_active = law.active_weight() / law.total_weight();
    const double mean = static_cast<double>(c.batch) * p_active;
    const double sd =
        std::sqrt(static_cast<double>(c.batch) * p_active * (1.0 - p_active));

    constexpr int kRounds = 250;
    std::vector<Xoshiro256pp> rngs;
    for (int l = 0; l < 4; ++l) rngs.emplace_back(31 + l);
    std::vector<RoundTask> tasks;
    std::vector<std::vector<std::int64_t>> draws;
    RunningStats stats;
    for (int r = 0; r < kRounds; ++r) {
      advance_lanes(law, c.batch, rngs, tasks, draws);
      for (std::size_t l = 0; l < rngs.size(); ++l) {
        ASSERT_GE(tasks[l].active, 0);
        ASSERT_LE(tasks[l].active, c.batch);
        stats.add(static_cast<double>(tasks[l].active));
      }
    }
    // 5σ window on the sample mean; variance within a generous factor.
    const double samples = static_cast<double>(stats.count());
    EXPECT_NEAR(stats.mean(), mean, 5.0 * sd / std::sqrt(samples))
        << "c0=" << c.c0 << " c1=" << c.c1;
    EXPECT_NEAR(stats.stddev(), sd, 0.2 * sd)
        << "c0=" << c.c0 << " c1=" << c.c1;
  }
}

TEST_F(Avx2DistributionTest, AdvanceDependsOnlyOnRngStateLawAndBatch) {
  // advance() must be a pure function of (RNG state, law, batch): replaying
  // a round from the same generator state gives the same (active, draws)
  // and the same generator state afterwards, even when another task ran in
  // between, the scratch held stale draws and an equal law lives in a
  // different PairLaw object.
  const UndecidedStateDynamics usd(3);
  const TransitionTable table(usd);
  PairLaw law;
  law.rebuild(table, Configuration({0, 400, 350, 250}));
  PairLaw same_law;
  same_law.rebuild(table, Configuration({0, 400, 350, 250}));
  PairLaw other_law;
  other_law.rebuild(table, Configuration({10, 40, 35, 25}));

  Xoshiro256pp rng(555);
  Xoshiro256pp other_rng(556);
  std::vector<std::int64_t> draws;
  std::vector<std::int64_t> replay_draws;
  std::vector<std::int64_t> other_draws;
  // Small batches take the inversion sampler, large ones BTRS.
  for (const Interactions batch : {Interactions{3}, Interactions{300},
                                   Interactions{1'000'000'000}}) {
    for (int r = 0; r < 20; ++r) {
      const auto start = rng.state();
      RoundTask task{&law, batch, &rng, &draws};
      kernel_->advance(task);

      RoundTask other{&other_law, 77, &other_rng, &other_draws};
      kernel_->advance(other);

      Xoshiro256pp replay_rng(1);
      replay_rng.set_state(start);
      replay_draws.assign(law.size() + 5, -7);
      RoundTask replay{&same_law, batch, &replay_rng, &replay_draws};
      kernel_->advance(replay);

      ASSERT_EQ(replay.active, task.active) << "batch " << batch;
      if (task.active > 0) {
        ASSERT_EQ(replay_draws, draws) << "batch " << batch;
      }
      ASSERT_EQ(replay_rng.state(), rng.state()) << "batch " << batch;
    }
  }
}

TEST_F(Avx2DistributionTest, StabilizationTimesMatchScalarByKS) {
  const UndecidedStateDynamics usd(3);
  constexpr int kTrials = 100;
  auto sample = [&](KernelKind kind) {
    std::vector<double> times;
    for (int t = 0; t < kTrials; ++t) {
      CollapsedSimulator::Options opts;
      opts.kernel = kind;
      CollapsedSimulator sim(usd, Configuration({0, 40, 25, 15}),
                             7000 + static_cast<std::uint64_t>(t), opts);
      const RunOutcome out = sim.run_until_stable(50'000'000);
      EXPECT_TRUE(out.stabilized);
      times.push_back(sim.parallel_time());
    }
    return times;
  };
  const double d = testutil::ks_distance(sample(KernelKind::kAvx2),
                                         sample(KernelKind::kScalar));
  // Two-sample KS critical value at α = 0.001 for 100 vs 100 samples:
  // 1.949·sqrt(2/100) ≈ 0.276.
  EXPECT_LT(d, testutil::ks_two_sample_critical(kTrials, kTrials));
}

}  // namespace
}  // namespace ppsim::kernels
