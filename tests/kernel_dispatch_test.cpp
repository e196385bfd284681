// Kernel registry and dispatch semantics: parsing, capability-driven
// selection, the failure modes for explicitly requesting an unavailable
// backend, PairLaw's generation-counter invalidation, and the scalar
// kernel's lockstep (advance_batch) contract — batching tasks must be
// bit-identical to advancing them one by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim::kernels {
namespace {

TEST(KernelRegistryTest, NamesRoundTrip) {
  EXPECT_EQ(to_string(KernelKind::kScalar), "scalar");
  EXPECT_EQ(to_string(KernelKind::kAvx2), "avx2");
  EXPECT_EQ(parse_kernel("scalar"), KernelKind::kScalar);
  EXPECT_EQ(parse_kernel("avx2"), KernelKind::kAvx2);
  EXPECT_EQ(parse_kernel("auto"), std::nullopt);
  EXPECT_EQ(parse_kernel("sse9"), std::nullopt);
}

TEST(KernelRegistryTest, ScalarIsAlwaysAvailable) {
  const RoundKernel& scalar = scalar_kernel();
  EXPECT_EQ(scalar.kind(), KernelKind::kScalar);
  EXPECT_EQ(scalar.lockstep_width(), 1u);
  EXPECT_EQ(&resolve(KernelKind::kScalar), &scalar);

  const auto kinds = available_kernels();
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds.front(), KernelKind::kScalar);
}

TEST(KernelRegistryTest, CompiledFlagMatchesRegistryPointer) {
  // The stub translation unit must keep the registry consistent: the avx2
  // kernel object exists iff the SIMD implementation was compiled in.
  EXPECT_EQ(avx2_compiled(), avx2_kernel_or_null() != nullptr);
  if (!avx2_compiled()) {
    EXPECT_FALSE(avx2_supported());
  }
}

TEST(KernelRegistryTest, AutoPicksTheWidestSupportedKernel) {
  if (avx2_supported()) {
    EXPECT_EQ(auto_kind(), KernelKind::kAvx2);
    const RoundKernel& k = resolve(KernelKind::kAvx2);
    EXPECT_EQ(k.kind(), KernelKind::kAvx2);
    EXPECT_GE(k.lockstep_width(), 2u);
    const auto kinds = available_kernels();
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), KernelKind::kAvx2),
              kinds.end());
  } else {
    EXPECT_EQ(auto_kind(), KernelKind::kScalar);
    EXPECT_THROW(resolve(KernelKind::kAvx2), CheckFailure);
  }
  // "auto" must always resolve without throwing, whatever the host.
  EXPECT_EQ(parse_kernel_flag("auto"), auto_kind());
  EXPECT_EQ(parse_kernel_flag("scalar"), KernelKind::kScalar);
}

TEST(KernelRegistryTest, ExplicitUnsupportedKernelFailsWithClearError) {
  if (avx2_supported()) GTEST_SKIP() << "host supports avx2";
  try {
    parse_kernel_flag("avx2");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    // The message must tell the user both what failed and what to do.
    const std::string what = e.what();
    EXPECT_NE(what.find("avx2"), std::string::npos) << what;
    EXPECT_NE(what.find("--kernel scalar"), std::string::npos) << what;
  }
}

TEST(KernelRegistryTest, UnknownFlagValueThrows) {
  EXPECT_THROW(parse_kernel_flag("sse9"), CheckFailure);
  EXPECT_THROW(parse_kernel_flag(""), CheckFailure);
}

TEST(KernelRegistryTest, EnginesRejectUnavailableKernel) {
  if (avx2_supported()) GTEST_SKIP() << "host supports avx2";
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator::Options collapsed_opts;
  collapsed_opts.kernel = KernelKind::kAvx2;
  EXPECT_THROW(CollapsedSimulator(usd, Configuration({0, 4, 3, 3}), 1,
                                  collapsed_opts),
               CheckFailure);
}

// ------------------------------------------------------------- pair law --

TEST(PairLawTest, GenerationAdvancesPerRebuildAndAliasFollowsLazily) {
  const UndecidedStateDynamics usd(2);
  const TransitionTable table(usd);
  PairLaw law;
  EXPECT_EQ(law.generation(), 0u);
  EXPECT_TRUE(law.empty());

  const Configuration config({0, 6, 4});
  law.rebuild(table, config);
  EXPECT_EQ(law.generation(), 1u);
  ASSERT_FALSE(law.empty());
  EXPECT_GT(law.active_weight(), 0.0);
  EXPECT_DOUBLE_EQ(law.total_weight(), 10.0 * 9.0);

  // The alias table is built lazily and cached per generation: the same
  // object comes back until a rebuild bumps the generation.
  const AliasTable* alias = &law.alias();
  EXPECT_EQ(alias, &law.alias());
  law.rebuild(table, config);
  EXPECT_EQ(law.generation(), 2u);
  EXPECT_EQ(alias, &law.alias());  // same storage, rebuilt in place
}

TEST(PairLawTest, WeightsMatchTheOrderedPairCounts) {
  const UndecidedStateDynamics usd(2);
  const TransitionTable table(usd);
  PairLaw law;
  law.rebuild(table, Configuration({2, 5, 3}));
  // Every listed pair must carry weight c_a·c_b (c_a·(c_a−1) on the
  // diagonal) and the total must be n(n−1).
  double active = 0.0;
  const std::vector<Count> counts = {2, 5, 3};
  for (std::size_t i = 0; i < law.size(); ++i) {
    const double ca = static_cast<double>(counts[law.a(i)]);
    const double cb = static_cast<double>(counts[law.b(i)]);
    const double expect = law.a(i) == law.b(i) ? ca * (ca - 1.0) : ca * cb;
    EXPECT_DOUBLE_EQ(law.weight(i), expect);
    active += law.weight(i);
  }
  EXPECT_DOUBLE_EQ(law.active_weight(), active);
}

// ------------------------------------------------------------- lockstep --

/// Runs `rounds` staged rounds through the collapsed engine, advancing the
/// staged tasks either one by one or as one advance_batch launch.
std::vector<Count> run_staged(const Protocol& protocol, bool batched,
                              int rounds) {
  constexpr std::size_t kLanes = 3;
  std::vector<std::unique_ptr<CollapsedSimulator>> lanes;
  for (std::size_t t = 0; t < kLanes; ++t) {
    lanes.push_back(std::make_unique<CollapsedSimulator>(
        protocol, Configuration({0, 400, 350, 250}), 1000 + t));
  }
  const RoundKernel& kernel = scalar_kernel();
  std::vector<RoundTask> tasks(kLanes);
  for (int r = 0; r < rounds; ++r) {
    std::vector<RoundTask*> staged;
    std::vector<std::size_t> staged_lane;
    for (std::size_t t = 0; t < kLanes; ++t) {
      if (lanes[t]->stage_round(1'000'000, tasks[t])) {
        staged.push_back(&tasks[t]);
        staged_lane.push_back(t);
      }
    }
    if (batched) {
      kernel.advance_batch(staged);
    } else {
      for (RoundTask* task : staged) kernel.advance(*task);
    }
    for (std::size_t i = 0; i < staged.size(); ++i) {
      lanes[staged_lane[i]]->commit_round(*staged[i]);
    }
  }
  std::vector<Count> out;
  for (const auto& lane : lanes) {
    const auto& c = lane->configuration().counts();
    out.insert(out.end(), c.begin(), c.end());
    out.push_back(static_cast<Count>(lane->interactions()));
  }
  return out;
}

TEST(ScalarLockstepTest, AdvanceBatchIsBitIdenticalToPerTaskAdvance) {
  const UndecidedStateDynamics usd(3);
  EXPECT_EQ(run_staged(usd, true, 40), run_staged(usd, false, 40));
}

TEST(ScalarLockstepTest, StagedPathMatchesStepRound) {
  // stage_round + kernel.advance + commit_round must equal step_round draw
  // for draw: run the same seed both ways and compare the trajectory.
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator direct(usd, Configuration({0, 400, 350, 250}), 77);
  CollapsedSimulator staged(usd, Configuration({0, 400, 350, 250}), 77);
  for (int r = 0; r < 60; ++r) {
    direct.step_round(1'000'000);
    RoundTask task;
    if (staged.stage_round(1'000'000, task)) {
      staged.kernel().advance(task);
      staged.commit_round(task);
    }
    ASSERT_EQ(direct.configuration().counts(), staged.configuration().counts());
    ASSERT_EQ(direct.interactions(), staged.interactions());
  }
}

}  // namespace
}  // namespace ppsim::kernels
