// The one round kernel (the retired AVX2 kind is rejected), PairLaw's
// generation-counter invalidation and its buckets (checked against a
// brute-force ordered-pair enumeration), the split-tree round law (χ²
// against the exact law of τ ordered-pair draws), and the collapsed
// engine's staging API — stage, advance and commit must equal step_round
// draw for draw, and commit clamps each state to its live count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim::kernels {
namespace {

TEST(KernelRegistryTest, ScalarIsAlwaysAvailable) {
  // Scalar is the only kernel: the names kept for perfbench report no AVX2,
  // and both ways of asking for the retired kAvx2 fail. Reports, cache keys
  // and .pptraj headers keep spelling it "scalar".
  EXPECT_EQ(to_string(KernelKind::kScalar), "scalar");
  EXPECT_EQ(auto_kind(), KernelKind::kScalar);
  EXPECT_FALSE(avx2_supported());
  EXPECT_EQ(&resolve(KernelKind::kScalar), &scalar_kernel());
  EXPECT_THROW(resolve(KernelKind::kAvx2), CheckFailure);
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
  // USD's rules are mirror images, so each unordered pair is one bucket,
  // listed as (min, max), and weighs both orders: 2·c_a·c_b. The diagonals
  // are null. Together with the null mass the buckets cover n(n−1) = 90.
  ASSERT_EQ(law.size(), 3u);
  const std::vector<std::pair<State, State>> pairs = {{0, 1}, {0, 2}, {1, 2}};
  const std::vector<double> weights = {2.0 * 2 * 5, 2.0 * 2 * 3, 2.0 * 5 * 3};
  for (std::size_t i = 0; i < law.size(); ++i) {
    EXPECT_EQ(std::make_pair(law.a(i), law.b(i)), pairs[i]);
    EXPECT_EQ(law.transition(i), table.apply(law.a(i), law.b(i)));
    EXPECT_DOUBLE_EQ(law.weight(i), weights[i]);
  }
  EXPECT_DOUBLE_EQ(law.active_weight(), 20.0 + 12.0 + 30.0);
  EXPECT_DOUBLE_EQ(law.total_weight(), 10.0 * 9.0);
}

bool mirror_images(const TransitionTable& table, State a, State b) {
  const Transition ab = table.apply(a, b);
  const Transition ba = table.apply(b, a);
  return ba.initiator == ab.responder && ba.responder == ab.initiator;
}

/// Checks `law` against a brute-force enumeration of every ordered pair of
/// `config`: each bucket's weight is the sum of the ordered-pair weights it
/// stands for, mirrored pairs share one (min, max) bucket, and the active
/// weight and per-state consumption match the ordered-pair sums.
void expect_matches_ordered_pairs(const TransitionTable& table,
                                  const Configuration& config,
                                  const PairLaw& law) {
  const auto q = static_cast<State>(config.num_states());
  const auto& c = config.counts();
  std::map<std::pair<State, State>, double> expected;
  std::vector<double> consumption(q, 0.0);
  double active = 0.0;
  for (State a = 0; a < q; ++a) {
    for (State b = 0; b < q; ++b) {
      const double w = static_cast<double>(c[a]) *
                       static_cast<double>(a == b ? c[b] - 1 : c[b]);
      if (w <= 0.0 || table.is_null(a, b)) continue;
      const bool merged = a != b && mirror_images(table, a, b);
      expected[merged ? std::make_pair(std::min(a, b), std::max(a, b))
                      : std::make_pair(a, b)] += w;
      const Transition t = table.apply(a, b);
      if (t.initiator != a) consumption[a] += w;
      if (t.responder != b) consumption[b] += w;
      active += w;
    }
  }
  ASSERT_EQ(law.size(), expected.size()) << config.to_string();
  std::set<std::pair<State, State>> seen;
  for (std::size_t i = 0; i < law.size(); ++i) {
    const auto key = std::make_pair(law.a(i), law.b(i));
    EXPECT_TRUE(seen.insert(key).second) << "duplicate bucket";
    if (key.first != key.second &&
        mirror_images(table, key.first, key.second)) {
      EXPECT_LT(key.first, key.second) << "merged buckets are (min, max)";
    }
    ASSERT_EQ(expected.count(key), 1u) << key.first << "," << key.second;
    EXPECT_DOUBLE_EQ(law.weight(i), expected[key]);
    EXPECT_EQ(law.transition(i), table.apply(key.first, key.second));
  }
  EXPECT_NEAR(law.active_weight(), active, 1e-12 * active);
  const auto n = static_cast<double>(config.population());
  EXPECT_DOUBLE_EQ(law.total_weight(), n * (n - 1.0));
  ASSERT_EQ(law.num_states(), config.num_states());
  for (State s = 0; s < q; ++s) {
    EXPECT_NEAR(law.consumption(s), consumption[s], 1e-12 * active)
        << "state " << s;
  }
}

TEST(PairLawTest, BucketsMatchTheOrderedPairEnumeration) {
  const UndecidedStateDynamics usd2(2);
  const UndecidedStateDynamics usd3(3);
  const UndecidedStateDynamics usd27(27);
  Xoshiro256pp rng(20251017);
  for (const UndecidedStateDynamics* protocol : {&usd2, &usd3, &usd27}) {
    const TransitionTable table(*protocol);
    PairLaw law;
    for (int rep = 0; rep < 20; ++rep) {
      // Random counts with empty and singleton states mixed in, so absent
      // states and the c_a ≥ 2 diagonal rule are both exercised.
      std::vector<Count> counts(protocol->num_states());
      for (Count& c : counts) {
        const std::uint64_t kind = rng.bounded(4);
        c = kind == 0   ? 0
            : kind == 1 ? 1
                        : 2 + static_cast<Count>(rng.bounded(100000));
      }
      counts[0] += 2;  // population ≥ 2
      const Configuration config(counts);
      law.rebuild(table, config);
      SCOPED_TRACE(protocol->name() + " " + config.to_string());
      expect_matches_ordered_pairs(table, config, law);
    }
  }
}

TEST(PairLawTest, Usd27HasOneBucketPerUnorderedActivePair) {
  // Every state present: 27·26 clash orders and 2·27 adoption orders are 756
  // ordered pairs, merged into 351 + 27 = 378 buckets.
  const UndecidedStateDynamics usd(27);
  const TransitionTable table(usd);
  std::vector<Count> counts(28);
  for (std::size_t s = 0; s < counts.size(); ++s) {
    counts[s] = 1000 + 37 * static_cast<Count>(s);
  }
  PairLaw law;
  law.rebuild(table, Configuration(counts));
  EXPECT_EQ(law.size(), 378u);
}

TEST(PairLawTest, MergedBucketOverdrawIsClampedAndCounted) {
  // Bucket {1, 2} is USD's clash: both agents leave for ⊥, so at most
  // min(c_1, c_2) = 3 interactions can fire; the other 7 are clamped.
  const UndecidedStateDynamics usd(2);
  PairLaw law;
  Configuration config({0, 3, 5});
  law.rebuild(config);
  std::size_t clash = law.size();
  for (std::size_t i = 0; i < law.size(); ++i) {
    if (law.a(i) == 1 && law.b(i) == 2) clash = i;
  }
  ASSERT_LT(clash, law.size());
  const ApplyResult one = apply_one(law, config, clash, 10);
  EXPECT_EQ(one.clamped, 7);
  EXPECT_TRUE(one.moved);
  EXPECT_EQ(config.counts(), (std::vector<Count>{6, 0, 2}));
}

// ------------------------------------------------------ split-tree law --

/// One round's outcome: (A_0..A_{k−1}, L_0..L_{k−1}).
using RoundOutcome = std::vector<std::int64_t>;

/// The exact law of a round's (A, L) after `tau` independent draws from the
/// ordered-pair law of `config`: each ordered state pair (a, b) is enumerated
/// with its weight w(a, b), and the τ draws are convolved.
std::map<RoundOutcome, double> exact_round_law(const Configuration& config,
                                               int tau) {
  const auto& c = config.counts();
  const std::size_t k = c.size() - 1;
  const auto n = static_cast<double>(config.population());
  // One draw's effect on the outcome vector, with its probability.
  std::map<RoundOutcome, double> step;
  for (State a = 0; a <= k; ++a) {
    for (State b = 0; b <= k; ++b) {
      const double w = static_cast<double>(c[a]) *
                       static_cast<double>(a == b ? c[b] - 1 : c[b]);
      if (w <= 0.0) continue;
      RoundOutcome delta(2 * k, 0);
      if (a != b && a == 0) ++delta[b - 1];          // ⊥ adopts b
      if (a != b && b == 0) ++delta[a - 1];          // ⊥ adopts a
      if (a != b && a > 0 && b > 0) {                // clash: both endpoints
        ++delta[k + a - 1];
        ++delta[k + b - 1];
      }
      step[delta] += w / (n * (n - 1.0));
    }
  }
  std::map<RoundOutcome, double> law{{RoundOutcome(2 * k, 0), 1.0}};
  for (int t = 0; t < tau; ++t) {
    std::map<RoundOutcome, double> next;
    for (const auto& [outcome, p] : law) {
      for (const auto& [delta, q] : step) {
        RoundOutcome sum = outcome;
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += delta[i];
        next[sum] += p * q;
      }
    }
    law = std::move(next);
  }
  return law;
}

TEST(RoundKernelTest, SplitTreeMatchesTheOrderedPairLaw) {
  // advance() draws a round's (A, L) through the adoption multinomial and
  // the split tree; its law must be the law of τ ordered-pair draws. The
  // starts cover k = 2, an empty opinion, no undecided agent (clashes
  // only) and an odd, unbalanced tree. Cells expected below 5 are pooled.
  struct Case {
    std::vector<Count> counts;
    int tau;
  };
  const std::vector<Case> cases = {
      {{3, 4, 2}, 6},
      {{2, 6, 3, 0, 1}, 5},
      {{0, 3, 2, 2}, 5},
      {{1, 5, 1, 4, 2, 3}, 4},
  };
  constexpr int kSamples = 400'000;
  Xoshiro256pp rng(20260501);
  for (const Case& tc : cases) {
    const Configuration config(tc.counts);
    SCOPED_TRACE(config.to_string());
    const std::size_t k = tc.counts.size() - 1;
    PairLaw law;
    law.rebuild(config);
    std::map<RoundOutcome, std::int64_t> seen;
    std::vector<std::int64_t> draws;
    for (int s = 0; s < kSamples; ++s) {
      RoundTask task{&law, tc.tau, &rng, &draws, 0};
      scalar_kernel().advance(task);
      ++seen[task.active == 0 ? RoundOutcome(2 * k, 0) : draws];
    }
    const std::map<RoundOutcome, double> exact = exact_round_law(config, tc.tau);
    std::vector<std::int64_t> observed;
    std::vector<double> expected;
    std::int64_t pooled_observed = 0;
    double pooled_expected = 0.0;
    for (const auto& [outcome, p] : exact) {
      const auto it = seen.find(outcome);
      const std::int64_t hits = it == seen.end() ? 0 : it->second;
      if (it != seen.end()) seen.erase(it);
      if (p * kSamples >= 5.0) {
        observed.push_back(hits);
        expected.push_back(p * kSamples);
      } else {
        pooled_observed += hits;
        pooled_expected += p * kSamples;
      }
    }
    EXPECT_TRUE(seen.empty()) << "advance drew an outcome the law never makes";
    observed.push_back(pooled_observed);
    expected.push_back(pooled_expected);
    const double stat = chi_square_statistic(observed, expected);
    const int dof = static_cast<int>(observed.size()) - 1;
    EXPECT_GT(chi_square_sf(stat, dof), 1e-4)
        << "chi-square " << stat << " at " << dof << " degrees of freedom";
  }
}

// -------------------------------------------------------- staging API --

TEST(StagingApiTest, StagedPathMatchesStepRound) {
  // stage_round + kernel.advance + commit_round must equal step_round draw
  // for draw: run the same seed both ways and compare the trajectory, at
  // k = 3 and at the paper's k = 27 for n = 10^6.
  const InitialConfig fig1 = figure1_configuration(1'000'000, 27);
  const std::vector<std::pair<std::size_t, Configuration>> starts = {
      {3, Configuration({0, 400, 350, 250})},
      {27, UndecidedStateDynamics::initial_configuration(fig1.opinion_counts)}};
  for (const auto& [k, start] : starts) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const UndecidedStateDynamics usd(k);
    CollapsedSimulator direct(usd, start, 77);
    CollapsedSimulator staged(usd, start, 77);
    for (int r = 0; r < 60; ++r) {
      direct.step_round(1'000'000'000);
      RoundTask task;
      if (staged.stage_round(1'000'000'000, task)) {
        staged.kernel().advance(task);
        staged.commit_round(task);
      }
      ASSERT_EQ(direct.configuration().counts(), staged.configuration().counts());
      ASSERT_EQ(direct.interactions(), staged.interactions());
      ASSERT_EQ(direct.clamped_interactions(), staged.clamped_interactions());
    }
    EXPECT_FALSE(staged.is_stable());
  }
}

TEST(StagingApiTest, CommitClampsEachStateToItsLiveCount) {
  // commit_round applies adoptions against the live u in opinion order, then
  // clash endpoints L_i against the live c_i. It counts each unrealised
  // adoption, and one interaction per unrealised endpoint up to the round's
  // clashes, so the clamp never exceeds the round's active interactions.
  struct Case {
    std::vector<Count> start;
    Interactions active;
    std::array<std::int64_t, 4> draws;  // A_0, A_1, L_0, L_1
    Interactions clamped;
    std::vector<Count> end;
  };
  const std::vector<Case> cases = {
      // 10 clashes of {1, 2}: L_1 = 10 > 3 and L_2 = 10 > 5 lose 12
      // endpoints, capped at the 10 clashes.
      {{0, 3, 5}, 10, {0, 0, 10, 10}, 10, {8, 0, 0}},
      // 2 adoptions find no undecided agent; 3 clashes fit.
      {{0, 3, 5}, 5, {2, 0, 3, 3}, 2, {6, 0, 2}},
      // Opinion order: opinion 0 takes both undecided agents first.
      {{2, 3, 5}, 4, {2, 2, 0, 0}, 2, {0, 5, 5}},
  };
  const UndecidedStateDynamics usd(2);
  for (const Case& tc : cases) {
    CollapsedSimulator sim(usd, Configuration(tc.start), 1, {.fixed_round = 20});
    RoundTask task;
    ASSERT_TRUE(sim.stage_round(20, task));
    task.active = tc.active;
    // Element by element: gcc 12.2 at -O2 -march=native (AVX-512) folds a
    // whole-vector copy of these constants into the wrong values.
    task.draws->resize(tc.draws.size());
    for (std::size_t i = 0; i < tc.draws.size(); ++i) {
      (*task.draws)[i] = tc.draws[i];
    }
    sim.commit_round(task);
    EXPECT_EQ(sim.clamped_interactions(), tc.clamped);
    EXPECT_LE(sim.clamped_interactions(), tc.active);
    EXPECT_EQ(sim.configuration().counts(), tc.end);
  }
}

}  // namespace
}  // namespace ppsim::kernels
