// PairSampler: the scheduler must draw ordered pairs of *distinct* agents
// uniformly. With counts-based states this means:
//   P[first in state a]  = count(a)/n
//   P[(a, b)]            = count(a)·(count(b) - [a=b]) / (n(n-1)).
// We verify the exact pair distribution with a chi-square test, check
// without-replacement behaviour on singleton states, and pin the draws
// draw-for-draw against a naive urn. PrefixSumTree, the inverse-CDF structure
// under the sampler, is checked against a naive reference under random moves,
// at sizes on both sides of its node width. collision_free_run_length, the
// exact engine's batch length, is checked against its exact law.
#include "ppsim/core/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

// ----------------------------------------------------------- PrefixSumTree ----

TEST(PrefixSumTree, RejectsEmptyWeights) {
  EXPECT_THROW(PrefixSumTree(std::vector<std::int64_t>{}), CheckFailure);
}

TEST(PrefixSumTree, ConstructFromWeights) {
  const std::vector<std::int64_t> w = {3, 0, 5, 2};
  PrefixSumTree t(w);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total(), 10);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(t.prefix_sum(i + 1) - t.prefix_sum(i), w[i]) << "category " << i;
  }
}

TEST(PrefixSumTree, RejectsNegativeWeights) {
  EXPECT_THROW(PrefixSumTree(std::vector<std::int64_t>{1, -1}), CheckFailure);
}

TEST(PrefixSumTree, PrefixSumsMatchDefinition) {
  PrefixSumTree t(std::vector<std::int64_t>{3, 0, 5, 2});
  EXPECT_EQ(t.prefix_sum(0), 0);
  EXPECT_EQ(t.prefix_sum(1), 3);
  EXPECT_EQ(t.prefix_sum(2), 3);
  EXPECT_EQ(t.prefix_sum(3), 8);
  EXPECT_EQ(t.prefix_sum(4), 10);
}

TEST(PrefixSumTree, MoveUpdatesSums) {
  PrefixSumTree t(std::vector<std::int64_t>{1, 1, 1});
  t.move(0, 1);
  t.move(2, 1);
  EXPECT_EQ(t.prefix_sum(1), 0);
  EXPECT_EQ(t.prefix_sum(2), 3);
  EXPECT_EQ(t.total(), 3);
  t.move(1, 0);
  EXPECT_EQ(t.prefix_sum(1), 1);
  EXPECT_EQ(t.prefix_sum(2), 3);
}

TEST(PrefixSumTree, FindMapsTargetsToCategories) {
  // weights [3, 0, 5, 2] -> CDF boundaries 3, 3, 8, 10.
  PrefixSumTree t(std::vector<std::int64_t>{3, 0, 5, 2});
  EXPECT_EQ(t.find(0), 0u);
  EXPECT_EQ(t.find(2), 0u);
  EXPECT_EQ(t.find(3), 2u);  // category 1 has zero weight and is skipped
  EXPECT_EQ(t.find(7), 2u);
  EXPECT_EQ(t.find(8), 3u);
  EXPECT_EQ(t.find(9), 3u);
}

TEST(PrefixSumTree, FindNeverReturnsZeroWeightCategory) {
  // Zero weights at node boundaries (31, 32, 63, 64) and at the very end.
  std::vector<std::int64_t> w(70, 0);
  for (const std::size_t i : {1u, 30u, 33u, 40u, 62u, 65u}) w[i] = 3;
  PrefixSumTree t(w);
  for (std::int64_t target = 0; target < t.total(); ++target) {
    const std::size_t c = t.find(target);
    ASSERT_LT(c, w.size()) << "target " << target;
    EXPECT_GT(w[c], 0) << "target " << target << " mapped to " << c;
  }
}

TEST(PrefixSumTree, PaddedSlotsNeverReturned) {
  // The last leaf node and the root are partly padding: the top targets
  // must still land on the last real category.
  for (const std::size_t size : {1u, 3u, 31u, 33u, 65u, 1025u, 1057u}) {
    std::vector<std::int64_t> w(size, 0);
    w.back() = 2;
    PrefixSumTree t(w);
    EXPECT_EQ(t.find(0), size - 1) << "size " << size;
    EXPECT_EQ(t.find(1), size - 1) << "size " << size;
    t.move(size - 1, 0);
    EXPECT_EQ(t.find(1), size - 1) << "size " << size;
  }
}

TEST(PrefixSumTree, SingleCategory) {
  PrefixSumTree t(std::vector<std::int64_t>{42});
  EXPECT_EQ(t.total(), 42);
  for (std::int64_t target : {0, 1, 41}) EXPECT_EQ(t.find(target), 0u);
}

TEST(PrefixSumTree, SizesAroundTheNodeWidth) {
  for (std::size_t size : {1u, 2u, 3u, 7u, 8u, 9u, 31u, 32u, 33u, 100u, 1024u, 1025u}) {
    std::vector<std::int64_t> w(size);
    std::iota(w.begin(), w.end(), 1);  // 1, 2, ..., size
    PrefixSumTree t(w);
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(t.prefix_sum(i), cum) << "size " << size;
      cum += w[i];
      // every target inside category i maps back to i
      ASSERT_EQ(t.find(cum - 1), i) << "size " << size;
      ASSERT_EQ(t.find(cum - w[i]), i) << "size " << size;
    }
    EXPECT_EQ(t.total(), cum);
  }
}

TEST(PrefixSumTree, RandomizedAgainstNaiveReference) {
  constexpr int kOps = 5000;
  Xoshiro256pp rng(2024);
  for (const std::size_t size : {37u, 1100u}) {
    std::vector<std::int64_t> naive(size);
    for (auto& w : naive) w = static_cast<std::int64_t>(rng.bounded(10));
    PrefixSumTree t(naive);
    const std::int64_t total = t.total();
    for (int op = 0; op < kOps; ++op) {
      const auto from = static_cast<std::size_t>(rng.bounded(size));
      const auto to = static_cast<std::size_t>(rng.bounded(size));
      if (naive[from] > 0 && from != to) {
        --naive[from];
        ++naive[to];
        t.move(from, to);
      }
      ASSERT_EQ(t.total(), total);

      // spot-check prefix sums and find()
      const auto probe = static_cast<std::size_t>(rng.bounded(size + 1));
      const std::int64_t expect =
          std::accumulate(naive.begin(), naive.begin() + probe, std::int64_t{0});
      ASSERT_EQ(t.prefix_sum(probe), expect) << "size " << size << " op " << op;

      const auto target =
          static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(total)));
      const std::size_t found = t.find(target);
      // inverse-CDF contract: prefix_sum(found) <= target < prefix_sum(found+1)
      ASSERT_LE(t.prefix_sum(found), target);
      ASSERT_GT(t.prefix_sum(found + 1), target);
    }
  }
}

TEST(PrefixSumTree, SamplingDistributionMatchesWeights) {
  const std::vector<std::int64_t> w = {1, 2, 3, 4};
  PrefixSumTree t(w);
  Xoshiro256pp rng(555);
  constexpr int kDraws = 100000;
  std::vector<int> hits(4, 0);
  for (int i = 0; i < kDraws; ++i) {
    const auto target =
        static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(t.total())));
    ++hits[t.find(target)];
  }
  for (std::size_t c = 0; c < 4; ++c) {
    const double expected = static_cast<double>(w[c]) / 10.0;
    const double actual = static_cast<double>(hits[c]) / kDraws;
    EXPECT_NEAR(actual, expected, 0.01) << "category " << c;
  }
}

// ------------------------------------------------------------- PairSampler ----

TEST(PairSamplerTest, RequiresTwoAgents) {
  EXPECT_THROW(PairSampler(Configuration({1, 0})), CheckFailure);
  EXPECT_NO_THROW(PairSampler(Configuration({1, 1})));
}

TEST(PairSamplerTest, SingletonStateNeverPairsWithItself) {
  // State 0 has exactly one agent: the ordered pair (0, 0) is impossible.
  PairSampler sampler(Configuration({1, 9}));
  Xoshiro256pp rng(1);
  for (int i = 0; i < 20000; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_FALSE(a == 0 && b == 0);
  }
}

TEST(PairSamplerTest, TwoAgentsAlwaysMeetEachOther) {
  PairSampler sampler(Configuration({1, 1}));
  Xoshiro256pp rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_NE(a, b);
  }
}

TEST(PairSamplerTest, SamplingDoesNotMutateWeights) {
  PairSampler sampler(Configuration({3, 7}));
  Xoshiro256pp rng(3);
  std::map<std::pair<State, State>, int> first_pass;
  for (int i = 0; i < 1000; ++i) ++first_pass[sampler.sample(rng)];
  // Re-running with the same seed must reproduce the same draws: sample()
  // is const, so the tree it reads is the one it was built with.
  Xoshiro256pp rng2(3);
  std::map<std::pair<State, State>, int> second_pass;
  for (int i = 0; i < 1000; ++i) ++second_pass[sampler.sample(rng2)];
  EXPECT_EQ(first_pass, second_pass);
}

TEST(PairSamplerTest, PairDistributionIsExact) {
  // counts = [4, 6], n = 10. Ordered-pair probabilities:
  //   (0,0): 4·3/90, (0,1): 4·6/90, (1,0): 6·4/90, (1,1): 6·5/90.
  const std::vector<Count> counts = {4, 6};
  PairSampler sampler{Configuration(counts)};
  Xoshiro256pp rng(42);
  constexpr int kDraws = 200000;

  std::map<std::pair<State, State>, std::int64_t> hits;
  for (int i = 0; i < kDraws; ++i) ++hits[sampler.sample(rng)];

  std::vector<std::int64_t> observed;
  std::vector<double> expected;
  const double norm = 10.0 * 9.0;
  for (State a = 0; a < 2; ++a) {
    for (State b = 0; b < 2; ++b) {
      observed.push_back(hits[{a, b}]);
      const double ca = static_cast<double>(counts[a]);
      const double cb = static_cast<double>(counts[b]) - (a == b ? 1.0 : 0.0);
      expected.push_back(ca * cb / norm * kDraws);
    }
  }
  const double stat = chi_square_statistic(observed, expected);
  EXPECT_GT(chi_square_sf(stat, 3), 1e-6) << "chi-square " << stat;
}

TEST(PairSamplerTest, ThreeStateMarginalsAreUniformOverAgents) {
  const std::vector<Count> counts = {2, 3, 5};
  PairSampler sampler{Configuration(counts)};
  Xoshiro256pp rng(7);
  constexpr int kDraws = 150000;
  std::vector<std::int64_t> first(3, 0);
  for (int i = 0; i < kDraws; ++i) ++first[sampler.sample(rng).first];
  std::vector<double> expected;
  for (const Count c : counts) expected.push_back(static_cast<double>(c) / 10.0 * kDraws);
  const double stat = chi_square_statistic(first, expected);
  EXPECT_GT(chi_square_sf(stat, 2), 1e-6);
}

TEST(PairSamplerTest, MoveAgentKeepsSamplerInSync) {
  PairSampler sampler(Configuration({10, 0}));
  Xoshiro256pp rng(9);
  // Initially state 1 is empty: never sampled.
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 0u);
  }
  // Move everyone to state 1 and the picture flips.
  for (int i = 0; i < 10; ++i) sampler.move_agent(0, 1);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 1u);
  }
}

/// The urn PairSampler replaced, written naively: draw the initiator by a
/// linear inverse-CDF scan, take it out, draw the responder from the n-1
/// agents left, and put the initiator back.
std::pair<State, State> reference_sample(std::vector<Count>& counts, Count n,
                                         Xoshiro256pp& rng) {
  const auto scan = [&](std::uint64_t target) {
    State s = 0;
    while (target >= static_cast<std::uint64_t>(counts[s])) {
      target -= static_cast<std::uint64_t>(counts[s]);
      ++s;
    }
    return s;
  };
  const auto total = static_cast<std::uint64_t>(n);
  const State first = scan(rng.bounded(total));
  --counts[first];
  const State second = scan(rng.bounded(total - 1));
  ++counts[first];
  return {first, second};
}

TEST(PairSamplerTest, DrawsMatchTheNaiveUrnDrawForDraw) {
  Xoshiro256pp setup(99);
  for (const std::size_t size : {2u, 3u, 31u, 32u, 33u, 64u, 65u, 1025u}) {
    for (int config = 0; config < 4; ++config) {
      // A quarter of the states empty, a quarter singletons, the rest small.
      std::vector<Count> counts(size);
      for (auto& c : counts) {
        const std::uint64_t kind = setup.bounded(4);
        c = kind == 0 ? 0 : kind == 1 ? 1 : static_cast<Count>(setup.bounded(40));
      }
      counts[setup.bounded(size)] += 2;  // at least two agents
      const Count n = std::accumulate(counts.begin(), counts.end(), Count{0});
      PairSampler sampler{Configuration(counts)};
      const std::uint64_t seed = setup();
      Xoshiro256pp rng(seed);
      Xoshiro256pp reference_rng(seed);
      for (int draw = 0; draw < 3000; ++draw) {
        const auto pair = sampler.sample(rng);
        ASSERT_EQ(pair, reference_sample(counts, n, reference_rng))
            << "size " << size << " config " << config << " draw " << draw;
        // Interleave moves: the initiator to a random state, as an
        // interaction would.
        if (setup.bounded(2) == 0) {
          const auto to = static_cast<State>(setup.bounded(size));
          --counts[pair.first];
          ++counts[to];
          sampler.move_agent(pair.first, to);
        }
      }
    }
  }
}

// ------------------------------------------------- collision-free runs ----

TEST(CollisionFreeRun, SmallPopulationsHitTheirBounds) {
  Xoshiro256pp rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(collision_free_run_length(rng, 2), 1);  // one pair, then a repeat
    EXPECT_EQ(collision_free_run_length(rng, 3), 1);
    const Interactions l = collision_free_run_length(rng, 9);
    EXPECT_GE(l, 1);
    EXPECT_LE(l, 4);  // ⌊n/2⌋ interactions use up the agents
  }
  EXPECT_THROW(collision_free_run_length(rng, 1), CheckFailure);
}

TEST(CollisionFreeRun, LengthFitsTheBirthdayLaw) {
  // P(ℓ ≥ m) = ∏_{j<m} (n−2j)(n−2j−1)/(n(n−1)); chi-square over the exact
  // pmf, at even and odd n and at the engine's scale.
  Xoshiro256pp rng(44);
  for (const Count n : {Count{12}, Count{31}, Count{1000}, Count{1'000'000}}) {
    std::vector<double> pmf;
    const double nd = static_cast<double>(n);
    double survival = 1.0;  // P(ℓ ≥ m), from m = 1
    for (Count m = 1; 2 * m <= n; ++m) {
      const double f = nd - 2.0 * static_cast<double>(m);
      const double next = survival * f * (f - 1.0) / (nd * (nd - 1.0));
      pmf.push_back(survival - next);
      survival = next;
    }
    constexpr int kDraws = 100000;
    std::vector<std::int64_t> hits(pmf.size(), 0);
    for (int i = 0; i < kDraws; ++i) {
      const Interactions l = collision_free_run_length(rng, n);
      ASSERT_GE(l, 1);
      ASSERT_LE(2 * l, n);
      ++hits[static_cast<std::size_t>(l - 1)];
    }
    std::vector<std::int64_t> observed;
    std::vector<double> expected;
    std::int64_t bin_hits = 0;
    double bin_expect = 0.0;
    for (std::size_t m = 0; m < pmf.size(); ++m) {
      bin_hits += hits[m];
      bin_expect += pmf[m] * kDraws;
      if (bin_expect >= 5.0) {
        observed.push_back(bin_hits);
        expected.push_back(bin_expect);
        bin_hits = 0;
        bin_expect = 0.0;
      }
    }
    observed.back() += bin_hits;
    expected.back() += bin_expect;
    const double p = chi_square_sf(chi_square_statistic(observed, expected),
                                   static_cast<int>(observed.size()) - 1);
    EXPECT_GT(p, 1e-4) << "n = " << n;
  }
}

}  // namespace
}  // namespace ppsim
