// The exact USD engine: conservation, determinism, exact stability-driven
// termination, predicates, the recorder, and the collision-free batch path
// against a labelled-agent chain and against stepping.
#include "ppsim/core/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ppsim/core/recorder.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

TEST(SimulatorTest, RejectsMismatchedConfiguration) {
  const UndecidedStateDynamics usd(2);
  EXPECT_THROW(Simulator(usd, Configuration({1, 1}), 1), CheckFailure);
}

TEST(SimulatorTest, PopulationIsConserved) {
  const UndecidedStateDynamics usd(3);
  Simulator sim(usd, Configuration({0, 40, 30, 30}), 11);
  for (int i = 0; i < 5000; ++i) {
    sim.step();
    ASSERT_EQ(sim.configuration().population(), 100);
  }
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  const UndecidedStateDynamics usd(3);
  Simulator a(usd, Configuration({0, 40, 30, 30}), 99);
  Simulator b(usd, Configuration({0, 40, 30, 30}), 99);
  for (int i = 0; i < 2000; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(SimulatorTest, DifferentSeedsDiverge) {
  const UndecidedStateDynamics usd(3);
  Simulator a(usd, Configuration({0, 400, 300, 300}), 1);
  Simulator b(usd, Configuration({0, 400, 300, 300}), 2);
  for (int i = 0; i < 5000; ++i) {
    a.step();
    b.step();
  }
  EXPECT_NE(a.configuration(), b.configuration());
}

TEST(SimulatorTest, StableConfigurationStopsImmediately) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 50, 0}), 3);
  const RunOutcome out = sim.run_until_stable(1'000'000);
  EXPECT_TRUE(out.stabilized);
  EXPECT_EQ(out.interactions, 0);
  ASSERT_TRUE(out.consensus.has_value());
  EXPECT_EQ(*out.consensus, 0u);
}

TEST(SimulatorTest, BudgetIsRespected) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 500, 500}), 3);
  const RunOutcome out = sim.run_until_stable(250);
  EXPECT_FALSE(out.stabilized);
  EXPECT_EQ(out.interactions, 250);
}

TEST(SimulatorTest, RunUntilPredicateFires) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 600, 400}), 7);
  const RunOutcome out = sim.run_until(
      [](const Configuration& c, Interactions) {
        return c.count(UndecidedStateDynamics::kUndecided) >= 100;
      },
      10'000'000);
  EXPECT_GE(sim.configuration().count(UndecidedStateDynamics::kUndecided), 100);
  EXPECT_LT(out.interactions, 10'000'000);
}

TEST(SimulatorTest, ConsensusOutputRules) {
  const UndecidedStateDynamics usd(2);
  // Mixed opinions: no consensus.
  Simulator mixed(usd, Configuration({0, 5, 5}), 1);
  EXPECT_FALSE(mixed.consensus_output().has_value());
  // Undecided agents present: no consensus (uncommitted output).
  Simulator undecided(usd, Configuration({5, 5, 0}), 1);
  EXPECT_FALSE(undecided.consensus_output().has_value());
  // Monochromatic opinion: consensus.
  Simulator mono(usd, Configuration({0, 0, 10}), 1);
  ASSERT_TRUE(mono.consensus_output().has_value());
  EXPECT_EQ(*mono.consensus_output(), 1u);
}

/// Reference stability: every ordered pair of two distinct present agents'
/// states is null under USD's f (the O(S²) scan that the engine's count of
/// present opinions replaces).
bool brute_force_stable(const UndecidedStateDynamics& usd, const Configuration& c) {
  const auto& counts = c.counts();
  for (State a = 0; a < counts.size(); ++a) {
    for (State b = 0; b < counts.size(); ++b) {
      if (counts[a] == 0 || counts[b] < (a == b ? 2 : 1)) continue;
      const Transition t = usd.apply(a, b);
      if (t.initiator != a || t.responder != b) return false;
    }
  }
  return true;
}

TEST(SimulatorTest, StopsOnTheExactStabilizingInteraction) {
  // The stopping interaction changed a state, and the same-seed run one
  // interaction shorter is not yet stable: the stopping time is not rounded.
  const UndecidedStateDynamics usd(3);
  const Configuration initial({0, 40, 30, 30});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulator sim(usd, initial, seed);
    const RunOutcome out = sim.run_until_stable(10'000'000);
    ASSERT_TRUE(out.stabilized);
    ASSERT_GT(out.interactions, 0);

    Simulator early(usd, initial, seed);
    const RunOutcome before = early.run_until_stable(out.interactions - 1);
    EXPECT_FALSE(before.stabilized);
    EXPECT_EQ(before.interactions, out.interactions - 1);
    EXPECT_FALSE(brute_force_stable(usd, early.configuration()));
    EXPECT_TRUE(early.step());  // the stopping interaction changed a state
    EXPECT_TRUE(early.is_stable());
    EXPECT_EQ(early.configuration(), sim.configuration());
  }
}

TEST(SimulatorTest, StabilityWitnessMatchesBruteForceScan) {
  // is_stable() from construction and after every interaction, against the
  // full pair scan, at k = 2, 3, 27 and 40 (41 states: two nodes of the pair
  // sampler's prefix-sum tree). Each k starts from a mixed configuration,
  // from one opinion plus ⊥ (not stable: ⊥ adopts), and from two stable
  // ones: all ⊥, and one opinion with u = 0.
  for (const std::size_t k : {2u, 3u, 27u, 40u}) {
    const UndecidedStateDynamics usd(k);
    std::vector<Count> mixed(k, 2);
    mixed[0] = 5;
    std::vector<Count> lone(k, 0);
    lone[k - 1] = 6;
    const Configuration cases[] = {
        UndecidedStateDynamics::initial_configuration(mixed, 3),
        UndecidedStateDynamics::initial_configuration(lone, 4),
        UndecidedStateDynamics::initial_configuration(std::vector<Count>(k, 0), 7),
        UndecidedStateDynamics::initial_configuration(lone),
    };
    for (const Configuration& initial : cases) {
      SCOPED_TRACE(usd.name() + " from u = " + std::to_string(initial.count(0)));
      Simulator sim(usd, initial, 5);
      const auto run_to_stability = [&] {
        ASSERT_EQ(sim.is_stable(), brute_force_stable(usd, sim.configuration()));
        while (sim.interactions() < 200'000 && !sim.is_stable()) {
          sim.step();
          ASSERT_EQ(sim.is_stable(), brute_force_stable(usd, sim.configuration()))
              << "after interaction " << sim.interactions();
        }
        ASSERT_TRUE(sim.is_stable());
        // The engine's consensus against the generic output-map scan.
        EXPECT_EQ(sim.consensus_output(), consensus_output(usd, sim.configuration()));
      };
      ASSERT_NO_FATAL_FAILURE(run_to_stability());
    }
  }
}

// ------------------------------------------------------- batch path ----

/// One batch of the chain with labelled agents: ordered pairs of distinct
/// agents until one meets an agent met before (applied too), or until the
/// configuration is stable. Returns the counts and the interactions made.
std::pair<std::vector<Count>, Interactions> labelled_batch(
    const UndecidedStateDynamics& usd, const std::vector<Count>& counts,
    Xoshiro256pp& rng) {
  std::vector<State> agents;
  for (State s = 0; s < counts.size(); ++s) agents.insert(agents.end(), counts[s], s);
  const auto n = static_cast<std::uint64_t>(agents.size());
  std::vector<bool> met(agents.size(), false);
  std::vector<Count> now = counts;
  Interactions made = 0;
  for (;;) {
    const std::uint64_t a = rng.bounded(n);
    std::uint64_t b = rng.bounded(n - 1);
    b += b >= a;
    const bool collision = met[a] || met[b];
    met[a] = met[b] = true;
    const Transition t = usd.apply(agents[a], agents[b]);
    --now[agents[a]];
    --now[agents[b]];
    ++now[t.initiator];
    ++now[t.responder];
    agents[a] = t.initiator;
    agents[b] = t.responder;
    ++made;
    if (collision || brute_force_stable(usd, Configuration(now))) return {now, made};
  }
}

TEST(SimulatorTest, OneBatchMatchesTheLabelledAgentChain) {
  // The joint law of (counts after, interactions made) of one batch(),
  // against the labelled chain it stands for, at populations small enough
  // that every branch runs: runs that use up every agent, each kind of
  // colliding pair, and batches that end stable inside the run. Two-sample
  // chi-square over the joint outcomes.
  struct Case {
    std::size_t k;
    std::vector<Count> counts;  // ⊥ first
  };
  for (const Case& c : {Case{3, {2, 3, 2, 1}}, Case{2, {0, 6, 4}}, Case{2, {3, 1, 0}},
                        Case{4, {1, 2, 2, 2, 2}}}) {
    const UndecidedStateDynamics usd(c.k);
    SCOPED_TRACE(Configuration(c.counts).to_string());
    constexpr int kDraws = 200000;
    std::map<std::pair<std::vector<Count>, Interactions>, std::pair<std::int64_t, std::int64_t>> joint;
    Xoshiro256pp reference_rng(71);
    for (int i = 0; i < kDraws; ++i) ++joint[labelled_batch(usd, c.counts, reference_rng)].first;
    for (int i = 0; i < kDraws; ++i) {
      Simulator sim(usd, Configuration(c.counts), 1000 + static_cast<std::uint64_t>(i));
      sim.batch(1'000'000);
      ASSERT_EQ(sim.configuration().population(), Configuration(c.counts).population());
      ++joint[{sim.configuration().counts(), sim.interactions()}].second;
    }
    // Homogeneity: pooled expected counts, bins merged until each side
    // expects at least 5.
    std::vector<std::int64_t> observed;
    std::vector<double> expected;
    std::int64_t ref = 0;
    std::int64_t got = 0;
    int bins = 0;
    double stat = 0.0;
    for (const auto& [outcome, hits] : joint) {
      ref += hits.first;
      got += hits.second;
      if (ref + got < 10) continue;
      const double e = 0.5 * static_cast<double>(ref + got);
      stat += (ref - e) * (ref - e) / e + (got - e) * (got - e) / e;
      ++bins;
      ref = got = 0;
    }
    ASSERT_GT(bins, 2);
    EXPECT_GT(chi_square_sf(stat, bins - 1), 1e-4) << bins << " bins";
  }
}

TEST(SimulatorTest, BatchesConserveAgentsAndKeepStabilityExact) {
  // Batches interleaved with steps: the population holds, is_stable()
  // agrees with the pair scan after every call, and step() after a batch
  // draws from the batch's counts (the pair sampler is resynchronised).
  const UndecidedStateDynamics usd(5);
  Simulator sim(usd, Configuration({0, 300, 250, 200, 150, 100}), 21);
  while (!sim.is_stable()) {
    const Interactions before = sim.interactions();
    sim.batch(10'000'000);
    EXPECT_GT(sim.interactions(), before);
    ASSERT_EQ(sim.configuration().population(), 1000);
    ASSERT_EQ(sim.is_stable(), brute_force_stable(usd, sim.configuration()));
    if (sim.is_stable()) break;
    sim.step();
    ASSERT_EQ(sim.configuration().population(), 1000);
    ASSERT_EQ(sim.is_stable(), brute_force_stable(usd, sim.configuration()));
  }
  const Configuration done = sim.configuration();
  sim.batch(10'000'000);  // stable: a no-op
  EXPECT_EQ(sim.configuration(), done);
}

TEST(SimulatorTest, BatchedRunRespectsTheBudgetExactly) {
  // At n = 5000, k = 3 run_until_stable batches; the budget cuts the run
  // on the exact interaction, and a same-seed twin is deterministic.
  const UndecidedStateDynamics usd(3);
  const Configuration initial({0, 2000, 1500, 1500});
  for (const Interactions budget : {Interactions{1}, Interactions{250}, Interactions{7777}}) {
    Simulator sim(usd, initial, 9);
    const RunOutcome out = sim.run_until_stable(budget);
    EXPECT_FALSE(out.stabilized);
    EXPECT_EQ(out.interactions, budget);
    Simulator twin(usd, initial, 9);
    twin.run_until_stable(budget);
    EXPECT_EQ(twin.configuration(), sim.configuration());
  }
}

TEST(SimulatorTest, RunsCutAtWholeParallelTimeUnitsDrawAsOneRun) {
  // No batch straddles a multiple of n interactions, so run_until_stable
  // called with budgets n, 2n, 3n, … ends exactly where one call ends.
  for (const std::size_t k : {3u, 5u}) {
    const UndecidedStateDynamics usd(k);
    std::vector<Count> opinions(k, 4000 / k);
    opinions[0] += 300;
    const Configuration initial = UndecidedStateDynamics::initial_configuration(opinions);
    const Count n = initial.population();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Simulator whole(usd, initial, seed);
      const RunOutcome one = whole.run_until_stable(1'000'000'000);
      Simulator cut(usd, initial, seed);
      RunOutcome chunked;
      for (Interactions target = n; !chunked.stabilized; target += n) {
        chunked = cut.run_until_stable(target);
      }
      EXPECT_EQ(chunked.interactions, one.interactions) << "k " << k << " seed " << seed;
      EXPECT_EQ(cut.configuration(), whole.configuration()) << "k " << k << " seed " << seed;
    }
  }
}

/// Stopping parallel times of `trials` runs: `batched` drives
/// run_until_stable (or batch() when `hand_batch`), the reference a
/// `while (!is_stable()) step();` loop.
std::vector<double> stopping_times(const UndecidedStateDynamics& usd,
                                   const Configuration& initial, std::size_t trials,
                                   std::uint64_t seed, int mode) {
  const SweepCellResult cell = testutil::run_cell(trials, seed, [&](std::uint64_t s) {
    Simulator sim(usd, initial, s);
    if (mode == 0) {
      while (!sim.is_stable()) sim.step();
    } else if (mode == 1) {
      sim.run_until_stable(1'000'000'000);
    } else {
      while (!sim.is_stable()) sim.batch(1'000'000'000);
    }
    TrialResult r;
    r.stabilized = sim.is_stable();
    r.winner = sim.consensus_output();
    r.parallel_time = sim.parallel_time();
    return r;
  });
  return cell.values("parallel_time");
}

TEST(SimulatorTest, BatchedStabilizationTimesMatchStepping) {
  // Two-sample KS on 300 stopping times each. At k = 3, n = 5000
  // run_until_stable batches (E[ℓ] = √(πn/8) ≈ 44 ≥ kStepsPerBatchState·4);
  // at k = 27 the crossover would step at any n this test can afford, so
  // batch() is driven by hand at n = 3000. The 0.159 bound is the α = 0.001
  // critical value for 300 against 300.
  constexpr std::size_t kTrials = 300;
  constexpr double kCritical = 0.159;
  {
    const UndecidedStateDynamics usd(3);
    const Configuration initial({0, 2000, 1500, 1500});
    ASSERT_GE(std::sqrt(3.14159 * 5000 / 8), Simulator::kStepsPerBatchState * 4);
    const double d = testutil::ks_distance(stopping_times(usd, initial, kTrials, 3, 1),
                                           stopping_times(usd, initial, kTrials, 4, 0));
    EXPECT_LE(d, kCritical) << "k = 3";
  }
  {
    const UndecidedStateDynamics usd(27);
    std::vector<Count> opinions(27, 110);
    opinions[0] = 140;
    const Configuration initial = UndecidedStateDynamics::initial_configuration(opinions);
    const double d = testutil::ks_distance(stopping_times(usd, initial, kTrials, 5, 2),
                                           stopping_times(usd, initial, kTrials, 6, 0));
    EXPECT_LE(d, kCritical) << "k = 27";
  }
}

TEST(RecorderTest, SamplesAtStride) {
  Recorder rec(10);
  rec.add_channel("undecided", [](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(0));
  });
  const Configuration c({3, 7});
  rec.maybe_sample(c, 0);   // sampled (first)
  rec.maybe_sample(c, 5);   // skipped
  rec.maybe_sample(c, 10);  // sampled
  rec.maybe_sample(c, 12);  // skipped
  rec.maybe_sample(c, 25);  // sampled (past due)
  EXPECT_EQ(rec.series().num_samples(), 3u);
  EXPECT_EQ(rec.series().channels[0][0], 3.0);
}

TEST(RecorderTest, ChannelsLockedAfterFirstSample) {
  Recorder rec(1);
  rec.add_channel("a", [](const Configuration&, Interactions) { return 0.0; });
  rec.sample(Configuration({1, 1}), 0);
  EXPECT_THROW(
      rec.add_channel("late", [](const Configuration&, Interactions) { return 0.0; }),
      CheckFailure);
}

TEST(RecorderTest, TsvHasHeaderAndRows) {
  Recorder rec(1);
  rec.add_channel("u", [](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(0));
  });
  rec.sample(Configuration({3, 7}), 0);
  rec.sample(Configuration({4, 6}), 10);
  std::ostringstream os;
  rec.series().write_tsv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("parallel_time\tu"), std::string::npos);
  EXPECT_NE(out.find("\t3"), std::string::npos);
  EXPECT_NE(out.find("\t4"), std::string::npos);
}

TEST(RecorderTest, RecordsDuringSimulatorRun) {
  const UndecidedStateDynamics usd(2);
  Simulator sim(usd, Configuration({0, 700, 300}), 13);
  Recorder rec(100);
  rec.add_channel("undecided", [](const Configuration& c, Interactions) {
    return static_cast<double>(c.count(UndecidedStateDynamics::kUndecided));
  });
  for (int i = 0; i < 5000; ++i) {
    sim.step();
    rec.maybe_sample(sim.configuration(), sim.interactions());
  }
  EXPECT_GE(rec.series().num_samples(), 45u);
  EXPECT_LE(rec.series().num_samples(), 55u);
}

}  // namespace
}  // namespace ppsim
