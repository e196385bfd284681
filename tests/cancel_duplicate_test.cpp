// Cancellation–duplication exact majority: encoding, transition semantics,
// the conserved signed weight, and end-to-end exactness on pinned seeds.
#include "ppsim/protocols/cancel_duplicate.hpp"

#include <gtest/gtest.h>

#include "ppsim/core/simulator.hpp"
#include "ppsim/util/check.hpp"
#include "stat_util.hpp"

namespace ppsim {
namespace {

TEST(CancelDuplicateTest, EncodingRoundTrip) {
  const CancellationDuplication p(4);
  EXPECT_EQ(p.num_states(), 3u + 10u);
  for (const bool pos : {true, false}) {
    for (std::size_t j = 0; j <= 4; ++j) {
      const State s = p.token_state(pos, j);
      EXPECT_TRUE(p.is_token(s));
      EXPECT_EQ(p.is_positive(s), pos);
      EXPECT_EQ(p.exponent(s), j);
      EXPECT_EQ(p.signed_weight(s), (pos ? 1 : -1) * (Count{1} << j));
    }
  }
  EXPECT_EQ(p.signed_weight(CancellationDuplication::kBlankPlus), 0);
  EXPECT_THROW(p.token_state(true, 5), CheckFailure);
  EXPECT_THROW(CancellationDuplication(63), CheckFailure);
}

TEST(CancelDuplicateTest, CancellationRule) {
  const CancellationDuplication p(3);
  const State plus4 = p.token_state(true, 2);
  const State minus4 = p.token_state(false, 2);
  const Transition t = p.apply(plus4, minus4);
  EXPECT_EQ(t.initiator, CancellationDuplication::kBlankPlus);
  EXPECT_EQ(t.responder, CancellationDuplication::kBlankMinus);
  // different magnitudes do NOT cancel
  const State minus2 = p.token_state(false, 1);
  EXPECT_EQ(p.apply(plus4, minus2), (Transition{plus4, minus2}));
  // same sign never cancels
  EXPECT_EQ(p.apply(plus4, plus4), (Transition{plus4, plus4}));
}

TEST(CancelDuplicateTest, DuplicationRule) {
  const CancellationDuplication p(3);
  const State plus8 = p.token_state(true, 3);
  const State plus4 = p.token_state(true, 2);
  const Transition t = p.apply(plus8, CancellationDuplication::kBlankMinus);
  EXPECT_EQ(t.initiator, plus4);
  EXPECT_EQ(t.responder, plus4);
  // symmetric order
  const Transition t2 = p.apply(CancellationDuplication::kBlankNeutral, plus8);
  EXPECT_EQ(t2.initiator, plus4);
  EXPECT_EQ(t2.responder, plus4);
}

TEST(CancelDuplicateTest, UnitTokensGossipSign) {
  const CancellationDuplication p(3);
  const State plus1 = p.token_state(true, 0);
  const State minus1 = p.token_state(false, 0);
  EXPECT_EQ(p.apply(plus1, CancellationDuplication::kBlankMinus),
            (Transition{plus1, CancellationDuplication::kBlankPlus}));
  EXPECT_EQ(p.apply(CancellationDuplication::kBlankNeutral, minus1),
            (Transition{CancellationDuplication::kBlankMinus, minus1}));
  // already-converted blank: null transition (stability depends on it)
  EXPECT_EQ(p.apply(plus1, CancellationDuplication::kBlankPlus),
            (Transition{plus1, CancellationDuplication::kBlankPlus}));
}

TEST(CancelDuplicateTest, BlankPairsAreNull) {
  const CancellationDuplication p(2);
  EXPECT_EQ(p.apply(CancellationDuplication::kBlankPlus,
                    CancellationDuplication::kBlankMinus),
            (Transition{CancellationDuplication::kBlankPlus,
                        CancellationDuplication::kBlankMinus}));
}

TEST(CancelDuplicateTest, OutputMap) {
  const CancellationDuplication p(2);
  EXPECT_EQ(*p.output(p.token_state(true, 1)), CancellationDuplication::kOpinionA);
  EXPECT_EQ(*p.output(p.token_state(false, 0)), CancellationDuplication::kOpinionB);
  EXPECT_EQ(*p.output(CancellationDuplication::kBlankPlus),
            CancellationDuplication::kOpinionA);
  EXPECT_FALSE(p.output(CancellationDuplication::kBlankNeutral).has_value());
}

TEST(CancelDuplicateTest, SignedWeightIsInvariant) {
  const CancellationDuplication p(6);
  Simulator sim(p, p.initial(30, 20), 13);
  const Count initial = p.total_weight(sim.configuration());
  EXPECT_EQ(initial, (30 - 20) * (Count{1} << 6));
  for (int i = 0; i < 30000; ++i) {
    sim.step();
  }
  EXPECT_EQ(p.total_weight(sim.configuration()), initial);
}

TEST(CancelDuplicateTest, ExactMajorityInTheSafeRegime) {
  // d = 2 out of n = 100 — far below USD's w.h.p. threshold, but exact
  // protocols must still always commit to A. J = 4 keeps the surplus
  // d·2^J = 32 well within the unit-token capacity (the safe regime from
  // the header); all pinned seeds must reach consensus on A.
  const CancellationDuplication p(4);
  const SweepCellResult cell = testutil::run_cell(10, 909, [&p](std::uint64_t seed) {
    Simulator sim(p, p.initial(51, 49), seed);
    const RunOutcome out = sim.run_until_stable(100'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  for (const double winner : cell.values("winner")) {
    EXPECT_EQ(winner, CancellationDuplication::kOpinionA);
  }
}

TEST(CancelDuplicateTest, UnsynchronizedDeadlockRegimeIsReal) {
  // The header's caveat, codified: with J = 7 at n = 100 the surplus
  // d·2^J = 256 cannot fit into unit tokens, blanks starve, and a majority
  // of runs stabilize WITHOUT consensus — the deadlock that made [8]
  // synchronize cancellation/duplication phases with a leader. Even then,
  // no run may ever commit to the minority.
  const CancellationDuplication p(7);
  const SweepCellResult cell = testutil::run_cell(20, 909, [&p](std::uint64_t seed) {
    Simulator sim(p, p.initial(51, 49), seed);
    const RunOutcome out = sim.run_until_stable(100'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  EXPECT_EQ(cell.rate("stabilized"), 1.0);
  std::size_t no_consensus = 0;
  for (const double winner : cell.values("winner")) {
    if (winner < 0.0) {
      ++no_consensus;
    } else {
      EXPECT_EQ(winner, CancellationDuplication::kOpinionA);
    }
  }
  EXPECT_GT(no_consensus, 0u) << "deadlock regime unexpectedly disappeared";
}

TEST(CancelDuplicateTest, MinorityNeverCommitsWrongly) {
  // Even on runs that might deadlock, committed outputs must match the
  // invariant's sign: no agent may end in a minus state when the total
  // weight is positive... (minus *tokens* can deadlock, but blank-minus
  // plus positive tokens cannot be a consensus). Check no trial reports
  // consensus on B.
  const CancellationDuplication p(6);
  const SweepCellResult cell = testutil::run_cell(10, 2024, [&p](std::uint64_t seed) {
    Simulator sim(p, p.initial(35, 25), seed);
    const RunOutcome out = sim.run_until_stable(100'000'000);
    TrialResult r;
    r.stabilized = out.stabilized;
    r.winner = out.consensus;
    return r;
  });
  for (const double winner : cell.values("winner")) {
    if (winner >= 0.0) {
      EXPECT_EQ(winner, CancellationDuplication::kOpinionA);
    }
  }
}

TEST(CancelDuplicateTest, TieCancelsAllTokens) {
  const CancellationDuplication p(5);
  Simulator sim(p, p.initial(40, 40), 31);
  const RunOutcome out = sim.run_until_stable(100'000'000);
  ASSERT_TRUE(out.stabilized);
  // Invariant 0: every token must eventually cancel; blanks remain split.
  Count tokens = 0;
  for (State s = 3; s < p.num_states(); ++s) {
    tokens += sim.configuration().count(s);
  }
  EXPECT_EQ(tokens, 0);
  EXPECT_FALSE(out.consensus.has_value());
}

}  // namespace
}  // namespace ppsim
