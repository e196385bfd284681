// The transition rules and output maps of the test-local fixtures in
// toy_protocols.hpp.
#include <gtest/gtest.h>

#include "toy_protocols.hpp"

namespace ppsim {
namespace {

using toy::FourStateMajority;
using toy::LeaderElection;

// -------------------------------------------------------- leader election ----

TEST(LeaderElectionTest, OnlyLeaderPairsReact) {
  const LeaderElection le;
  using L = LeaderElection;
  EXPECT_EQ(le.apply(L::kLeader, L::kLeader), (Transition{L::kLeader, L::kFollower}));
  EXPECT_EQ(le.apply(L::kLeader, L::kFollower), (Transition{L::kLeader, L::kFollower}));
  EXPECT_EQ(le.apply(L::kFollower, L::kFollower),
            (Transition{L::kFollower, L::kFollower}));
}

// ------------------------------------------------------------- four-state ----

TEST(FourStateMajorityTest, TransitionRules) {
  const FourStateMajority p;
  using M = FourStateMajority;
  // strong/strong cancellation, both orders
  EXPECT_EQ(p.apply(M::kStrongA, M::kStrongB), (Transition{M::kWeakA, M::kWeakB}));
  EXPECT_EQ(p.apply(M::kStrongB, M::kStrongA), (Transition{M::kWeakB, M::kWeakA}));
  // strong converts opposing weak
  EXPECT_EQ(p.apply(M::kStrongA, M::kWeakB), (Transition{M::kStrongA, M::kWeakA}));
  EXPECT_EQ(p.apply(M::kWeakB, M::kStrongA), (Transition{M::kWeakA, M::kStrongA}));
  EXPECT_EQ(p.apply(M::kStrongB, M::kWeakA), (Transition{M::kStrongB, M::kWeakB}));
  // null examples
  EXPECT_EQ(p.apply(M::kStrongA, M::kWeakA), (Transition{M::kStrongA, M::kWeakA}));
  EXPECT_EQ(p.apply(M::kWeakA, M::kWeakB), (Transition{M::kWeakA, M::kWeakB}));
}

TEST(FourStateMajorityTest, OutputGroupsStrongAndWeak) {
  const FourStateMajority p;
  using M = FourStateMajority;
  EXPECT_EQ(*p.output(M::kStrongA), M::kOpinionA);
  EXPECT_EQ(*p.output(M::kWeakA), M::kOpinionA);
  EXPECT_EQ(*p.output(M::kStrongB), M::kOpinionB);
  EXPECT_EQ(*p.output(M::kWeakB), M::kOpinionB);
}

}  // namespace
}  // namespace ppsim
