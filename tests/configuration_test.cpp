// Configuration invariants: population conservation, non-negativity, bulk
// moves, and observables.
#include "ppsim/core/configuration.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

TEST(ConfigurationTest, ConstructionComputesPopulation) {
  const Configuration c({3, 0, 7});
  EXPECT_EQ(c.num_states(), 3u);
  EXPECT_EQ(c.population(), 10);
  EXPECT_EQ(c.count(0), 3);
  EXPECT_EQ(c.count(1), 0);
  EXPECT_EQ(c.count(2), 7);
}

TEST(ConfigurationTest, RejectsInvalidConstruction) {
  EXPECT_THROW(Configuration({}), CheckFailure);
  EXPECT_THROW(Configuration({3, -1}), CheckFailure);
}

TEST(ConfigurationTest, MonochromaticFactory) {
  const Configuration c = Configuration::monochromatic(4, 2, 100);
  EXPECT_EQ(c.count(2), 100);
  EXPECT_EQ(c.population(), 100);
  EXPECT_TRUE(c.is_monochromatic());
  EXPECT_THROW(Configuration::monochromatic(4, 4, 1), CheckFailure);
}

TEST(ConfigurationTest, MoveAgentConservesPopulation) {
  Configuration c({5, 5});
  c.move_agent(0, 1);
  EXPECT_EQ(c.count(0), 4);
  EXPECT_EQ(c.count(1), 6);
  EXPECT_EQ(c.population(), 10);
}

TEST(ConfigurationTest, MoveAgentSelfIsNoop) {
  Configuration c({5, 5});
  c.move_agent(1, 1);
  EXPECT_EQ(c.count(1), 5);
}

TEST(ConfigurationTest, MoveFromEmptyStateThrows) {
  Configuration c({0, 5});
  EXPECT_THROW(c.move_agent(0, 1), CheckFailure);
  EXPECT_THROW(c.move_agent(2, 0), CheckFailure);  // out of range
}

TEST(ConfigurationTest, RepeatedMovesDrainSourceThenThrow) {
  Configuration c({10, 0});
  for (int i = 0; i < 7; ++i) c.move_agent(0, 1);
  EXPECT_EQ(c.count(0), 3);
  EXPECT_EQ(c.count(1), 7);
  for (int i = 0; i < 3; ++i) c.move_agent(0, 1);
  EXPECT_THROW(c.move_agent(0, 1), CheckFailure);  // source drained
  EXPECT_EQ(c.counts(), (std::vector<Count>{0, 10}));
  c.move_agent(0, 0);  // a self-move is a no-op, even from an empty state
  EXPECT_EQ(c.counts(), (std::vector<Count>{0, 10}));
}

TEST(ConfigurationTest, AssignCountsChecksBothInvariantsInOnePass) {
  Configuration c({10, 0, 5});
  c.assign_counts({3, 7, 5});
  EXPECT_EQ(c.counts(), (std::vector<Count>{3, 7, 5}));
  EXPECT_EQ(c.population(), 15);
  // Each rejected assignment leaves the configuration as it was.
  EXPECT_THROW(c.assign_counts({3, -1, 13}), CheckFailure);  // negative
  EXPECT_THROW(c.assign_counts({3, 7, 6}), CheckFailure);    // grew
  EXPECT_THROW(c.assign_counts({3, 7, 4}), CheckFailure);    // shrank
  EXPECT_THROW(c.assign_counts({3, 12}), CheckFailure);      // lost a state
  constexpr Count kMax = std::numeric_limits<Count>::max();
  EXPECT_THROW(c.assign_counts({kMax, kMax, 2}), CheckFailure);  // overflow
  EXPECT_EQ(c.counts(), (std::vector<Count>{3, 7, 5}));
}

TEST(ConfigurationTest, MonochromaticDetection) {
  EXPECT_TRUE(Configuration({0, 10, 0}).is_monochromatic());
  EXPECT_FALSE(Configuration({1, 9, 0}).is_monochromatic());
}

TEST(ConfigurationTest, ArgmaxAndSupport) {
  const Configuration c({2, 9, 0, 9});
  EXPECT_EQ(c.argmax(), 1u);  // ties break to the smallest index
  EXPECT_EQ(c.support_size(), 3u);
}

TEST(ConfigurationTest, ToStringFormat) {
  EXPECT_EQ(Configuration({1, 2, 3}).to_string(), "[1, 2, 3]");
}

TEST(ConfigurationTest, EqualityIsStructural) {
  EXPECT_EQ(Configuration({1, 2}), Configuration({1, 2}));
  EXPECT_NE(Configuration({1, 2}), Configuration({2, 1}));
}

}  // namespace
}  // namespace ppsim
