#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"

namespace finelb {
namespace {

std::vector<ServerId> ids(int n) {
  std::vector<ServerId> out(n);
  for (int i = 0; i < n; ++i) out[i] = i;
  return out;
}

std::vector<ServerId> choose_poll_set(std::span<const ServerId> candidates,
                                      std::size_t d, Rng& rng) {
  std::vector<ServerId> out;
  choose_poll_set_into(candidates, d, rng, out);
  return out;
}

TEST(PickRandomTest, CoversAllCandidatesUniformly) {
  Rng rng(1);
  const auto candidates = ids(4);
  std::map<ServerId, int> counts;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    ++counts[pick_random(candidates, rng)];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [id, count] : counts) {
    (void)id;
    EXPECT_NEAR(static_cast<double>(count) / draws, 0.25, 0.02);
  }
}

TEST(PickRandomTest, EmptyThrows) {
  Rng rng(1);
  EXPECT_THROW(pick_random({}, rng), InvariantError);
}

TEST(PickLeastLoadedTest, ChoosesStrictMinimum) {
  Rng rng(2);
  const std::vector<ServerLoad> loads = {
      {0, 5, 0}, {1, 2, 0}, {2, 9, 0}, {3, 3, 0}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(pick_least_loaded(loads, rng), 1);
  }
}

TEST(PickLeastLoadedTest, TieBreakIsUniform) {
  Rng rng(3);
  const std::vector<ServerLoad> loads = {
      {0, 1, 0}, {1, 1, 0}, {2, 7, 0}, {3, 1, 0}};
  std::map<ServerId, int> counts;
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    ++counts[pick_least_loaded(loads, rng)];
  }
  EXPECT_EQ(counts.count(2), 0u);
  for (const ServerId id : {0, 1, 3}) {
    EXPECT_NEAR(static_cast<double>(counts[id]) / draws, 1.0 / 3.0, 0.02);
  }
}

TEST(PickLeastLoadedTest, SingleEntry) {
  Rng rng(4);
  const std::vector<ServerLoad> loads = {{7, 42, 0}};
  EXPECT_EQ(pick_least_loaded(loads, rng), 7);
  EXPECT_THROW(pick_least_loaded({}, rng), InvariantError);
}

TEST(ChoosePollSetTest, DistinctAndCorrectSize) {
  Rng rng(5);
  const auto candidates = ids(16);
  for (const std::size_t d : {1u, 2u, 3u, 8u, 16u}) {
    const auto set = choose_poll_set(candidates, d, rng);
    EXPECT_EQ(set.size(), d);
    const std::set<ServerId> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), d) << "poll set must be distinct servers";
  }
}

TEST(ChoosePollSetTest, ClampsToPopulation) {
  Rng rng(6);
  const auto set = choose_poll_set(ids(3), 8, rng);
  EXPECT_EQ(set.size(), 3u);
}

TEST(ChoosePollSetTest, UniformInclusionProbability) {
  // Every server should appear in a d-of-n poll set with probability d/n.
  Rng rng(7);
  const auto candidates = ids(8);
  const std::size_t d = 3;
  std::map<ServerId, int> counts;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    for (const ServerId id : choose_poll_set(candidates, d, rng)) {
      ++counts[id];
    }
  }
  for (const auto& [id, count] : counts) {
    (void)id;
    EXPECT_NEAR(static_cast<double>(count) / draws, 3.0 / 8.0, 0.02);
  }
}

TEST(ChoosePollSetTest, EmptyCandidatesThrow) {
  Rng rng(8);
  EXPECT_THROW(choose_poll_set({}, 2, rng), InvariantError);
}

TEST(RoundRobinTest, CyclesInOrder) {
  RoundRobinCursor cursor;
  const auto candidates = ids(3);
  EXPECT_EQ(cursor.next(candidates), 0);
  EXPECT_EQ(cursor.next(candidates), 1);
  EXPECT_EQ(cursor.next(candidates), 2);
  EXPECT_EQ(cursor.next(candidates), 0);
}

TEST(RoundRobinTest, AdaptsToShrinkingSet) {
  RoundRobinCursor cursor;
  const auto four = ids(4);
  cursor.next(four);
  cursor.next(four);
  const auto two = ids(2);
  // Cursor position 2 modulo new size 2 -> index 0.
  EXPECT_EQ(cursor.next(two), 0);
}

}  // namespace
}  // namespace finelb
