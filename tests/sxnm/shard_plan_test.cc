#include "sxnm/shard_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sxnm/sliding_window.h"

namespace sxnm::core {
namespace {

// The slices must partition [0, n) contiguously, in order.
void ExpectPartition(const std::vector<ShardSlice>& plan, size_t n,
                     size_t shards) {
  ASSERT_EQ(plan.size(), shards);
  size_t next = 0;
  for (const ShardSlice& s : plan) {
    EXPECT_EQ(s.owned_begin, next);
    EXPECT_LE(s.owned_begin, s.owned_end);
    EXPECT_LE(s.context_begin, s.owned_begin);
    next = s.owned_end;
  }
  EXPECT_EQ(next, n);
}

TEST(ShardPlanTest, PartitionsEvenlyWithRemainderUpFront) {
  auto plan = ComputeShardPlan(10, 3, 4);
  ExpectPartition(plan, 10, 3);
  EXPECT_EQ(plan[0].owned_end - plan[0].owned_begin, 4u);
  EXPECT_EQ(plan[1].owned_end - plan[1].owned_begin, 3u);
  EXPECT_EQ(plan[2].owned_end - plan[2].owned_begin, 3u);
}

TEST(ShardPlanTest, SingleShardOwnsEverythingWithNoContext) {
  auto plan = ComputeShardPlan(100, 1, 10);
  ExpectPartition(plan, 100, 1);
  EXPECT_EQ(plan[0].context_begin, 0u);
  EXPECT_EQ(ShardOverlapRows(plan), 0u);
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesEmptySlices) {
  auto plan = ComputeShardPlan(2, 5, 3);
  ExpectPartition(plan, 2, 5);
  size_t nonempty = 0;
  for (const ShardSlice& s : plan) {
    if (s.owned_end > s.owned_begin) ++nonempty;
  }
  EXPECT_EQ(nonempty, 2u);
}

TEST(ShardPlanTest, ContextReachesBackWindowMinusOne) {
  auto plan = ComputeShardPlan(100, 4, 10);
  for (const ShardSlice& s : plan) {
    size_t want = s.owned_begin >= 9 ? s.owned_begin - 9 : 0;
    EXPECT_EQ(s.context_begin, want);
  }
  // 3 shards with a full 9-row context prefix.
  EXPECT_EQ(ShardOverlapRows(plan), 27u);
}

TEST(ShardPlanTest, EmptyRelation) {
  auto plan = ComputeShardPlan(0, 3, 5);
  ExpectPartition(plan, 0, 3);
  EXPECT_EQ(ShardOverlapRows(plan), 0u);
}

// The owner rule itself: concatenating per-shard range enumerations in
// shard order must reproduce the full enumeration pair for pair, for
// plain and adaptive windows alike.
TEST(ShardPlanTest, RangeEnumerationsConcatenateToFullEnumeration) {
  const size_t n = 53;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = (i * 31) % n;  // a permutation
  for (size_t window : {size_t{2}, size_t{5}, size_t{60}}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
      std::vector<std::pair<size_t, size_t>> full;
      ForEachWindowPair(order, window, 0, n, NeverStop{},
                        [&](size_t a, size_t b) { full.emplace_back(a, b); });
      std::vector<std::pair<size_t, size_t>> pieced;
      size_t count = 0;
      for (const ShardSlice& s : ComputeShardPlan(n, shards, window)) {
        count += ForEachWindowPair(order, window, s.owned_begin,
                                   s.owned_end, NeverStop{},
                                   [&](size_t a, size_t b) {
                                     pieced.emplace_back(a, b);
                                   })
                     .pairs_visited;
      }
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(pieced, full);
      EXPECT_EQ(count, WindowPairCount(n, window));
    }
  }
}

TEST(ShardPlanTest, AdaptiveRangeEnumerationsConcatenateToo) {
  const size_t n = 40;
  std::vector<size_t> order(n);
  std::vector<std::string> keys(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
    keys[i] = "k" + std::to_string(i / 6);  // runs of 6 equal prefixes
  }
  auto key_of = [&](size_t v) -> const std::string& { return keys[v]; };
  std::vector<std::pair<size_t, size_t>> full;
  ForEachAdaptiveWindowPair(
      order, key_of, 3, 12, 2, 0, n, NeverStop{},
      [&](size_t a, size_t b) { full.emplace_back(a, b); });
  for (size_t shards : {size_t{2}, size_t{3}, size_t{5}}) {
    std::vector<std::pair<size_t, size_t>> pieced;
    for (const ShardSlice& s : ComputeShardPlan(n, shards, 12)) {
      ForEachAdaptiveWindowPair(
          order, key_of, 3, 12, 2, s.owned_begin, s.owned_end, NeverStop{},
          [&](size_t a, size_t b) { pieced.emplace_back(a, b); });
    }
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(pieced, full);
  }
}

}  // namespace
}  // namespace sxnm::core
