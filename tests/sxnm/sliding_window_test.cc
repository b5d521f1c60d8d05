#include "sxnm/sliding_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>

namespace sxnm::core {
namespace {

std::vector<std::pair<size_t, size_t>> Collect(const std::vector<size_t>& order,
                                               size_t window) {
  std::vector<std::pair<size_t, size_t>> pairs;
  ForEachWindowPair(order, window, 0, order.size(), NeverStop{},
                    [&](size_t a, size_t b) { pairs.emplace_back(a, b); });
  return pairs;
}

TEST(SlidingWindowTest, WindowTwoIsAdjacentPairs) {
  auto pairs = Collect({10, 20, 30, 40}, 2);
  EXPECT_EQ(pairs, (std::vector<std::pair<size_t, size_t>>{
                       {10, 20}, {20, 30}, {30, 40}}));
}

TEST(SlidingWindowTest, WindowThree) {
  auto pairs = Collect({0, 1, 2, 3}, 3);
  // i=1: (0,1); i=2: (0,2),(1,2); i=3: (1,3),(2,3).
  EXPECT_EQ(pairs, (std::vector<std::pair<size_t, size_t>>{
                       {0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}));
}

TEST(SlidingWindowTest, WindowCoversExactlyDistanceLessThanW) {
  // Property: pair (i, j) with |i - j| < w visited exactly once.
  const size_t n = 20;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t w : {2u, 3u, 5u, 7u, 19u, 50u}) {
    std::set<std::pair<size_t, size_t>> seen;
    size_t visits = 0;
    ForEachWindowPair(order, w, 0, n, NeverStop{}, [&](size_t a, size_t b) {
      ++visits;
      EXPECT_LT(a, b);
      EXPECT_LT(b - a, w) << "pair outside window";
      EXPECT_TRUE(seen.insert({a, b}).second) << "pair visited twice";
    });
    // Every pair within distance < w is present.
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n && j - i < w; ++j) {
        EXPECT_TRUE(seen.count({i, j})) << i << "," << j << " w=" << w;
      }
    }
    EXPECT_EQ(visits, WindowPairCount(n, w));
  }
}

TEST(SlidingWindowTest, WindowAtLeastNIsAllPairs) {
  std::vector<size_t> order = {0, 1, 2, 3, 4};
  auto pairs = Collect(order, 5);
  EXPECT_EQ(pairs.size(), 10u);  // C(5,2)
  auto pairs_larger = Collect(order, 100);
  EXPECT_EQ(pairs_larger.size(), 10u);
}

TEST(SlidingWindowTest, EmptyAndSingleton) {
  EXPECT_TRUE(Collect({}, 3).empty());
  EXPECT_TRUE(Collect({7}, 3).empty());
}

TEST(WindowPairCountTest, ClosedForm) {
  EXPECT_EQ(WindowPairCount(0, 2), 0u);
  EXPECT_EQ(WindowPairCount(1, 2), 0u);
  EXPECT_EQ(WindowPairCount(5, 2), 4u);
  EXPECT_EQ(WindowPairCount(5, 5), 10u);
  EXPECT_EQ(WindowPairCount(5, 50), 10u);
  // n=10, w=3: 1 + 2*8 = 17.
  EXPECT_EQ(WindowPairCount(10, 3), 17u);
}

TEST(SlidingWindowTest, LinearInNForFixedWindow) {
  // Comparisons grow linearly with n (the paper's efficiency argument):
  // doubling n roughly doubles the count for fixed w.
  size_t c1 = WindowPairCount(1000, 10);
  size_t c2 = WindowPairCount(2000, 10);
  EXPECT_NEAR(static_cast<double>(c2) / static_cast<double>(c1), 2.0, 0.02);
}

// A stop policy cuts both enumerations to a prefix of their order: the
// first `limit` visits of the uncut run, and nothing after.
TEST(SlidingWindowTest, StopPolicyCutsToPrefix) {
  std::vector<std::string> keys = {"aa", "ab", "ab", "ac", "b", "ba", "bb"};
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  auto key_of = [&](size_t v) -> const std::string& { return keys[v]; };
  for (bool adaptive : {false, true}) {
    auto run = [&](auto&& stop) {
      std::vector<std::pair<size_t, size_t>> pairs;
      auto visit = [&](size_t a, size_t b) { pairs.emplace_back(a, b); };
      WindowRunResult result =
          adaptive ? ForEachAdaptiveWindowPair(order, key_of, 2, 5, 1, 0,
                                               order.size(), stop, visit)
                   : ForEachWindowPair(order, 3, 0, order.size(), stop, visit);
      EXPECT_EQ(result.pairs_visited, pairs.size());
      return std::make_pair(pairs, result.stopped_early);
    };
    auto [full, full_stopped] = run(NeverStop{});
    EXPECT_FALSE(full_stopped);
    for (size_t limit = 0; limit <= full.size(); ++limit) {
      SCOPED_TRACE("adaptive=" + std::to_string(adaptive) +
                   " limit=" + std::to_string(limit));
      auto [cut, stopped] =
          run([left = limit]() mutable { return left-- == 0; });
      EXPECT_EQ(stopped, limit < full.size());
      std::vector<std::pair<size_t, size_t>> prefix(full.begin(),
                                                    full.begin() + limit);
      EXPECT_EQ(cut, prefix);
    }
  }
}

// Windowed is the membership test of the enumerations: over random
// orders, windows, prefix lengths (keys shorter than the prefix
// included) and entering ranges, it holds for exactly the pairs whose
// entering position lies in the range that the range enumeration visits.
TEST(WindowedTest, HoldsExactlyForEnumeratedPairs) {
  std::mt19937 rng(2006);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = rng() % 40;
    std::vector<std::string> keys(n);
    for (std::string& key : keys) {
      size_t len = rng() % 5;
      for (size_t c = 0; c < len; ++c) {
        key += static_cast<char>('a' + rng() % 3);
      }
    }
    auto key_of = [&](size_t v) -> const std::string& { return keys[v]; };
    WindowPlan plan;
    plan.window = 2 + rng() % 6;
    plan.adaptive = rng() % 2 == 0;
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    if (plan.adaptive) {
      // An adaptive pass runs over its key's sorted order.
      plan.max_window = plan.window + rng() % 10;
      plan.prefix_len = 1 + rng() % 4;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return keys[a] < keys[b];
      });
    } else {
      std::shuffle(order.begin(), order.end(), rng);
    }
    std::vector<uint32_t> rank(n);
    for (size_t i = 0; i < n; ++i) rank[order[i]] = static_cast<uint32_t>(i);
    const size_t begin = rng() % (n + 1);
    const size_t end = begin + rng() % (n + 1 - begin);

    std::set<std::pair<size_t, size_t>> visited;
    auto visit = [&](size_t a, size_t b) {
      EXPECT_TRUE(visited.insert(std::minmax(a, b)).second);
    };
    if (plan.adaptive) {
      ForEachAdaptiveWindowPair(order, key_of, plan.window, plan.max_window,
                                plan.prefix_len, begin, end, NeverStop{},
                                visit);
    } else {
      ForEachWindowPair(order, plan.window, begin, end, NeverStop{}, visit);
    }
    std::set<std::pair<size_t, size_t>> expected;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        size_t entering = std::max(rank[a], rank[b]);
        if (entering >= begin && entering < end &&
            Windowed(plan, rank, key_of, a, b)) {
          expected.insert({a, b});
        }
      }
    }
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" +
                 std::to_string(n) + " window=" + std::to_string(plan.window) +
                 " adaptive=" + std::to_string(plan.adaptive) +
                 " max_window=" + std::to_string(plan.max_window) +
                 " prefix=" + std::to_string(plan.prefix_len) + " range=[" +
                 std::to_string(begin) + "," + std::to_string(end) + ")");
    EXPECT_EQ(visited, expected);
  }
}

}  // namespace
}  // namespace sxnm::core
