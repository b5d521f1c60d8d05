#include <gtest/gtest.h>

#include <set>

#include "sxnm/config.h"
#include "sxnm/config_xml.h"
#include "sxnm/detector.h"
#include "sxnm/sliding_window.h"
#include "xml/parser.h"

namespace sxnm::core {
namespace {

// --- ForEachAdaptiveWindowPair unit behaviour ------------------------------

std::vector<std::pair<size_t, size_t>> CollectAdaptive(
    const std::vector<std::string>& keys, size_t base, size_t max_window,
    size_t prefix) {
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::vector<std::pair<size_t, size_t>> pairs;
  ForEachAdaptiveWindowPair(
      order, [&](size_t v) -> const std::string& { return keys[v]; }, base,
      max_window, prefix, 0, order.size(), NeverStop{},
      [&](size_t a, size_t b) { pairs.emplace_back(a, b); });
  return pairs;
}

TEST(AdaptiveWindowTest, ReducesToFixedWhenKeysDiffer) {
  std::vector<std::string> keys = {"AAAA", "BBBB", "CCCC", "DDDD"};
  auto adaptive = CollectAdaptive(keys, 2, 10, 2);
  // No shared prefixes: behaves exactly like the fixed window of 2.
  EXPECT_EQ(adaptive, (std::vector<std::pair<size_t, size_t>>{
                          {0, 1}, {1, 2}, {2, 3}}));
}

TEST(AdaptiveWindowTest, ExtendsInsideEqualPrefixBlock) {
  // A run of 5 equal-prefix keys: base window 2 alone visits only
  // adjacent pairs, adaptive visits the whole block.
  std::vector<std::string> keys = {"AAAA1", "AAAA2", "AAAA3", "AAAA4",
                                   "AAAA5", "ZZZZ"};
  auto pairs = CollectAdaptive(keys, 2, 10, 4);
  std::set<std::pair<size_t, size_t>> set(pairs.begin(), pairs.end());
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      EXPECT_TRUE(set.count({i, j})) << i << "," << j;
    }
  }
  // ZZZZ only sees its fixed-window neighbor.
  EXPECT_TRUE(set.count({4, 5}));
  EXPECT_FALSE(set.count({3, 5}));
}

TEST(AdaptiveWindowTest, MaxWindowCapsExtension) {
  std::vector<std::string> keys(20, "SAME");
  auto pairs = CollectAdaptive(keys, 2, 5, 4);
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(b - a, 5u) << "no pair beyond max_window";
  }
  // Element 10 reaches exactly 4 predecessors.
  size_t reach_10 = 0;
  for (const auto& [a, b] : pairs) {
    if (b == 10) ++reach_10;
  }
  EXPECT_EQ(reach_10, 4u);
}

TEST(AdaptiveWindowTest, ShortKeysMustMatchEntirely) {
  std::vector<std::string> keys = {"AB", "AB", "AB", "AX"};
  auto pairs = CollectAdaptive(keys, 2, 10, 4);
  std::set<std::pair<size_t, size_t>> set(pairs.begin(), pairs.end());
  EXPECT_TRUE(set.count({0, 2})) << "equal short keys extend";
  EXPECT_FALSE(set.count({0, 3})) << "differing short key does not";
}

TEST(AdaptiveWindowTest, SupersetOfFixedWindow) {
  std::vector<std::string> keys = {"AA1", "AA2", "AB1", "AA3",
                                   "AC4", "AA4", "AA5"};
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;

  std::set<std::pair<size_t, size_t>> fixed;
  ForEachWindowPair(order, 3, 0, order.size(), NeverStop{},
                    [&](size_t a, size_t b) { fixed.insert({a, b}); });
  auto adaptive = CollectAdaptive(keys, 3, 10, 2);
  std::set<std::pair<size_t, size_t>> adaptive_set(adaptive.begin(),
                                                   adaptive.end());
  for (const auto& pair : fixed) {
    EXPECT_TRUE(adaptive_set.count(pair))
        << pair.first << "," << pair.second;
  }
}

// --- Detector integration ---------------------------------------------------

TEST(AdaptiveWindowDetectorTest, FindsDuplicateStrandedInEqualKeyRun) {
  // 12 movies share the key prefix (same first consonants); the duplicate
  // pair sits at the two ends of the run. A fixed window of 3 misses it,
  // the adaptive policy bridges the run.
  std::string xml = "<db><movies>";
  xml += "<movie><title>Silent Harbor Alpha</title></movie>";  // ordinal 0
  static constexpr const char* kSuffixes[] = {
      "Bqqqw", "Cwwwz", "Dzzzk", "Ekkkp", "Fpppm",
      "Gmmmv", "Hvvvr", "Jrrrg", "Kgggt", "Ltttb"};
  for (int i = 0; i < 10; ++i) {
    // Same consonant key prefix SLNTH..., mutually distant titles.
    xml += std::string("<movie><title>Silent Harbor ") + kSuffixes[i] +
           "</title></movie>";
  }
  xml += "<movie><title>Silent Harbor Alphaa</title></movie>";  // dup of 0
  xml += "</movies></db>";
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());

  auto make_config = [](bool adaptive) {
    Config config;
    CandidateBuilder builder("movie", "db/movies/movie");
    builder.Path(1, "title/text()")
        .Od(1, 1.0)
        .Key({{1, "K1-K5"}})
        .Window(3)
        .OdThreshold(0.9);
    if (adaptive) builder.AdaptiveWindow(/*prefix_len=*/5, /*max_window=*/50);
    auto cand = builder.Build();
    EXPECT_TRUE(cand.ok());
    EXPECT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
    return config;
  };

  auto fixed = Detector(make_config(false)).Run(doc.value());
  ASSERT_TRUE(fixed.ok());
  auto adaptive = Detector(make_config(true)).Run(doc.value());
  ASSERT_TRUE(adaptive.ok());

  EXPECT_TRUE(fixed->Find("movie")->duplicate_pairs.empty())
      << "fixed window 3 cannot bridge the 10-element run";
  ASSERT_EQ(adaptive->Find("movie")->duplicate_pairs.size(), 1u);
  EXPECT_GT(adaptive->Find("movie")->comparisons,
            fixed->Find("movie")->comparisons)
      << "extension costs extra comparisons, but only inside the block";
}

TEST(AdaptiveWindowDetectorTest, ValidationChecksKnobs) {
  Config config;
  auto cand = CandidateBuilder("m", "db/m")
                  .Path(1, "text()")
                  .Od(1, 1.0)
                  .Key({{1, "C1"}})
                  .Window(10)
                  .AdaptiveWindow(4, 5)  // max_window < window_size
                  .Build();
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(AdaptiveWindowDetectorTest, ConfigXmlRoundTrip) {
  Config config;
  auto cand = CandidateBuilder("m", "db/m")
                  .Path(1, "text()")
                  .Od(1, 1.0)
                  .Key({{1, "C1-C4"}})
                  .Window(5)
                  .AdaptiveWindow(6, 40)
                  .Build();
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());

  auto reparsed = ConfigFromXmlString(ConfigToXmlString(config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const CandidateConfig* m = reparsed->Find("m");
  EXPECT_EQ(m->window_policy, WindowPolicy::kAdaptivePrefix);
  EXPECT_EQ(m->adaptive_prefix_len, 6u);
  EXPECT_EQ(m->max_window, 40u);
}

}  // namespace
}  // namespace sxnm::core
