#include "sxnm/detector.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "sxnm/sliding_window.h"
#include "xml/parser.h"

namespace sxnm::core {
namespace {

constexpr const char* kMovies = R"(
<db>
  <movies>
    <movie year="1999"><title>The Matrix</title></movie>
    <movie year="1999"><title>The Matrxi</title></movie>
    <movie year="1998"><title>Mask of Zorro</title></movie>
    <movie year="2001"><title>Ocean Storm</title></movie>
  </movies>
</db>
)";

Config MovieConfig(size_t window = 4, double threshold = 0.8) {
  Config config;
  auto movie = CandidateBuilder("movie", "db/movies/movie")
                   .Path(1, "title/text()")
                   .Path(2, "@year")
                   .Od(1, 0.8)
                   .Od(2, 0.2, "numeric:5")
                   .Key({{1, "K1-K5"}, {2, "D3,D4"}})
                   .Key({{2, "D3,D4"}, {1, "K1,K2"}})
                   .Window(window)
                   .OdThreshold(threshold)
                   .Build();
  EXPECT_TRUE(movie.ok()) << movie.status().ToString();
  EXPECT_TRUE(config.AddCandidate(std::move(movie).value()).ok());
  return config;
}

TEST(DetectorTest, FindsSimilarMovies) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const CandidateResult* movie = result->Find("movie");
  ASSERT_NE(movie, nullptr);
  EXPECT_EQ(movie->num_instances, 4u);
  ASSERT_EQ(movie->duplicate_pairs.size(), 1u);
  EXPECT_EQ(movie->duplicate_pairs[0], (OrdinalPair{0, 1}));
  EXPECT_EQ(movie->clusters.NonTrivialClusters().size(), 1u);
  EXPECT_GT(movie->comparisons, 0u);
}

TEST(DetectorTest, EidPairsMatchOrdinalPairs) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  const CandidateResult* movie = result->Find("movie");
  ASSERT_EQ(movie->duplicate_eid_pairs.size(),
            movie->duplicate_pairs.size());
  for (size_t i = 0; i < movie->duplicate_pairs.size(); ++i) {
    auto [a, b] = movie->duplicate_pairs[i];
    auto [ea, eb] = movie->duplicate_eid_pairs[i];
    EXPECT_EQ(movie->gk.rows[a].eid, ea);
    EXPECT_EQ(movie->gk.rows[b].eid, eb);
    EXPECT_EQ(doc->ElementById(ea)->name(), "movie");
  }
}

TEST(DetectorTest, PhaseTimersPopulated) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->KeyGenerationSeconds(), 0.0);
  EXPECT_GE(result->SlidingWindowSeconds(), 0.0);
  EXPECT_GE(result->TransitiveClosureSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(result->DuplicateDetectionSeconds(),
                   result->SlidingWindowSeconds() +
                       result->TransitiveClosureSeconds());
}

TEST(DetectorTest, InvalidConfigRejectedAtRun) {
  Config config;  // empty
  Detector detector(config);
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(detector.Run(doc.value()).ok());
}

TEST(DetectorTest, HighThresholdFindsNothing) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig(4, 1.0));
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Find("movie")->duplicate_pairs.empty());
}

TEST(DetectorTest, ZeroThresholdMergesWindowedPairs) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig(4, 0.0));
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  const CandidateResult* movie = result->Find("movie");
  // Window 4 over 4 instances compares all pairs; threshold 0 accepts all.
  EXPECT_EQ(movie->duplicate_pairs.size(), 6u);
  EXPECT_EQ(movie->clusters.num_clusters(), 1u);
}

TEST(DetectorTest, BottomUpDescendantsHelpParents) {
  // Two books whose titles differ beyond the OD threshold but whose
  // authors coincide; desc-average mode pulls them over the line.
  constexpr const char* kBooks = R"(
<lib>
  <book><name>Completely Different A</name>
    <authors><author>Jane Q Doe</author><author>Max Power</author></authors>
  </book>
  <book><name>Unrelated Title Zq</name>
    <authors><author>Jane Q Doe</author><author>Max Power</author></authors>
  </book>
</lib>
)";
  auto doc = xml::Parse(kBooks);
  ASSERT_TRUE(doc.ok());

  Config config;
  auto author = CandidateBuilder("author", "lib/book/authors/author")
                    .Path(1, "text()")
                    .Od(1, 1.0)
                    .Key({{1, "K1-K4"}})
                    .Window(4)
                    .OdThreshold(0.9)
                    .Build();
  ASSERT_TRUE(author.ok());
  ASSERT_TRUE(config.AddCandidate(std::move(author).value()).ok());

  auto book = CandidateBuilder("book", "lib/book")
                  .Path(1, "name/text()")
                  .Od(1, 1.0)
                  .Key({{1, "K1-K4"}})
                  .Window(4)
                  .OdThreshold(0.6)
                  .Mode(CombineMode::kAverage)
                  .Build();
  ASSERT_TRUE(book.ok());
  ASSERT_TRUE(config.AddCandidate(std::move(book).value()).ok());

  Detector detector(config);
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Authors deduplicate (identical names).
  const CandidateResult* authors = result->Find("author");
  ASSERT_NE(authors, nullptr);
  EXPECT_EQ(authors->clusters.NonTrivialClusters().size(), 2u);

  // Books: OD sim is low, but desc sim = 1.0 lifts the average over 0.6.
  const CandidateResult* books = result->Find("book");
  ASSERT_NE(books, nullptr);
  EXPECT_EQ(books->duplicate_pairs.size(), 1u)
      << "shared author clusters should make the books duplicates";

  // Control: with kOdOnly the same books do not match.
  Config od_only = config;
  od_only.Find("book")->classifier.mode = CombineMode::kOdOnly;
  auto control = Detector(od_only).Run(doc.value());
  ASSERT_TRUE(control.ok());
  EXPECT_TRUE(control->Find("book")->duplicate_pairs.empty());
}

TEST(DetectorTest, ProcessingOrderChildrenFirst) {
  constexpr const char* kNested = R"(
<db><outer><inner>x</inner></outer><outer><inner>y</inner></outer></db>
)";
  auto doc = xml::Parse(kNested);
  ASSERT_TRUE(doc.ok());
  Config config;
  ASSERT_TRUE(config
                  .AddCandidate(CandidateBuilder("outer", "db/outer")
                                    .Path(1, "inner/text()")
                                    .Od(1, 1.0)
                                    .Key({{1, "C1"}})
                                    .Build()
                                    .value())
                  .ok());
  ASSERT_TRUE(config
                  .AddCandidate(CandidateBuilder("inner", "db/outer/inner")
                                    .Path(1, "text()")
                                    .Od(1, 1.0)
                                    .Key({{1, "C1"}})
                                    .Build()
                                    .value())
                  .ok());
  Detector detector(config);
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  // Results listed in processing order: inner before outer.
  ASSERT_EQ(result->candidates.size(), 2u);
  EXPECT_EQ(result->candidates[0].name, "inner");
  EXPECT_EQ(result->candidates[1].name, "outer");
}

TEST(DetectorTest, ExactOdPrepassLinksIdenticalValues) {
  // Ten identical leaf values, far apart in a window of 2 thanks to
  // interleaving: without the prepass the window misses most pairs.
  std::string body;
  for (int i = 0; i < 10; ++i) {
    body += "<item><v>same value</v></item>";
    body += "<item><v>filler" + std::to_string(i) + "</v></item>";
  }
  auto doc = xml::Parse("<db>" + body + "</db>");
  ASSERT_TRUE(doc.ok());

  auto make_config = [](bool prepass) {
    Config config;
    EXPECT_TRUE(config
                    .AddCandidate(CandidateBuilder("item", "db/item")
                                      .Path(1, "v/text()")
                                      .Od(1, 1.0)
                                      .Key({{1, "C1-C4"}})
                                      .Window(2)
                                      .OdThreshold(0.95)
                                      .ExactOdPrepass(prepass)
                                      .Build()
                                      .value())
                    .ok());
    return config;
  };

  auto with = Detector(make_config(true)).Run(doc.value());
  ASSERT_TRUE(with.ok());
  auto without = Detector(make_config(false)).Run(doc.value());
  ASSERT_TRUE(without.ok());

  size_t biggest_with = 0, biggest_without = 0;
  for (const auto& c : with->Find("item")->clusters.clusters()) {
    biggest_with = std::max(biggest_with, c.size());
  }
  for (const auto& c : without->Find("item")->clusters.clusters()) {
    biggest_without = std::max(biggest_without, c.size());
  }
  EXPECT_EQ(biggest_with, 10u) << "prepass links all identical values";
  EXPECT_GE(biggest_with, biggest_without);
}

TEST(DetectorTest, EmptyDocumentNoInstances) {
  auto doc = xml::Parse("<db><movies/></db>");
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find("movie")->num_instances, 0u);
  EXPECT_EQ(result->Find("movie")->comparisons, 0u);
}

TEST(DetectorTest, WindowLargerThanInstances) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig(/*window=*/100));
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  // Degenerates to all-pairs: C(4,2) = 6 comparisons.
  EXPECT_EQ(result->Find("movie")->comparisons, 6u);
}

TEST(DetectorTest, FindMissingCandidateReturnsNull) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find("nope"), nullptr);
}

struct BruteForce {
  size_t distinct = 0;  // the expected CandidateResult::comparisons
  size_t visits = 0;    // windowed pairs summed over the passes
  size_t prepass = 0;   // distinct windowed pairs the pre-pass accepted
};

// The distinct comparisons of one candidate by brute force: one std::set
// of every enumerating pass's windowed pairs, with the window each pass
// ran with (read off its degradation entry), minus the exact-OD
// pre-pass pairs.
BruteForce BruteForceComparisons(const CandidateConfig& cand,
                                 const DetectionResult& result) {
  const GkTable& gk = result.Find(cand.name)->gk;
  std::set<OrdinalPair> windowed;
  BruteForce counts;
  for (size_t k = 0; k < cand.keys.size(); ++k) {
    size_t window = cand.window_size;
    bool adaptive = cand.window_policy == WindowPolicy::kAdaptivePrefix;
    for (const PassDegradation& entry : result.degradation.passes) {
      if (entry.candidate == cand.name && entry.key_index == k) {
        window = entry.window_used;  // shrunk, or 0 when skipped
        adaptive = false;
      }
    }
    if (window == 0) continue;
    std::vector<size_t> order = gk.SortedOrder(k);
    auto key_of = [&](size_t v) -> const std::string& {
      return gk.rows[v].keys[k];
    };
    auto visit = [&](size_t a, size_t b) {
      windowed.insert(std::minmax(a, b));
      ++counts.visits;
    };
    if (adaptive) {
      ForEachAdaptiveWindowPair(order, key_of, window, cand.max_window,
                                cand.adaptive_prefix_len, 0, order.size(),
                                NeverStop{}, visit);
    } else {
      ForEachWindowPair(order, window, 0, order.size(), NeverStop{}, visit);
    }
  }
  if (cand.exact_od_prepass) {
    // Each row is linked to the first row with the same normalized ODs.
    std::map<std::vector<std::string>, size_t> first_of;
    for (const GkRow& row : gk.rows) {
      std::vector<std::string> ods;
      for (const OdRef& ref : row.norm_ods) {
        ods.emplace_back(gk.od_pool.View(ref));
      }
      auto [it, inserted] = first_of.emplace(ods, row.ordinal);
      if (!inserted) {
        counts.prepass += windowed.erase({it->second, row.ordinal});
      }
    }
  }
  counts.distinct = windowed.size();
  return counts;
}

// CandidateResult::comparisons counts each windowed pair once however
// many passes window it: checked against brute force for three keys,
// fixed and adaptive windows, a budget-shrunk boundary pass, and the
// exact-OD pre-pass, across shards and threads.
TEST(DetectorTest, DistinctComparisonsMatchBruteForce) {
  datagen::MovieDataOptions gen;
  gen.num_movies = 120;
  gen.seed = 5;
  auto doc = datagen::MakeDirty(datagen::GenerateCleanMovies(gen),
                                datagen::RepeatedSubtreePreset(3));
  ASSERT_TRUE(doc.ok());
  const size_t window = 6;
  for (bool adaptive : {false, true}) {
    for (bool prepass : {false, true}) {
      CandidateBuilder builder("movie", "movie_database/movies/movie");
      builder.Path(1, "title/text()")
          .Path(2, "@year")
          .Path(3, "@length")
          .Od(1, 1.0)
          .Key({{1, "K1-K5"}, {2, "D3,D4"}})
          .Key({{2, "D3,D4"}, {1, "K1,K2"}})
          .Key({{3, "D1,D2"}, {1, "K1,K2"}})
          .Window(window)
          .OdThreshold(0.9)
          .ExactOdPrepass(prepass);
      if (adaptive) builder.AdaptiveWindow(/*prefix_len=*/2, /*max_window=*/14);
      auto cand = builder.Build();
      ASSERT_TRUE(cand.ok()) << cand.status().ToString();
      Config base;
      ASSERT_TRUE(base.AddCandidate(cand.value()).ok());
      auto full = Detector(base).Run(doc.value());
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      const size_t pass_pairs =
          WindowPairCount(full->Find("movie")->num_instances, window);
      for (bool shrink : {false, true}) {
        for (size_t shards : {size_t{1}, size_t{3}}) {
          for (size_t threads : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE("adaptive=" + std::to_string(adaptive) +
                         " prepass=" + std::to_string(prepass) +
                         " shrink=" + std::to_string(shrink) +
                         " shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            Config config = base;
            config.set_shards(shards);
            config.set_num_threads(threads);
            // Pass 1 runs in full, pass 2 shrinks, pass 3 is skipped.
            if (shrink) {
              config.mutable_limits().max_comparisons =
                  pass_pairs + pass_pairs / 2;
            }
            auto result = Detector(config).Run(doc.value());
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            EXPECT_EQ(result->degradation.PassesShrunk(), shrink ? 1u : 0u);
            EXPECT_EQ(result->degradation.PassesSkipped(), shrink ? 1u : 0u);
            BruteForce expected =
                BruteForceComparisons(cand.value(), result.value());
            EXPECT_EQ(result->Find("movie")->comparisons, expected.distinct);
            // The passes overlap and the pre-pass takes windowed pairs, so
            // both parts of the rule are exercised.
            EXPECT_LT(expected.distinct, expected.visits);
            EXPECT_EQ(expected.prepass > 0, prepass);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sxnm::core
