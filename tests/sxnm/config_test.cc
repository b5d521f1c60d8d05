#include "sxnm/config.h"

#include <gtest/gtest.h>

namespace sxnm::core {
namespace {

util::Result<CandidateConfig> MinimalCandidate() {
  return CandidateBuilder("movie", "db/movies/movie")
      .Path(1, "title/text()")
      .Od(1, 1.0)
      .Key({{1, "K1-K5"}})
      .Build();
}

TEST(CandidateBuilderTest, BuildsValidCandidate) {
  auto cand = MinimalCandidate();
  ASSERT_TRUE(cand.ok()) << cand.status().ToString();
  EXPECT_EQ(cand->name, "movie");
  EXPECT_EQ(cand->absolute_path.ToString(), "db/movies/movie");
  EXPECT_EQ(cand->paths.size(), 1u);
  EXPECT_EQ(cand->od.size(), 1u);
  EXPECT_EQ(cand->keys.size(), 1u);
  EXPECT_TRUE(cand->use_descendants);
  EXPECT_FALSE(cand->exact_od_prepass);
}

TEST(CandidateBuilderTest, AllKnobs) {
  auto cand = CandidateBuilder("disc", "freedb/disc")
                  .Path(1, "did/text()")
                  .Path(2, "artist[1]/text()")
                  .Od(1, 0.4)
                  .Od(2, 0.6, "jaro_winkler")
                  .Key({{1, "C1-C4"}, {2, "K1,K2"}})
                  .Key({{2, "K1-K4"}})
                  .Window(7)
                  .OdThreshold(0.65)
                  .DescThreshold(0.3)
                  .OdWeight(0.7)
                  .Mode(CombineMode::kDescGate)
                  .UseDescendants(false)
                  .ExactOdPrepass(true)
                  .Build();
  ASSERT_TRUE(cand.ok()) << cand.status().ToString();
  EXPECT_EQ(cand->window_size, 7u);
  EXPECT_DOUBLE_EQ(cand->classifier.od_threshold, 0.65);
  EXPECT_DOUBLE_EQ(cand->classifier.desc_threshold, 0.3);
  EXPECT_DOUBLE_EQ(cand->classifier.od_weight, 0.7);
  EXPECT_EQ(cand->classifier.mode, CombineMode::kDescGate);
  EXPECT_FALSE(cand->use_descendants);
  EXPECT_TRUE(cand->exact_od_prepass);
  ASSERT_EQ(cand->keys[0].parts.size(), 2u);
  EXPECT_EQ(cand->keys[0].parts[0].order, 1);
  EXPECT_EQ(cand->keys[0].parts[1].order, 2);
  EXPECT_EQ(cand->od[1].similarity_name, "jaro_winkler");
}

TEST(CandidateBuilderTest, BadAbsolutePathFails) {
  auto cand = CandidateBuilder("x", "a//").Path(1, "t/text()").Od(1, 1.0)
                  .Key({{1, "C1"}}).Build();
  EXPECT_FALSE(cand.ok());
}

TEST(CandidateBuilderTest, ValueSelectingAbsolutePathFails) {
  auto cand = CandidateBuilder("x", "a/b/text()")
                  .Path(1, "t/text()").Od(1, 1.0).Key({{1, "C1"}}).Build();
  EXPECT_FALSE(cand.ok());
}

TEST(CandidateBuilderTest, BadRelativePathFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t[0]/text()").Od(1, 1.0)
                  .Key({{1, "C1"}}).Build();
  EXPECT_FALSE(cand.ok());
}

TEST(CandidateBuilderTest, UnknownSimilarityFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Od(1, 1.0, "nope").Key({{1, "C1"}}).Build();
  EXPECT_FALSE(cand.ok());
  EXPECT_EQ(cand.status().code(), util::StatusCode::kNotFound);
}

TEST(CandidateBuilderTest, BadPatternFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()").Od(1, 1.0)
                  .Key({{1, "Q9"}}).Build();
  EXPECT_FALSE(cand.ok());
}

TEST(CandidateBuilderTest, FirstErrorWins) {
  auto cand = CandidateBuilder("x", "a//")          // error 1
                  .Path(1, "also bad [")            // error 2
                  .Od(1, 1.0, "nope")               // error 3
                  .Key({{1, "C1"}})
                  .Build();
  ASSERT_FALSE(cand.ok());
  EXPECT_NE(cand.status().message().find("a//"), std::string::npos)
      << "first error should be about the absolute path: "
      << cand.status().ToString();
}

TEST(ConfigTest, AddAndFind) {
  Config config;
  ASSERT_TRUE(config.AddCandidate(MinimalCandidate().value()).ok());
  EXPECT_NE(config.Find("movie"), nullptr);
  EXPECT_EQ(config.Find("other"), nullptr);
  EXPECT_EQ(config.candidates().size(), 1u);
}

TEST(ConfigTest, DuplicateNameRejected) {
  Config config;
  ASSERT_TRUE(config.AddCandidate(MinimalCandidate().value()).ok());
  EXPECT_FALSE(config.AddCandidate(MinimalCandidate().value()).ok());
}

TEST(ConfigValidateTest, ValidConfigPasses) {
  Config config;
  ASSERT_TRUE(config.AddCandidate(MinimalCandidate().value()).ok());
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidateTest, EmptyConfigFails) {
  Config config;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, OdReferencingUnknownPathFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Od(99, 1.0).Key({{1, "C1"}}).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  auto status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown path id 99"), std::string::npos);
}

TEST(ConfigValidateTest, KeyReferencingUnknownPathFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Od(1, 1.0).Key({{7, "C1"}}).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, MissingOdFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Key({{1, "C1"}}).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, MissingKeyFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Od(1, 1.0).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, WindowTooSmallFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Od(1, 1.0).Key({{1, "C1"}}).Window(1).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, ThresholdOutOfRangeFails) {
  auto cand = CandidateBuilder("x", "a/b").Path(1, "t/text()")
                  .Od(1, 1.0).Key({{1, "C1"}}).OdThreshold(1.5).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, DuplicatePathIdFails) {
  auto cand = CandidateBuilder("x", "a/b")
                  .Path(1, "t/text()").Path(1, "u/text()")
                  .Od(1, 1.0).Key({{1, "C1"}}).Build();
  ASSERT_TRUE(cand.ok());
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(cand).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidateTest, SharedAbsolutePathFails) {
  auto a = CandidateBuilder("a", "db/item").Path(1, "t/text()")
               .Od(1, 1.0).Key({{1, "C1"}}).Build();
  auto b = CandidateBuilder("b", "db/item").Path(1, "t/text()")
               .Od(1, 1.0).Key({{1, "C1"}}).Build();
  Config config;
  ASSERT_TRUE(config.AddCandidate(std::move(a).value()).ok());
  ASSERT_TRUE(config.AddCandidate(std::move(b).value()).ok());
  EXPECT_FALSE(config.Validate().ok());
}

TEST(CombineModeTest, NamesRoundTrip) {
  for (CombineMode mode :
       {CombineMode::kOdOnly, CombineMode::kAverage, CombineMode::kWeighted,
        CombineMode::kDescBoost, CombineMode::kDescGate}) {
    auto parsed = ParseCombineMode(CombineModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), mode);
  }
  EXPECT_FALSE(ParseCombineMode("bogus").ok());
}

TEST(CandidateConfigTest, FindPath) {
  auto cand = MinimalCandidate().value();
  ASSERT_NE(cand.FindPath(1), nullptr);
  EXPECT_EQ(cand.FindPath(1)->rel_path, "title/text()");
  EXPECT_EQ(cand.FindPath(42), nullptr);
}

}  // namespace
}  // namespace sxnm::core
