#include "sxnm/dedup_writer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "sxnm/detector.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xml/xpath.h"

namespace sxnm::core {
namespace {

constexpr const char* kDoc = R"(
<db>
  <movies>
    <movie><title>The Matrix</title><note>rich version with extras</note></movie>
    <movie><title>The Matrxi</title></movie>
    <movie><title>Unique Film</title></movie>
  </movies>
</db>
)";

Config MovieConfig() {
  Config config;
  auto movie = CandidateBuilder("movie", "db/movies/movie")
                   .Path(1, "title/text()")
                   .Od(1, 1.0)
                   .Key({{1, "K1-K5"}})
                   .Window(3)
                   .OdThreshold(0.8)
                   .Build();
  EXPECT_TRUE(movie.ok());
  EXPECT_TRUE(config.AddCandidate(std::move(movie).value()).ok());
  return config;
}

TEST(DedupWriterTest, RemovesAllButRepresentative) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->Find("movie")->duplicate_pairs.size(), 1u);

  DedupStats stats;
  auto deduped = Deduplicate(doc.value(), result.value(),
                             RepresentativeStrategy::kFirst, &stats);
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
  EXPECT_EQ(stats.clusters_collapsed, 1u);
  EXPECT_EQ(stats.elements_removed, 1u);

  auto movies = xml::XPath::Parse("db/movies/movie")
                    .value()
                    .SelectFromRoot(deduped.value());
  ASSERT_TRUE(movies.ok());
  EXPECT_EQ(movies->size(), 2u);
}

TEST(DedupWriterTest, FirstStrategyKeepsDocumentOrderFirst) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  auto deduped =
      Deduplicate(doc.value(), result.value(), RepresentativeStrategy::kFirst);
  ASSERT_TRUE(deduped.ok());
  std::string out = xml::WriteDocument(deduped.value());
  EXPECT_NE(out.find("The Matrix"), std::string::npos);
  EXPECT_EQ(out.find("The Matrxi"), std::string::npos);
}

TEST(DedupWriterTest, RichestStrategyKeepsMostContent) {
  // Make the *second* instance the rich one.
  constexpr const char* kRichSecond = R"(
<db><movies>
  <movie><title>The Matrix</title></movie>
  <movie><title>The Matrxi</title><note>much longer subtree text here</note></movie>
</movies></db>
)";
  auto doc = xml::Parse(kRichSecond);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->Find("movie")->duplicate_pairs.size(), 1u);

  auto deduped = Deduplicate(doc.value(), result.value(),
                             RepresentativeStrategy::kRichest);
  ASSERT_TRUE(deduped.ok());
  std::string out = xml::WriteDocument(deduped.value());
  EXPECT_NE(out.find("The Matrxi"), std::string::npos)
      << "richest member kept";
  EXPECT_EQ(out.find("<title>The Matrix</title>"), std::string::npos);
}

TEST(DedupWriterTest, OriginalDocumentUntouched) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  size_t before = doc->element_count();
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  const std::string bytes_before = xml::WriteDocument(doc.value());
  auto deduped = Deduplicate(doc.value(), result.value());
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(doc->element_count(), before);
  EXPECT_LT(deduped->element_count(), before);
  EXPECT_EQ(xml::WriteDocument(doc.value()), bytes_before);
}

TEST(DedupWriterTest, NoDuplicatesIsIdentityModuloClone) {
  auto doc = xml::Parse("<db><movies><movie><title>Only One</title></movie>"
                        "</movies></db>");
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  DedupStats stats;
  auto deduped = Deduplicate(doc.value(), result.value(),
                             RepresentativeStrategy::kRichest, &stats);
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(stats.clusters_collapsed, 0u);
  EXPECT_EQ(stats.elements_removed, 0u);
  EXPECT_EQ(xml::WriteDocument(deduped.value()),
            xml::WriteDocument(doc.value()));
}

TEST(DedupWriterTest, OutputIsWellFormed) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(doc.value());
  ASSERT_TRUE(result.ok());
  auto deduped = Deduplicate(doc.value(), result.value());
  ASSERT_TRUE(deduped.ok());
  auto reparsed = xml::Parse(xml::WriteDocument(deduped.value()));
  EXPECT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

TEST(DedupWriterTest, ResultOfLargerDocumentIsMissingEid) {
  // Detection ran over a document with more elements than the one being
  // de-duplicated: the result's element IDs do not exist here.
  constexpr const char* kLarger = R"(
<db><movies>
  <movie><title>Padding One</title></movie>
  <movie><title>Padding Two</title></movie>
  <movie><title>Padding Three</title></movie>
  <movie><title>The Matrix</title></movie>
  <movie><title>The Matrxi</title></movie>
</movies></db>
)";
  auto larger = xml::Parse(kLarger);
  ASSERT_TRUE(larger.ok());
  Detector detector(MovieConfig());
  auto result = detector.Run(larger.value());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->Find("movie")->duplicate_pairs.size(), 1u);

  auto small = xml::Parse("<db><movies><movie><title>x</title></movie>"
                          "</movies></db>");
  ASSERT_TRUE(small.ok());
  for (RepresentativeStrategy strategy :
       {RepresentativeStrategy::kFirst, RepresentativeStrategy::kRichest,
        RepresentativeStrategy::kFuse}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    auto deduped = Deduplicate(small.value(), result.value(), strategy);
    ASSERT_FALSE(deduped.ok());
    EXPECT_EQ(deduped.status().code(), util::StatusCode::kFailedPrecondition);
    EXPECT_NE(deduped.status().message().find("missing eid"),
              std::string::npos)
        << deduped.status().ToString();
  }
}

TEST(DedupWriterTest, RootAsNonRepresentativeRefused) {
  // A cluster {child, root} of a candidate that matches the root. kFirst
  // keeps ordinal 0 (the child), so the root would be removed; the
  // content-based strategies keep the root, whose deep text contains the
  // child's.
  auto doc = xml::Parse(
      "<item><name>alpha beta</name>"
      "<item><name>alpha beta</name></item></item>");
  ASSERT_TRUE(doc.ok());
  DetectionResult result;
  CandidateResult cand;
  cand.name = "item";
  cand.gk.rows.resize(2);
  cand.gk.rows[0].eid = doc->root()->ChildElements("item")[0]->id();
  cand.gk.rows[1].eid = doc->root()->id();
  cand.clusters = ClusterSet::FromClusters({{0, 1}}, 2);
  result.candidates.push_back(std::move(cand));

  auto first = Deduplicate(doc.value(), result, RepresentativeStrategy::kFirst);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(first.status().message().find("root"), std::string::npos);

  for (RepresentativeStrategy strategy :
       {RepresentativeStrategy::kRichest, RepresentativeStrategy::kFuse}) {
    DedupStats stats;
    auto deduped = Deduplicate(doc.value(), result, strategy, &stats);
    ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
    EXPECT_EQ(stats.elements_removed, 1u);
    EXPECT_EQ(xml::WriteDocument(deduped.value(), {.indent = 0}),
              "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"
              "<item><name>alpha beta</name></item>");
  }
}

// FNV-1a-64 of the written de-duplicated document.
uint64_t OutputHash(const xml::Document& deduped) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : xml::WriteDocument(deduped)) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct NestedPin {
  uint64_t seed;
  RepresentativeStrategy strategy;
  uint64_t hash;
  size_t removed;
  size_t children_fused;
};

// Nested corpus (movie / title / person candidates) with every
// representative strategy. The pins were recorded before de-duplication
// became a single filtered copy; kFuse's choice of representative sees the
// content fused by earlier clusters, so its output pins that order too.
TEST(DedupWriterTest, NestedCorpusOutputPinnedPerStrategy) {
  constexpr NestedPin kPins[] = {
      {7, RepresentativeStrategy::kFirst, 0x90ab347a2e8487cfull, 1504, 0},
      {7, RepresentativeStrategy::kRichest, 0x27b1cc179999728eull, 1557, 0},
      {7, RepresentativeStrategy::kFuse, 0x0c42599555d21e45ull, 1549, 850},
      {1009, RepresentativeStrategy::kFirst, 0x8fecdc7ab542b170ull, 1488, 0},
      {1009, RepresentativeStrategy::kRichest, 0x1e317b38ba6e6f06ull, 1530,
       0},
      {1009, RepresentativeStrategy::kFuse, 0x79a2de16398250edull, 1530, 853},
  };
  auto config = datagen::MovieScalabilityConfig(10);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Detector detector(config.value());
  for (uint64_t seed : {uint64_t{7}, uint64_t{1009}}) {
    datagen::MovieDataOptions options;
    options.num_movies = 1000;
    options.seed = seed;
    auto dirty = datagen::MakeDirty(datagen::GenerateCleanMovies(options),
                                    datagen::FewDuplicatesPreset(seed));
    ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
    auto doc = xml::Parse(xml::WriteDocument(dirty.value()));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    auto result = detector.Run(doc.value());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const NestedPin& pin : kPins) {
      if (pin.seed != seed) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + " strategy " +
                   std::to_string(static_cast<int>(pin.strategy)));
      DedupStats stats;
      auto deduped = Deduplicate(doc.value(), result.value(), pin.strategy,
                                 &stats);
      ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
      EXPECT_EQ(OutputHash(deduped.value()), pin.hash)
          << std::hex << OutputHash(deduped.value());
      EXPECT_EQ(stats.elements_removed, pin.removed);
      EXPECT_EQ(stats.children_fused, pin.children_fused);
    }
  }
}

TEST(DedupWriterTest, EmptyDocumentRejected) {
  xml::Document empty;
  DetectionResult result;
  EXPECT_FALSE(Deduplicate(empty, result).ok());
}

}  // namespace
}  // namespace sxnm::core
