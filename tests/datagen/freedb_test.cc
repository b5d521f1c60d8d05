#include "datagen/freedb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "datagen/template_gen.h"
#include "util/string_util.h"
#include "xml/xpath.h"

namespace sxnm::datagen {
namespace {

TEST(FreeDbTest, CatalogShape) {
  FreeDbOptions options;
  options.num_discs = 100;
  xml::Document doc = GenerateFreeDbCatalog(options);
  ASSERT_NE(doc.root(), nullptr);
  EXPECT_EQ(doc.root()->name(), "freedb");

  auto discs = xml::XPath::Parse("freedb/disc").value().SelectFromRoot(doc);
  ASSERT_TRUE(discs.ok());
  ASSERT_EQ(discs->size(), 100u);
  for (const xml::Element* disc : discs.value()) {
    EXPECT_NE(disc->FirstChildElement("artist"), nullptr)
        << "at least one artist";
    EXPECT_NE(disc->FirstChildElement("dtitle"), nullptr);
    const xml::Element* tracks = disc->FirstChildElement("tracks");
    ASSERT_NE(tracks, nullptr);
    EXPECT_GE(tracks->ChildElements("title").size(), 3u);
    EXPECT_LE(tracks->ChildElements("title").size(), 12u);
    EXPECT_TRUE(disc->HasAttribute(kGoldAttribute));
  }
}

TEST(FreeDbTest, OptionalFieldsSometimesMissing) {
  FreeDbOptions options;
  options.num_discs = 300;
  options.year_presence = 0.5;
  options.did_presence = 0.5;
  options.genre_presence = 0.5;
  xml::Document doc = GenerateFreeDbCatalog(options);
  auto discs = xml::XPath::Parse("freedb/disc").value().SelectFromRoot(doc);
  size_t with_year = 0, with_did = 0, with_genre = 0;
  for (const xml::Element* disc : discs.value()) {
    with_year += disc->FirstChildElement("year") != nullptr;
    with_did += disc->FirstChildElement("did") != nullptr;
    with_genre += disc->FirstChildElement("genre") != nullptr;
  }
  EXPECT_GT(with_year, 100u);
  EXPECT_LT(with_year, 200u);
  EXPECT_GT(with_did, 100u);
  EXPECT_LT(with_did, 200u);
  EXPECT_GT(with_genre, 100u);
  EXPECT_LT(with_genre, 200u);
}

TEST(FreeDbTest, SeriesDiscsPresent) {
  FreeDbOptions options;
  options.num_discs = 500;
  options.series_fraction = 0.2;
  xml::Document doc = GenerateFreeDbCatalog(options);
  auto titles =
      xml::XPath::Parse("freedb/disc/dtitle").value().SelectFromRoot(doc);
  size_t series = 0;
  for (const xml::Element* t : titles.value()) {
    if (t->DirectText().find("(CD") != std::string::npos) ++series;
  }
  EXPECT_GT(series, 50u) << "series confusers are the Fig. 4(d) FP source";
}

TEST(FreeDbTest, VariousArtistsPresent) {
  FreeDbOptions options;
  options.num_discs = 500;
  options.various_artists_fraction = 0.2;
  xml::Document doc = GenerateFreeDbCatalog(options);
  auto artists =
      xml::XPath::Parse("freedb/disc/artist").value().SelectFromRoot(doc);
  size_t various = 0;
  for (const xml::Element* a : artists.value()) {
    if (util::StartsWith(a->DirectText(), "Various")) ++various;
  }
  EXPECT_GT(various, 40u);
}

TEST(FreeDbTest, UnreadableEntriesHaveNoKeyMaterial) {
  FreeDbOptions options;
  options.num_discs = 500;
  options.unreadable_fraction = 0.2;
  xml::Document doc = GenerateFreeDbCatalog(options);
  auto titles =
      xml::XPath::Parse("freedb/disc/dtitle").value().SelectFromRoot(doc);
  size_t unreadable = 0;
  for (const xml::Element* t : titles.value()) {
    const std::string text = t->DirectText();
    if (std::none_of(text.begin(), text.end(), [](char c) {
          return util::IsAsciiAlpha(c) || util::IsAsciiDigit(c);
        })) {
      ++unreadable;
    }
  }
  EXPECT_GT(unreadable, 30u)
      << "unreadable discs produce empty keys (Fig. 4(d) discussion)";
}

TEST(FreeDbTest, SeriesMembersAreDistinctRealObjects) {
  FreeDbOptions options;
  options.num_discs = 200;
  options.series_fraction = 0.5;
  xml::Document doc = GenerateFreeDbCatalog(options);
  auto discs = xml::XPath::Parse("freedb/disc").value().SelectFromRoot(doc);
  std::map<std::string, int> by_gold;
  for (const xml::Element* d : discs.value()) {
    ++by_gold[d->AttributeOr(kGoldAttribute, "?")];
  }
  for (const auto& [gold, count] : by_gold) {
    EXPECT_EQ(count, 1) << "series parts must have distinct gold ids: "
                        << gold;
  }
}

TEST(DataSet2Test, CleanPlusOneDuplicateEach) {
  auto doc = GenerateDataSet2(100, 42);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto discs =
      xml::XPath::Parse("freedb/disc").value().SelectFromRoot(doc.value());
  ASSERT_TRUE(discs.ok());
  EXPECT_EQ(discs->size(), 200u) << "paper: 500 clean + 500 duplicates";

  std::map<std::string, int> by_gold;
  for (const xml::Element* d : discs.value()) {
    ++by_gold[d->AttributeOr(kGoldAttribute, "?")];
  }
  EXPECT_EQ(by_gold.size(), 100u);
  for (const auto& [gold, count] : by_gold) {
    EXPECT_EQ(count, 2) << gold;
  }
}

TEST(DataSet3Test, LargeCatalogWithFewDuplicates) {
  auto doc = GenerateDataSet3(500, 13, /*dup_fraction=*/0.05);
  ASSERT_TRUE(doc.ok());
  auto discs =
      xml::XPath::Parse("freedb/disc").value().SelectFromRoot(doc.value());
  ASSERT_TRUE(discs.ok());
  EXPECT_GT(discs->size(), 500u);
  EXPECT_LT(discs->size(), 560u);
}

TEST(CdConfigTest, MatchesTable3b) {
  auto config = CdConfig(6);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->Validate().ok());
  const core::CandidateConfig* disc = config->Find("disc");
  ASSERT_NE(disc, nullptr);
  EXPECT_EQ(disc->keys.size(), 3u);
  EXPECT_EQ(disc->od.size(), 3u);
  EXPECT_DOUBLE_EQ(disc->od[0].relevance, 0.4);  // did
  EXPECT_DOUBLE_EQ(disc->od[1].relevance, 0.3);  // artist
  EXPECT_DOUBLE_EQ(disc->od[2].relevance, 0.3);  // dtitle
  EXPECT_NE(config->Find("track_title"), nullptr);
}

TEST(Ds3ConfigTest, MatchesTable3c) {
  auto config = Ds3Config(5);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->Validate().ok());
  EXPECT_EQ(config->candidates().size(), 4u);
  const core::CandidateConfig* disc = config->Find("disc");
  ASSERT_NE(disc, nullptr);
  EXPECT_EQ(disc->keys.size(), 2u);
  EXPECT_NE(config->Find("dtitle"), nullptr);
  EXPECT_NE(config->Find("artist"), nullptr);
  EXPECT_NE(config->Find("track_title"), nullptr);
}

}  // namespace
}  // namespace sxnm::datagen
