#include "sxnm/key_generation.h"

#include <gtest/gtest.h>

#include "sxnm/candidate_tree.h"
#include "xml/parser.h"

namespace sxnm::core {
namespace {

constexpr const char* kDoc = R"(
<movie_database>
  <movies>
    <movie ID="5342" year="1999">
      <title>Matrix</title>
    </movie>
    <movie year="1998">
      <title>Mask of Zorro</title>
    </movie>
    <movie>
      <title></title>
    </movie>
  </movies>
</movie_database>
)";

// The paper's Tab. 1 configuration for <movie>.
CandidateConfig Table1Movie() {
  return CandidateBuilder("movie", "movie_database/movies/movie")
      .Path(1, "title/text()")
      .Path(2, "@ID")
      .Path(3, "@year")
      .Od(1, 0.8)
      .Od(3, 0.2)
      .Key({{1, "K1,K2"}, {3, "D3,D4"}})  // KEY_movie,1
      .Key({{2, "D1"}, {1, "C1,C2"}})     // KEY_movie,2
      .Build()
      .value();
}

GkTable BuildGk(const xml::Document& doc, const CandidateConfig& cand) {
  Config config;
  EXPECT_TRUE(config.AddCandidate(cand).ok());
  auto forest = CandidateForest::Build(config, doc);
  EXPECT_TRUE(forest.ok());
  return GenerateKeys(*forest->candidates()[0].config,
                      forest->candidates()[0]);
}

TEST(KeyGenerationTest, PaperTable2Example) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  GkTable gk = BuildGk(doc.value(), Table1Movie());

  ASSERT_EQ(gk.rows.size(), 3u);
  EXPECT_EQ(gk.num_keys, 2u);
  EXPECT_EQ(gk.num_od, 2u);

  // Tab. 2(a): the Matrix movie yields keys MT99 and 5MA, ODs Matrix/1999.
  const GkRow& matrix = gk.rows[0];
  EXPECT_EQ(matrix.keys[0], "MT99");
  EXPECT_EQ(matrix.keys[1], "5MA");
  EXPECT_EQ(matrix.ods[0], "Matrix");
  EXPECT_EQ(matrix.ods[1], "1999");
}

TEST(KeyGenerationTest, MissingValuesYieldShortKeys) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  GkTable gk = BuildGk(doc.value(), Table1Movie());

  // Movie 2 has no @ID: key 2 degenerates to the title part only.
  const GkRow& zorro = gk.rows[1];
  EXPECT_EQ(zorro.keys[0], "MS98");
  EXPECT_EQ(zorro.keys[1], "MA");

  // Movie 3 has an empty title and no attributes at all.
  const GkRow& empty = gk.rows[2];
  EXPECT_EQ(empty.keys[0], "");
  EXPECT_EQ(empty.keys[1], "");
  EXPECT_EQ(empty.ods[0], "");
  EXPECT_EQ(empty.ods[1], "");
}

TEST(KeyGenerationTest, EidsMatchDocumentIds) {
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  GkTable gk = BuildGk(doc.value(), Table1Movie());
  for (const GkRow& row : gk.rows) {
    const xml::Element* e = doc->ElementById(row.eid);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->name(), "movie");
  }
  EXPECT_EQ(gk.rows[0].ordinal, 0u);
  EXPECT_EQ(gk.rows[2].ordinal, 2u);
}

TEST(KeyGenerationTest, PartsConcatenatedInOrderAttribute) {
  // Same parts, reversed order attribute: key reverses.
  auto doc = xml::Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  CandidateConfig cand =
      CandidateBuilder("movie", "movie_database/movies/movie")
          .Path(1, "title/text()")
          .Path(3, "@year")
          .Od(1, 1.0)
          .Key({{3, "D3,D4"}, {1, "K1,K2"}})
          .Build()
          .value();
  GkTable gk = BuildGk(doc.value(), cand);
  EXPECT_EQ(gk.rows[0].keys[0], "99MT");
}

TEST(GkTableTest, SortedOrderLexicographic) {
  GkTable table;
  table.num_keys = 1;
  table.rows = {{0, 0, {"MT99"}, {}, {}},
                {1, 1, {"AB12"}, {}, {}},
                {2, 2, {"ZZ"}, {}, {}},
                {3, 3, {""}, {}, {}}};
  auto order = table.SortedOrder(0);
  EXPECT_EQ(order, (std::vector<size_t>{3, 1, 0, 2}))
      << "empty key sorts first";
}

TEST(GkTableTest, SortIsStableOnTies) {
  GkTable table;
  table.num_keys = 1;
  table.rows = {{0, 0, {"X"}, {}, {}},
                {1, 1, {"X"}, {}, {}},
                {2, 2, {"A"}, {}, {}}};
  auto order = table.SortedOrder(0);
  EXPECT_EQ(order, (std::vector<size_t>{2, 0, 1}))
      << "equal keys keep instance order";
}

TEST(KeyGenerationTest, EmptyInstanceList) {
  CandidateConfig cand = Table1Movie();
  GkTable gk = GenerateKeys(cand, {}, {});
  EXPECT_TRUE(gk.rows.empty());
  EXPECT_EQ(gk.num_keys, 2u);
}

TEST(KeyGenerationTest, FirstValueUsedWhenPathMatchesMany) {
  auto doc = xml::Parse(
      "<db><m><t>First Title</t><t>Second Title</t></m></db>");
  ASSERT_TRUE(doc.ok());
  CandidateConfig cand = CandidateBuilder("m", "db/m")
                             .Path(1, "t/text()")
                             .Od(1, 1.0)
                             .Key({{1, "C1-C5"}})
                             .Build()
                             .value();
  GkTable gk = BuildGk(doc.value(), cand);
  ASSERT_EQ(gk.rows.size(), 1u);
  EXPECT_EQ(gk.rows[0].keys[0], "FIRST");
  EXPECT_EQ(gk.rows[0].ods[0], "First Title");
}

}  // namespace
}  // namespace sxnm::core
