#include "sxnm/key_generation.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sxnm/candidate_tree.h"
#include "sxnm/od_pool.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/string_util.h"
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

TEST(GkTableTest, SortedOrderMatchesStableSortOnAdversarialKeys) {
  // Keys share long prefixes (ties past the packed 8-byte prefix), and
  // include empty keys, embedded NUL bytes (which the prefix pads with)
  // and bytes >= 0x80 (which must sort after ASCII, as std::string does).
  static const std::string kPieces[] = {
      "", "A", std::string(1, '\0'), "\x80", "\xff", "ABCDEFGH", "Z",
      std::string("AB\0", 3)};
  util::Rng rng(2006);
  for (int round = 0; round < 50; ++round) {
    GkTable table;
    table.num_keys = 1;
    const size_t n = rng.NextBelow(300);
    for (size_t i = 0; i < n; ++i) {
      std::string key;
      const int pieces = rng.NextInt(0, 4);
      for (int p = 0; p < pieces; ++p) {
        key += kPieces[rng.NextBelow(std::size(kPieces))];
      }
      table.rows.push_back({i, static_cast<xml::ElementId>(i), {key}, {}, {}});
    }
    std::vector<size_t> expected(n);
    std::iota(expected.begin(), expected.end(), size_t{0});
    std::stable_sort(expected.begin(), expected.end(), [&](size_t a, size_t b) {
      return table.rows[a].keys[0] < table.rows[b].keys[0];
    });
    ASSERT_EQ(table.SortedOrder(0), expected) << "round " << round;
  }
}

TEST(OdPoolTest, InternAndFromPartsAgreeOnIds) {
  // Enough values to grow the index several times, with repeats and the
  // empty value; a rebuilt pool must find every value under its old ID.
  OdPool pool;
  std::vector<std::string> values;
  for (int i = 0; i < 3000; ++i) values.push_back(std::to_string(i % 1000));
  values.push_back("");
  for (size_t i = 0; i < values.size(); ++i) {
    OdRef ref = pool.Intern(values[i]);
    EXPECT_EQ(ref.id, i < 3000 ? i % 1000 : 1000u);
    EXPECT_EQ(pool.View(ref), values[i]);
  }
  ASSERT_EQ(pool.size(), 1001u);
  OdPool rebuilt = OdPool::FromParts(pool.arena(), pool.offsets());
  for (size_t i = 0; i < 1001; ++i) {
    EXPECT_EQ(rebuilt.Intern(values[i < 1000 ? i : 3000]).id, i);
  }
  EXPECT_EQ(rebuilt.size(), 1001u);
  EXPECT_EQ(rebuilt.Intern("new").id, 1001u);
}

// The GK relation straight from its definition, one row at a time: the
// first value of each path by SelectValues, key parts in `order`, and a
// fresh pool interning lowercased, whitespace-collapsed OD values.
GkTable ReferenceGk(const CandidateInstances& instances) {
  const CandidateConfig& cand = *instances.config;
  GkTable table;
  table.num_keys = cand.keys.size();
  table.num_od = cand.od.size();
  for (size_t i = 0; i < instances.NumInstances(); ++i) {
    auto first_value = [&](int pid) {
      const PathEntry* path = cand.FindPath(pid);
      if (path == nullptr) return std::string();
      std::vector<std::string> values =
          path->path.SelectValues(*instances.elements[i]);
      return values.empty() ? std::string() : values.front();
    };
    GkRow row;
    row.ordinal = i;
    row.eid = instances.eids[i];
    for (const KeyDef& key : cand.keys) {
      std::vector<KeyPartRef> parts = key.parts;
      std::stable_sort(parts.begin(), parts.end(),
                       [](const KeyPartRef& a, const KeyPartRef& b) {
                         return a.order < b.order;
                       });
      std::string generated;
      for (const KeyPartRef& part : parts) {
        generated += part.pattern.Apply(first_value(part.pid));
      }
      row.keys.push_back(generated);
    }
    for (const OdEntry& od : cand.od) {
      row.ods.push_back(first_value(od.pid));
      row.norm_ods.push_back(table.od_pool.Intern(
          util::ToLower(util::NormalizeWhitespace(row.ods.back()))));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

void ExpectSameGk(const GkTable& actual, const GkTable& expected) {
  ASSERT_EQ(actual.num_keys, expected.num_keys);
  ASSERT_EQ(actual.num_od, expected.num_od);
  ASSERT_EQ(actual.rows.size(), expected.rows.size());
  for (size_t i = 0; i < actual.rows.size(); ++i) {
    const GkRow& a = actual.rows[i];
    const GkRow& e = expected.rows[i];
    ASSERT_EQ(a.ordinal, e.ordinal) << "row " << i;
    ASSERT_EQ(a.eid, e.eid) << "row " << i;
    ASSERT_EQ(a.keys, e.keys) << "row " << i;
    ASSERT_EQ(a.ods, e.ods) << "row " << i;
    ASSERT_EQ(a.norm_ods.size(), e.norm_ods.size()) << "row " << i;
    for (size_t j = 0; j < a.norm_ods.size(); ++j) {
      ASSERT_EQ(a.norm_ods[j].id, e.norm_ods[j].id) << "row " << i;
      ASSERT_EQ(a.norm_ods[j].length, e.norm_ods[j].length) << "row " << i;
    }
  }
  EXPECT_EQ(actual.od_pool.arena(), expected.od_pool.arena());
  EXPECT_EQ(actual.od_pool.offsets(), expected.od_pool.offsets());
}

// Over 3 000 movies, so key generation runs in several row chunks whose
// OD values recur across chunk boundaries. Values may be missing, carry
// non-ASCII UTF-8 and whitespace runs, or mix case.
std::string ChunkedCorpus() {
  static const char* const kTitles[] = {
      "The Matrix", "  mask   OF\tzorro ", "Am\xc3\xa9lie",
      "\xe6\x9d\xb1 Tokyo", "UPPER case", "", "Ocean\n\nStorm"};
  util::Rng rng(36);
  std::string xml = "<db><movies>";
  for (int i = 0; i < 3300; ++i) {
    xml += "<movie";
    if (rng.NextBool(0.8)) {
      xml += " year=\"" + std::to_string(rng.NextInt(1950, 2010)) + "\"";
    }
    xml += ">";
    if (rng.NextBool(0.9)) {
      xml += "<title>" +
             std::string(kTitles[rng.NextBelow(std::size(kTitles))]) +
             (rng.NextBool(0.5) ? std::to_string(rng.NextBelow(1500)) : "") +
             "</title>";
    }
    xml += "<people><person>P" + std::to_string(rng.NextBelow(40)) +
           "</person><person> Q  " + std::to_string(rng.NextBelow(9)) +
           "</person></people></movie>";
  }
  return xml + "</movies></db>";
}

TEST(KeyGenerationTest, ChunkedTablesEqualTheRowByRowReference) {
  auto doc = xml::Parse(ChunkedCorpus());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Config config;
  ASSERT_TRUE(config
                  .AddCandidate(CandidateBuilder("movie", "db/movies/movie")
                                    .Path(1, "title/text()")
                                    .Path(2, "@year")
                                    .Path(3, "people/person[2]/text()")
                                    .Path(4, "people")
                                    .Od(1, 0.5)
                                    .Od(3, 0.2)
                                    .Od(4, 0.3)
                                    .Key({{1, "K1-K5"}, {2, "D3,D4"}})
                                    .Key({{2, "D1-D4"}, {1, "C1,C2"}})
                                    .Key({{4, "S"}, {3, "C1-C3"}})
                                    .Build()
                                    .value())
                  .ok());
  auto forest = CandidateForest::Build(config, doc.value());
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  const CandidateInstances& movies = forest->candidates()[0];
  ASSERT_GT(movies.NumInstances(), 3u * 1024u);
  const GkTable reference = ReferenceGk(movies);

  ExpectSameGk(GenerateKeys(*movies.config, movies), reference);
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    auto result = GenerateKeysChecked(forest->candidates(), threads,
                                      util::CancellationToken());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    ASSERT_FALSE((*result)[0].cancelled);
    ExpectSameGk((*result)[0].table, reference);
  }
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
