#include "xml/xpath.h"

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "xml/parser.h"

namespace sxnm::xml {
namespace {

// The paper's Fig. 2(a) movie, extended with a second person and tracks.
constexpr const char* kDoc = R"(
<movie_database>
  <movies>
    <movie year="1999" ID="m1">
      <title>Matrix</title>
      <people>
        <person>Keanu Reeves</person>
        <person>Laurence Fishburne</person>
      </people>
    </movie>
    <movie year="1998" ID="m2">
      <title>Mask of Zorro</title>
      <title>Zorro</title>
      <people>
        <person>Antonio Banderas</person>
      </people>
    </movie>
  </movies>
</movie_database>
)";

class XPathFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = Parse(kDoc);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    doc_ = std::move(parsed).value();
  }

  const Element& Movie(int index) {
    auto movies = XPath::Parse("movie_database/movies/movie")
                      .value()
                      .SelectFromRoot(doc_)
                      .value();
    return *movies[size_t(index)];
  }

  Document doc_;
};

TEST_F(XPathFixture, ParseAndToStringRoundTrip) {
  for (const char* p :
       {"title/text()", "@year", "people/person[1]/text()",
        "movie_database/movies/movie", "a/b/c", "tracks/title",
        "//person", "a//b/text()", "*", "a/*/c[2]"}) {
    auto parsed = XPath::Parse(p);
    ASSERT_TRUE(parsed.ok()) << p << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->ToString(), p);
  }
}

TEST_F(XPathFixture, LeadingSlashNormalized) {
  auto parsed = XPath::Parse("/a/b");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToString(), "a/b");
}

TEST_F(XPathFixture, ParseErrors) {
  for (const char* p :
       {"", "  ", "a//", "a/", "/", "@", "a/@x/b", "a/text()/b", "a[0]",
        "a[-1]", "a[x]", "a[1", "//@attr", "//text()", "a/@x[1]",
        "count(a)", "a//"}) {
    auto parsed = XPath::Parse(p);
    EXPECT_FALSE(parsed.ok()) << "should reject: '" << p << "'";
  }
}

TEST_F(XPathFixture, SelectsValueDetection) {
  EXPECT_TRUE(XPath::Parse("title/text()")->SelectsValue());
  EXPECT_TRUE(XPath::Parse("@year")->SelectsValue());
  EXPECT_FALSE(XPath::Parse("title")->SelectsValue());
}

TEST_F(XPathFixture, AbsolutePathFromRoot) {
  auto path = XPath::Parse("movie_database/movies/movie").value();
  auto movies = path.SelectFromRoot(doc_);
  ASSERT_TRUE(movies.ok());
  ASSERT_EQ(movies->size(), 2u);
  EXPECT_EQ((*movies)[0]->AttributeOr("ID", ""), "m1");
  EXPECT_EQ((*movies)[1]->AttributeOr("ID", ""), "m2");
}

TEST_F(XPathFixture, AbsolutePathRootMismatch) {
  auto path = XPath::Parse("wrong_root/movies/movie").value();
  auto movies = path.SelectFromRoot(doc_);
  ASSERT_TRUE(movies.ok());
  EXPECT_TRUE(movies->empty());
}

TEST_F(XPathFixture, RelativeTextSelection) {
  auto path = XPath::Parse("title/text()").value();
  EXPECT_EQ(path.SelectFirstValue(Movie(0)), "Matrix");
  auto values = path.SelectValues(Movie(1));
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "Mask of Zorro");
  EXPECT_EQ(values[1], "Zorro");
}

TEST_F(XPathFixture, AttributeSelection) {
  auto path = XPath::Parse("@year").value();
  EXPECT_EQ(path.SelectFirstValue(Movie(0)), "1999");
  EXPECT_EQ(path.SelectFirstValue(Movie(1)), "1998");
}

TEST_F(XPathFixture, MissingAttributeYieldsNothing) {
  auto path = XPath::Parse("@missing").value();
  EXPECT_TRUE(path.SelectValues(Movie(0)).empty());
  EXPECT_EQ(path.SelectFirstValue(Movie(0)), "");
}

TEST_F(XPathFixture, PositionalPredicate) {
  auto path = XPath::Parse("people/person[1]/text()").value();
  EXPECT_EQ(path.SelectFirstValue(Movie(0)), "Keanu Reeves");
  auto second = XPath::Parse("people/person[2]/text()").value();
  EXPECT_EQ(second.SelectFirstValue(Movie(0)), "Laurence Fishburne");
  EXPECT_EQ(second.SelectFirstValue(Movie(1)), "")
      << "movie 2 has only one person";
}

TEST_F(XPathFixture, ElementStepYieldsDeepText) {
  // A path ending in an element selects the element's deep text, the
  // shorthand used in Tab. 3 configurations.
  auto path = XPath::Parse("people").value();
  EXPECT_EQ(path.SelectFirstValue(Movie(0)),
            "Keanu Reeves Laurence Fishburne");
}

TEST_F(XPathFixture, WildcardStep) {
  auto path = XPath::Parse("*").value();
  auto children = path.SelectElements(Movie(0));
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children->size(), 2u);  // title, people
}

TEST_F(XPathFixture, DescendantAxis) {
  auto path = XPath::Parse("//person").value();
  auto from_root = path.SelectFromRoot(doc_);
  ASSERT_TRUE(from_root.ok());
  EXPECT_EQ(from_root->size(), 3u);

  auto relative = path.SelectElements(Movie(0));
  ASSERT_TRUE(relative.ok());
  EXPECT_EQ(relative->size(), 2u);
}

TEST_F(XPathFixture, DescendantAxisMidPath) {
  auto path = XPath::Parse("movies//person").value();
  auto result = path.SelectFromRoot(doc_);
  // First step 'movies' does not match root 'movie_database'.
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());

  auto path2 = XPath::Parse("movie_database//person").value();
  auto result2 = path2.SelectFromRoot(doc_);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->size(), 3u);
}

TEST_F(XPathFixture, SelectElementsRejectsValuePaths) {
  auto path = XPath::Parse("title/text()").value();
  auto result = path.SelectElements(Movie(0));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(XPathFixture, SelectFromRootRejectsValuePaths) {
  auto path = XPath::Parse("movie_database/@x").value();
  EXPECT_FALSE(path.SelectFromRoot(doc_).ok());
}

TEST_F(XPathFixture, DocumentOrderPreserved) {
  auto path = XPath::Parse("//title").value();
  auto titles = path.SelectFromRoot(doc_);
  ASSERT_TRUE(titles.ok());
  ASSERT_EQ(titles->size(), 3u);
  EXPECT_EQ((*titles)[0]->DirectText(), "Matrix");
  EXPECT_EQ((*titles)[1]->DirectText(), "Mask of Zorro");
  EXPECT_EQ((*titles)[2]->DirectText(), "Zorro");
}

TEST_F(XPathFixture, EmptyPathSelectsContext) {
  XPath path;  // default constructed: no steps
  auto elements = path.SelectElements(Movie(0));
  ASSERT_TRUE(elements.ok());
  ASSERT_EQ(elements->size(), 1u);
  EXPECT_EQ((*elements)[0]->AttributeOr("ID", ""), "m1");
}

TEST_F(XPathFixture, TextOnElementWithoutDirectText) {
  auto path = XPath::Parse("people/text()").value();
  auto values = path.SelectValues(Movie(0));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "") << "people has no direct text";
}

TEST_F(XPathFixture, MutableOverloadsReturnSameNodes) {
  auto path = XPath::Parse("movie_database/movies/movie").value();
  auto mutable_result = path.SelectFromRoot(doc_);
  ASSERT_TRUE(mutable_result.ok());
  (*mutable_result)[0]->SetAttribute("touched", "yes");
  EXPECT_EQ(Movie(0).AttributeOr("touched", ""), "yes");
}

TEST_F(XPathFixture, EqualityOperator) {
  EXPECT_EQ(XPath::Parse("a/b").value(), XPath::Parse("/a/b").value());
  EXPECT_FALSE(XPath::Parse("a/b").value() == XPath::Parse("a/c").value());
}

// A random subtree of <a>/<b>/<c> elements. Attributes and text carry
// whitespace runs, and an element may hold several text nodes (CDATA
// included), so both whitespace normalizations are exercised.
void GrowRandomTree(util::Rng& rng, Element& parent, int depth) {
  static constexpr const char* kNames[] = {"a", "b", "c"};
  static constexpr const char* kTexts[] = {"x", " two  words ", "\tend\n",
                                           "", "  "};
  if (rng.NextBool(0.5)) {
    parent.SetAttribute("x", kTexts[rng.NextBelow(std::size(kTexts))]);
  }
  if (rng.NextBool(0.3)) parent.SetAttribute("y", "v");
  const int children = depth >= 4 ? 0 : rng.NextInt(0, 3);
  for (int i = 0; i < children; ++i) {
    if (rng.NextBool(0.3)) {
      parent.AddChild(std::make_unique<TextNode>(
          kTexts[rng.NextBelow(std::size(kTexts))], rng.NextBool(0.2)));
    }
    Element* child = parent.AddElement(kNames[rng.NextBelow(3)]);
    GrowRandomTree(rng, *child, depth + 1);
  }
  if (rng.NextBool(0.5)) {
    parent.AddText(kTexts[rng.NextBelow(std::size(kTexts))]);
  }
}

// A random path of every shape the grammar allows: child and '//' steps,
// '*', positional predicates, and a final @attr, text() or element step.
std::string RandomPath(util::Rng& rng) {
  static constexpr const char* kSteps[] = {"a", "b", "c", "*"};
  std::string path;
  const int steps = rng.NextInt(0, 3);
  for (int i = 0; i < steps; ++i) {
    if (i > 0) path += '/';
    if (rng.NextBool(0.3)) path += i == 0 ? "//" : "/";
    path += kSteps[rng.NextBelow(4)];
    if (rng.NextBool(0.3)) {
      path += "[" + std::to_string(rng.NextInt(1, 3)) + "]";
    }
  }
  const char* last = nullptr;
  switch (rng.NextBelow(4)) {
    case 0: last = "@x"; break;
    case 1: last = "@y"; break;
    case 2: last = "text()"; break;
    default: break;  // element-final: deep text
  }
  if (last != nullptr) path += path.empty() ? last : std::string("/") + last;
  if (path.empty()) path = kSteps[rng.NextBelow(4)];
  return path;
}

TEST(XPathFirstValueProperty, MatchesFrontOfSelectValues) {
  util::Rng rng(36);
  std::string value = "stale";  // FirstValueInto must replace it
  for (int doc_round = 0; doc_round < 60; ++doc_round) {
    auto root = std::make_unique<Element>("a");
    GrowRandomTree(rng, *root, 0);
    Document doc;
    doc.SetRoot(std::move(root));
    std::vector<const Element*> contexts = {doc.root()};
    for (size_t i = 0; i < contexts.size(); ++i) {
      for (const Element* child : contexts[i]->ChildElements()) {
        contexts.push_back(child);
      }
    }
    for (int path_round = 0; path_round < 40; ++path_round) {
      const std::string text = RandomPath(rng);
      auto path = XPath::Parse(text);
      ASSERT_TRUE(path.ok()) << text << ": " << path.status().ToString();
      for (const Element* context : contexts) {
        std::vector<std::string> all = path->SelectValues(*context);
        const bool found = path->FirstValueInto(*context, &value);
        ASSERT_EQ(found, !all.empty()) << text;
        ASSERT_EQ(value, all.empty() ? "" : all.front()) << text;
        ASSERT_EQ(path->SelectFirstValue(*context), value) << text;
      }
    }
  }
}

}  // namespace
}  // namespace sxnm::xml
