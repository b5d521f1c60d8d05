#include "sxnm/candidate_tree.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace sxnm::core {
namespace {

// Fig. 3(a)-style structure: movies nest screenplays (via a wrapper) and
// people; actors live under a non-candidate <cast> wrapper.
constexpr const char* kDoc = R"(
<db>
  <movies>
    <movie id="m0">
      <title>Alpha</title>
      <cast>
        <actor>A1</actor>
        <actor>A2</actor>
      </cast>
    </movie>
    <movie id="m1">
      <title>Beta</title>
      <title>Beta Alt</title>
      <cast>
        <actor>A3</actor>
      </cast>
    </movie>
    <movie id="m2">
      <title>Gamma</title>
    </movie>
  </movies>
</db>
)";

CandidateConfig MakeCandidate(const std::string& name,
                              const std::string& path) {
  return CandidateBuilder(name, path)
      .Path(1, "text()")
      .Od(1, 1.0)
      .Key({{1, "C1-C4"}})
      .Build()
      .value();
}

class CandidateForestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = xml::Parse(kDoc);
    ASSERT_TRUE(parsed.ok());
    doc_ = std::move(parsed).value();
  }

  Config MovieActorTitleConfig() {
    Config config;
    EXPECT_TRUE(
        config.AddCandidate(MakeCandidate("movie", "db/movies/movie")).ok());
    EXPECT_TRUE(
        config
            .AddCandidate(MakeCandidate("actor", "db/movies/movie/cast/actor"))
            .ok());
    EXPECT_TRUE(
        config.AddCandidate(MakeCandidate("title", "db/movies/movie/title"))
            .ok());
    return config;
  }

  xml::Document doc_;
};

TEST_F(CandidateForestTest, InstancesInDocumentOrder) {
  auto forest = CandidateForest::Build(MovieActorTitleConfig(), doc_);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  int movie = forest->IndexOf("movie");
  int actor = forest->IndexOf("actor");
  int title = forest->IndexOf("title");
  ASSERT_GE(movie, 0);
  ASSERT_GE(actor, 0);
  ASSERT_GE(title, 0);
  EXPECT_EQ(forest->candidates()[movie].NumInstances(), 3u);
  EXPECT_EQ(forest->candidates()[actor].NumInstances(), 3u);
  EXPECT_EQ(forest->candidates()[title].NumInstances(), 4u);
  EXPECT_EQ(forest->TotalInstances(), 10u);
  // Instance ordinals follow document order.
  EXPECT_EQ(forest->candidates()[movie].elements[0]->AttributeOr("id", ""),
            "m0");
  EXPECT_EQ(forest->candidates()[movie].elements[2]->AttributeOr("id", ""),
            "m2");
}

TEST_F(CandidateForestTest, ChildTypesThroughNonCandidateWrapper) {
  auto forest = CandidateForest::Build(MovieActorTitleConfig(), doc_);
  ASSERT_TRUE(forest.ok());
  const CandidateInstances& movie =
      forest->candidates()[forest->IndexOf("movie")];
  // movie sees both actor (through <cast>) and title as child types.
  ASSERT_EQ(movie.child_types.size(), 2u);
  std::vector<std::string> names;
  for (size_t t : movie.child_types) {
    names.push_back(forest->candidates()[t].config->name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "actor"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "title"), names.end());
}

TEST_F(CandidateForestTest, DescendantInstanceLists) {
  auto forest = CandidateForest::Build(MovieActorTitleConfig(), doc_);
  ASSERT_TRUE(forest.ok());
  const CandidateInstances& movie =
      forest->candidates()[forest->IndexOf("movie")];

  // Find the actor slot.
  size_t actor_slot = movie.child_types.size();
  for (size_t s = 0; s < movie.child_types.size(); ++s) {
    if (forest->candidates()[movie.child_types[s]].config->name == "actor") {
      actor_slot = s;
    }
  }
  ASSERT_LT(actor_slot, movie.child_types.size());

  const auto& per_instance = movie.desc_instances[actor_slot];
  ASSERT_EQ(per_instance.size(), 3u);
  EXPECT_EQ(per_instance[0].size(), 2u) << "movie m0 has two actors";
  EXPECT_EQ(per_instance[1].size(), 1u);
  EXPECT_TRUE(per_instance[2].empty()) << "movie m2 has no actors";
  // Ordinals reference the actor candidate's instance list.
  EXPECT_EQ(per_instance[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(per_instance[1], (std::vector<size_t>{2}));
}

TEST_F(CandidateForestTest, ProcessingOrderIsBottomUp) {
  auto forest = CandidateForest::Build(MovieActorTitleConfig(), doc_);
  ASSERT_TRUE(forest.ok());
  const auto& order = forest->ProcessingOrder();
  ASSERT_EQ(order.size(), 3u);
  // movie must come after actor and title.
  size_t movie_pos = 0, actor_pos = 0, title_pos = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string& name = forest->candidates()[order[i]].config->name;
    if (name == "movie") movie_pos = i;
    if (name == "actor") actor_pos = i;
    if (name == "title") title_pos = i;
  }
  EXPECT_GT(movie_pos, actor_pos);
  EXPECT_GT(movie_pos, title_pos);
}

TEST_F(CandidateForestTest, DepthReflectsNesting) {
  auto forest = CandidateForest::Build(MovieActorTitleConfig(), doc_);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->candidates()[forest->IndexOf("movie")].depth, 0);
  EXPECT_EQ(forest->candidates()[forest->IndexOf("actor")].depth, 1);
  EXPECT_EQ(forest->candidates()[forest->IndexOf("title")].depth, 1);
}

TEST_F(CandidateForestTest, LeafOnlyConfig) {
  Config config;
  ASSERT_TRUE(
      config.AddCandidate(MakeCandidate("actor", "db/movies/movie/cast/actor"))
          .ok());
  auto forest = CandidateForest::Build(config, doc_);
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(forest->candidates()[0].child_types.empty());
  EXPECT_EQ(forest->candidates()[0].depth, 0);
}

TEST_F(CandidateForestTest, NoMatchesYieldsEmptyInstances) {
  Config config;
  ASSERT_TRUE(
      config.AddCandidate(MakeCandidate("ghost", "db/nothing/here")).ok());
  auto forest = CandidateForest::Build(config, doc_);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->candidates()[0].NumInstances(), 0u);
}

TEST_F(CandidateForestTest, OverlappingCandidatesRejected) {
  Config config;
  ASSERT_TRUE(
      config.AddCandidate(MakeCandidate("movie", "db/movies/movie")).ok());
  ASSERT_TRUE(
      config.AddCandidate(MakeCandidate("also_movie", "db//movie")).ok());
  auto forest = CandidateForest::Build(config, doc_);
  ASSERT_FALSE(forest.ok());
  EXPECT_NE(forest.status().message().find("matches two candidates"),
            std::string::npos);
}

TEST_F(CandidateForestTest, ElementWithoutCurrentIdRejected) {
  Config config;
  ASSERT_TRUE(
      config.AddCandidate(MakeCandidate("movie", "db/movies/movie")).ok());
  xml::Element* movies = doc_.root()->FirstChildElement("movies");
  ASSERT_NE(movies, nullptr);

  // Added after the IDs were assigned: kInvalidElementId.
  movies->AddElement("movie");
  auto forest = CandidateForest::Build(config, doc_);
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), util::StatusCode::kFailedPrecondition);

  // Moved in from a larger document: an ID past this one's element count.
  movies->RemoveChild(movies->NumChildren() - 1);
  auto other = xml::Parse(
      "<db><movies><movie/><movie/><movie/><movie/><movie/><movie/><movie/>"
      "<movie/><movie/><movie/><movie/><movie/><movie/><movie/><movie/>"
      "<movie/><movie/><movie/><movie/><movie/><movie/></movies></db>");
  ASSERT_TRUE(other.ok());
  xml::Element* other_movies = other->root()->FirstChildElement("movies");
  movies->AddChild(other_movies->TakeChild(other_movies->NumChildren() - 1));
  ASSERT_GE(static_cast<size_t>(movies->ChildElements().back()->id()),
            doc_.element_count());
  forest = CandidateForest::Build(config, doc_);
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), util::StatusCode::kFailedPrecondition);

  doc_.AssignElementIds();
  EXPECT_TRUE(CandidateForest::Build(config, doc_).ok());
}

TEST(CandidateForestRecursionTest, RecursiveNestingRejected) {
  auto doc = xml::Parse("<r><part><part><part/></part></part></r>");
  ASSERT_TRUE(doc.ok());
  Config config;
  ASSERT_TRUE(config
                  .AddCandidate(CandidateBuilder("part", "r//part")
                                    .Path(1, "text()")
                                    .Od(1, 1.0)
                                    .Key({{1, "C1"}})
                                    .Build()
                                    .value())
                  .ok());
  auto forest = CandidateForest::Build(config, doc.value());
  ASSERT_FALSE(forest.ok());
  EXPECT_NE(forest.status().message().find("cyclic"), std::string::npos);
}

TEST(CandidateForestDagTest, ChildTypeWithTwoParentTypes) {
  // <tag> appears under both <article> and <photo>: the type graph is a
  // DAG, not a tree. Both parents must see their own descendant lists and
  // tags must still be processed before either parent.
  auto doc = xml::Parse(R"(
<site>
  <article id="a0"><tag>news</tag><tag>tech</tag></article>
  <photo id="p0"><tag>news</tag></photo>
  <article id="a1"/>
</site>)");
  ASSERT_TRUE(doc.ok());

  Config config;
  ASSERT_TRUE(
      config.AddCandidate(MakeCandidate("article", "site/article")).ok());
  ASSERT_TRUE(config.AddCandidate(MakeCandidate("photo", "site/photo")).ok());
  ASSERT_TRUE(config.AddCandidate(MakeCandidate("tag", "site//tag")).ok());

  auto forest = CandidateForest::Build(config, doc.value());
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();

  const CandidateInstances& article =
      forest->candidates()[forest->IndexOf("article")];
  const CandidateInstances& photo =
      forest->candidates()[forest->IndexOf("photo")];
  ASSERT_EQ(article.child_types.size(), 1u);
  ASSERT_EQ(photo.child_types.size(), 1u);
  EXPECT_EQ(article.desc_instances[0][0].size(), 2u);
  EXPECT_TRUE(article.desc_instances[0][1].empty()) << "a1 has no tags";
  EXPECT_EQ(photo.desc_instances[0][0].size(), 1u);

  // Processing order: tag strictly before article and photo.
  const auto& order = forest->ProcessingOrder();
  size_t tag_pos = 0, article_pos = 0, photo_pos = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string& name = forest->candidates()[order[i]].config->name;
    if (name == "tag") tag_pos = i;
    if (name == "article") article_pos = i;
    if (name == "photo") photo_pos = i;
  }
  EXPECT_LT(tag_pos, article_pos);
  EXPECT_LT(tag_pos, photo_pos);
  EXPECT_EQ(forest->candidates()[forest->IndexOf("tag")].depth, 1);
}

TEST(CandidateForestEmptyTest, IndexOfMissing) {
  auto doc = xml::Parse("<r/>");
  ASSERT_TRUE(doc.ok());
  Config config;
  ASSERT_TRUE(config
                  .AddCandidate(CandidateBuilder("x", "r/x")
                                    .Path(1, "text()")
                                    .Od(1, 1.0)
                                    .Key({{1, "C1"}})
                                    .Build()
                                    .value())
                  .ok());
  auto forest = CandidateForest::Build(config, doc.value());
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->IndexOf("missing"), -1);
  EXPECT_GE(forest->IndexOf("x"), 0);
}

}  // namespace
}  // namespace sxnm::core
