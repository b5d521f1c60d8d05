#include "xml/node.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sxnm::xml {
namespace {

std::unique_ptr<Element> BuildMovie() {
  auto movie = std::make_unique<Element>("movie");
  movie->SetAttribute("year", "1999");
  Element* title = movie->AddElement("title");
  title->AddText("The ");
  title->AddText(" Matrix");
  Element* people = movie->AddElement("people");
  Element* person = people->AddElement("person");
  person->AddElement("lastname")->AddText("Reeves");
  return movie;
}

TEST(ElementTest, NameAndKind) {
  Element e("movie");
  EXPECT_EQ(e.name(), "movie");
  EXPECT_TRUE(e.IsElement());
  EXPECT_FALSE(e.IsText());
  EXPECT_EQ(e.AsElement(), &e);
}

TEST(ElementTest, AttributesSetGetRemove) {
  Element e("m");
  EXPECT_FALSE(e.HasAttribute("year"));
  EXPECT_EQ(e.FindAttribute("year"), nullptr);
  e.SetAttribute("year", "1999");
  ASSERT_TRUE(e.HasAttribute("year"));
  EXPECT_EQ(*e.FindAttribute("year"), "1999");
  e.SetAttribute("year", "2000");  // overwrite
  EXPECT_EQ(*e.FindAttribute("year"), "2000");
  EXPECT_EQ(e.attributes().size(), 1u);
  EXPECT_EQ(e.AttributeOr("year", "x"), "2000");
  EXPECT_EQ(e.AttributeOr("missing", "x"), "x");
  EXPECT_TRUE(e.RemoveAttribute("year"));
  EXPECT_FALSE(e.RemoveAttribute("year"));
  EXPECT_FALSE(e.HasAttribute("year"));
}

TEST(ElementTest, ChildrenAndParentLinks) {
  auto movie = BuildMovie();
  EXPECT_EQ(movie->NumChildren(), 2u);
  Element* title = movie->FirstChildElement("title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->parent(), movie.get());
  EXPECT_EQ(movie->FirstChildElement("nonexistent"), nullptr);
}

TEST(ElementTest, ChildElementsFilterByName) {
  Element e("root");
  e.AddElement("a");
  e.AddText("text in between");
  e.AddElement("b");
  e.AddElement("a");
  EXPECT_EQ(e.ChildElements().size(), 3u);
  EXPECT_EQ(e.ChildElements("a").size(), 2u);
  EXPECT_EQ(e.ChildElements("b").size(), 1u);
  EXPECT_TRUE(e.ChildElements("c").empty());
}

TEST(ElementTest, DirectAndDeepText) {
  auto movie = BuildMovie();
  Element* title = movie->FirstChildElement("title");
  EXPECT_EQ(title->DirectText(), "The Matrix");
  EXPECT_EQ(movie->DirectText(), "") << "movie has no direct text children";
  EXPECT_EQ(movie->DeepText(), "The Matrix Reeves");
}

TEST(ElementTest, RemoveChild) {
  auto movie = BuildMovie();
  movie->RemoveChild(0);  // drop <title>
  EXPECT_EQ(movie->NumChildren(), 1u);
  EXPECT_EQ(movie->FirstChildElement("title"), nullptr);
}

TEST(ElementTest, TakeChildDetaches) {
  auto movie = BuildMovie();
  std::unique_ptr<Node> taken = movie->TakeChild(0);
  EXPECT_EQ(movie->NumChildren(), 1u);
  ASSERT_TRUE(taken->IsElement());
  EXPECT_EQ(taken->parent(), nullptr);
  EXPECT_EQ(taken->AsElement()->name(), "title");
}

TEST(ElementTest, CloneIsDeepAndIndependent) {
  auto movie = BuildMovie();
  auto copy = movie->Clone();
  EXPECT_EQ(copy->name(), "movie");
  EXPECT_EQ(copy->AttributeOr("year", ""), "1999");
  EXPECT_EQ(copy->DeepText(), movie->DeepText());
  // Mutating the copy leaves the original intact.
  copy->FirstChildElement("title")->AddText(" Reloaded");
  EXPECT_NE(copy->DeepText(), movie->DeepText());
  EXPECT_EQ(copy->id(), kInvalidElementId) << "clone resets IDs";
}

TEST(ElementTest, DeepTextLengthMatchesDeepText) {
  for (const char* texts : {"", " ", "a", "  a  ", "a\tb\n\nc", " x | y ",
                            "|", "a|b", "a |  b| c ", "\n|\n|"}) {
    // '|' separates the text nodes of one element.
    Element e("e");
    Element* inner = e.AddElement("inner");
    std::string piece;
    bool into_inner = false;
    for (const char* c = texts;; ++c) {
      if (*c == '|' || *c == '\0') {
        (into_inner ? inner : &e)->AddText(piece);
        piece.clear();
        into_inner = !into_inner;
        if (*c == '\0') break;
      } else {
        piece += *c;
      }
    }
    SCOPED_TRACE(texts);
    EXPECT_EQ(e.DeepTextLength(), e.DeepText().size());
  }
  auto movie = BuildMovie();
  EXPECT_EQ(movie->DeepText(), "The Matrix Reeves");
  EXPECT_EQ(movie->DeepTextLength(), movie->DeepText().size());
}

TEST(ElementTest, SubtreeElementCount) {
  auto movie = BuildMovie();
  // movie, title, people, person, lastname
  EXPECT_EQ(movie->SubtreeElementCount(), 5u);
  EXPECT_EQ(Element("leaf").SubtreeElementCount(), 1u);
}

TEST(DocumentTest, AssignElementIdsInDocumentOrder) {
  Document doc;
  doc.SetRoot(BuildMovie());
  EXPECT_EQ(doc.element_count(), 5u);
  EXPECT_EQ(doc.root()->id(), 0);
  EXPECT_EQ(doc.ElementById(0), doc.root());
  // Pre-order: movie(0), title(1), people(2), person(3), lastname(4).
  EXPECT_EQ(doc.ElementById(1)->name(), "title");
  EXPECT_EQ(doc.ElementById(2)->name(), "people");
  EXPECT_EQ(doc.ElementById(3)->name(), "person");
  EXPECT_EQ(doc.ElementById(4)->name(), "lastname");
  EXPECT_EQ(doc.ElementById(5), nullptr);
  EXPECT_EQ(doc.ElementById(-1), nullptr);
}

TEST(DocumentTest, ReassignAfterMutation) {
  Document doc;
  doc.SetRoot(BuildMovie());
  doc.root()->AddElement("extra");
  EXPECT_EQ(doc.element_count(), 5u) << "stale until reassignment";
  doc.AssignElementIds();
  EXPECT_EQ(doc.element_count(), 6u);
}

TEST(DocumentTest, CloneCopiesStructureAndIds) {
  Document doc;
  doc.SetRoot(BuildMovie());
  Document copy = doc.Clone();
  EXPECT_EQ(copy.element_count(), doc.element_count());
  EXPECT_EQ(copy.ElementById(1)->name(), "title");
  EXPECT_NE(copy.root(), doc.root());
}

TEST(DocumentTest, CloneWithoutDropsMarkedSubtreesAndRenumbers) {
  Document doc;
  doc.SetRoot(BuildMovie());
  // Pre-order: movie(0), title(1), people(2), person(3), lastname(4).
  // Marking people and the person inside it drops one top-most subtree.
  std::vector<bool> drop = {false, false, true, true};
  size_t dropped = 99;
  Document copy = doc.CloneWithout(drop, &dropped);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(copy.element_count(), 2u);
  EXPECT_EQ(copy.ElementById(0), copy.root());
  EXPECT_EQ(copy.ElementById(1)->name(), "title");
  EXPECT_EQ(copy.ElementById(1)->id(), 1);
  EXPECT_EQ(copy.ElementById(1)->parent(), copy.root());
  EXPECT_EQ(copy.root()->AttributeOr("year", ""), "1999");
  EXPECT_EQ(copy.root()->DeepText(), "The Matrix");
  EXPECT_EQ(doc.element_count(), 5u) << "source untouched";

  // Dropping the root leaves a document without one.
  Document none = doc.CloneWithout({true}, &dropped);
  EXPECT_EQ(none.root(), nullptr);
  EXPECT_EQ(none.element_count(), 0u);
  EXPECT_EQ(dropped, 1u);
}

TEST(DocumentTest, EmptyDocument) {
  Document doc;
  EXPECT_EQ(doc.root(), nullptr);
  EXPECT_EQ(doc.AssignElementIds(), 0u);
  EXPECT_EQ(doc.element_count(), 0u);
}

TEST(TextNodeTest, TextAndCdataKinds) {
  TextNode text("hello");
  EXPECT_EQ(text.kind(), NodeKind::kText);
  EXPECT_TRUE(text.IsText());
  EXPECT_EQ(text.AsElement(), nullptr);
  TextNode cdata("raw <stuff>", /*cdata=*/true);
  EXPECT_EQ(cdata.kind(), NodeKind::kCdata);
  EXPECT_TRUE(cdata.IsText());
  EXPECT_EQ(cdata.text(), "raw <stuff>");
}

TEST(CommentNodeTest, Kind) {
  CommentNode c(" note ");
  EXPECT_EQ(c.kind(), NodeKind::kComment);
  EXPECT_FALSE(c.IsText());
  EXPECT_EQ(c.text(), " note ");
}

}  // namespace
}  // namespace sxnm::xml
