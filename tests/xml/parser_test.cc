#include "xml/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "xml/writer.h"

namespace sxnm::xml {
namespace {

TEST(ParserTest, MinimalDocument) {
  auto doc = Parse("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->root(), nullptr);
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_EQ(doc->root()->NumChildren(), 0u);
}

TEST(ParserTest, NestedElementsAndText) {
  auto doc = Parse("<a><b>hello</b><c><d>deep</d></c></a>");
  ASSERT_TRUE(doc.ok());
  const Element* root = doc->root();
  EXPECT_EQ(root->ChildElements().size(), 2u);
  EXPECT_EQ(root->FirstChildElement("b")->DirectText(), "hello");
  EXPECT_EQ(root->FirstChildElement("c")->FirstChildElement("d")->DirectText(),
            "deep");
}

TEST(ParserTest, AttributesBothQuoteStyles) {
  auto doc = Parse(R"(<m year="1999" length='136'/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->AttributeOr("year", ""), "1999");
  EXPECT_EQ(doc->root()->AttributeOr("length", ""), "136");
}

TEST(ParserTest, XmlDeclarationCaptured) {
  auto doc = Parse("<?xml version=\"1.1\" encoding=\"ISO-8859-1\"?><r/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->version(), "1.1");
  EXPECT_EQ(doc->encoding(), "ISO-8859-1");
}

TEST(ParserTest, PredefinedEntities) {
  auto doc = Parse("<t>a &amp; b &lt;c&gt; &quot;d&quot; &apos;e&apos;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->DirectText(), "a & b <c> \"d\" 'e'");
}

TEST(ParserTest, NumericCharacterReferences) {
  auto doc = Parse("<t>&#65;&#x42;&#x2713;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->DirectText(), "AB✓");
}

// Both sides of each boundary of XML 1.0's Char production: #x9 | #xA |
// #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF].
TEST(ParserTest, CharacterReferencesInsideCharProductionDecode) {
  const std::pair<const char*, const char*> legal[] = {
      {"&#9;", "\t"},
      {"&#10;", "\n"},
      {"&#13;", "\r"},
      {"&#x20;", " "},
      {"&#xD7FF;", "\xED\x9F\xBF"},
      {"&#xE000;", "\xEE\x80\x80"},
      {"&#xFFFD;", "\xEF\xBF\xBD"},
      {"&#x10000;", "\xF0\x90\x80\x80"},
      {"&#x10FFFF;", "\xF4\x8F\xBF\xBF"}};
  for (const auto& [ref, bytes] : legal) {
    auto text = Parse(std::string("<t>[") + ref + "]</t>");
    ASSERT_TRUE(text.ok()) << ref << ": " << text.status().ToString();
    const auto& child = *text->root()->children().front();
    EXPECT_EQ(static_cast<const TextNode&>(child).text(),
              std::string("[") + bytes + "]")
        << ref;
    auto attr = Parse(std::string("<t a=\"") + ref + "\"/>");
    ASSERT_TRUE(attr.ok()) << ref << ": " << attr.status().ToString();
    EXPECT_EQ(attr->root()->AttributeOr("a", ""), bytes) << ref;
  }
}

TEST(ParserTest, CharacterReferencesOutsideCharProductionRejected) {
  const char* const illegal[] = {"&#0;",      "&#1;",      "&#8;",
                                 "&#11;",     "&#12;",     "&#14;",
                                 "&#x1F;",    "&#xD800;",  "&#xDFFF;",
                                 "&#xFFFE;",  "&#xFFFF;",  "&#x110000;"};
  for (const char* ref : illegal) {
    for (const std::string& input :
         {std::string("<t>[") + ref + "]</t>",
          std::string("<t a=\"") + ref + "\"/>"}) {
      auto strict = Parse(input);
      ASSERT_FALSE(strict.ok()) << input;
      EXPECT_EQ(strict.status().code(), util::StatusCode::kParseError);
      EXPECT_NE(strict.status().message().find(
                    "character reference out of range"),
                std::string::npos)
          << input << ": " << strict.status().ToString();
    }
    // Recovering keeps the ampersand as text and reports the reference.
    auto recovered = ParseRecovering(std::string("<t>[") + ref + "]</t>");
    ASSERT_TRUE(recovered.ok()) << ref;
    ASSERT_EQ(recovered->diagnostics.size(), 1u) << ref;
    EXPECT_NE(recovered->diagnostics[0].message.find(
                  "character reference out of range"),
              std::string::npos);
    EXPECT_EQ(recovered->doc.root()->DirectText(), "[&]") << ref;
  }
}

TEST(ParserTest, EntitiesInAttributes) {
  auto doc = Parse(R"(<t a="x &amp; y"/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->AttributeOr("a", ""), "x & y");
}

TEST(ParserTest, CdataSection) {
  auto doc = Parse("<t><![CDATA[<not> & parsed]]></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->DirectText(), "<not> & parsed");
  ASSERT_EQ(doc->root()->NumChildren(), 1u);
  EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kCdata);
}

TEST(ParserTest, CommentsSkippedByDefault) {
  auto doc = Parse("<t><!-- ignore -->kept</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->NumChildren(), 1u);
  EXPECT_EQ(doc->root()->DirectText(), "kept");
}

TEST(ParserTest, CommentsKeptWhenRequested) {
  ParseOptions options;
  options.keep_comments = true;
  auto doc = Parse("<t><!-- note --></t>", options);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->NumChildren(), 1u);
  EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kComment);
}

TEST(ParserTest, WhitespaceTextSkippedByDefault) {
  auto doc = Parse("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->NumChildren(), 2u);
}

TEST(ParserTest, WhitespaceTextKeptWhenRequested) {
  ParseOptions options;
  options.skip_whitespace_text = false;
  auto doc = Parse("<a> <b/> </a>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->NumChildren(), 3u);
}

TEST(ParserTest, ProcessingInstructionsSkipped) {
  auto doc = Parse("<?pi data?><t><?inner pi?>x</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->DirectText(), "x");
}

TEST(ParserTest, DoctypeSkipped) {
  auto doc = Parse(
      "<!DOCTYPE movie_database [ <!ELEMENT movie (title)> ]><r/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->name(), "r");
}

TEST(ParserTest, ElementIdsAssignedAfterParse) {
  auto doc = Parse("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->element_count(), 4u);
  EXPECT_EQ(doc->ElementById(0)->name(), "a");
  EXPECT_EQ(doc->ElementById(1)->name(), "b");
  EXPECT_EQ(doc->ElementById(2)->name(), "c");
  EXPECT_EQ(doc->ElementById(3)->name(), "d");
}

TEST(ParserTest, Utf8PassThrough) {
  auto doc = Parse("<t>\xE3\x82\xAB\xE3\x83\xA9</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->DirectText(), "\xE3\x82\xAB\xE3\x83\xA9");
}

// --- Error reporting -------------------------------------------------------

struct BadInput {
  const char* name;
  const char* input;
};

// Without this gtest prints the raw pointer bytes, which vary from run to
// run under ASLR, into the test names that ctest discovers.
void PrintTo(const BadInput& bad, std::ostream* os) { *os << bad.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  auto doc = Parse(GetParam().input);
  EXPECT_FALSE(doc.ok()) << GetParam().name;
  EXPECT_EQ(doc.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("line"), std::string::npos)
      << "error should carry a position: " << doc.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        BadInput{"empty", ""}, BadInput{"only_space", "   "},
        BadInput{"unclosed_root", "<a>"},
        BadInput{"mismatched_tags", "<a><b></a></b>"},
        BadInput{"wrong_end_tag", "<a></b>"},
        BadInput{"content_after_root", "<a/><b/>"},
        BadInput{"text_at_top_level", "<a/>junk"},
        BadInput{"double_root_text", "hello<a/>"},
        BadInput{"unterminated_start_tag", "<a foo"},
        BadInput{"attr_missing_value", "<a foo></a>"},
        BadInput{"attr_unquoted", "<a foo=bar></a>"},
        BadInput{"attr_unterminated", "<a foo=\"bar></a>"},
        BadInput{"duplicate_attribute", "<a x=\"1\" x=\"2\"/>"},
        BadInput{"lt_in_attribute", "<a x=\"a<b\"/>"},
        BadInput{"unknown_entity", "<a>&unknown;</a>"},
        BadInput{"unterminated_entity", "<a>&amp</a>"},
        BadInput{"bad_char_ref", "<a>&#xZZ;</a>"},
        BadInput{"char_ref_out_of_range", "<a>&#x110000;</a>"},
        BadInput{"unterminated_comment", "<a><!-- x</a>"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>"},
        BadInput{"bare_ampersand_eof", "<a>&"},
        BadInput{"empty_element_name", "<>x</>"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(ParserTest, ErrorPositionPointsAtProblem) {
  auto doc = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParseFileTest, MissingFileIsNotFound) {
  auto doc = ParseFile("/nonexistent/path/file.xml");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), util::StatusCode::kNotFound);
}

TEST(ParseFileTest, RoundTripThroughDisk) {
  std::string path = ::testing::TempDir() + "/sxnm_parser_test.xml";
  auto original = Parse("<catalog><item id=\"1\">X &amp; Y</item></catalog>");
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(WriteDocumentToFile(original.value(), path));
  auto reread = ParseFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread->root()->FirstChildElement("item")->DirectText(), "X & Y");
}

}  // namespace
}  // namespace sxnm::xml
