// Hostile-input hardening of the XML front end: hard ParseOptions limits
// (depth / bytes / nodes / attributes / diagnostics), the recovering
// parse mode that skips malformed subtrees, and the exact StatusCode +
// line/column contract of parser and XPath error paths.

#include <string>

#include <gtest/gtest.h>

#include "sxnm/dedup_writer.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xml/xpath.h"

namespace sxnm::xml {
namespace {

using util::StatusCode;

std::string Nested(size_t depth) {
  std::string out;
  out.reserve(depth * 7 + 8);
  for (size_t i = 0; i < depth; ++i) out += "<d>";
  out += "x";
  for (size_t i = 0; i < depth; ++i) out += "</d>";
  return out;
}

// ---------------------------------------------------------------------------
// Hard limits.

TEST(ParserLimitsTest, TenThousandDeepNestingParsesWithoutStackOverflow) {
  // Exactly at the default max_depth: must parse (iteratively — the
  // machine stack never sees the nesting) and tear down iteratively too.
  auto doc = Parse(Nested(10'000));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Element* e = doc->root();
  size_t depth = 0;
  while (e != nullptr) {
    ++depth;
    e = e->children().empty() ? nullptr : e->children()[0]->AsElement();
  }
  EXPECT_EQ(depth, 10'000u);
}

TEST(ParserLimitsTest, BeyondMaxDepthIsResourceExhausted) {
  auto doc = Parse(Nested(10'001));
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().message().find("max_depth=10000"),
            std::string::npos);
  EXPECT_NE(doc.status().message().find("line "), std::string::npos);
}

TEST(ParserLimitsTest, DepthLimitIsHardEvenInRecoverMode) {
  ParseOptions options;
  options.max_depth = 8;
  auto recovered = ParseRecovering(Nested(50), options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserLimitsTest, TwoHundredThousandDeepDocumentSurvivesWholeTreeWalks) {
  // Far beyond what one stack frame per level would survive: parse,
  // clone, de-duplicate, write and deep-text all walk iteratively.
  constexpr size_t kDepth = 200'000;
  ParseOptions options;
  options.max_depth = kDepth;
  auto doc = Parse(Nested(kDepth), options);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  Document copy = doc->Clone();
  EXPECT_EQ(copy.element_count(), kDepth);
  auto deduped = core::Deduplicate(copy, core::DetectionResult());
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
  EXPECT_EQ(deduped->element_count(), kDepth);

  // Indent 0: pretty-printing pads each line by its depth, which is
  // quadratic in output size at this depth.
  WriteOptions flat;
  flat.indent = 0;
  flat.declaration = false;
  EXPECT_EQ(WriteDocument(deduped.value(), flat), Nested(kDepth));
  EXPECT_EQ(deduped->root()->DeepText(), "x");
  EXPECT_EQ(deduped->root()->DeepTextLength(), 1u);
}

TEST(ParserLimitsTest, MultiMegabyteTextNodeParses) {
  std::string huge(4u << 20, 'a');  // 4 MiB of text content
  auto doc = Parse("<r>" + huge + "</r>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->root()->children().size(), 1u);
  const Node* child = doc->root()->children()[0].get();
  ASSERT_TRUE(child->IsText());
  EXPECT_EQ(static_cast<const TextNode*>(child)->text().size(), 4u << 20);
}

TEST(ParserLimitsTest, MaxInputBytesRejectsOversizedDocument) {
  ParseOptions options;
  options.max_input_bytes = 64;
  std::string input = "<r>" + std::string(100, 'x') + "</r>";
  auto doc = Parse(input, options);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().message().find("max_input_bytes=64"),
            std::string::npos);
}

TEST(ParserLimitsTest, MaxNodesCountsElementsAndText) {
  ParseOptions options;
  options.max_nodes = 5;
  auto ok = Parse("<r><a/><b/></r>", options);  // 3 elements + 0 text
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  auto too_many = Parse("<r><a>t</a><b>t</b><c>t</c></r>", options);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(too_many.status().message().find("max_nodes=5"),
            std::string::npos);
}

TEST(ParserLimitsTest, MaxAttrCountRejectsAttributeBombs) {
  ParseOptions options;
  options.max_attr_count = 3;
  auto ok = Parse(R"(<r a="1" b="2" c="3"/>)", options);
  EXPECT_TRUE(ok.ok());
  auto bomb = Parse(R"(<r a="1" b="2" c="3" d="4"/>)", options);
  ASSERT_FALSE(bomb.ok());
  EXPECT_EQ(bomb.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(bomb.status().message().find("max_attr_count=3"),
            std::string::npos);
}

TEST(ParserLimitsTest, MaxDiagnosticsCapsRecovery) {
  ParseOptions options;
  options.max_diagnostics = 2;
  std::string input = "<db>";
  for (int i = 0; i < 10; ++i) input += "<rec><bad</rec>";
  input += "</db>";
  auto recovered = ParseRecovering(input, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(recovered.status().message().find("max_diagnostics=2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Recovering parse.

TEST(RecoveringParseTest, CleanInputHasNoDiagnostics) {
  auto recovered = ParseRecovering("<r><a>x</a></r>");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->clean());
  EXPECT_EQ(recovered->doc.root()->name(), "r");
}

TEST(RecoveringParseTest, SkipsMalformedSubtreeAndResynchronizes) {
  // Record 2 contains a malformed child tag; strict parsing fails, while
  // recovery skips the broken <t> subtree, resynchronizes, and keeps the
  // sibling records (and record 2's shell) intact.
  constexpr const char* kInput =
      "<db>\n"
      "  <rec id=\"1\"><t>ok</t></rec>\n"
      "  <rec id=\"2\"><t id=broken>x</t></rec>\n"
      "  <rec id=\"3\"><t>ok</t></rec>\n"
      "</db>\n";
  ASSERT_FALSE(Parse(kInput).ok());

  auto recovered = ParseRecovering(kInput);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->clean());
  size_t recs = 0;
  for (const auto& child : recovered->doc.root()->children()) {
    if (const Element* e = child->AsElement(); e && e->name() == "rec") {
      ++recs;
      const std::string* id = e->FindAttribute("id");
      ASSERT_NE(id, nullptr);
      if (*id == "2") {
        EXPECT_TRUE(e->children().empty());  // broken subtree skipped
      } else {
        EXPECT_EQ(e->children().size(), 1u);  // intact records untouched
      }
    }
  }
  EXPECT_EQ(recs, 3u);
}

TEST(RecoveringParseTest, MismatchedEndTagImplicitlyCloses) {
  // A missing </t> is repaired by implicit close at </rec> — the record
  // survives with its content and the problem is reported.
  auto recovered = ParseRecovering(
      "<db><rec id=\"1\"><t>kept</rec><rec id=\"2\"><t>ok</t></rec></db>");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->diagnostics.size(), 1u);
  EXPECT_NE(recovered->diagnostics[0].message.find("implicitly closed"),
            std::string::npos);
  EXPECT_EQ(recovered->doc.root()->children().size(), 2u);
}

TEST(RecoveringParseTest, DiagnosticsCarryLineAndColumn) {
  auto recovered = ParseRecovering("<db>\n  <rec><bad</rec>\n  <ok/>\n</db>");
  ASSERT_TRUE(recovered.ok());
  ASSERT_FALSE(recovered->diagnostics.empty());
  const Diagnostic& diag = recovered->diagnostics[0];
  EXPECT_EQ(diag.line, 2u);
  EXPECT_GT(diag.column, 0u);
  EXPECT_EQ(diag.code, StatusCode::kParseError);
  EXPECT_NE(diag.ToString().find("line 2, column "), std::string::npos);
  EXPECT_NE(diag.ToString().find("PARSE_ERROR"), std::string::npos);
}

TEST(RecoveringParseTest, StrayEndTagIgnoredWithDiagnostic) {
  auto recovered = ParseRecovering("<r><a/></b></r>");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->diagnostics.size(), 1u);
  EXPECT_EQ(recovered->doc.root()->children().size(), 1u);
}

TEST(RecoveringParseTest, StrictFailuresStillFailWhenNothingSalvageable) {
  auto recovered = ParseRecovering("");
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Exact error contract: parser.

TEST(ParserErrorContractTest, StrictErrorsCarryCodeAndPosition) {
  auto doc = Parse("<r>\n  <a></b>\n</r>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("mismatched end tag"),
            std::string::npos);
  EXPECT_NE(doc.status().message().find("at line 2, column "),
            std::string::npos);
}

TEST(ParserErrorContractTest, UnknownEntityNamedWithPosition) {
  auto doc = Parse("<r>&nosuch;</r>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("&nosuch;"), std::string::npos);
  EXPECT_NE(doc.status().message().find("at line 1, column "),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exact error contract: XPath.

TEST(XPathErrorContractTest, MalformedPathsAreInvalidArgument) {
  for (const char* bad : {"", "a//", "a[", "a[x]", "a[0]", "@", "a/@/b"}) {
    auto parsed = XPath::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: '" << bad << "'";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "path '" << bad << "': " << parsed.status().ToString();
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(XPathErrorContractTest, ErrorMessageNamesTheOffendingPath) {
  auto parsed = XPath::Parse("title/text()/more");
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace sxnm::xml
