// Golden table for xml::Parse and xml::ParseRecovering. Each row was
// recorded with the byte-at-a-time parser that the bulk-scanning one
// replaced, and pins for one input:
//   * the strict result: the status with its line and column, or the
//     element count and the hash of the written document;
//   * the recovering result: the diagnostics (each with its position) and
//     the element count and output hash, or the status.
// The inputs reach every error, diagnostic and limit site of the parser,
// plus every seed in fuzz/corpus/xml_parse and two multi-megabyte inputs
// that check positions far from the start. The only rows the current
// parser may not reproduce are the illegal character references listed in
// kNowRejected: the recording parser accepted code points outside XML
// 1.0's Char production.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/writer.h"

namespace sxnm::xml {
namespace {

struct GoldenCase {
  std::string name;
  std::string input;
  ParseOptions options;
};

struct GoldenRow {
  const char* name;
  const char* strict;
  const char* recovering;
};

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// "elements=N output=H", after checking that the IDs are pre-order.
std::string DescribeDocument(const Document& doc) {
  for (size_t i = 0; i < doc.element_count(); ++i) {
    const Element* element = doc.ElementById(static_cast<ElementId>(i));
    EXPECT_TRUE(element != nullptr && element->id() == ElementId(i));
  }
  std::string written = WriteDocument(doc, {.indent = 0});
  return "elements=" + std::to_string(doc.element_count()) +
         " output=" + Hex(Fnv1a(written));
}

std::string DescribeStrict(const GoldenCase& c) {
  auto doc = Parse(c.input, c.options);
  if (!doc.ok()) return doc.status().ToString();
  return DescribeDocument(doc.value());
}

// Up to four diagnostics are listed in full; longer lists are summarized
// by count, hash, first and last.
std::string DescribeRecovering(const GoldenCase& c) {
  auto parsed = ParseRecovering(c.input, c.options);
  if (!parsed.ok()) return parsed.status().ToString();
  const auto& diagnostics = parsed->diagnostics;
  std::string out;
  if (diagnostics.size() <= 4) {
    for (const Diagnostic& d : diagnostics) out += d.ToString() + " | ";
  } else {
    std::string all;
    for (const Diagnostic& d : diagnostics) all += d.ToString() + "\n";
    out += std::to_string(diagnostics.size()) + " diagnostics, hash " +
           Hex(Fnv1a(all)) + ", first " + diagnostics.front().ToString() +
           ", last " + diagnostics.back().ToString() + " | ";
  }
  return out + DescribeDocument(parsed->doc);
}

ParseOptions WithLimits(size_t max_depth, size_t max_nodes,
                        size_t max_attr_count, size_t max_diagnostics) {
  ParseOptions options;
  options.max_depth = max_depth;
  options.max_nodes = max_nodes;
  options.max_attr_count = max_attr_count;
  options.max_diagnostics = max_diagnostics;
  return options;
}

// About 4 MB of records on separate lines, then a mismatched end tag.
std::string FarErrorInput() {
  std::string out = "<catalog>\n";
  for (int i = 0; out.size() < (4u << 20); ++i) {
    out += "  <movie id=\"" + std::to_string(i) + "\"><title>Title &amp; " +
           std::to_string(i) + "</title><year>19" + std::to_string(i % 100) +
           "</year></movie>\n";
  }
  out += "  <movie><title>broken</titel></movie>\n</catalog>\n";
  return out;
}

// A multi-megabyte document with `errors` stray end tags spread evenly.
std::string SpreadDiagnosticsInput(size_t errors) {
  const size_t records = 40'000;
  std::string out = "<catalog>\n";
  for (size_t i = 0; i < records; ++i) {
    out += "  <movie><title>Movie " + std::to_string(i) +
           "</title><actor>Some Actor</actor></movie>\n";
    if ((i + 1) % (records / errors) == 0) out += "  </stray>\n";
  }
  out += "</catalog>\n";
  return out;
}

std::string CharRefText(uint32_t code) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "<a>x&#x%X;y</a>", code);
  return buf;
}

std::string CharRefAttr(uint32_t code) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "<a v=\"&#%u;\"><b/></a>", code);
  return buf;
}

// The code points on both sides of each boundary of XML 1.0's Char
// production: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
// [#x10000-#x10FFFF].
const uint32_t kCharBoundaries[] = {
    0x1,    0x8,    0x9,    0xA,    0xB,    0xC,     0xD,     0xE,
    0x1F,   0x20,   0xD7FF, 0xD800, 0xDFFF, 0xE000,  0xFFFD,  0xFFFE,
    0xFFFF, 0x10000, 0x10FFFF, 0x110000};

bool IsXmlChar(uint32_t code) {
  return code == 0x9 || code == 0xA || code == 0xD ||
         (code >= 0x20 && code <= 0xD7FF) ||
         (code >= 0xE000 && code <= 0xFFFD) ||
         (code >= 0x10000 && code <= 0x10FFFF);
}

std::string HexName(uint32_t code) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%X", code);
  return buf;
}

std::vector<GoldenCase> Cases() {
  const ParseOptions d;  // defaults
  std::vector<GoldenCase> cases = {
      // --- Document level ---------------------------------------------------
      {"minimal", "<a/>", d},
      {"input_too_large", "<a>0123456789</a>",
       [] {
         ParseOptions o;
         o.max_input_bytes = 10;
         return o;
       }()},
      {"empty", "", d},
      {"only_space", " \n\t ", d},
      {"only_comment", "<!-- nothing -->\n", d},
      {"only_pi", "<?pi data?>", d},
      {"text_before_root", "junk\n<a/>", d},
      {"text_only", "just text", d},
      {"text_between_junk", "x<!--c-->y<a>1</a>", d},
      {"malformed_root_retry", "<a x><b/></a>", d},
      {"malformed_root_then_nothing", "<a x", d},
      {"root_name_digit", "<1a/><b/>", d},
      {"root_name_missing", "<>x</>", d},
      {"content_after_root_element", "<a/><b/>", d},
      {"content_after_root_text", "<a/>junk", d},
      {"misc_after_root", "<a/>\n<!-- ok -->\n<?pi ok?>\n", d},
      {"unterminated_comment_after_root", "<a/><!-- open", d},
      {"unterminated_pi_after_root", "<a/><?pi", d},
      // --- Prolog -------------------------------------------------------------
      {"declaration",
       "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>1</a>", d},
      {"declaration_single_quotes",
       "<?xml version='1.1' encoding='latin1' ?><a/>", d},
      {"declaration_unterminated", "<?xml version=\"1.0\"\n<a/>", d},
      {"declaration_lookalike_pi", "<?xmlfoo bar?><a/>", d},
      {"doctype_internal_subset",
       "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ENTITY x \"y\">]>\n"
       "<!-- c --><a>t</a>",
       d},
      {"doctype_unterminated", "<!DOCTYPE a [ <a/>", d},
      // --- Names ----------------------------------------------------------------
      {"name_chars", "<a:b-c.d_e1 f.g-h:i=\"1\"><\xC3\xA9l/></a:b-c.d_e1>",
       d},
      {"child_name_space", "<a>< b/></a>", d},
      {"child_name_digit", "<a><1/><b/></a>", d},
      {"child_bang", "<a><!DOCTYPE x><b/></a>", d},
      {"end_tag_name_missing", "<a></ a></a>", d},
      {"end_tag_name_missing_eof", "<a></", d},
      // --- References -----------------------------------------------------------
      {"predefined_entities", "<a>&amp;&lt;&gt;&apos;&quot;</a>", d},
      {"char_refs_ok", "<a>&#65;&#x42;&#X43;&#x10FFFF;&#xe9;</a>", d},
      {"entity_unterminated", "<a>&amp</a>", d},
      {"entity_name_eleven", "<a>&abcdefghijk;</a>", d},
      {"entity_name_ten_unknown", "<a>&abcdefghij;</a>", d},
      {"entity_unknown", "<a>x &foo; y</a>", d},
      {"entity_bare_ampersand_eof", "<a>&", d},
      {"entity_spans_tag", "<a>&a<b>;</a>", d},
      {"hex_ref_bad_digit", "<a>&#xZZ;</a>", d},
      {"hex_ref_empty", "<a>&#x;</a>", d},
      {"dec_ref_empty", "<a>&#;</a>", d},
      {"dec_ref_bad_digit", "<a>&#12a;</a>", d},
      {"dec_ref_zero", "<a>&#0;</a>", d},
      {"dec_ref_huge", "<a>&#999999999;</a>", d},
      {"hex_ref_huge", "<a>&#xFFFFFFFF;</a>", d},
      {"hex_ref_out_of_range", "<a>&#x110000;</a>", d},
      {"many_bad_refs_recovered", "<a>&x; &y; &#q; &</a>", d},
      // --- Attributes -----------------------------------------------------------
      {"attrs_both_quotes", "<a x='1' y=\"'\" z='\"'/>", d},
      {"attrs_no_space_between", "<a x='1'y=\"2\"/>", d},
      {"attrs_spaces_around_eq", "<a x = \"1\"\n\ty\t=\t'2' />", d},
      {"attr_refs", "<a x=\"&#x41;&lt;&amp;b\"/>", d},
      {"attr_missing_eq", "<a x></a>", d},
      {"attr_missing_value", "<a x=></a>", d},
      {"attr_unquoted", "<a x=bar></a>", d},
      {"attr_lt", "<a x=\"a<b\"/>", d},
      {"attr_unterminated", "<a x=\"abc", d},
      {"attr_unterminated_before_gt", "<a x=\"bar></a>", d},
      {"attr_bad_ref", "<a x=\"&bad;\"/>", d},
      {"attr_name_missing", "<a =\"1\"/>", d},
      {"attr_duplicate", "<a x=\"1\" x=\"2\"/>", d},
      {"attr_count_limit", "<a x=\"1\" y=\"2\" z=\"3\"/>",
       WithLimits(10'000, 0, 2, 256)},
      {"attr_count_at_limit", "<a x=\"1\" y=\"2\"/>",
       WithLimits(10'000, 0, 2, 256)},
      {"child_attr_duplicate", "<r><a x=\"1\" x=\"2\">t</a><b/></r>", d},
      {"child_attr_count_limit", "<r><a x=\"1\" y=\"2\" z=\"3\"/></r>",
       WithLimits(10'000, 0, 2, 256)},
      // --- Start tags ---------------------------------------------------------
      {"start_tag_unterminated", "<a foo", d},
      {"start_tag_unterminated_space", "<a x=\"1\" ", d},
      {"slash_without_gt", "<a/ >", d},
      {"child_slash_without_gt", "<r><a/ ><b/></r>", d},
      {"child_unterminated_start", "<r><a x=\"1\"", d},
      // --- Element tree -------------------------------------------------------
      {"unclosed_root", "<a>", d},
      {"unclosed_with_text", "<a><b>text", d},
      {"unclosed_with_space", "<a>\n  <b>\n", d},
      {"mismatched", "<a><b></a></b>", d},
      {"wrong_end_tag", "<a></b>", d},
      {"stray_end_tag", "<a><b/></c><d/></a>", d},
      {"implicit_close", "<a><b><c>t</a>", d},
      {"end_tag_space_ok", "<a></a >", d},
      {"end_tag_junk", "<a><b></b x><c/></a>", d},
      {"end_tag_junk_eof", "<a></a x", d},
      {"comment_unterminated", "<a><!-- x</a>", d},
      {"cdata_unterminated", "<a><![CDATA[x</a>", d},
      {"pi_unterminated", "<a><?pi x</a>", d},
      {"misc_in_content",
       "<a>t1<!-- c -->t2<![CDATA[<x>&amp;]]>t3<?p?>t4</a>", d},
      {"misc_in_content_keep_comments",
       "<a>t1<!-- c -->t2<![CDATA[<x>&amp;]]>t3<?p?>t4</a>",
       [] {
         ParseOptions o;
         o.keep_comments = true;
         return o;
       }()},
      {"cdata_empty", "<a><![CDATA[]]></a>", d},
      {"whitespace_kept", "<a>\n  <b> </b>\n  <c/>\n</a>",
       [] {
         ParseOptions o;
         o.skip_whitespace_text = false;
         return o;
       }()},
      {"whitespace_skipped", "<a>\n  <b> </b>\n  <c/>\n</a>", d},
      {"whitespace_via_ref", "<a><b>&#32;</b><c>&#x20; </c></a>", d},
      {"skip_subtree", "<r><a x><b>1</b></a><c/></r>", d},
      {"skip_subtree_nested_same_name",
       "<r><a x><a>1</a><a/><a y='/'></a></a><c/></r>", d},
      {"skip_subtree_prefix_name", "<r><ab x><abc>1</abc></ab><c/></r>", d},
      {"skip_subtree_eof", "<r><a x><a>1</a>", d},
      {"skip_subtree_self_closing_slash",
       "<r><a x><a/><a q=1/></a>z</a><c/></r>", d},
      {"mixed_content", "<p>a <b>bold</b> and <i>it</i>.</p>", d},
      {"utf8_columns", "<a>\xC3\xA9\xE2\x82\xAC</b>", d},
      {"crlf_positions", "<a>\r\n<b x>\r\n</b>\r\n</c></a>", d},
      {"multiline_positions", "<a>\n<b>\n</c>\n</a>", d},
      {"tab_positions", "<a>\t\t<b\tx>\t</b></a>", d},
      // --- Limits -------------------------------------------------------------
      {"depth_limit", "<a><b><c></c></b></a>", WithLimits(2, 0, 1000, 256)},
      {"depth_at_limit_self_closing", "<a><b><c/></b></a>",
       WithLimits(2, 0, 1000, 256)},
      {"node_limit_element", "<a><b/><c/></a>", WithLimits(100, 2, 1000, 256)},
      {"node_limit_text", "<a><b/>t</a>", WithLimits(100, 2, 1000, 256)},
      {"node_limit_text_at_eof", "<a><b/>t", WithLimits(100, 2, 1000, 256)},
      {"node_limit_comment", "<a><b/><!--c--></a>",
       [] {
         ParseOptions o = WithLimits(100, 2, 1000, 256);
         o.keep_comments = true;
         return o;
       }()},
      {"node_limit_cdata", "<a><b/><![CDATA[x]]></a>",
       WithLimits(100, 2, 1000, 256)},
      {"node_limit_on_malformed_tag", "<a><b/><c x></c></a>",
       WithLimits(100, 2, 1000, 256)},
      {"diagnostics_cap", "<a></x></y></z></a>", WithLimits(100, 0, 1000, 2)},
      {"diagnostics_at_cap", "<a></x></y></a>", WithLimits(100, 0, 1000, 2)},
      // --- Far from the start -------------------------------------------------
      {"far_error_4mb", FarErrorInput(), d},
      {"spread_diagnostics_at_cap", SpreadDiagnosticsInput(256), d},
      {"spread_diagnostics_over_cap", SpreadDiagnosticsInput(400), d},
  };
  for (uint32_t code : kCharBoundaries) {
    cases.push_back({"charref_text_" + HexName(code), CharRefText(code), d});
    cases.push_back({"charref_attr_" + HexName(code), CharRefAttr(code), d});
  }
  const std::filesystem::path corpus =
      std::filesystem::path(SXNM_TEST_DATA_DIR) / ".." / ".." / "fuzz" /
      "corpus" / "xml_parse";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    auto bytes = ReadFileToString(file.string());
    EXPECT_TRUE(bytes.ok()) << file;
    cases.push_back({"corpus/" + file.filename().string(),
                     bytes.ok() ? bytes.value() : "", d});
  }
  return cases;
}

const GoldenRow kGolden[] = {
    {"minimal",
     "elements=1 output=8364ef41f981b2a2",
     "elements=1 output=8364ef41f981b2a2"},
    {"input_too_large",
     "RESOURCE_EXHAUSTED: input of 17 bytes exceeds max_input_bytes=10 at line 1, column 1",
     "RESOURCE_EXHAUSTED: input of 17 bytes exceeds max_input_bytes=10 at line 1, column 1"},
    {"empty",
     "PARSE_ERROR: document has no root element at line 1, column 1",
     "PARSE_ERROR: document has no root element at line 1, column 1"},
    {"only_space",
     "PARSE_ERROR: document has no root element at line 2, column 3",
     "PARSE_ERROR: document has no root element at line 2, column 3"},
    {"only_comment",
     "PARSE_ERROR: document has no root element at line 2, column 1",
     "PARSE_ERROR: document has no root element at line 2, column 1"},
    {"only_pi",
     "PARSE_ERROR: document has no root element at line 1, column 12",
     "PARSE_ERROR: document has no root element at line 1, column 12"},
    {"text_before_root",
     "PARSE_ERROR: expected '<' at document start at line 1, column 1",
     "line 1, column 1: PARSE_ERROR: unexpected content before root element | elements=1 output=8364ef41f981b2a2"},
    {"text_only",
     "PARSE_ERROR: expected '<' at document start at line 1, column 1",
     "PARSE_ERROR: document has no root element at line 1, column 10"},
    {"text_between_junk",
     "PARSE_ERROR: expected '<' at document start at line 1, column 1",
     "line 1, column 1: PARSE_ERROR: unexpected content before root element | line 1, column 10: PARSE_ERROR: unexpected content before root element | elements=1 output=0f839ecbc43daa50"},
    {"malformed_root_retry",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: expected '=' after attribute name at line 1, column 5 | line 1, column 10: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"malformed_root_then_nothing",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 5",
     "PARSE_ERROR: document has no root element at line 1, column 5"},
    {"root_name_digit",
     "PARSE_ERROR: expected a name at line 1, column 2",
     "line 1, column 2: PARSE_ERROR: expected a name at line 1, column 2 | elements=1 output=8bfa1a41fe588053"},
    {"root_name_missing",
     "PARSE_ERROR: expected a name at line 1, column 2",
     "PARSE_ERROR: document has no root element at line 1, column 7"},
    {"content_after_root_element",
     "PARSE_ERROR: content after root element at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: content after root element ignored | elements=1 output=8364ef41f981b2a2"},
    {"content_after_root_text",
     "PARSE_ERROR: content after root element at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: content after root element ignored | elements=1 output=8364ef41f981b2a2"},
    {"misc_after_root",
     "elements=1 output=8364ef41f981b2a2",
     "elements=1 output=8364ef41f981b2a2"},
    {"unterminated_comment_after_root",
     "elements=1 output=8364ef41f981b2a2",
     "elements=1 output=8364ef41f981b2a2"},
    {"unterminated_pi_after_root",
     "elements=1 output=8364ef41f981b2a2",
     "elements=1 output=8364ef41f981b2a2"},
    {"declaration",
     "elements=1 output=0f839ecbc43daa50",
     "elements=1 output=0f839ecbc43daa50"},
    {"declaration_single_quotes",
     "elements=1 output=dd754b9eba54efda",
     "elements=1 output=dd754b9eba54efda"},
    {"declaration_unterminated",
     "PARSE_ERROR: expected a name at line 1, column 2",
     "line 1, column 2: PARSE_ERROR: expected a name at line 1, column 2 | elements=1 output=8364ef41f981b2a2"},
    {"declaration_lookalike_pi",
     "elements=1 output=8364ef41f981b2a2",
     "elements=1 output=8364ef41f981b2a2"},
    {"doctype_internal_subset",
     "elements=1 output=2bfc51ffc5accbb3",
     "elements=1 output=2bfc51ffc5accbb3"},
    {"doctype_unterminated",
     "PARSE_ERROR: document has no root element at line 1, column 19",
     "PARSE_ERROR: document has no root element at line 1, column 19"},
    {"name_chars",
     "elements=2 output=fbc7b6e41c10ed81",
     "elements=2 output=fbc7b6e41c10ed81"},
    {"child_name_space",
     "PARSE_ERROR: expected a name at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: expected a name at line 1, column 5 | elements=1 output=8364ef41f981b2a2"},
    {"child_name_digit",
     "PARSE_ERROR: expected a name at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: expected a name at line 1, column 5 | elements=2 output=e0f767929091850a"},
    {"child_bang",
     "PARSE_ERROR: expected a name at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: expected a name at line 1, column 5 | elements=2 output=e0f767929091850a"},
    {"end_tag_name_missing",
     "PARSE_ERROR: expected a name at line 1, column 6",
     "line 1, column 6: PARSE_ERROR: expected a name at line 1, column 6 | elements=1 output=8364ef41f981b2a2"},
    {"end_tag_name_missing_eof",
     "PARSE_ERROR: expected a name at line 1, column 6",
     "line 1, column 6: PARSE_ERROR: expected a name at line 1, column 6 | line 1, column 6: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=8364ef41f981b2a2"},
    {"predefined_entities",
     "elements=1 output=ec768c50d724e50a",
     "elements=1 output=ec768c50d724e50a"},
    {"char_refs_ok",
     "elements=1 output=2364105afe742bb8",
     "elements=1 output=2364105afe742bb8"},
    {"entity_unterminated",
     "PARSE_ERROR: unterminated entity reference at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: unterminated entity reference at line 1, column 5 | elements=1 output=878655f65246800c"},
    {"entity_name_eleven",
     "PARSE_ERROR: unterminated entity reference at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: unterminated entity reference at line 1, column 5 | elements=1 output=e31a381addcd105b"},
    {"entity_name_ten_unknown",
     "PARSE_ERROR: unknown entity '&abcdefghij;' at line 1, column 16",
     "line 1, column 16: PARSE_ERROR: unknown entity '&abcdefghij;' at line 1, column 16 | elements=1 output=277c0049810b31d6"},
    {"entity_unknown",
     "PARSE_ERROR: unknown entity '&foo;' at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: unknown entity '&foo;' at line 1, column 11 | elements=1 output=c8d2909e273da2f5"},
    {"entity_bare_ampersand_eof",
     "PARSE_ERROR: unterminated entity reference at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: unterminated entity reference at line 1, column 5 | line 1, column 5: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=277c0049810b31d6"},
    {"entity_spans_tag",
     "PARSE_ERROR: unknown entity '&a<b>;' at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: unknown entity '&a<b>;' at line 1, column 10 | elements=1 output=277c0049810b31d6"},
    {"hex_ref_bad_digit",
     "PARSE_ERROR: malformed hex character reference at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: malformed hex character reference at line 1, column 10 | elements=1 output=277c0049810b31d6"},
    {"hex_ref_empty",
     "PARSE_ERROR: malformed character reference at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: malformed character reference at line 1, column 8 | elements=1 output=277c0049810b31d6"},
    {"dec_ref_empty",
     "PARSE_ERROR: malformed character reference at line 1, column 7",
     "line 1, column 7: PARSE_ERROR: malformed character reference at line 1, column 7 | elements=1 output=277c0049810b31d6"},
    {"dec_ref_bad_digit",
     "PARSE_ERROR: malformed character reference at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: malformed character reference at line 1, column 10 | elements=1 output=277c0049810b31d6"},
    {"dec_ref_zero",
     "PARSE_ERROR: character reference out of range at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: character reference out of range at line 1, column 8 | elements=1 output=277c0049810b31d6"},
    {"dec_ref_huge",
     "PARSE_ERROR: character reference out of range at line 1, column 16",
     "line 1, column 16: PARSE_ERROR: character reference out of range at line 1, column 16 | elements=1 output=277c0049810b31d6"},
    {"hex_ref_huge",
     "PARSE_ERROR: character reference out of range at line 1, column 16",
     "line 1, column 16: PARSE_ERROR: character reference out of range at line 1, column 16 | elements=1 output=277c0049810b31d6"},
    {"hex_ref_out_of_range",
     "PARSE_ERROR: character reference out of range at line 1, column 14",
     "line 1, column 14: PARSE_ERROR: character reference out of range at line 1, column 14 | elements=1 output=277c0049810b31d6"},
    {"many_bad_refs_recovered",
     "PARSE_ERROR: unknown entity '&x;' at line 1, column 7",
     "line 1, column 7: PARSE_ERROR: unknown entity '&x;' at line 1, column 7 | line 1, column 11: PARSE_ERROR: unknown entity '&y;' at line 1, column 11 | line 1, column 16: PARSE_ERROR: malformed character reference at line 1, column 16 | line 1, column 18: PARSE_ERROR: unterminated entity reference at line 1, column 18 | elements=1 output=86ec38507ce719e7"},
    {"attrs_both_quotes",
     "elements=1 output=ea0e6fce0dc03282",
     "elements=1 output=ea0e6fce0dc03282"},
    {"attrs_no_space_between",
     "elements=1 output=cc84dd0874e12c66",
     "elements=1 output=cc84dd0874e12c66"},
    {"attrs_spaces_around_eq",
     "elements=1 output=cc84dd0874e12c66",
     "elements=1 output=cc84dd0874e12c66"},
    {"attr_refs",
     "elements=1 output=3b19469acf152210",
     "elements=1 output=3b19469acf152210"},
    {"attr_missing_eq",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 5",
     "PARSE_ERROR: document has no root element at line 1, column 10"},
    {"attr_missing_value",
     "PARSE_ERROR: expected quoted attribute value at line 1, column 6",
     "PARSE_ERROR: document has no root element at line 1, column 11"},
    {"attr_unquoted",
     "PARSE_ERROR: expected quoted attribute value at line 1, column 6",
     "PARSE_ERROR: document has no root element at line 1, column 14"},
    {"attr_lt",
     "PARSE_ERROR: '<' not allowed in attribute value at line 1, column 8",
     "PARSE_ERROR: document has no root element at line 1, column 13"},
    {"attr_unterminated",
     "PARSE_ERROR: unterminated attribute value at line 1, column 10",
     "PARSE_ERROR: document has no root element at line 1, column 10"},
    {"attr_unterminated_before_gt",
     "PARSE_ERROR: '<' not allowed in attribute value at line 1, column 11",
     "PARSE_ERROR: document has no root element at line 1, column 15"},
    {"attr_bad_ref",
     "PARSE_ERROR: unknown entity '&bad;' at line 1, column 12",
     "PARSE_ERROR: document has no root element at line 1, column 15"},
    {"attr_name_missing",
     "PARSE_ERROR: expected a name at line 1, column 4",
     "PARSE_ERROR: document has no root element at line 1, column 10"},
    {"attr_duplicate",
     "PARSE_ERROR: duplicate attribute 'x' at line 1, column 15",
     "PARSE_ERROR: document has no root element at line 1, column 17"},
    {"attr_count_limit",
     "RESOURCE_EXHAUSTED: attribute count on <a> exceeds max_attr_count=2 at line 1, column 21",
     "RESOURCE_EXHAUSTED: attribute count on <a> exceeds max_attr_count=2 at line 1, column 21"},
    {"attr_count_at_limit",
     "elements=1 output=cc84dd0874e12c66",
     "elements=1 output=cc84dd0874e12c66"},
    {"child_attr_duplicate",
     "PARSE_ERROR: duplicate attribute 'x' at line 1, column 18",
     "line 1, column 18: PARSE_ERROR: duplicate attribute 'x' at line 1, column 18 | elements=2 output=c09c974e3b1bd8ea"},
    {"child_attr_count_limit",
     "RESOURCE_EXHAUSTED: attribute count on <a> exceeds max_attr_count=2 at line 1, column 24",
     "RESOURCE_EXHAUSTED: attribute count on <a> exceeds max_attr_count=2 at line 1, column 24"},
    {"start_tag_unterminated",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 7",
     "PARSE_ERROR: document has no root element at line 1, column 7"},
    {"start_tag_unterminated_space",
     "PARSE_ERROR: unterminated start tag at line 1, column 10",
     "PARSE_ERROR: document has no root element at line 1, column 10"},
    {"slash_without_gt",
     "PARSE_ERROR: expected '>' after '/' at line 1, column 4",
     "PARSE_ERROR: document has no root element at line 1, column 6"},
    {"child_slash_without_gt",
     "PARSE_ERROR: expected '>' after '/' at line 1, column 7",
     "line 1, column 7: PARSE_ERROR: expected '>' after '/' at line 1, column 7 | line 1, column 17: PARSE_ERROR: unterminated element <r>, closed at end of input | elements=1 output=15b82a424c1f6a63"},
    {"child_unterminated_start",
     "PARSE_ERROR: unterminated start tag at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: unterminated start tag at line 1, column 12 | line 1, column 12: PARSE_ERROR: unterminated element <r>, closed at end of input | elements=1 output=15b82a424c1f6a63"},
    {"unclosed_root",
     "PARSE_ERROR: unterminated element <a> at line 1, column 4",
     "line 1, column 4: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=8364ef41f981b2a2"},
    {"unclosed_with_text",
     "PARSE_ERROR: unterminated element <b> at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: unterminated element <b>, closed at end of input | line 1, column 11: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=2 output=6efabfd9fc02e4f9"},
    {"unclosed_with_space",
     "PARSE_ERROR: unterminated element <b> at line 3, column 1",
     "line 3, column 1: PARSE_ERROR: unterminated element <b>, closed at end of input | line 3, column 1: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=2 output=e0f767929091850a"},
    {"mismatched",
     "PARSE_ERROR: mismatched end tag </a>, expected </b> at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: unterminated element <b>, implicitly closed by </a> | line 1, column 11: PARSE_ERROR: content after root element ignored | elements=2 output=e0f767929091850a"},
    {"wrong_end_tag",
     "PARSE_ERROR: mismatched end tag </b>, expected </a> at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: stray end tag </b> | line 1, column 8: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=8364ef41f981b2a2"},
    {"stray_end_tag",
     "PARSE_ERROR: mismatched end tag </c>, expected </a> at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: stray end tag </c> | elements=3 output=bf01ec13a26e8c47"},
    {"implicit_close",
     "PARSE_ERROR: mismatched end tag </a>, expected </c> at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: unterminated element <c>, implicitly closed by </a> | line 1, column 15: PARSE_ERROR: unterminated element <b>, implicitly closed by </a> | elements=3 output=71456b81c2f15671"},
    {"end_tag_space_ok",
     "elements=1 output=8364ef41f981b2a2",
     "elements=1 output=8364ef41f981b2a2"},
    {"end_tag_junk",
     "PARSE_ERROR: expected '>' in end tag at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: expected '>' in end tag | elements=3 output=bcd84c7ff0393c5a"},
    {"end_tag_junk_eof",
     "PARSE_ERROR: expected '>' in end tag at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: expected '>' in end tag | elements=1 output=8364ef41f981b2a2"},
    {"comment_unterminated",
     "PARSE_ERROR: unterminated comment at line 1, column 4",
     "line 1, column 4: PARSE_ERROR: unterminated comment | line 1, column 14: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=8364ef41f981b2a2"},
    {"cdata_unterminated",
     "PARSE_ERROR: unterminated CDATA section at line 1, column 4",
     "line 1, column 4: PARSE_ERROR: unterminated CDATA section | line 1, column 18: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=8364ef41f981b2a2"},
    {"pi_unterminated",
     "PARSE_ERROR: unterminated processing instruction at line 1, column 4",
     "line 1, column 4: PARSE_ERROR: unterminated processing instruction | line 1, column 14: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=8364ef41f981b2a2"},
    {"misc_in_content",
     "elements=1 output=95c047903bb15e32",
     "elements=1 output=95c047903bb15e32"},
    {"misc_in_content_keep_comments",
     "elements=1 output=e221109da2427762",
     "elements=1 output=e221109da2427762"},
    {"cdata_empty",
     "elements=1 output=055814eeb4c0bbe7",
     "elements=1 output=055814eeb4c0bbe7"},
    {"whitespace_kept",
     "elements=3 output=f83ff8a08385093c",
     "elements=3 output=f83ff8a08385093c"},
    {"whitespace_skipped",
     "elements=3 output=bcd84c7ff0393c5a",
     "elements=3 output=bcd84c7ff0393c5a"},
    {"whitespace_via_ref",
     "elements=3 output=bcd84c7ff0393c5a",
     "elements=3 output=bcd84c7ff0393c5a"},
    {"skip_subtree",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: expected '=' after attribute name at line 1, column 8 | elements=2 output=340473df00b882f1"},
    {"skip_subtree_nested_same_name",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: expected '=' after attribute name at line 1, column 8 | elements=2 output=340473df00b882f1"},
    {"skip_subtree_prefix_name",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 9",
     "line 1, column 9: PARSE_ERROR: expected '=' after attribute name at line 1, column 9 | elements=2 output=340473df00b882f1"},
    {"skip_subtree_eof",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: expected '=' after attribute name at line 1, column 8 | line 1, column 17: PARSE_ERROR: unterminated element <r>, closed at end of input | elements=1 output=15b82a424c1f6a63"},
    {"skip_subtree_self_closing_slash",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: expected '=' after attribute name at line 1, column 8 | line 1, column 30: PARSE_ERROR: stray end tag </a> | elements=2 output=1b5def51fcecce37"},
    {"mixed_content",
     "elements=3 output=f2c6734827cece43",
     "elements=3 output=f2c6734827cece43"},
    {"utf8_columns",
     "PARSE_ERROR: mismatched end tag </b>, expected </a> at line 1, column 13",
     "line 1, column 13: PARSE_ERROR: stray end tag </b> | line 1, column 13: PARSE_ERROR: unterminated element <a>, closed at end of input | elements=1 output=13fe2463b79853a3"},
    {"crlf_positions",
     "PARSE_ERROR: expected '=' after attribute name at line 2, column 5",
     "line 2, column 5: PARSE_ERROR: expected '=' after attribute name at line 2, column 5 | line 4, column 5: PARSE_ERROR: stray end tag </c> | elements=1 output=8364ef41f981b2a2"},
    {"multiline_positions",
     "PARSE_ERROR: mismatched end tag </c>, expected </b> at line 3, column 5",
     "line 3, column 5: PARSE_ERROR: stray end tag </c> | line 4, column 5: PARSE_ERROR: unterminated element <b>, implicitly closed by </a> | elements=2 output=e0f767929091850a"},
    {"tab_positions",
     "PARSE_ERROR: expected '=' after attribute name at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: expected '=' after attribute name at line 1, column 10 | elements=1 output=8364ef41f981b2a2"},
    {"depth_limit",
     "RESOURCE_EXHAUSTED: element nesting exceeds max_depth=2 at line 1, column 10",
     "RESOURCE_EXHAUSTED: element nesting exceeds max_depth=2 at line 1, column 10"},
    {"depth_at_limit_self_closing",
     "elements=3 output=a22158eb6ae38ebe",
     "elements=3 output=a22158eb6ae38ebe"},
    {"node_limit_element",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 10",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 10"},
    {"node_limit_text",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 9",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 9"},
    {"node_limit_text_at_eof",
     "PARSE_ERROR: unterminated element <a> at line 1, column 9",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 9"},
    {"node_limit_comment",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 8",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 8"},
    {"node_limit_cdata",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 8",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 8"},
    {"node_limit_on_malformed_tag",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 10",
     "RESOURCE_EXHAUSTED: node limit exceeded (max_nodes=2) at line 1, column 10"},
    {"diagnostics_cap",
     "PARSE_ERROR: mismatched end tag </x>, expected </a> at line 1, column 8",
     "RESOURCE_EXHAUSTED: too many parse diagnostics (max_diagnostics=2) at line 1, column 16"},
    {"diagnostics_at_cap",
     "PARSE_ERROR: mismatched end tag </x>, expected </a> at line 1, column 8",
     "line 1, column 8: PARSE_ERROR: stray end tag </x> | line 1, column 12: PARSE_ERROR: stray end tag </y> | elements=1 output=8364ef41f981b2a2"},
    {"far_error_4mb",
     "PARSE_ERROR: mismatched end tag </titel>, expected </title> at line 54130, column 31",
     "line 54130, column 31: PARSE_ERROR: stray end tag </titel> | line 54130, column 39: PARSE_ERROR: unterminated element <title>, implicitly closed by </movie> | elements=162387 output=f3a8c915aa54a426"},
    {"spread_diagnostics_at_cap",
     "PARSE_ERROR: mismatched end tag </stray>, expected </catalog> at line 158, column 11",
     "256 diagnostics, hash 791ecef25a67561b, first line 158, column 11: PARSE_ERROR: stray end tag </stray>, last line 40193, column 11: PARSE_ERROR: stray end tag </stray> | elements=120001 output=573f82adb193d90b"},
    {"spread_diagnostics_over_cap",
     "PARSE_ERROR: mismatched end tag </stray>, expected </catalog> at line 102, column 11",
     "RESOURCE_EXHAUSTED: too many parse diagnostics (max_diagnostics=256) at line 25958, column 11"},
    {"charref_text_1",
     "elements=1 output=c600ee03f9e16251",
     "elements=1 output=c600ee03f9e16251"},
    {"charref_attr_1",
     "elements=2 output=07a7ede394933348",
     "elements=2 output=07a7ede394933348"},
    {"charref_text_8",
     "elements=1 output=93964974663aeda0",
     "elements=1 output=93964974663aeda0"},
    {"charref_attr_8",
     "elements=2 output=f63873e10388e313",
     "elements=2 output=f63873e10388e313"},
    {"charref_text_9",
     "elements=1 output=cc2be3def3a295a9",
     "elements=1 output=cc2be3def3a295a9"},
    {"charref_attr_9",
     "elements=2 output=bbd23ef71ad1d3a0",
     "elements=2 output=bbd23ef71ad1d3a0"},
    {"charref_text_A",
     "elements=1 output=fb1af3a5ebd4df7a",
     "elements=1 output=fb1af3a5ebd4df7a"},
    {"charref_attr_A",
     "elements=2 output=234ae09225f047e1",
     "elements=2 output=234ae09225f047e1"},
    {"charref_text_B",
     "elements=1 output=a953dd9583e21ff3",
     "elements=1 output=a953dd9583e21ff3"},
    {"charref_attr_B",
     "elements=2 output=299eb04362f46d86",
     "elements=2 output=299eb04362f46d86"},
    {"charref_text_C",
     "elements=1 output=77064da0188a026c",
     "elements=1 output=77064da0188a026c"},
    {"charref_attr_C",
     "elements=2 output=3bc56f489eec7ea7",
     "elements=2 output=3bc56f489eec7ea7"},
    {"charref_text_D",
     "elements=1 output=5a04e80831398ab5",
     "elements=1 output=5a04e80831398ab5"},
    {"charref_attr_D",
     "elements=2 output=2fe5dab5d9caa0b4",
     "elements=2 output=2fe5dab5d9caa0b4"},
    {"charref_text_E",
     "elements=1 output=89cd77cf2a249ec6",
     "elements=1 output=89cd77cf2a249ec6"},
    {"charref_attr_E",
     "elements=2 output=cccc662bc08d6a15",
     "elements=2 output=cccc662bc08d6a15"},
    {"charref_text_1F",
     "elements=1 output=cb59c2594400a17f",
     "elements=1 output=cb59c2594400a17f"},
    {"charref_attr_1F",
     "elements=2 output=b6b286d2ba471c4a",
     "elements=2 output=b6b286d2ba471c4a"},
    {"charref_text_20",
     "elements=1 output=75d426ad46b52028",
     "elements=1 output=75d426ad46b52028"},
    {"charref_attr_20",
     "elements=2 output=b0d73e6081a3e6db",
     "elements=2 output=b0d73e6081a3e6db"},
    {"charref_text_D7FF",
     "elements=1 output=8158c645879b253f",
     "elements=1 output=8158c645879b253f"},
    {"charref_attr_D7FF",
     "elements=2 output=fe259814eefc7e16",
     "elements=2 output=fe259814eefc7e16"},
    {"charref_text_D800",
     "elements=1 output=7b1afb78ae26ae15",
     "elements=1 output=7b1afb78ae26ae15"},
    {"charref_attr_D800",
     "elements=2 output=4ec0523bea35b38c",
     "elements=2 output=4ec0523bea35b38c"},
    {"charref_text_DFFF",
     "elements=1 output=ed09f6970c82a05f",
     "elements=1 output=ed09f6970c82a05f"},
    {"charref_attr_DFFF",
     "elements=2 output=4e93145095f33ef6",
     "elements=2 output=4e93145095f33ef6"},
    {"charref_text_E000",
     "elements=1 output=5ddb9e70f01af49e",
     "elements=1 output=5ddb9e70f01af49e"},
    {"charref_attr_E000",
     "elements=2 output=39bc986cac6b4a95",
     "elements=2 output=39bc986cac6b4a95"},
    {"charref_text_FFFD",
     "elements=1 output=9dcfc54ec2a0eb5b",
     "elements=1 output=9dcfc54ec2a0eb5b"},
    {"charref_attr_FFFD",
     "elements=2 output=1fdf6bff54b60f32",
     "elements=2 output=1fdf6bff54b60f32"},
    {"charref_text_FFFE",
     "elements=1 output=361b5baaf3aa7848",
     "elements=1 output=361b5baaf3aa7848"},
    {"charref_attr_FFFE",
     "elements=2 output=9d879cce974631ff",
     "elements=2 output=9d879cce974631ff"},
    {"charref_text_FFFF",
     "elements=1 output=bfcdcb9831a7bd51",
     "elements=1 output=bfcdcb9831a7bd51"},
    {"charref_attr_FFFF",
     "elements=2 output=0773aa896305398c",
     "elements=2 output=0773aa896305398c"},
    {"charref_text_10000",
     "elements=1 output=edfccc296cf684ba",
     "elements=1 output=edfccc296cf684ba"},
    {"charref_attr_10000",
     "elements=2 output=7b46125c62bb262f",
     "elements=2 output=7b46125c62bb262f"},
    {"charref_text_10FFFF",
     "elements=1 output=3ea097ad52acf1cb",
     "elements=1 output=3ea097ad52acf1cb"},
    {"charref_attr_10FFFF",
     "elements=2 output=3ff203680c13887c",
     "elements=2 output=3ff203680c13887c"},
    {"charref_text_110000",
     "PARSE_ERROR: character reference out of range at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: character reference out of range at line 1, column 15 | elements=1 output=dea522166863e45b"},
    {"charref_attr_110000",
     "PARSE_ERROR: character reference out of range at line 1, column 17",
     "line 1, column 17: PARSE_ERROR: character reference out of range at line 1, column 17 | line 1, column 23: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"corpus/attr_value_refs.xml",
     "elements=3 output=dc4d247130602628",
     "elements=3 output=dc4d247130602628"},
    {"corpus/bad_entity.xml",
     "PARSE_ERROR: unknown entity '&nosuch;' at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: unknown entity '&nosuch;' at line 1, column 12 | line 1, column 19: PARSE_ERROR: malformed hex character reference at line 1, column 19 | line 1, column 21: PARSE_ERROR: unterminated entity reference at line 1, column 21 | elements=1 output=1c7ac56fb8ca1ed2"},
    {"corpus/cdata_and_pi.xml",
     "elements=2 output=3ae22a33e9eed93d",
     "elements=2 output=3ae22a33e9eed93d"},
    {"corpus/cdata_beside_text.xml",
     "elements=6 output=7b74dd23524fbb30",
     "elements=6 output=7b74dd23524fbb30"},
    {"corpus/char_ref_boundaries.xml",
     "elements=3 output=1e94fc394eefa6e0",
     "elements=3 output=1e94fc394eefa6e0"},
    {"corpus/char_refs.xml",
     "elements=1 output=ad1d411dfc9a969c",
     "elements=1 output=ad1d411dfc9a969c"},
    {"corpus/content_after_root.xml",
     "PARSE_ERROR: content after root element at line 1, column 5",
     "line 1, column 5: PARSE_ERROR: content after root element ignored | elements=1 output=15b82a424c1f6a63"},
    {"corpus/deep_600.xml",
     "elements=600 output=84700dd2730a046c",
     "elements=600 output=84700dd2730a046c"},
    {"corpus/dup_attr.xml",
     "PARSE_ERROR: duplicate attribute 'a' at line 1, column 15",
     "PARSE_ERROR: document has no root element at line 2, column 1"},
    {"corpus/empty.xml",
     "PARSE_ERROR: document has no root element at line 1, column 1",
     "PARSE_ERROR: document has no root element at line 1, column 1"},
    {"corpus/entity_dense_text.xml",
     "elements=4 output=4526354682472059",
     "elements=4 output=4526354682472059"},
    {"corpus/malformed_record_middle.xml",
     "PARSE_ERROR: mismatched end tag </rec>, expected </t> at line 1, column 59",
     "line 1, column 59: PARSE_ERROR: unterminated element <t>, implicitly closed by </rec> | elements=7 output=f1ea80f4e58dc57a"},
    {"corpus/mismatched_tags.xml",
     "PARSE_ERROR: mismatched end tag </a>, expected </b> at line 1, column 21",
     "line 1, column 21: PARSE_ERROR: unterminated element <b>, implicitly closed by </a> | line 1, column 25: PARSE_ERROR: stray end tag </b> | elements=3 output=f60b2921b4067860"},
    {"corpus/stray_end_tag.xml",
     "PARSE_ERROR: mismatched end tag </b>, expected </root> at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: stray end tag </b> | elements=2 output=38908a4cae57c68d"},
    {"corpus/truncated_attr.xml",
     "PARSE_ERROR: unterminated attribute value at line 1, column 19",
     "PARSE_ERROR: document has no root element at line 1, column 19"},
    {"corpus/truncated_open.xml",
     "PARSE_ERROR: unterminated element <r> at line 1, column 4",
     "line 1, column 4: PARSE_ERROR: unterminated element <r>, closed at end of input | elements=1 output=15b82a424c1f6a63"},
    {"corpus/unterminated_comment.xml",
     "PARSE_ERROR: unterminated comment at line 1, column 7",
     "line 1, column 7: PARSE_ERROR: unterminated comment | line 2, column 1: PARSE_ERROR: unterminated element <root>, closed at end of input | elements=1 output=4ceff0d0d61ae895"},
    {"corpus/utf16_garbage.xml",
     "PARSE_ERROR: expected '<' at document start at line 1, column 1",
     "PARSE_ERROR: document has no root element at line 1, column 7"},
    {"corpus/wellformed_movies.xml",
     "elements=9 output=42745ed2585c7dc8",
     "elements=9 output=42745ed2585c7dc8"},
};

// Rows whose recorded result accepted a character reference outside the
// Char production. The current parser rejects each of them with
// "character reference out of range"; these rows replace the recorded ones.
const GoldenRow kNowRejected[] = {
    {"charref_text_1",
     "PARSE_ERROR: character reference out of range at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: character reference out of range at line 1, column 10 | elements=1 output=dea522166863e45b"},
    {"charref_attr_1",
     "PARSE_ERROR: character reference out of range at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: character reference out of range at line 1, column 11 | line 1, column 17: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_8",
     "PARSE_ERROR: character reference out of range at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: character reference out of range at line 1, column 10 | elements=1 output=dea522166863e45b"},
    {"charref_attr_8",
     "PARSE_ERROR: character reference out of range at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: character reference out of range at line 1, column 11 | line 1, column 17: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_B",
     "PARSE_ERROR: character reference out of range at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: character reference out of range at line 1, column 10 | elements=1 output=dea522166863e45b"},
    {"charref_attr_B",
     "PARSE_ERROR: character reference out of range at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: character reference out of range at line 1, column 12 | line 1, column 18: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_C",
     "PARSE_ERROR: character reference out of range at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: character reference out of range at line 1, column 10 | elements=1 output=dea522166863e45b"},
    {"charref_attr_C",
     "PARSE_ERROR: character reference out of range at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: character reference out of range at line 1, column 12 | line 1, column 18: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_E",
     "PARSE_ERROR: character reference out of range at line 1, column 10",
     "line 1, column 10: PARSE_ERROR: character reference out of range at line 1, column 10 | elements=1 output=dea522166863e45b"},
    {"charref_attr_E",
     "PARSE_ERROR: character reference out of range at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: character reference out of range at line 1, column 12 | line 1, column 18: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_1F",
     "PARSE_ERROR: character reference out of range at line 1, column 11",
     "line 1, column 11: PARSE_ERROR: character reference out of range at line 1, column 11 | elements=1 output=dea522166863e45b"},
    {"charref_attr_1F",
     "PARSE_ERROR: character reference out of range at line 1, column 12",
     "line 1, column 12: PARSE_ERROR: character reference out of range at line 1, column 12 | line 1, column 18: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_D800",
     "PARSE_ERROR: character reference out of range at line 1, column 13",
     "line 1, column 13: PARSE_ERROR: character reference out of range at line 1, column 13 | elements=1 output=dea522166863e45b"},
    {"charref_attr_D800",
     "PARSE_ERROR: character reference out of range at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: character reference out of range at line 1, column 15 | line 1, column 21: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_DFFF",
     "PARSE_ERROR: character reference out of range at line 1, column 13",
     "line 1, column 13: PARSE_ERROR: character reference out of range at line 1, column 13 | elements=1 output=dea522166863e45b"},
    {"charref_attr_DFFF",
     "PARSE_ERROR: character reference out of range at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: character reference out of range at line 1, column 15 | line 1, column 21: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_FFFE",
     "PARSE_ERROR: character reference out of range at line 1, column 13",
     "line 1, column 13: PARSE_ERROR: character reference out of range at line 1, column 13 | elements=1 output=dea522166863e45b"},
    {"charref_attr_FFFE",
     "PARSE_ERROR: character reference out of range at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: character reference out of range at line 1, column 15 | line 1, column 21: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
    {"charref_text_FFFF",
     "PARSE_ERROR: character reference out of range at line 1, column 13",
     "line 1, column 13: PARSE_ERROR: character reference out of range at line 1, column 13 | elements=1 output=dea522166863e45b"},
    {"charref_attr_FFFF",
     "PARSE_ERROR: character reference out of range at line 1, column 15",
     "line 1, column 15: PARSE_ERROR: character reference out of range at line 1, column 15 | line 1, column 21: PARSE_ERROR: content after root element ignored | elements=1 output=8bfa1a41fe588053"},
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string RowSource(const std::string& name, const std::string& strict,
                      const std::string& recovering) {
  return "  {" + Quote(name) + ",\n   " + Quote(strict) + ",\n   " +
         Quote(recovering) + "},";
}

TEST(ParserGoldenTest, EveryRowReproduces) {
  std::map<std::string, const GoldenRow*> recorded;
  for (const GoldenRow& row : kGolden) recorded[row.name] = &row;
  std::map<std::string, const GoldenRow*> rejected;
  for (const GoldenRow& row : kNowRejected) rejected[row.name] = &row;
  size_t checked = 0;
  for (const GoldenCase& c : Cases()) {
    const std::string strict = DescribeStrict(c);
    const std::string recovering = DescribeRecovering(c);
    auto it = recorded.find(c.name);
    if (it == recorded.end()) {
      ADD_FAILURE() << "no golden row; current result:\n"
                    << RowSource(c.name, strict, recovering);
      continue;
    }
    ++checked;
    const GoldenRow* expected = it->second;
    if (auto now = rejected.find(c.name); now != rejected.end()) {
      EXPECT_NE(strict, expected->strict) << c.name;
      EXPECT_NE(strict.find("character reference out of range"),
                std::string::npos)
          << c.name << ": " << strict;
      expected = now->second;
    }
    EXPECT_TRUE(strict == expected->strict &&
                recovering == expected->recovering)
        << "row " << c.name << " differs; expected:\n"
        << RowSource(c.name, expected->strict, expected->recovering)
        << "\ncurrent result:\n" << RowSource(c.name, strict, recovering);
  }
  EXPECT_EQ(checked, recorded.size()) << "golden rows without an input";
}

// The rows replaced in kNowRejected are exactly the character references
// outside the Char production, in text and in attribute values.
TEST(ParserGoldenTest, NowRejectedRowsAreTheIllegalCharacterReferences) {
  std::vector<std::string> illegal;
  for (uint32_t code : kCharBoundaries) {
    if (IsXmlChar(code)) continue;
    if (code > 0x10FFFF) continue;  // rejected by the recording parser too
    illegal.push_back("charref_text_" + HexName(code));
    illegal.push_back("charref_attr_" + HexName(code));
  }
  std::vector<std::string> listed;
  for (const GoldenRow& row : kNowRejected) listed.push_back(row.name);
  std::sort(illegal.begin(), illegal.end());
  std::sort(listed.begin(), listed.end());
  EXPECT_EQ(listed, illegal);
}

}  // namespace
}  // namespace sxnm::xml
