// Hardened XML parser (iterative descent, resource limits, recovery).
//
// Supports the subset of XML 1.0 needed for the paper's data sets and
// configuration documents:
//   * one root element, arbitrarily nested elements
//   * attributes in single or double quotes
//   * character data, CDATA sections, comments
//   * the five predefined entities plus decimal/hex character references
//     to code points in XML 1.0's Char production
//   * an optional XML declaration; processing instructions are skipped
//   * DOCTYPE declarations are skipped verbatim (no DTD processing)
//
// The element tree is built with an explicit open-element stack — never
// by recursion — so nesting depth is bounded only by the configured
// `max_depth` limit, not by the machine stack. All resource limits
// (depth, input bytes, node count, attributes per element) are hard:
// exceeding one fails the parse with kResourceExhausted even in
// recovering mode.
//
// Errors are reported with line/column positions via util::Result; the
// recovering entry points additionally skip malformed subtrees,
// resynchronize at the next sibling, and report each problem as a
// structured Diagnostic instead of failing the whole document.

#ifndef SXNM_XML_PARSER_H_
#define SXNM_XML_PARSER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/node.h"

namespace sxnm::xml {

struct ParseOptions {
  /// Drop text nodes that consist solely of whitespace (typical for
  /// pretty-printed documents). Defaults to true: the paper's data is
  /// element-structured and inter-element whitespace is insignificant.
  bool skip_whitespace_text = true;

  /// Keep comment nodes in the DOM (needed for faithful round-trips).
  bool keep_comments = false;

  // --- Hard resource limits (0 = unlimited) -------------------------------
  // Hostile or runaway input hits these as kResourceExhausted errors, in
  // strict and recovering mode alike; they bound the memory and work one
  // document may consume.

  /// Maximum element nesting depth. The parser itself is iterative, so
  /// this bounds downstream consumers (writer, XPath walks) and memory,
  /// not the parse stack. The default admits any sane document while
  /// rejecting nesting bombs.
  size_t max_depth = 10'000;

  /// Maximum input size in bytes, checked before parsing starts.
  size_t max_input_bytes = 0;

  /// Maximum number of DOM nodes (elements, text, comments) created.
  size_t max_nodes = 0;

  /// Maximum attributes on a single element.
  size_t max_attr_count = 1'000;

  /// Recovering mode: maximum diagnostics recorded before the parse is
  /// abandoned as hopeless (kResourceExhausted). Ignored in strict mode.
  size_t max_diagnostics = 256;
};

/// One structured problem found while parsing. `code` is kParseError for
/// malformed input; messages do not repeat the position (it is carried in
/// `line`/`column`).
struct Diagnostic {
  size_t line = 0;
  size_t column = 0;
  util::StatusCode code = util::StatusCode::kParseError;
  std::string message;

  /// "line L, column C: <CODE>: message" — the form tools print.
  std::string ToString() const;
};

/// Result of a recovering parse: the document that could be salvaged plus
/// every problem encountered along the way. An empty diagnostics list
/// means the input was well-formed.
struct RecoveredParse {
  Document doc;
  std::vector<Diagnostic> diagnostics;

  bool clean() const { return diagnostics.empty(); }
};

/// Parses an XML document from a string. On success the returned document
/// has document-order element IDs already assigned. Strict: the first
/// problem fails the parse.
util::Result<Document> Parse(std::string_view input,
                             const ParseOptions& options = {});

/// Reads and parses a file (strict).
util::Result<Document> ParseFile(const std::string& path,
                                 const ParseOptions& options = {});

/// Recovering parse: malformed subtrees are skipped with the parse
/// resynchronizing at the next sibling, stray/mismatched end tags are
/// repaired, and each problem is reported as a Diagnostic. Fails only
/// when no root element can be salvaged at all or a hard resource limit
/// is exceeded.
util::Result<RecoveredParse> ParseRecovering(std::string_view input,
                                             const ParseOptions& options = {});

/// Reads and recovering-parses a file.
util::Result<RecoveredParse> ParseFileRecovering(
    const std::string& path, const ParseOptions& options = {});

/// Reads a whole file into a string.
util::Result<std::string> ReadFileToString(const std::string& path);

}  // namespace sxnm::xml

#endif  // SXNM_XML_PARSER_H_
