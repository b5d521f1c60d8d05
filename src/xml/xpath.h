// XPath-subset engine for SXNM configuration paths.
//
// The paper addresses XML data via two kinds of paths (Sec. 3.2):
//   * absolute candidate paths, e.g.  movie_database/movies/movie
//   * relative paths inside a candidate, e.g.  title/text(),
//     people/person[1]/text(), @year, tracks/title
//
// This module implements exactly that subset plus a few natural
// extensions:
//   step        := name | '*' | '@' name | 'text()'
//   predicate   := '[' positive-integer ']'        (1-based position)
//   path        := ['/'] step ('[' n ']')? ('/' step ('[' n ']')?)*
//   descendant  := '//' before a step selects descendants at any depth
//
// '@name' and 'text()' may only appear as the final step. A leading '/'
// is accepted and ignored (candidate paths in the paper are written
// without it). Paths are parsed once into an `XPath` and evaluated many
// times.

#ifndef SXNM_XML_XPATH_H_
#define SXNM_XML_XPATH_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/node.h"

namespace sxnm::xml {

/// One location step of a parsed path.
struct XPathStep {
  enum class Axis {
    kChild,       // name            — child elements with this name
    kDescendant,  // //name          — descendant elements at any depth
    kAttribute,   // @name           — attribute of the context element
    kText,        // text()          — direct text content
  };

  Axis axis = Axis::kChild;
  std::string name;   // element or attribute name; "*" matches any element
  int position = 0;   // 1-based positional predicate; 0 = all matches

  bool operator==(const XPathStep&) const = default;
};

class XPath {
 public:
  /// A default-constructed XPath has no steps and selects the context
  /// element itself. Mainly useful as a placeholder before assignment
  /// from Parse().
  XPath() = default;

  /// Parses `path`. Fails with INVALID_ARGUMENT on malformed syntax,
  /// on '@'/'text()' in a non-final position, or on a zero/negative
  /// positional predicate.
  static util::Result<XPath> Parse(std::string_view path);

  const std::vector<XPathStep>& steps() const { return steps_; }

  /// True when the final step is @attr or text() (i.e. the path selects
  /// string values rather than elements).
  bool SelectsValue() const;

  /// Canonical string form (normalizes away a leading '/').
  std::string ToString() const;

  /// Evaluates against `context` and returns matching *elements* in
  /// document order. Fails when the path ends in @attr or text().
  util::Result<std::vector<const Element*>> SelectElements(
      const Element& context) const;
  util::Result<std::vector<Element*>> SelectElements(Element& context) const;

  /// Evaluates against `context` and returns the selected string values in
  /// document order:
  ///   * a final text() step yields the whitespace-normalized direct text
  ///     of each matched element,
  ///   * a final @attr step yields the attribute values of matched
  ///     elements that carry the attribute,
  ///   * a final element step yields each element's whitespace-normalized
  ///     deep text (convenient shorthand used by Tab. 3, where key paths
  ///     like `artist[1]/text()` and plain `genre/text()` both address
  ///     leaf content).
  std::vector<std::string> SelectValues(const Element& context) const;

  /// First selected value, or empty string when nothing matches.
  std::string SelectFirstValue(const Element& context) const;

  /// Writes SelectValues(context).front() into `*out` (replacing its
  /// contents) and returns true; returns false with `*out` empty when
  /// nothing matches. The walk is lazy: it stops at the first value and
  /// builds neither the other matches nor their strings, so a caller
  /// reusing `*out` across calls allocates only when a value outgrows it.
  bool FirstValueInto(const Element& context, std::string* out) const;

  /// Evaluates an *absolute* path against a document root: the first step
  /// must match the root element itself (standard XPath semantics for
  /// `/a/b/c`). Returns matched elements.
  util::Result<std::vector<const Element*>> SelectFromRoot(
      const Document& doc) const;
  util::Result<std::vector<Element*>> SelectFromRoot(Document& doc) const;

  bool operator==(const XPath&) const = default;

 private:
  // Shared element-walk producing all element matches of the leading
  // element steps (i.e. excluding a final @attr/text() step).
  // `skip_first_as_root`: treat the first step as matching `start` itself.
  std::vector<const Element*> WalkElements(const Element& start,
                                           bool first_step_is_root) const;

  std::vector<XPathStep> steps_;
};

}  // namespace sxnm::xml

#endif  // SXNM_XML_XPATH_H_
