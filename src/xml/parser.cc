#include "xml/parser.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "util/fault_injection.h"

namespace sxnm::xml {

namespace {

using util::Result;
using util::Status;
using util::StatusCode;

// Byte classes, so each byte of a name or a whitespace run costs one load.
enum : uint8_t { kNameStart = 1, kNameChar = 2, kSpace = 4 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 c == '_' || c == ':' || c >= 0x80;
    bool name = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    bool space = c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
                 c == '\f' || c == '\v';
    classes[c] = (start ? kNameStart : 0) | (name ? kNameChar : 0) |
                 (space ? kSpace : 0);
  }
  return classes;
}

constexpr std::array<uint8_t, 256> kByteClasses = MakeByteClasses();

bool Is(char c, uint8_t byte_class) {
  return (kByteClasses[static_cast<unsigned char>(c)] & byte_class) != 0;
}

bool IsAllSpace(std::string_view s) {
  return std::all_of(s.begin(), s.end(), [](char c) { return Is(c, kSpace); });
}

// XML 1.0's Char production: the code points a character reference may
// name.
bool IsXmlChar(long code) {
  return code == 0x9 || code == 0xA || code == 0xD ||
         (code >= 0x20 && code <= 0xD7FF) ||
         (code >= 0xE000 && code <= 0xFFFD) ||
         (code >= 0x10000 && code <= 0x10FFFF);
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

std::string ExtractPseudoAttr(std::string_view decl, std::string_view name) {
  size_t at = decl.find(name);
  if (at == std::string_view::npos) return "";
  size_t eq = decl.find('=', at);
  if (eq == std::string_view::npos) return "";
  size_t q1 = decl.find_first_of("\"'", eq);
  if (q1 == std::string_view::npos) return "";
  size_t q2 = decl.find(decl[q1], q1 + 1);
  if (q2 == std::string_view::npos) return "";
  return std::string(decl.substr(q1 + 1, q2 - q1 - 1));
}

// The tokenizer: a cursor over the input that scans whole runs (text,
// attribute values, names, skipped constructs) and hands them out as views
// of the input, decoding into a caller's buffer only where a reference
// must be replaced. Line and column are not tracked per byte; they are
// counted when a position is reported, from the last reported position on,
// so reporting many positions over one input stays linear.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t offset) const {
    size_t i = pos_ + offset;
    return i < input_.size() ? input_[i] : '\0';
  }
  bool StartsWith(std::string_view s) const {
    return input_.substr(pos_).starts_with(s);
  }
  void Skip(size_t n) { pos_ = std::min(input_.size(), pos_ + n); }
  void SkipToEnd() { pos_ = input_.size(); }
  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWhitespace() {
    while (!AtEnd() && Is(Peek(), kSpace)) ++pos_;
  }
  // Moves to the next `c`, or to the end.
  void SkipUntil(char c) {
    pos_ = std::min(input_.find(c, pos_), input_.size());
  }
  // Sets `*body` to the bytes between an opening delimiter of `open`
  // bytes at the cursor and the next `close`; false when there is none.
  bool Enclosed(size_t open, std::string_view close,
                std::string_view* body) const {
    size_t end = input_.find(close, pos_ + open);
    if (end == std::string_view::npos) return false;
    *body = input_.substr(pos_ + open, end - pos_ - open);
    return true;
  }
  // Moves past the construct Enclosed() finds, or to the end without one.
  void SkipEnclosed(size_t open, std::string_view close) {
    std::string_view body;
    if (!Enclosed(open, close, &body)) return SkipToEnd();
    pos_ += open + body.size() + close.size();
  }

  Status Error(const std::string& message) {
    return Status::ParseError(message + PosSuffix());
  }
  Status LimitError(const std::string& message) {
    return Status::ResourceExhausted(message + PosSuffix());
  }
  std::string PosSuffix() {
    auto [line, column] = LineColumn();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " at line %zu, column %zu", line, column);
    return buf;
  }
  // 1-based line and byte column of the cursor.
  std::pair<size_t, size_t> LineColumn() {
    if (pos_ < counted_) {  // never hit today: positions only move forward
      counted_ = line_start_ = 0;
      line_ = 1;
    }
    while (counted_ < pos_) {
      const void* newline =
          std::memchr(input_.data() + counted_, '\n', pos_ - counted_);
      if (newline == nullptr) break;
      ++line_;
      counted_ = line_start_ =
          static_cast<const char*>(newline) - input_.data() + 1;
    }
    counted_ = pos_;
    return {line_, pos_ - line_start_ + 1};
  }

  Result<std::string_view> Name() {
    if (AtEnd() || !Is(Peek(), kNameStart)) return Error("expected a name");
    size_t start = pos_++;
    while (!AtEnd() && Is(Peek(), kNameChar)) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  // Character data up to the next '<' or '&' (or the end).
  std::string_view TextRun() {
    size_t start = pos_;
    while (!AtEnd() && Peek() != '<' && Peek() != '&') ++pos_;
    return input_.substr(start, pos_ - start);
  }

  // Decodes one entity or character reference (the '&' already consumed)
  // and appends it to `*out`.
  Status Reference(std::string* out) {
    const size_t window = std::min<size_t>(input_.size() - pos_, 11);
    const char* semi = static_cast<const char*>(
        std::memchr(input_.data() + pos_, ';', window));
    if (semi == nullptr) return Error("unterminated entity reference");
    std::string_view name(input_.data() + pos_, semi - input_.data() - pos_);
    pos_ += name.size() + 1;

    static constexpr std::pair<std::string_view, char> kPredefined[] = {
        {"amp", '&'}, {"lt", '<'}, {"gt", '>'}, {"apos", '\''}, {"quot", '"'}};
    for (const auto& [entity, c] : kPredefined) {
      if (name == entity) {
        out->push_back(c);
        return Status::Ok();
      }
    }
    if (name.empty() || name[0] != '#') {
      return Error("unknown entity '&" + std::string(name) + ";'");
    }
    long code = 0;
    if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
      for (char c : name.substr(2)) {
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if ((c | 0x20) >= 'a' && (c | 0x20) <= 'f') {
          digit = (c | 0x20) - 'a' + 10;
        } else {
          return Error("malformed hex character reference");
        }
        code = code * 16 + digit;
        if (code > 0x10FFFF) break;
      }
    } else {
      if (name.size() == 1) return Error("malformed character reference");
      for (char c : name.substr(1)) {
        if (c < '0' || c > '9') return Error("malformed character reference");
        code = code * 10 + (c - '0');
      }
    }
    if (!IsXmlChar(code)) return Error("character reference out of range");
    AppendUtf8(static_cast<uint32_t>(code), out);
    return Status::Ok();
  }

  // A quoted attribute value from its opening quote, references decoded.
  Result<std::string> AttributeValue() {
    const char quote = input_[pos_++];
    std::string value;
    for (;;) {
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote && Peek() != '<' && Peek() != '&') {
        ++pos_;
      }
      value.append(input_.data() + start, pos_ - start);
      if (AtEnd()) return Error("unterminated attribute value");
      if (Peek() == quote) {
        ++pos_;
        return value;
      }
      if (Peek() == '<') return Error("'<' not allowed in attribute value");
      ++pos_;
      if (Status ref = Reference(&value); !ref.ok()) return ref;
    }
  }

  // --- Recovery resynchronization ----------------------------------------

  /// Skips the remainder of a malformed tag: everything up to and
  /// including the next '>', stopping early at a '<' (the next construct).
  void SkipMalformedTag() {
    while (!AtEnd() && Peek() != '>' && Peek() != '<') ++pos_;
    Consume('>');
  }

  /// Textually skips the subtree of an element named `name` whose start
  /// tag was malformed: scans forward balancing <name>/</name> pairs
  /// until the matching end tag closes (or input ends). Self-closing
  /// occurrences do not change the balance. This is the
  /// next-sibling resynchronization point of recovering mode.
  void SkipSubtree(std::string_view name) {
    size_t depth = 1;
    for (;;) {
      SkipUntil('<');
      if (AtEnd()) return;
      if (PeekAt(1) == '/' && MatchesNameAt(pos_ + 2, name)) {
        size_t gt = input_.find('>', pos_);
        pos_ = gt == std::string_view::npos ? input_.size() : gt + 1;
        if (--depth == 0) return;
        continue;
      }
      if (MatchesNameAt(pos_ + 1, name)) {
        // A nested same-name start tag; self-closing ones don't nest.
        size_t scan = input_.find_first_of("<>", pos_ + 1 + name.size());
        bool self_closing = scan != std::string_view::npos &&
                            input_[scan] == '>' && input_[scan - 1] == '/';
        if (!self_closing) ++depth;
      }
      ++pos_;
    }
  }

  // --- Prolog / misc -------------------------------------------------------

  // Skips whitespace, comments, PIs, and DOCTYPE between top-level items.
  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (StartsWith("<!--")) {
        SkipEnclosed(4, "-->");
      } else if (StartsWith("<?")) {
        SkipEnclosed(2, "?>");
      } else if (StartsWith("<!DOCTYPE")) {
        // Skip to the matching '>' accounting for an optional internal
        // subset in brackets.
        int depth = 0;
        while (!AtEnd()) {
          char c = input_[pos_++];
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth <= 0) break;
        }
      } else {
        return;
      }
    }
  }

  void SkipProlog(Document& doc) {
    SkipWhitespace();
    // Optional XML declaration.
    if (StartsWith("<?xml") && (Is(PeekAt(5), kSpace) || PeekAt(5) == '?')) {
      size_t end = input_.find("?>", pos_);
      // A malformed declaration is left for the element parser to report.
      if (end == std::string_view::npos) return;
      std::string_view decl = input_.substr(pos_, end - pos_);
      doc.set_declaration(ExtractPseudoAttr(decl, "version"),
                          ExtractPseudoAttr(decl, "encoding"));
      pos_ = end + 2;
      SkipWhitespace();
    }
    SkipMisc();
  }

 private:
  /// True when `name` occurs at byte offset `at` followed by a non-name
  /// character (so "<movie" does not match "<movies").
  bool MatchesNameAt(size_t at, std::string_view name) const {
    if (!input_.substr(at).starts_with(name)) return false;
    size_t after = at + name.size();
    return after >= input_.size() || !Is(input_[after], kNameChar);
  }

  std::string_view input_;
  size_t pos_ = 0;
  // Newlines are counted up to `counted_`; the last one ends before
  // `line_start_`, which begins line `line_`.
  size_t counted_ = 0;
  size_t line_start_ = 0;
  size_t line_ = 1;
};

}  // namespace

namespace internal {

// The DOM builder: consumes the tokenizer's runs into a Document. Each
// element is numbered with its pre-order ID when it is attached to the
// tree (attach order is pre-order, and a skipped or failed subtree is never
// attached), so the parsed document needs no separate numbering walk.
// Hard limits and recovery decisions live here; the tree is built with an
// explicit open-element stack, never by recursion.
class DomBuilder {
 public:
  DomBuilder(std::string_view input, const ParseOptions& options,
             std::vector<Diagnostic>* diagnostics)
      : tok_(input),
        input_size_(input.size()),
        options_(options),
        recover_(diagnostics != nullptr),
        diagnostics_(diagnostics) {}

  Result<Document> Run() {
    if (options_.max_input_bytes != 0 &&
        input_size_ > options_.max_input_bytes) {
      return tok_.LimitError("input of " + std::to_string(input_size_) +
                             " bytes exceeds max_input_bytes=" +
                             std::to_string(options_.max_input_bytes));
    }

    tok_.SkipProlog(doc_);
    for (;;) {
      if (tok_.AtEnd()) return tok_.Error("document has no root element");
      if (tok_.Peek() != '<') {
        if (!recover_) return tok_.Error("expected '<' at document start");
        SXNM_RETURN_IF_ERROR(
            Report(StatusCode::kParseError,
                   "unexpected content before root element"));
        tok_.SkipUntil('<');
        tok_.SkipMisc();
        continue;
      }
      Status tree = ParseTree();
      if (tree.ok()) break;
      // ParseTree recovers internally; an error here is a hard limit, the
      // diagnostics cap, or (in recovering mode) a malformed root start
      // tag worth retrying past.
      if (!recover_ || IsHard(tree)) return tree;
      SXNM_RETURN_IF_ERROR(Report(tree));
      tok_.SkipMalformedTag();
      tok_.SkipMisc();
    }

    // Trailing misc: whitespace, comments, PIs.
    tok_.SkipMisc();
    if (!tok_.AtEnd()) {
      if (!recover_) return tok_.Error("content after root element");
      SXNM_RETURN_IF_ERROR(Report(StatusCode::kParseError,
                                  "content after root element ignored"));
    }
    return std::move(doc_);
  }

 private:
  static bool IsHard(const Status& status) {
    return status.code() == StatusCode::kResourceExhausted;
  }

  /// Records a diagnostic at the current position. Fails (hard) once the
  /// diagnostics cap is reached — a document drowning in errors is
  /// rejected rather than scanned to the end.
  Status Report(StatusCode code, std::string message) {
    if (diagnostics_->size() >= options_.max_diagnostics) {
      return tok_.LimitError("too many parse diagnostics (max_diagnostics=" +
                             std::to_string(options_.max_diagnostics) + ")");
    }
    auto [line, column] = tok_.LineColumn();
    diagnostics_->push_back({line, column, code, std::move(message)});
    return Status::Ok();
  }

  Status Report(const Status& failure) {
    return Report(failure.code(), failure.message());
  }

  /// Counts one DOM node against max_nodes. Also the "xml.node"
  /// fault-injection site used by chaos tests.
  Status CountNode() {
    if (util::FaultInjector::Instance().ShouldFail("xml.node")) {
      return Status::ResourceExhausted("injected fault: xml.node allocation " +
                                       std::to_string(nodes_created_ + 1) +
                                       tok_.PosSuffix());
    }
    ++nodes_created_;
    if (options_.max_nodes != 0 && nodes_created_ > options_.max_nodes) {
      return tok_.LimitError("node limit exceeded (max_nodes=" +
                             std::to_string(options_.max_nodes) + ")");
    }
    return Status::Ok();
  }

  Status CheckDepth(size_t depth) {
    if (options_.max_depth != 0 && depth > options_.max_depth) {
      return tok_.LimitError("element nesting exceeds max_depth=" +
                             std::to_string(options_.max_depth));
    }
    return Status::Ok();
  }

  // Numbers `element` with the next pre-order ID and attaches it below
  // `parent`, or as the document root when `parent` is null.
  Element* Attach(Element* parent, std::unique_ptr<Element> element) {
    Element* raw = element.get();
    raw->id_ = static_cast<ElementId>(doc_.elements_by_id_.size());
    doc_.elements_by_id_.push_back(raw);
    if (parent == nullptr) {
      doc_.root_ = std::move(element);
    } else {
      parent->AddChild(std::move(element));
    }
    return raw;
  }

  // Character data up to the next markup, with references decoded. The
  // result views the input, or text_ when a reference was replaced.
  Status ReadText(std::string_view* text) {
    *text = tok_.TextRun();
    if (tok_.AtEnd() || tok_.Peek() != '&') return Status::Ok();
    text_.assign(*text);
    while (tok_.Consume('&')) {
      if (Status ref = tok_.Reference(&text_); !ref.ok()) {
        if (!recover_) return ref;
        SXNM_RETURN_IF_ERROR(Report(ref));
        text_ += '&';  // keep the raw ampersand as character data
      }
      text_.append(tok_.TextRun());
    }
    *text = text_;
    return Status::Ok();
  }

  struct StartTag {
    std::unique_ptr<Element> element;
    bool self_closing = false;
  };

  /// Parses "<name attr=... (/)>" from the leading '<'. On failure
  /// `name_out` still holds the element name if one was parsed — recovery
  /// uses it to skip the whole subtree.
  Result<StartTag> ParseStartTag(std::string_view* name_out) {
    tok_.Skip(1);  // '<'
    auto name = tok_.Name();
    if (!name.ok()) return name.status();
    *name_out = name.value();
    SXNM_RETURN_IF_ERROR(CountNode());
    auto element = std::make_unique<Element>(std::string(name.value()));
    auto& attributes = element->attributes_;

    for (;;) {
      tok_.SkipWhitespace();
      if (tok_.AtEnd()) return tok_.Error("unterminated start tag");
      char c = tok_.Peek();
      if (c == '>' || c == '/') break;
      auto attr_name = tok_.Name();
      if (!attr_name.ok()) return attr_name.status();
      tok_.SkipWhitespace();
      if (!tok_.Consume('=')) {
        return tok_.Error("expected '=' after attribute name");
      }
      tok_.SkipWhitespace();
      if (tok_.AtEnd() || (tok_.Peek() != '"' && tok_.Peek() != '\'')) {
        return tok_.Error("expected quoted attribute value");
      }
      auto value = tok_.AttributeValue();
      if (!value.ok()) return value.status();
      for (const Attribute& existing : attributes) {
        if (existing.name == attr_name.value()) {
          return tok_.Error("duplicate attribute '" +
                            std::string(attr_name.value()) + "'");
        }
      }
      if (options_.max_attr_count != 0 &&
          attributes.size() >= options_.max_attr_count) {
        return tok_.LimitError("attribute count on <" + element->name() +
                               "> exceeds max_attr_count=" +
                               std::to_string(options_.max_attr_count));
      }
      attributes.push_back(
          {std::string(attr_name.value()), std::move(value).value()});
    }

    const bool self_closing = tok_.Consume('/');
    if (!tok_.Consume('>')) return tok_.Error("expected '>' after '/'");
    return StartTag{std::move(element), self_closing};
  }

  // Reports an unterminated construct (the cursor still at its '<'); in
  // recovering mode the rest of the input is dropped.
  Status Unterminated(const char* what) {
    if (!recover_) return tok_.Error(what);
    SXNM_RETURN_IF_ERROR(Report(StatusCode::kParseError, what));
    tok_.SkipToEnd();
    return Status::Ok();
  }

  /// Parses the root element's subtree starting at '<'. In recovering
  /// mode, malformed constructs inside the tree are reported and skipped;
  /// an error return is then either a malformed *root* start tag (the
  /// caller resynchronizes and retries) or a hard limit.
  Status ParseTree() {
    std::string_view root_name;
    auto root_tag = ParseStartTag(&root_name);
    if (!root_tag.ok()) return root_tag.status();
    Element* root = Attach(nullptr, std::move(root_tag->element));
    if (root_tag->self_closing) return Status::Ok();

    std::vector<Element*> open = {root};
    SXNM_RETURN_IF_ERROR(CheckDepth(open.size()));
    std::string_view text;

    // Adds pending character data to the innermost open element.
    auto flush_text = [&]() -> Status {
      if (text.empty()) return Status::Ok();
      if (!options_.skip_whitespace_text || !IsAllSpace(text)) {
        SXNM_RETURN_IF_ERROR(CountNode());
        open.back()->AddChild(std::make_unique<TextNode>(std::string(text)));
      }
      text = {};
      return Status::Ok();
    };

    while (!open.empty()) {
      if (tok_.AtEnd()) {
        if (!recover_) {
          return tok_.Error("unterminated element <" + open.back()->name() +
                            ">");
        }
        SXNM_RETURN_IF_ERROR(flush_text());
        for (auto it = open.rbegin(); it != open.rend(); ++it) {
          SXNM_RETURN_IF_ERROR(
              Report(StatusCode::kParseError, "unterminated element <" +
                                                  (*it)->name() +
                                                  ">, closed at end of input"));
        }
        return Status::Ok();
      }

      if (tok_.Peek() != '<') {
        SXNM_RETURN_IF_ERROR(ReadText(&text));
        continue;
      }
      SXNM_RETURN_IF_ERROR(flush_text());

      // --- End tag ---------------------------------------------------------
      if (tok_.PeekAt(1) == '/') {
        tok_.Skip(2);
        auto end_name = tok_.Name();
        if (!end_name.ok()) {
          if (!recover_) return end_name.status();
          SXNM_RETURN_IF_ERROR(Report(end_name.status()));
          tok_.SkipMalformedTag();
          continue;
        }
        tok_.SkipWhitespace();
        if (!tok_.Consume('>')) {
          if (!recover_) return tok_.Error("expected '>' in end tag");
          SXNM_RETURN_IF_ERROR(
              Report(StatusCode::kParseError, "expected '>' in end tag"));
          tok_.SkipMalformedTag();
        }
        if (end_name.value() == open.back()->name()) {
          open.pop_back();
          continue;
        }
        if (!recover_) {
          return tok_.Error("mismatched end tag </" +
                            std::string(end_name.value()) + ">, expected </" +
                            open.back()->name() + ">");
        }
        // Recovering: an end tag matching an outer open element implicitly
        // closes everything inside it; a match-nothing end tag is stray.
        size_t match = open.size();
        for (size_t i = open.size(); i-- > 0;) {
          if (open[i]->name() == end_name.value()) {
            match = i;
            break;
          }
        }
        if (match == open.size()) {
          SXNM_RETURN_IF_ERROR(Report(
              StatusCode::kParseError,
              "stray end tag </" + std::string(end_name.value()) + ">"));
          continue;
        }
        while (open.size() > match) {
          if (open.size() > match + 1) {
            SXNM_RETURN_IF_ERROR(Report(
                StatusCode::kParseError,
                "unterminated element <" + open.back()->name() +
                    ">, implicitly closed by </" +
                    std::string(end_name.value()) + ">"));
          }
          open.pop_back();
        }
        continue;
      }

      // --- Comments, CDATA, processing instructions ------------------------
      if (tok_.StartsWith("<!--")) {
        std::string_view comment;
        if (!tok_.Enclosed(4, "-->", &comment)) {
          SXNM_RETURN_IF_ERROR(Unterminated("unterminated comment"));
          continue;
        }
        if (options_.keep_comments) {
          SXNM_RETURN_IF_ERROR(CountNode());
          open.back()->AddChild(
              std::make_unique<CommentNode>(std::string(comment)));
        }
        tok_.Skip(4 + comment.size() + 3);
        continue;
      }
      if (tok_.StartsWith("<![CDATA[")) {
        std::string_view cdata;
        if (!tok_.Enclosed(9, "]]>", &cdata)) {
          SXNM_RETURN_IF_ERROR(Unterminated("unterminated CDATA section"));
          continue;
        }
        SXNM_RETURN_IF_ERROR(CountNode());
        open.back()->AddChild(
            std::make_unique<TextNode>(std::string(cdata), /*cdata=*/true));
        tok_.Skip(9 + cdata.size() + 3);
        continue;
      }
      if (tok_.PeekAt(1) == '?') {
        std::string_view body;
        if (tok_.Enclosed(2, "?>", &body)) {
          tok_.Skip(2 + body.size() + 2);
        } else {
          SXNM_RETURN_IF_ERROR(
              Unterminated("unterminated processing instruction"));
        }
        continue;
      }

      // --- Child start tag -------------------------------------------------
      std::string_view child_name;
      auto child = ParseStartTag(&child_name);
      if (!child.ok()) {
        if (!recover_ || IsHard(child.status())) return child.status();
        SXNM_RETURN_IF_ERROR(Report(child.status()));
        tok_.SkipMalformedTag();
        // If the element's name is known, drop its whole subtree and
        // resynchronize at the next sibling.
        if (!child_name.empty()) tok_.SkipSubtree(child_name);
        continue;
      }
      Element* element = Attach(open.back(), std::move(child->element));
      if (!child->self_closing) {
        open.push_back(element);
        SXNM_RETURN_IF_ERROR(CheckDepth(open.size()));
      }
    }
    return Status::Ok();
  }

  Tokenizer tok_;
  size_t input_size_;
  const ParseOptions& options_;
  bool recover_;
  std::vector<Diagnostic>* diagnostics_;  // null in strict mode
  Document doc_;
  std::string text_;  // decoded character data, when a run had references
  size_t nodes_created_ = 0;
};

}  // namespace internal

std::string Diagnostic::ToString() const {
  std::string out = "line " + std::to_string(line) + ", column " +
                    std::to_string(column) + ": ";
  out += util::StatusCodeName(code);
  out += ": ";
  out += message;
  return out;
}

util::Result<Document> Parse(std::string_view input,
                             const ParseOptions& options) {
  return internal::DomBuilder(input, options, nullptr).Run();
}

util::Result<RecoveredParse> ParseRecovering(std::string_view input,
                                             const ParseOptions& options) {
  RecoveredParse out;
  auto doc = internal::DomBuilder(input, options, &out.diagnostics).Run();
  if (!doc.ok()) return doc.status();
  out.doc = std::move(doc).value();
  return out;
}

util::Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open file: " + path);
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  bool had_error = std::ferror(f) != 0;
  std::fclose(f);
  if (had_error) {
    return util::Status::Internal("error reading file: " + path);
  }
  return data;
}

util::Result<Document> ParseFile(const std::string& path,
                                 const ParseOptions& options) {
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return Parse(data.value(), options);
}

util::Result<RecoveredParse> ParseFileRecovering(const std::string& path,
                                                 const ParseOptions& options) {
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return ParseRecovering(data.value(), options);
}

}  // namespace sxnm::xml
