#include "xml/writer.h"

#include <string>
#include <vector>

#include "persist/io.h"

namespace sxnm::xml {

namespace {

// The escape written for `c`, or an empty view when `c` is written as is.
std::string_view EscapeFor(char c, bool attribute) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    case '"':
      return attribute ? "&quot;" : "";
    default:
      return "";
  }
}

// Appends `s` escaped, each escape-free run in one piece.
void AppendEscaped(std::string_view s, bool attribute, std::string& out) {
  size_t run = 0;  // start of the run not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view escape = EscapeFor(s[i], attribute);
    if (escape.empty()) continue;
    out.append(s, run, i - run);
    out += escape;
    run = i + 1;
  }
  out.append(s, run);
}

// True when the element has any text child. Such elements (pure-text like
// <title>The Matrix</title> and mixed content like <p>a <b>x</b> b</p>)
// are rendered inline even when pretty-printing: inserting indentation
// whitespace into mixed content would change the text on re-parse.
bool HasTextChild(const Element& element) {
  for (const auto& child : element.children()) {
    if (child->IsText()) return true;
  }
  return false;
}

// Text, CDATA and comment nodes: written as they are, never indented.
void AppendLeaf(const Node& node, std::string& out) {
  switch (node.kind()) {
    case NodeKind::kElement:
      break;
    case NodeKind::kText:
      AppendEscaped(static_cast<const TextNode&>(node).text(),
                    /*attribute=*/false, out);
      break;
    case NodeKind::kCdata:
      out += "<![CDATA[";
      out += static_cast<const TextNode&>(node).text();
      out += "]]>";
      break;
    case NodeKind::kComment:
      out += "<!--";
      out += static_cast<const CommentNode&>(node).text();
      out += "-->";
      break;
  }
}

// Appends the subtree at `root` to `out` in one explicit-stack walk, so
// nesting depth never reaches the machine stack. With `indent` > 0 each
// element goes on its own line, indented by its depth, except below an
// element with a text child (see HasTextChild).
void AppendTree(const Element& root, int indent, std::string& out) {
  struct Open {
    const Element* element;
    size_t next_child;
    size_t depth;
    bool pretty;           // this element is on its own, indented line
    bool pretty_children;  // and so are its child elements
  };
  std::vector<Open> stack;
  auto open = [&stack, indent, &out](const Element& element, size_t depth,
                                     bool pretty) {
    if (pretty) out.append(depth * size_t(indent), ' ');
    out += '<';
    out += element.name();
    for (const auto& attr : element.attributes()) {
      out += ' ';
      out += attr.name;
      out += "=\"";
      AppendEscaped(attr.value, /*attribute=*/true, out);
      out += '"';
    }
    if (element.children().empty()) {
      out += "/>";
      if (pretty) out += '\n';
      return;
    }
    out += '>';
    const bool pretty_children = pretty && !HasTextChild(element);
    if (pretty_children) out += '\n';
    stack.push_back({&element, 0, depth, pretty, pretty_children});
  };

  open(root, 0, indent > 0);
  while (!stack.empty()) {
    Open& top = stack.back();
    const auto& children = top.element->children();
    if (top.next_child < children.size()) {
      const Node& child = *children[top.next_child++];
      if (const Element* element = child.AsElement()) {
        open(*element, top.depth + 1, top.pretty_children);
      } else {
        AppendLeaf(child, out);
      }
      continue;
    }
    if (top.pretty_children) out.append(top.depth * size_t(indent), ' ');
    out += "</";
    out += top.element->name();
    out += '>';
    if (top.pretty) out += '\n';
    stack.pop_back();
  }
}

}  // namespace

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, /*attribute=*/false, out);
  return out;
}

std::string EscapeAttribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, /*attribute=*/true, out);
  return out;
}

std::string WriteElement(const Element& element, const WriteOptions& options) {
  std::string out;
  AppendTree(element, options.indent, out);
  // Trim the trailing newline the pretty-printer leaves on the root.
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string WriteDocument(const Document& doc, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"";
    out += doc.version().empty() ? "1.0" : doc.version();
    out += "\" encoding=\"";
    out += doc.encoding().empty() ? "UTF-8" : doc.encoding();
    out += "\"?>";
    out += options.indent > 0 ? "\n" : "";
  }
  // A pretty-printed root already ends in the one newline the document
  // ends with.
  if (doc.root() != nullptr) AppendTree(*doc.root(), options.indent, out);
  return out;
}

bool WriteDocumentToFile(const Document& doc, const std::string& path,
                         const WriteOptions& options) {
  // Atomic commit: dedup output is either the complete document or the
  // previous file, never a truncated XML prefix.
  return persist::AtomicWriteFile(path, WriteDocument(doc, options)).ok();
}

}  // namespace sxnm::xml
