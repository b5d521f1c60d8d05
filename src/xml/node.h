// In-memory XML document model (DOM) for SXNM.
//
// The model is deliberately small but complete for the paper's needs:
// elements with attributes, text nodes, comments and CDATA sections, with
// parent links and stable document-order element IDs. Element IDs are the
// `eid` of the paper's GK relation (Sec. 3.3): the position of the element
// in the data source.

#ifndef SXNM_XML_NODE_H_
#define SXNM_XML_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sxnm::xml {

class Element;

namespace internal {
class DomBuilder;  // xml/parser.cc: builds and numbers parsed documents
}  // namespace internal

/// Stable identifier of an element within its document: the element's
/// 0-based position in pre-order (document order). -1 until assigned.
using ElementId = int64_t;
inline constexpr ElementId kInvalidElementId = -1;

enum class NodeKind {
  kElement,
  kText,
  kCdata,    // behaves like text, serialized as <![CDATA[...]]>
  kComment,  // preserved for faithful round-tripping
};

/// Base class of all DOM nodes. Nodes are owned by their parent element
/// (or by the Document for the root) via unique_ptr; raw pointers returned
/// by accessors are non-owning and valid while the owner lives.
class Node {
 public:
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  bool IsElement() const { return kind_ == NodeKind::kElement; }
  bool IsText() const {
    return kind_ == NodeKind::kText || kind_ == NodeKind::kCdata;
  }

  /// Parent element; nullptr for the document root element.
  Element* parent() const { return parent_; }

  /// Downcasts; return nullptr when the node is of a different kind.
  Element* AsElement();
  const Element* AsElement() const;

 protected:
  explicit Node(NodeKind kind) : kind_(kind) {}

 private:
  friend class Element;
  friend class Document;
  NodeKind kind_;
  Element* parent_ = nullptr;
};

/// A text (or CDATA) node.
class TextNode : public Node {
 public:
  explicit TextNode(std::string text, bool cdata = false)
      : Node(cdata ? NodeKind::kCdata : NodeKind::kText),
        text_(std::move(text)) {}

  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

 private:
  std::string text_;
};

/// A comment node (content between <!-- and -->).
class CommentNode : public Node {
 public:
  explicit CommentNode(std::string text)
      : Node(NodeKind::kComment), text_(std::move(text)) {}

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// A name="value" attribute. Order of attributes is preserved.
struct Attribute {
  std::string name;
  std::string value;
};

/// An XML element: name, ordered attributes, ordered children.
class Element : public Node {
 public:
  explicit Element(std::string name)
      : Node(NodeKind::kElement), name_(std::move(name)) {}

  /// Iterative teardown: deeply nested documents (bounded only by
  /// ParseOptions::max_depth) must not recurse ~unique_ptr chains.
  ~Element() override;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  ElementId id() const { return id_; }

  // --- Attributes ---------------------------------------------------------

  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Returns the attribute value, or nullptr if absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// Returns the attribute value or `fallback` if absent.
  std::string AttributeOr(std::string_view name, std::string fallback) const;

  bool HasAttribute(std::string_view name) const {
    return FindAttribute(name) != nullptr;
  }

  /// Sets (replacing if present) an attribute.
  void SetAttribute(std::string_view name, std::string_view value);

  /// Removes the attribute if present; returns true when it existed.
  bool RemoveAttribute(std::string_view name);

  // --- Children ------------------------------------------------------------

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  size_t NumChildren() const { return children_.size(); }

  /// Appends a child node and takes ownership; returns a non-owning pointer.
  Node* AddChild(std::unique_ptr<Node> child);

  /// Convenience: appends a child element with `name` and returns it.
  Element* AddElement(std::string name);

  /// Convenience: appends a text node.
  TextNode* AddText(std::string text);

  /// Removes (and destroys) the child at `index`; index must be valid.
  void RemoveChild(size_t index);

  /// Releases ownership of the child at `index` (it keeps its subtree but
  /// its parent pointer is cleared). Used by the dirty-data generator to
  /// move subtrees around.
  std::unique_ptr<Node> TakeChild(size_t index);

  /// Child elements, in document order, optionally filtered by name.
  std::vector<Element*> ChildElements();
  std::vector<const Element*> ChildElements() const;
  std::vector<Element*> ChildElements(std::string_view name);
  std::vector<const Element*> ChildElements(std::string_view name) const;

  /// First child element with the given name, or nullptr.
  Element* FirstChildElement(std::string_view name);
  const Element* FirstChildElement(std::string_view name) const;

  /// Concatenation of the direct text/CDATA children, whitespace-normalized.
  /// <title>The  Matrix</title> -> "The Matrix".
  std::string DirectText() const;

  /// Concatenation of all descendant text, whitespace-normalized.
  std::string DeepText() const;

  /// Appends DeepText() to `*out` without building it separately.
  void AppendDeepText(std::string* out) const;

  /// DeepText().size(), computed without building the string.
  size_t DeepTextLength() const;

  /// Deep copy of this element (children, attributes; IDs are reset to
  /// kInvalidElementId in the clone).
  std::unique_ptr<Element> Clone() const;

  /// Number of elements in this subtree including this element.
  size_t SubtreeElementCount() const;

 private:
  friend class Document;
  friend class internal::DomBuilder;

  /// The one copy routine behind Clone() and Document::CloneWithout(): an
  /// explicit-stack pre-order walk (depth never reaches the machine
  /// stack). Elements whose ID is marked in `drop_by_id` are left out with
  /// their subtrees, and `*dropped` counts those top-most drops. With
  /// `by_id`, each copy takes the next ID in copy order and is appended to
  /// it. Returns nullptr when `source` itself is dropped.
  static std::unique_ptr<Element> CopyTree(const Element& source,
                                           const std::vector<bool>& drop_by_id,
                                           size_t* dropped,
                                           std::vector<Element*>* by_id);

  std::string name_;
  ElementId id_ = kInvalidElementId;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// An XML document: optional declaration plus exactly one root element.
class Document {
 public:
  Document() = default;

  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// The root element; nullptr for an empty (default-constructed) document.
  Element* root() { return root_.get(); }
  const Element* root() const { return root_.get(); }

  /// Installs a root element (replacing any existing one) and assigns IDs.
  Element* SetRoot(std::unique_ptr<Element> root);

  /// Re-assigns document-order element IDs over the whole tree. Must be
  /// called after structural mutation if IDs are subsequently used.
  /// Returns the number of elements.
  size_t AssignElementIds();

  /// Elements indexed by ID after AssignElementIds(); element_count() slots.
  size_t element_count() const { return elements_by_id_.size(); }

  /// Element for an ID assigned by AssignElementIds(); nullptr if out of
  /// range.
  Element* ElementById(ElementId id);
  const Element* ElementById(ElementId id) const;

  /// Deep copy of the whole document, numbered in pre-order as it is
  /// copied: CloneWithout({}).
  Document Clone() const;

  /// Deep copy that leaves out every element whose current ID is marked
  /// in `drop_by_id` (IDs past its end are kept), together with its
  /// subtree. The copy is numbered in pre-order as it is built. When
  /// `dropped` is non-null it is set to the number of top-most elements
  /// left out (a marked element inside a dropped subtree is not counted).
  /// Dropping the root yields a document without a root.
  Document CloneWithout(const std::vector<bool>& drop_by_id,
                        size_t* dropped = nullptr) const;

  /// Standalone XML declaration flags captured by the parser.
  const std::string& version() const { return version_; }
  const std::string& encoding() const { return encoding_; }
  void set_declaration(std::string version, std::string encoding) {
    version_ = std::move(version);
    encoding_ = std::move(encoding);
  }

 private:
  friend class internal::DomBuilder;

  std::unique_ptr<Element> root_;
  std::vector<Element*> elements_by_id_;
  std::string version_;
  std::string encoding_;
};

}  // namespace sxnm::xml

#endif  // SXNM_XML_NODE_H_
