#include "xml/node.h"

#include <cassert>

#include "util/string_util.h"

namespace sxnm::xml {

Element* Node::AsElement() {
  return IsElement() ? static_cast<Element*>(this) : nullptr;
}

Element::~Element() {
  // Detach the subtree into a flat worklist before any child is
  // destroyed, so destruction never recurses element-per-stack-frame on
  // deeply nested documents.
  std::vector<std::unique_ptr<Node>> pending;
  pending.swap(children_);
  while (!pending.empty()) {
    std::unique_ptr<Node> node = std::move(pending.back());
    pending.pop_back();
    if (Element* e = node == nullptr ? nullptr : node->AsElement()) {
      for (auto& child : e->children_) pending.push_back(std::move(child));
      e->children_.clear();
    }
  }
}

const Element* Node::AsElement() const {
  return IsElement() ? static_cast<const Element*>(this) : nullptr;
}

const std::string* Element::FindAttribute(std::string_view name) const {
  for (const auto& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

std::string Element::AttributeOr(std::string_view name,
                                 std::string fallback) const {
  const std::string* value = FindAttribute(name);
  return value != nullptr ? *value : std::move(fallback);
}

void Element::SetAttribute(std::string_view name, std::string_view value) {
  for (auto& attr : attributes_) {
    if (attr.name == name) {
      attr.value = std::string(value);
      return;
    }
  }
  attributes_.push_back({std::string(name), std::string(value)});
}

bool Element::RemoveAttribute(std::string_view name) {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) {
      attributes_.erase(attributes_.begin() + i);
      return true;
    }
  }
  return false;
}

Node* Element::AddChild(std::unique_ptr<Node> child) {
  assert(child != nullptr);
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Element* Element::AddElement(std::string name) {
  return static_cast<Element*>(
      AddChild(std::make_unique<Element>(std::move(name))));
}

TextNode* Element::AddText(std::string text) {
  return static_cast<TextNode*>(
      AddChild(std::make_unique<TextNode>(std::move(text))));
}

void Element::RemoveChild(size_t index) {
  assert(index < children_.size());
  children_.erase(children_.begin() + index);
}

std::unique_ptr<Node> Element::TakeChild(size_t index) {
  assert(index < children_.size());
  std::unique_ptr<Node> node = std::move(children_[index]);
  children_.erase(children_.begin() + index);
  node->parent_ = nullptr;
  return node;
}

std::vector<Element*> Element::ChildElements() {
  std::vector<Element*> out;
  for (const auto& child : children_) {
    if (Element* e = child->AsElement()) out.push_back(e);
  }
  return out;
}

std::vector<const Element*> Element::ChildElements() const {
  std::vector<const Element*> out;
  for (const auto& child : children_) {
    if (const Element* e = child->AsElement()) out.push_back(e);
  }
  return out;
}

std::vector<Element*> Element::ChildElements(std::string_view name) {
  std::vector<Element*> out;
  for (const auto& child : children_) {
    if (Element* e = child->AsElement(); e != nullptr && e->name() == name) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<const Element*> Element::ChildElements(
    std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& child : children_) {
    if (const Element* e = child->AsElement();
        e != nullptr && e->name() == name) {
      out.push_back(e);
    }
  }
  return out;
}

Element* Element::FirstChildElement(std::string_view name) {
  for (const auto& child : children_) {
    if (Element* e = child->AsElement(); e != nullptr && e->name() == name) {
      return e;
    }
  }
  return nullptr;
}

const Element* Element::FirstChildElement(std::string_view name) const {
  return const_cast<Element*>(this)->FirstChildElement(name);
}

std::string Element::DirectText() const {
  std::string out;
  for (const auto& child : children_) {
    if (child->IsText()) {
      out += static_cast<const TextNode*>(child.get())->text();
    }
  }
  return util::NormalizeWhitespace(out);
}

namespace {

// Calls `visit` on every node below `root`, in document order. The walk
// keeps its own stack, so nesting depth never reaches the machine stack.
template <typename Visit>
void ForEachDescendant(const Element& root, Visit visit) {
  std::vector<const Node*> stack;
  auto push_children = [&stack](const Element& element) {
    const auto& children = element.children();
    for (size_t i = children.size(); i > 0; --i) {
      stack.push_back(children[i - 1].get());
    }
  };
  push_children(root);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    visit(*node);
    if (const Element* element = node->AsElement()) push_children(*element);
  }
}

// Feeds `emit` the characters of util::NormalizeWhitespace applied to the
// concatenation of every descendant text node, each followed by a space,
// without building that concatenation: whitespace runs become one space,
// leading and trailing whitespace is dropped.
template <typename Emit>
void EmitDeepText(const Element& root, Emit emit) {
  bool started = false;  // a non-space character has been emitted
  bool gap = false;      // whitespace followed it
  ForEachDescendant(root, [&](const Node& node) {
    if (!node.IsText()) return;
    for (char c : static_cast<const TextNode&>(node).text()) {
      if (util::IsAsciiSpace(c)) {
        gap = started;
        continue;
      }
      if (gap) emit(' ');
      emit(c);
      started = true;
      gap = false;
    }
    gap = started;  // the space after each text node
  });
}

}  // namespace

std::string Element::DeepText() const {
  std::string out;
  AppendDeepText(&out);
  return out;
}

void Element::AppendDeepText(std::string* out) const {
  EmitDeepText(*this, [out](char c) { out->push_back(c); });
}

size_t Element::DeepTextLength() const {
  size_t length = 0;
  EmitDeepText(*this, [&length](char) { ++length; });
  return length;
}

std::unique_ptr<Element> Element::CopyTree(const Element& source,
                                           const std::vector<bool>& drop_by_id,
                                           size_t* dropped,
                                           std::vector<Element*>* by_id) {
  auto is_dropped = [&drop_by_id](const Element& element) {
    return element.id_ >= 0 &&
           static_cast<size_t>(element.id_) < drop_by_id.size() &&
           drop_by_id[static_cast<size_t>(element.id_)];
  };
  // A source node waiting to be copied, and the copy it is appended to.
  // Children are pushed in reverse, so every parent receives its children
  // in document order and copies are numbered in pre-order.
  struct Pending {
    const Node* source;
    Element* parent;
  };
  std::vector<Pending> stack;
  auto copy_element = [&stack, by_id](const Element& from) {
    auto copy = std::make_unique<Element>(from.name_);
    copy->attributes_ = from.attributes_;
    copy->children_.reserve(from.children_.size());
    if (by_id != nullptr) {
      copy->id_ = static_cast<ElementId>(by_id->size());
      by_id->push_back(copy.get());
    }
    for (size_t i = from.children_.size(); i > 0; --i) {
      stack.push_back({from.children_[i - 1].get(), copy.get()});
    }
    return copy;
  };

  size_t dropped_count = 0;
  std::unique_ptr<Element> root;
  if (is_dropped(source)) {
    ++dropped_count;
  } else {
    root = copy_element(source);
  }
  while (!stack.empty()) {
    const Pending next = stack.back();
    stack.pop_back();
    std::unique_ptr<Node> copy;
    switch (next.source->kind()) {
      case NodeKind::kElement: {
        const auto& from = static_cast<const Element&>(*next.source);
        if (is_dropped(from)) {
          ++dropped_count;
          continue;
        }
        copy = copy_element(from);
        break;
      }
      case NodeKind::kText:
      case NodeKind::kCdata: {
        const auto& text = static_cast<const TextNode&>(*next.source);
        copy = std::make_unique<TextNode>(text.text(),
                                          text.kind() == NodeKind::kCdata);
        break;
      }
      case NodeKind::kComment:
        copy = std::make_unique<CommentNode>(
            static_cast<const CommentNode&>(*next.source).text());
        break;
    }
    next.parent->AddChild(std::move(copy));
  }
  if (dropped != nullptr) *dropped = dropped_count;
  return root;
}

std::unique_ptr<Element> Element::Clone() const {
  return CopyTree(*this, {}, nullptr, nullptr);
}

size_t Element::SubtreeElementCount() const {
  size_t count = 1;
  ForEachDescendant(*this,
                    [&count](const Node& node) { count += node.IsElement(); });
  return count;
}

Element* Document::SetRoot(std::unique_ptr<Element> root) {
  root_ = std::move(root);
  if (root_ != nullptr) root_->parent_ = nullptr;
  AssignElementIds();
  return root_.get();
}

size_t Document::AssignElementIds() {
  elements_by_id_.clear();
  if (root_ == nullptr) return 0;
  // Iterative pre-order traversal (documents can be deep; avoid recursion).
  std::vector<Element*> stack = {root_.get()};
  while (!stack.empty()) {
    Element* e = stack.back();
    stack.pop_back();
    e->id_ = static_cast<ElementId>(elements_by_id_.size());
    elements_by_id_.push_back(e);
    // Push children in reverse so they pop in document order.
    const auto& children = e->children_;
    for (size_t i = children.size(); i > 0; --i) {
      if (Element* child = children[i - 1]->AsElement()) {
        stack.push_back(child);
      }
    }
  }
  return elements_by_id_.size();
}

Element* Document::ElementById(ElementId id) {
  if (id < 0 || static_cast<size_t>(id) >= elements_by_id_.size()) {
    return nullptr;
  }
  return elements_by_id_[static_cast<size_t>(id)];
}

const Element* Document::ElementById(ElementId id) const {
  return const_cast<Document*>(this)->ElementById(id);
}

Document Document::Clone() const { return CloneWithout({}); }

Document Document::CloneWithout(const std::vector<bool>& drop_by_id,
                                size_t* dropped) const {
  Document copy;
  copy.version_ = version_;
  copy.encoding_ = encoding_;
  if (dropped != nullptr) *dropped = 0;
  if (root_ != nullptr) {
    copy.elements_by_id_.reserve(elements_by_id_.size());
    copy.root_ =
        Element::CopyTree(*root_, drop_by_id, dropped, &copy.elements_by_id_);
  }
  return copy;
}

}  // namespace sxnm::xml
