#include "xml/xpath.h"

#include <cassert>

#include "util/string_util.h"

namespace sxnm::xml {

namespace {

using util::Result;
using util::Status;

// Collects, in document order, descendants of `root` (excluding `root`)
// whose name matches `name` ("*" matches all).
void CollectDescendants(const Element& root, const std::string& name,
                        std::vector<const Element*>& out) {
  for (const auto& child : root.children()) {
    if (const Element* e = child->AsElement()) {
      if (name == "*" || e->name() == name) out.push_back(e);
      CollectDescendants(*e, name, out);
    }
  }
}

// Calls `visit` on the descendants of `root` (excluding `root`) in
// document order, the order CollectDescendants lists them, until `visit`
// returns true. Returns whether it did.
template <typename Visit>
bool VisitDescendants(const Element& root, const Visit& visit) {
  for (const auto& child : root.children()) {
    if (const Element* e = child->AsElement()) {
      if (visit(*e) || VisitDescendants(*e, visit)) return true;
    }
  }
  return false;
}

// The lazy form of WalkElements from a relative context: offers the
// elements that the element steps steps[s, end) select from `context` to
// `accept`, in the order WalkElements lists them, until `accept` returns
// true. Returns whether it did.
template <typename Accept>
bool FirstAccepted(const std::vector<XPathStep>& steps, size_t s, size_t end,
                   const Element& context, const Accept& accept) {
  if (s == end) return accept(context);
  const XPathStep& step = steps[s];
  size_t seen = 0;  // elements matching this step so far
  bool accepted = false;
  // Returns true when this step's enumeration is over: a later step
  // accepted, or the positional predicate's one match has been tried.
  auto offer = [&](const Element& e) {
    if (step.name != "*" && e.name() != step.name) return false;
    ++seen;
    if (step.position > 0 && seen < static_cast<size_t>(step.position)) {
      return false;
    }
    accepted = FirstAccepted(steps, s + 1, end, e, accept);
    return accepted || step.position > 0;
  };
  if (step.axis == XPathStep::Axis::kDescendant) {
    VisitDescendants(context, offer);
  } else {
    for (const auto& child : context.children()) {
      const Element* e = child->AsElement();
      if (e != nullptr && offer(*e)) break;
    }
  }
  return accepted;
}

}  // namespace

util::Result<XPath> XPath::Parse(std::string_view path) {
  std::string_view p = util::TrimView(path);
  if (p.empty()) return Status::InvalidArgument("empty XPath");

  XPath result;
  size_t i = 0;
  if (p[0] == '/') ++i;  // accept and ignore one leading slash

  bool expect_step = true;
  while (i < p.size()) {
    XPathStep step;
    if (p[i] == '/') {
      // A second slash marks the descendant axis for the next step.
      ++i;
      step.axis = XPathStep::Axis::kDescendant;
      if (i >= p.size()) {
        return Status::InvalidArgument("XPath ends with '//': " +
                                       std::string(path));
      }
    }

    // Step body.
    if (p[i] == '@') {
      ++i;
      size_t start = i;
      while (i < p.size() && p[i] != '/' && p[i] != '[') ++i;
      step.name = std::string(p.substr(start, i - start));
      if (step.name.empty()) {
        return Status::InvalidArgument("'@' without attribute name: " +
                                       std::string(path));
      }
      if (step.axis == XPathStep::Axis::kDescendant) {
        return Status::InvalidArgument("'//@attr' is not supported: " +
                                       std::string(path));
      }
      step.axis = XPathStep::Axis::kAttribute;
    } else {
      size_t start = i;
      while (i < p.size() && p[i] != '/' && p[i] != '[') ++i;
      std::string body(p.substr(start, i - start));
      if (body == "text()") {
        if (step.axis == XPathStep::Axis::kDescendant) {
          return Status::InvalidArgument("'//text()' is not supported: " +
                                         std::string(path));
        }
        step.axis = XPathStep::Axis::kText;
      } else if (!body.empty()) {
        step.name = std::move(body);
        if (step.name.find('(') != std::string::npos) {
          return Status::InvalidArgument("unsupported XPath function in: " +
                                         std::string(path));
        }
      } else {
        return Status::InvalidArgument("empty step in XPath: " +
                                       std::string(path));
      }
    }

    // Optional positional predicate.
    if (i < p.size() && p[i] == '[') {
      if (step.axis == XPathStep::Axis::kAttribute ||
          step.axis == XPathStep::Axis::kText) {
        return Status::InvalidArgument(
            "positional predicate not allowed on @attr/text(): " +
            std::string(path));
      }
      size_t close = p.find(']', i);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated '[' in XPath: " +
                                       std::string(path));
      }
      int pos = util::ParseNonNegativeInt(p.substr(i + 1, close - i - 1));
      if (pos <= 0) {
        return Status::InvalidArgument(
            "positional predicate must be a positive integer: " +
            std::string(path));
      }
      step.position = pos;
      i = close + 1;
    }

    result.steps_.push_back(std::move(step));
    expect_step = false;

    if (i < p.size()) {
      if (p[i] != '/') {
        return Status::InvalidArgument("expected '/' in XPath: " +
                                       std::string(path));
      }
      ++i;
      expect_step = true;
    }
  }

  if (expect_step) {
    return Status::InvalidArgument("XPath ends with '/': " +
                                   std::string(path));
  }

  // @attr / text() only in final position.
  for (size_t s = 0; s + 1 < result.steps_.size(); ++s) {
    auto axis = result.steps_[s].axis;
    if (axis == XPathStep::Axis::kAttribute ||
        axis == XPathStep::Axis::kText) {
      return Status::InvalidArgument(
          "@attr/text() must be the final step: " + std::string(path));
    }
  }
  return result;
}

bool XPath::SelectsValue() const {
  if (steps_.empty()) return false;
  auto axis = steps_.back().axis;
  return axis == XPathStep::Axis::kAttribute || axis == XPathStep::Axis::kText;
}

std::string XPath::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const XPathStep& step = steps_[i];
    if (i > 0) out += '/';
    switch (step.axis) {
      case XPathStep::Axis::kDescendant:
        // "//name": the separator above provides the first slash except in
        // leading position.
        out += (i == 0) ? "//" : "/";
        out += step.name;
        break;
      case XPathStep::Axis::kChild:
        out += step.name;
        break;
      case XPathStep::Axis::kAttribute:
        out += '@';
        out += step.name;
        break;
      case XPathStep::Axis::kText:
        out += "text()";
        break;
    }
    if (step.position > 0) {
      out += '[';
      out += std::to_string(step.position);
      out += ']';
    }
  }
  return out;
}

std::vector<const Element*> XPath::WalkElements(const Element& start,
                                                bool first_step_is_root) const {
  std::vector<const Element*> frontier = {&start};
  size_t element_steps = steps_.size();
  if (SelectsValue()) --element_steps;

  for (size_t s = 0; s < element_steps; ++s) {
    const XPathStep& step = steps_[s];
    std::vector<const Element*> next;

    if (s == 0 && first_step_is_root) {
      // Absolute path: the first step names the root element itself.
      if (step.axis == XPathStep::Axis::kDescendant) {
        // "//x" from the document: any descendant-or-self match.
        if (step.name == "*" || start.name() == step.name) {
          next.push_back(&start);
        }
        CollectDescendants(start, step.name, next);
      } else if (step.name == "*" || start.name() == step.name) {
        next.push_back(&start);
      }
      if (step.position > 0 &&
          static_cast<size_t>(step.position) <= next.size()) {
        next = {next[size_t(step.position) - 1]};
      } else if (step.position > 0) {
        next.clear();
      }
      frontier = std::move(next);
      continue;
    }

    for (const Element* context : frontier) {
      std::vector<const Element*> matched;
      if (step.axis == XPathStep::Axis::kDescendant) {
        CollectDescendants(*context, step.name, matched);
      } else {
        for (const auto& child : context->children()) {
          if (const Element* e = child->AsElement()) {
            if (step.name == "*" || e->name() == step.name) {
              matched.push_back(e);
            }
          }
        }
      }
      if (step.position > 0) {
        if (static_cast<size_t>(step.position) <= matched.size()) {
          next.push_back(matched[size_t(step.position) - 1]);
        }
      } else {
        next.insert(next.end(), matched.begin(), matched.end());
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

util::Result<std::vector<const Element*>> XPath::SelectElements(
    const Element& context) const {
  if (SelectsValue()) {
    return Status::FailedPrecondition(
        "path selects values, not elements: " + ToString());
  }
  return WalkElements(context, /*first_step_is_root=*/false);
}

util::Result<std::vector<Element*>> XPath::SelectElements(
    Element& context) const {
  auto result = SelectElements(static_cast<const Element&>(context));
  if (!result.ok()) return result.status();
  std::vector<Element*> out;
  out.reserve(result->size());
  for (const Element* e : *result) out.push_back(const_cast<Element*>(e));
  return out;
}

std::vector<std::string> XPath::SelectValues(const Element& context) const {
  std::vector<const Element*> elements =
      WalkElements(context, /*first_step_is_root=*/false);
  std::vector<std::string> out;

  if (!SelectsValue()) {
    out.reserve(elements.size());
    for (const Element* e : elements) out.push_back(e->DeepText());
    return out;
  }

  const XPathStep& last = steps_.back();
  if (last.axis == XPathStep::Axis::kAttribute) {
    for (const Element* e : elements) {
      if (const std::string* value = e->FindAttribute(last.name)) {
        out.push_back(util::NormalizeWhitespace(*value));
      }
    }
  } else {  // text()
    for (const Element* e : elements) {
      out.push_back(e->DirectText());
    }
  }
  return out;
}

std::string XPath::SelectFirstValue(const Element& context) const {
  std::string value;
  FirstValueInto(context, &value);
  return value;
}

bool XPath::FirstValueInto(const Element& context, std::string* out) const {
  out->clear();
  if (!SelectsValue()) {
    return FirstAccepted(steps_, 0, steps_.size(), context,
                         [out](const Element& e) {
                           e.AppendDeepText(out);
                           return true;
                         });
  }
  const XPathStep& last = steps_.back();
  const size_t element_steps = steps_.size() - 1;
  if (last.axis == XPathStep::Axis::kAttribute) {
    return FirstAccepted(steps_, 0, element_steps, context,
                         [&](const Element& e) {
                           const std::string* value =
                               e.FindAttribute(last.name);
                           if (value == nullptr) return false;
                           out->assign(*value);
                           util::NormalizeWhitespaceInPlace(out);
                           return true;
                         });
  }
  // text(): Element::DirectText without its temporary.
  return FirstAccepted(steps_, 0, element_steps, context,
                       [out](const Element& e) {
                         for (const auto& child : e.children()) {
                           if (child->IsText()) {
                             out->append(
                                 static_cast<const TextNode&>(*child).text());
                           }
                         }
                         util::NormalizeWhitespaceInPlace(out);
                         return true;
                       });
}

util::Result<std::vector<const Element*>> XPath::SelectFromRoot(
    const Document& doc) const {
  if (SelectsValue()) {
    return Status::FailedPrecondition(
        "candidate path must select elements: " + ToString());
  }
  if (doc.root() == nullptr) return std::vector<const Element*>{};
  return WalkElements(*doc.root(), /*first_step_is_root=*/true);
}

util::Result<std::vector<Element*>> XPath::SelectFromRoot(
    Document& doc) const {
  auto result = SelectFromRoot(static_cast<const Document&>(doc));
  if (!result.ok()) return result.status();
  std::vector<Element*> out;
  out.reserve(result->size());
  for (const Element* e : *result) out.push_back(const_cast<Element*>(e));
  return out;
}

}  // namespace sxnm::xml
