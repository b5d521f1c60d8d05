#include "sxnm/candidate_tree.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>

namespace sxnm::core {

using util::Result;
using util::Status;

util::Result<CandidateForest> CandidateForest::Build(
    const Config& caller_config, const xml::Document& doc) {
  CandidateForest forest;
  forest.config_ = std::make_unique<Config>(caller_config);
  const Config& config = *forest.config_;
  forest.candidates_.resize(config.candidates().size());

  // Instance discovery, plus the element -> (type, ordinal) index, by
  // element ID.
  struct Membership {
    size_t type = SIZE_MAX;  // SIZE_MAX: not a candidate instance
    size_t ordinal = 0;
  };
  std::vector<Membership> membership(doc.element_count());
  // The membership of `e`, or nullptr when `e` is no instance.
  auto member_of = [&](const xml::Element* e) -> const Membership* {
    const xml::ElementId id = e->id();
    if (id < 0 || static_cast<size_t>(id) >= membership.size()) return nullptr;
    const Membership& m = membership[static_cast<size_t>(id)];
    if (m.type == SIZE_MAX ||
        forest.candidates_[m.type].elements[m.ordinal] != e) {
      return nullptr;
    }
    return &m;
  };

  for (size_t t = 0; t < config.candidates().size(); ++t) {
    const CandidateConfig& cand = config.candidates()[t];
    CandidateInstances& info = forest.candidates_[t];
    info.config = &cand;

    auto matches = cand.absolute_path.SelectFromRoot(doc);
    if (!matches.ok()) return matches.status();
    info.elements = std::move(matches).value();
    info.eids.reserve(info.elements.size());
    for (size_t i = 0; i < info.elements.size(); ++i) {
      const xml::Element* e = info.elements[i];
      const xml::ElementId id = e->id();
      if (id == xml::kInvalidElementId ||
          static_cast<size_t>(id) >= membership.size() ||
          doc.ElementById(id) != e) {
        return Status::FailedPrecondition(
            "element <" + e->name() + "> has no current element ID (eid " +
            std::to_string(id) +
            "); assign IDs after changing the document");
      }
      info.eids.push_back(id);
      Membership& m = membership[static_cast<size_t>(id)];
      if (m.type != SIZE_MAX) {
        return Status::InvalidArgument(
            "element <" + e->name() + "> (eid " + std::to_string(e->id()) +
            ") matches two candidates: '" +
            config.candidates()[m.type].name + "' and '" + cand.name + "'");
      }
      m = Membership{t, i};
    }
  }

  // Parent discovery: for every instance walk up to the nearest candidate
  // ancestor. Build type-level edges and per-instance descendant lists.
  size_t n = forest.candidates_.size();
  // slot_of[s][t] = slot index of child type t within s (or missing).
  std::vector<std::map<size_t, size_t>> slot_of(n);
  std::vector<std::vector<size_t>> type_children(n);  // s -> child types
  std::vector<size_t> indegree(n, 0);  // #parent types of each type
  std::vector<std::vector<bool>> edge_seen(n, std::vector<bool>(n, false));

  for (size_t t = 0; t < n; ++t) {
    CandidateInstances& child_info = forest.candidates_[t];
    for (size_t j = 0; j < child_info.elements.size(); ++j) {
      const Membership* found = nullptr;
      for (const xml::Element* ancestor = child_info.elements[j]->parent();
           ancestor != nullptr && found == nullptr;
           ancestor = ancestor->parent()) {
        found = member_of(ancestor);
      }
      if (found == nullptr) continue;  // root-level candidate instance

      const Membership parent = *found;
      size_t s = parent.type;
      CandidateInstances& parent_info = forest.candidates_[s];

      // Register the type edge s -> t once.
      auto [slot_it, new_slot] =
          slot_of[s].emplace(t, parent_info.child_types.size());
      if (new_slot) {
        parent_info.child_types.push_back(t);
        parent_info.desc_instances.emplace_back(
            parent_info.elements.size());
        type_children[s].push_back(t);
        if (!edge_seen[s][t]) {
          edge_seen[s][t] = true;
          ++indegree[t];
        }
      }
      parent_info.desc_instances[slot_it->second][parent.ordinal].push_back(
          j);
    }
  }

  // Kahn's algorithm over parent->child edges gives a topological order
  // (parents before children); the processing order is its reverse.
  std::vector<size_t> topo;
  std::queue<size_t> ready;
  std::vector<size_t> remaining = indegree;
  for (size_t t = 0; t < n; ++t) {
    if (remaining[t] == 0) ready.push(t);
  }
  while (!ready.empty()) {
    size_t s = ready.front();
    ready.pop();
    topo.push_back(s);
    for (size_t t : type_children[s]) {
      if (--remaining[t] == 0) ready.push(t);
    }
  }
  if (topo.size() != n) {
    return Status::InvalidArgument(
        "candidate nesting is cyclic at the type level; bottom-up "
        "processing cannot order the candidates");
  }

  // Depth (δ in the paper): distance from the root level, longest path.
  for (size_t s : topo) {
    for (size_t t : type_children[s]) {
      forest.candidates_[t].depth =
          std::max(forest.candidates_[t].depth,
                   forest.candidates_[s].depth + 1);
    }
  }

  forest.processing_order_.assign(topo.rbegin(), topo.rend());
  return forest;
}

int CandidateForest::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].config->name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t CandidateForest::TotalInstances() const {
  size_t total = 0;
  for (const CandidateInstances& c : candidates_) total += c.NumInstances();
  return total;
}

}  // namespace sxnm::core
