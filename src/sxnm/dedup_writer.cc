#include "sxnm/dedup_writer.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace sxnm::core {

namespace {

// Merges attributes and children of `donor` into `survivor` (see
// RepresentativeStrategy::kFuse).
void FuseInto(xml::Element* survivor, const xml::Element& donor,
              DedupStats* stats) {
  for (const xml::Attribute& attr : donor.attributes()) {
    if (!survivor->HasAttribute(attr.name)) {
      survivor->SetAttribute(attr.name, attr.value);
      ++stats->attributes_fused;
    }
  }

  // Existing child content of the survivor as name '\0' deep text (an XML
  // name holds no NUL, so the pair is unambiguous).
  auto signature = [](const xml::Element& child) {
    return child.name() + '\0' + child.DeepText();
  };
  std::unordered_set<std::string> present;
  for (const xml::Element* child : survivor->ChildElements()) {
    present.insert(signature(*child));
  }
  for (const xml::Element* child : donor.ChildElements()) {
    if (present.insert(signature(*child)).second) {
      survivor->AddChild(child->Clone());
      ++stats->children_fused;
    }
  }
}

}  // namespace

util::Result<xml::Document> Deduplicate(const xml::Document& doc,
                                        const DetectionResult& result,
                                        RepresentativeStrategy strategy,
                                        DedupStats* stats) {
  if (doc.root() == nullptr) {
    return util::Status::FailedPrecondition("document has no root");
  }
  const bool fuse = strategy == RepresentativeStrategy::kFuse;

  // kFuse picks each representative by content that earlier clusters
  // fused into it (a person fused into a movie makes the movie richer), so
  // it fuses on a full copy first, in cluster order. The copy is numbered
  // like `doc`, so the detector's element IDs resolve in either.
  xml::Document fused;
  if (fuse) fused = doc.Clone();
  const xml::Document& source = fuse ? fused : doc;

  DedupStats local_stats;
  std::vector<bool> drop(source.element_count(), false);
  std::vector<const xml::Element*> fused_away;  // kFuse: members to remove
  for (const CandidateResult& cand : result.candidates) {
    auto eid_of = [&cand](size_t ordinal) {
      return cand.gk.rows[ordinal].eid;
    };
    for (const auto& cluster : cand.clusters.NonTrivialClusters()) {
      ++local_stats.clusters_collapsed;
      for (size_t ordinal : cluster) {
        if (source.ElementById(eid_of(ordinal)) == nullptr) {
          return util::Status::FailedPrecondition(
              "detection result does not match document: missing eid " +
              std::to_string(eid_of(ordinal)));
        }
      }

      size_t representative = cluster.front();
      if (strategy != RepresentativeStrategy::kFirst) {
        size_t best_len = 0;
        for (size_t ordinal : cluster) {
          size_t len = source.ElementById(eid_of(ordinal))->DeepTextLength();
          if (len > best_len) {
            best_len = len;
            representative = ordinal;
          }
        }
      }

      for (size_t ordinal : cluster) {
        if (ordinal == representative) continue;
        const xml::ElementId eid = eid_of(ordinal);
        if (fuse) {
          FuseInto(fused.ElementById(eid_of(representative)),
                   *fused.ElementById(eid), &local_stats);
          fused_away.push_back(fused.ElementById(eid));
        } else {
          drop[static_cast<size_t>(eid)] = true;
        }
      }
    }
  }

  if (fuse) {
    // Fused-in children shifted the pre-order IDs: renumber once and mark
    // the removed members under their new IDs.
    drop.assign(fused.AssignElementIds(), false);
    for (const xml::Element* e : fused_away) {
      drop[static_cast<size_t>(e->id())] = true;
    }
  }
  if (drop[static_cast<size_t>(source.root()->id())]) {
    return util::Status::FailedPrecondition(
        "cannot remove the document root as a duplicate");
  }
  xml::Document deduped =
      source.CloneWithout(drop, &local_stats.elements_removed);

  if (stats != nullptr) *stats = local_stats;
  return deduped;
}

}  // namespace sxnm::core
