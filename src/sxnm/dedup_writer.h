// De-duplicated output (Sec. 3.4 closing paragraph): "a typical approach
// selects a prime representative for each cluster and discards the
// others". This module produces a de-duplicated copy of the input
// document from a DetectionResult.

#ifndef SXNM_SXNM_DEDUP_WRITER_H_
#define SXNM_SXNM_DEDUP_WRITER_H_

#include "sxnm/detector.h"
#include "util/status.h"
#include "xml/node.h"

namespace sxnm::core {

enum class RepresentativeStrategy {
  /// Keep the cluster member that appears first in document order.
  kFirst,
  /// Keep the member with the most textual content (subtree deep-text
  /// length, ties broken by document order) — a cheap "most complete
  /// representation" heuristic.
  kRichest,
  /// Data fusion (Sec. 3.4: "more sophisticated approaches perform data
  /// fusion"): keep the richest member and merge into it, from the other
  /// members, (a) attributes it lacks and (b) child elements whose
  /// (name, content) is not already present — so the survivor carries the
  /// union of the cluster's information.
  kFuse,
};

struct DedupStats {
  size_t clusters_collapsed = 0;  // clusters with >= 2 members
  size_t elements_removed = 0;    // non-representative members detached
  size_t attributes_fused = 0;    // kFuse: attributes copied to survivors
  size_t children_fused = 0;      // kFuse: child elements copied
};

/// Returns a de-duplicated copy of `doc`: for every candidate cluster with
/// two or more members, all but the chosen representative are left out
/// (together with their subtrees). The output is one filtered copy of the
/// input, numbered in pre-order as it is built; `doc` is not modified.
/// kFuse first fuses on a full copy of `doc` and filters that copy.
///
/// `result` must come from running a detector over exactly this `doc`
/// (element IDs are used to locate the members); an ID that `doc` does not
/// have is a FailedPrecondition, and so is a cluster that would remove the
/// root.
util::Result<xml::Document> Deduplicate(
    const xml::Document& doc, const DetectionResult& result,
    RepresentativeStrategy strategy = RepresentativeStrategy::kRichest,
    DedupStats* stats = nullptr);

}  // namespace sxnm::core

#endif  // SXNM_SXNM_DEDUP_WRITER_H_
