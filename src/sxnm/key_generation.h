// Key generation phase (Sec. 3.3): builds the GK relation
//   GK_s = (eid, key_1, ..., key_n, od_1, ..., od_m)
// for a candidate. Keys and object descriptions are extracted together in
// one traversal of the candidate's instances, exactly as the paper's key
// generation reads the data in a single pass.

#ifndef SXNM_SXNM_KEY_GENERATION_H_
#define SXNM_SXNM_KEY_GENERATION_H_

#include <string>
#include <vector>

#include "sxnm/candidate_tree.h"
#include "sxnm/config.h"
#include "sxnm/od_pool.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "xml/node.h"

namespace sxnm::obs {
class MetricsRegistry;
}  // namespace sxnm::obs

namespace sxnm::core {

/// One tuple of GK_s.
struct GkRow {
  size_t ordinal = 0;        // instance ordinal within the candidate
  xml::ElementId eid = xml::kInvalidElementId;
  std::vector<std::string> keys;  // one per KeyDef, in definition order
  std::vector<std::string> ods;   // one per OdEntry, in definition order

  /// Lowercased, whitespace-collapsed `ods`, computed once at key
  /// generation and interned into the table's OdPool so the default
  /// "edit" φ^OD never re-normalizes inside the O(n·w) comparison loop
  /// and equal values compare by ID without touching bytes. Parallel to
  /// `ods`; may be empty on rows constructed by hand (the comparison
  /// kernels then fall back to normalizing on the fly).
  std::vector<OdRef> norm_ods;
};

/// The GK relation of one candidate.
struct GkTable {
  std::vector<GkRow> rows;
  size_t num_keys = 0;
  size_t num_od = 0;

  /// Interning pool the rows' `norm_ods` references resolve against.
  OdPool od_pool;

  /// Row indices sorted lexicographically by keys[key_index]
  /// (stable: ties keep instance order). `key_index < num_keys`.
  std::vector<size_t> SortedOrder(size_t key_index) const;
};

/// Builds GK for `candidate` over `elements`/`eids` (parallel vectors, as
/// produced by CandidateForest). Each key is the concatenation of its
/// parts in `order`-sequence, each part being the part's pattern applied
/// to the first value of the part's relative path; missing values
/// contribute an empty fragment (the paper's "missing year" case, which
/// produces poorly sorted keys — Fig. 4 discussion). OD values are the
/// first value of each OD path, empty when the path selects nothing.
/// With a non-null `metrics` registry, key generation contributes the
/// counters kg.rows, kg.keys_emitted, kg.od_values, kg.od_normalize_us
/// (time spent lowercasing / whitespace-collapsing OD values, µs),
/// kg.od_pool_strings (distinct interned normalized values), and
/// kg.od_pool_bytes (interning arena size).
GkTable GenerateKeys(const CandidateConfig& candidate,
                     const std::vector<const xml::Element*>& elements,
                     const std::vector<xml::ElementId>& eids,
                     obs::MetricsRegistry* metrics = nullptr);

/// Convenience overload over a CandidateInstances record.
GkTable GenerateKeys(const CandidateConfig& candidate,
                     const CandidateInstances& instances,
                     obs::MetricsRegistry* metrics = nullptr);

/// Governed key generation, used by the detector:
///   * polls `token` between rows; on cancellation the partially built
///     table is discarded and `cancelled` is set (a partial GK relation
///     would make windowing depend on where the cut landed, so key
///     generation for a candidate is all-or-nothing);
///   * checks the "kg.row" fault-injection site per row, failing with
///     kInternal when the armed fault fires (chaos tests).
struct KeyGenResult {
  GkTable table;
  bool cancelled = false;
};
util::Result<KeyGenResult> GenerateKeysChecked(
    const CandidateConfig& candidate, const CandidateInstances& instances,
    const util::CancellationToken& token,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace sxnm::core

#endif  // SXNM_SXNM_KEY_GENERATION_H_
