// Key generation phase (Sec. 3.3): builds the GK relation
//   GK_s = (eid, key_1, ..., key_n, od_1, ..., od_m)
// for a candidate. Keys and object descriptions are extracted together in
// one pass over the candidate's instances, exactly as the paper's key
// generation reads the data in a single pass.
//
// Each candidate is compiled once into a plan: every path a key part or an
// OD entry references gets a dense value slot, evaluated once per row by
// XPath::FirstValueInto into reused buffers, and key parts are pre-sorted
// by `order`. Rows run in fixed 1 024-row chunks, independent tasks that
// write straight into their slice of the table and intern normalized OD
// values into a chunk-local OdPool. A serial pass in chunk order then
// re-interns the local pools into the table's pool, which gives exactly
// the IDs of one row-ordered pass. The serial GenerateKeys and the
// detector's parallel GenerateKeysChecked share this one routine, so GK
// tables are identical at any thread count.

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
class Tracer;
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

  /// Row indices sorted lexicographically by keys[key_index], bytes
  /// compared unsigned (stable: ties keep instance order).
  /// `key_index < num_keys`.
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
/// counters kg.rows, kg.rows_done (live progress, added per chunk),
/// kg.keys_emitted, kg.od_values, kg.od_normalize_us (time spent
/// lowercasing / whitespace-collapsing OD values, µs, summed over chunks),
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

/// Governed key generation of every candidate, used by the detector. One
/// ParallelForCancellable on up to `num_threads` threads runs the chunks
/// of all candidates, so even a single candidate uses every thread.
///   * `token` is polled between rows. A candidate any of whose chunks
///     was cut comes back with `cancelled` set and an empty table (a
///     partial GK relation would make windowing depend on where the cut
///     landed, so key generation for a candidate is all-or-nothing).
///   * The "kg.row" fault-injection site is checked once per row in the
///     serial merge, candidate by candidate in row order, so its Nth hit
///     is the same row at any thread count; the armed fault fails the call
///     with kInternal (chaos tests).
///   * With a non-null `tracer`, each chunk runs in a "kg/generate" span
///     and each candidate's merge in a "kg/merge" span.
/// Results are indexed like `candidates`.
struct KeyGenResult {
  GkTable table;
  bool cancelled = false;
};
util::Result<std::vector<KeyGenResult>> GenerateKeysChecked(
    const std::vector<CandidateInstances>& candidates, size_t num_threads,
    const util::CancellationToken& token,
    obs::MetricsRegistry* metrics = nullptr, obs::Tracer* tracer = nullptr);

}  // namespace sxnm::core

#endif  // SXNM_SXNM_KEY_GENERATION_H_
