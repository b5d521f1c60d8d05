// Decision-provenance log: one NDJSON record per pair classification,
// plus candidate/instance headers, shed notices, and transitive-closure
// lineage. The log answers *why* the engine decided anything — which
// key pass surfaced a pair, which OD components and descendant clusters
// drove the score, and which union-find merges built each cluster.
//
// Determinism contract: the run's log is appended to only from the serial
// merge points of the detector (pass merge, degradation accounting,
// transitive closure), never from pool workers. Each window-pass shard
// writes its pair records into a log of its own; the merge concatenates
// them in (pass, shard) order, so the emitted byte stream is identical
// for any Config::num_threads — the same guarantee the counters already
// give. Every log is written by one thread at a time, so none needs
// locking.
//
// The obs layer stays below sxnm_core, so the records speak in
// primitives (ordinals, strings, component indices); the detector and
// the SimilarityMeasure fill them in.

#ifndef SXNM_OBS_EXPLAIN_H_
#define SXNM_OBS_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sxnm::obs {

/// Who decided a pair's verdict. `kOwned` is a window pass running the
/// similarity kernel on the pair (a pair windowed by several passes gets
/// one owned record per pass); `kPrepass` is the exact-OD prepass
/// accepting byte-identical tuples before any window runs. The per-tag
/// record counts reconcile with sw.comparisons / sw.prepass_pairs
/// exactly.
enum class PairProvenance {
  kOwned,
  kPrepass,
};

std::string_view PairProvenanceName(PairProvenance provenance);

/// One OD component of a pair comparison, as scored.
struct ExplainOdComponent {
  size_t index = 0;          // position in CandidateConfig::od
  double weight = 0.0;       // configured weight (pre-renormalization)
  std::string value_a;       // normalized OD text, side a
  std::string value_b;
  uint32_t ref_a = 0;        // interned OdPool ids
  uint32_t ref_b = 0;
  bool comparable = false;   // both sides non-empty
  bool interned_equal = false;  // equal pool ids: sim 1.0, bytes untouched
  bool bailout = false;      // the bounded kernel pruned out here
  int64_t edit_distance = -1;   // -1 unless a comparable pooled "edit"
                                // component (0 when interned_equal)
  double sim = 0.0;
};

/// One child-candidate slot of the descendant Jaccard.
struct ExplainDescSlot {
  size_t child = 0;          // child slot index (candidate order)
  size_t size_a = 0;         // descendant cluster-id multiset sizes
  size_t size_b = 0;
  size_t intersection = 0;
  size_t union_size = 0;
  double jaccard = 0.0;
};

/// Full scoring breakdown of one pair comparison, filled by
/// SimilarityMeasure::Decide when given a trace: the kernel's own
/// decision plus every exact intermediate the kernel is allowed to skip.
struct PairExplain {
  std::vector<ExplainOdComponent> components;
  std::vector<ExplainDescSlot> descendants;
  bool theory_equal = false;  // equational theory decided the pair
  bool od_valid = false;      // at least one comparable component
  double od_sim = 0.0;
  bool desc_valid = false;    // descendant similarity was defined
  double desc_sim = 0.0;
  double score = 0.0;         // combined, what faces the threshold
  double threshold = 0.0;
};

/// Append-only NDJSON buffer for one detector run. Disabled logs are
/// inert: every Append* returns immediately, so the classification hot
/// path pays one branch and zero allocations when explain is off.
class ExplainLog {
 public:
  explicit ExplainLog(bool enabled) : enabled_(enabled) {}
  ExplainLog(const ExplainLog&) = delete;
  ExplainLog& operator=(const ExplainLog&) = delete;
  ExplainLog(ExplainLog&&) = default;
  ExplainLog& operator=(ExplainLog&&) = default;

  bool enabled() const { return enabled_; }

  /// Candidate header: emitted once per candidate before its records.
  void AppendCandidate(std::string_view candidate, size_t depth,
                       size_t num_instances, size_t num_keys,
                       size_t window, std::string_view window_policy,
                       double threshold);

  /// One instance row: ordinal, element id, key strings, and the
  /// instance's sorted rank under every pass (what the miss-diagnosis
  /// and `sxnm_explain why` replay windowing from).
  void AppendInstance(std::string_view candidate, size_t ordinal,
                      size_t eid, const std::vector<std::string>& keys,
                      const std::vector<size_t>& ranks);

  /// One pair classification. `pass` is 0-based; -1 marks the exact-OD
  /// prepass. `detail` may be null (prepass records carry the verdict
  /// only).
  void AppendPair(std::string_view candidate, int pass, size_t a, size_t b,
                  size_t eid_a, size_t eid_b, size_t window_distance,
                  PairProvenance provenance, const PairExplain* detail,
                  bool verdict);

  /// Appends `other`'s records and tallies (a window-pass shard's log, at
  /// the merge).
  void AppendLog(const ExplainLog& other);

  /// Degradation notice for one shed (skipped or shrunk) pass.
  void AppendShed(std::string_view candidate, int pass, bool skipped,
                  size_t window_configured, size_t window_used, size_t rows,
                  size_t pairs_planned, size_t pairs_elided);

  /// Transitive-closure lineage: duplicate pair (a, b) arrived with
  /// union-find roots root_a/root_b; `root` is the surviving root and
  /// `merged` is false when the pair was already intra-cluster.
  void AppendMerge(std::string_view candidate, size_t a, size_t b,
                   size_t root_a, size_t root_b, size_t root, bool merged);

  /// Final non-trivial cluster membership.
  void AppendCluster(std::string_view candidate, size_t cluster,
                     const std::vector<size_t>& members);

  /// Per-provenance pair-record tallies; reconcile with sw.comparisons
  /// (owned) and sw.prepass_pairs (prepass).
  uint64_t owned_pairs() const { return owned_pairs_; }
  uint64_t prepass_pairs() const { return prepass_pairs_; }
  uint64_t pair_records() const { return owned_pairs_ + prepass_pairs_; }

  /// The NDJSON bytes accumulated so far.
  const std::string& text() const { return text_; }

  /// Replaces the buffered byte stream and tallies with previously
  /// captured state (checkpoint resume): later appends continue the
  /// stream, so a resumed run reproduces the uninterrupted byte stream
  /// exactly. No-op on a disabled log.
  void Restore(std::string text, uint64_t owned_pairs,
               uint64_t prepass_pairs);

  util::Status WriteFile(const std::string& path) const;

 private:
  bool enabled_;
  std::string text_;
  uint64_t owned_pairs_ = 0;
  uint64_t prepass_pairs_ = 0;
};

}  // namespace sxnm::obs

#endif  // SXNM_OBS_EXPLAIN_H_
