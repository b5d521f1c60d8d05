// Structured per-run detection report: one row per (candidate, pass)
// with the pass's window, comparison, fast-path, and timing statistics.
// Built by the detector when observability metrics are on; printable as
// an aligned table (util::TablePrinter) and serializable to JSON for
// tooling.

#ifndef SXNM_SXNM_DETECTION_REPORT_H_
#define SXNM_SXNM_DETECTION_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "util/status.h"

namespace sxnm::core {

/// Statistics of one sorted-window pass over one candidate. Counts refer
/// to this pass alone, before the cross-pass deduplicating merge.
struct PassStats {
  size_t pairs_windowed = 0;       // pairs the window enumeration visited
  size_t prepass_skips = 0;        // skipped: accepted by the exact-OD
                                   // pre-pass before windowing
  size_t comparisons = 0;          // similarity-kernel invocations
  size_t hits = 0;                 // pairs classified duplicate
  size_t ed_bailouts = 0;          // bounded edit-distance pruned verdicts
  size_t desc_invocations = 0;     // descendant Jaccard evaluations
  size_t desc_short_circuits = 0;  // verdict fixed by OD bounds alone,
                                   // descendant Jaccard skipped
  size_t interned_equal = 0;       // OD components scored 1.0 by interned
                                   // pool-ID equality, no bytes touched
  size_t myers_words = 0;          // 64-bit words processed by the
                                   // bit-parallel edit-distance kernel
  double wall_seconds = 0.0;       // pass task wall time

  /// Combined-score distribution of this pass's owned kernel invocations:
  /// decile buckets over [0, 1] (bounds 0.1 .. 1.0 plus one overflow
  /// slot), mirroring the engine-wide sw.similarity histogram. Empty when
  /// the pass never ran a kernel.
  std::vector<uint64_t> sim_buckets;

  /// Median of `sim_buckets` (bucket interpolation); 0 when empty.
  double SimMedian() const;

  /// Element-wise sum (wall times add too).
  void Accumulate(const PassStats& other);
};

/// How the governance layer degraded one window pass (or a whole
/// candidate) to honor a comparison budget, deadline, or cancellation.
struct PassDegradation {
  std::string candidate;
  size_t key_index = 0;       // pass within the candidate, 0-based
  bool skipped = false;       // pass elided entirely (its rows unprocessed)
  size_t window_used = 0;     // the window the pass actually ran with;
                              // < the configured window for a shrunk
                              // boundary pass, 0 when skipped
  size_t rows = 0;            // GK rows of the pass (instances)
  size_t pairs_planned = 0;   // WindowPairCount(rows, configured window)
  size_t pairs_elided = 0;    // planned pairs not enumerated
};

/// Degradation summary of a governed run. `degraded` is false (and the
/// per-pass list empty) whenever the run completed all planned work —
/// governance is free when nothing fires. Totals here are mirrored into
/// the metrics registry as robust.* counters.
struct DegradationReport {
  bool degraded = false;

  /// Why work was shed: kDeadlineExceeded (budget from <deadline> or
  /// wall-clock expiry), kResourceExhausted (max_comparisons), or
  /// kCancelled. kOk when not degraded.
  util::StatusCode reason = util::StatusCode::kOk;

  /// The comparison budget the run resolved at start (0 = none; the
  /// deadline-derived and max_comparisons budgets are merged).
  size_t comparison_budget = 0;

  /// Passes that were shrunk or skipped, in deterministic pass order.
  std::vector<PassDegradation> passes;

  size_t PassesSkipped() const;
  size_t PassesShrunk() const;
  /// Rows of skipped passes (a shrunk pass still visits every row).
  size_t RowsSkipped() const;
  size_t PairsElided() const;

  /// One-line summary plus one line per degraded pass.
  std::string ToString() const;

  /// JSON object: {"degraded": ..., "reason": ..., "passes": [...]}.
  void WriteJson(std::ostream& os) const;
};

/// Gold-joined effectiveness attribution of one window pass: how many of
/// the candidate's gold duplicate pairs this pass windowed and accepted,
/// and the precision/recall it contributes on its own. Computed by
/// eval::DiagnoseMisses (the engine itself never sees gold labels) and
/// attached to the DetectionReport for rendering next to the cost rows.
struct PassAttribution {
  std::string candidate;
  size_t key_index = 0;       // pass within the candidate, 0-based
  size_t gold_pairs = 0;      // gold duplicate pairs of the candidate
  size_t gold_windowed = 0;   // gold pairs this pass actually windowed
  size_t accepted = 0;        // windowed pairs classified duplicate
  size_t accepted_gold = 0;   // of those, gold-true
  double precision = 0.0;     // accepted_gold / accepted (1 when none)
  double recall = 0.0;        // accepted_gold / gold_pairs (0 when none)
};

/// Per-candidate × per-pass table for one detection run.
struct DetectionReport {
  struct Row {
    std::string candidate;
    size_t key_index = 0;      // pass number within the candidate, 0-based
    size_t num_instances = 0;  // instances of the candidate
    PassStats stats;
  };

  /// Rows in bottom-up candidate order, passes in key-definition order.
  std::vector<Row> rows;

  /// Degradation of the run that produced this report (copied from
  /// DetectionResult::degradation so serialized reports are
  /// self-contained). Not degraded for ungoverned runs.
  DegradationReport degradation;

  /// Per-pass precision/recall attribution rows. Empty unless a gold
  /// standard was joined in (eval::AttachAttribution).
  std::vector<PassAttribution> attribution;

  /// Span-attributed CPU profile of the run (profile.enabled == false
  /// unless the run was profiled via ObservabilityConfig::profile_path).
  /// Serialized as the report's "profile" block.
  obs::CpuProfile profile;

  bool empty() const { return rows.empty(); }

  /// Sum of kernel invocations over all rows. With metrics on this equals
  /// the registry's "sw.comparisons" counter.
  size_t TotalComparisons() const;
  size_t TotalHits() const;
  PassStats Totals() const;

  /// Aligned ASCII table (one row per pass plus a totals row).
  std::string ToTable() const;

  /// Aligned ASCII table of the attribution rows; empty string when no
  /// attribution is attached.
  std::string AttributionTable() const;

  /// JSON: {"rows": [...], "totals": {...}}.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

  /// WriteJson to a file; fails when the path is unwritable.
  util::Status WriteJsonFile(const std::string& path) const;
};

}  // namespace sxnm::core

#endif  // SXNM_SXNM_DETECTION_REPORT_H_
