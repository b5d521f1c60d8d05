// The SXNM detector: orchestrates the full workflow of Fig. 1 —
// key generation, then per-candidate multi-pass sorted-window duplicate
// detection in bottom-up order, with per-phase wall-clock accounting
// matching the paper's KG / SW / TC / DD breakdown (Experiment set 2).

#ifndef SXNM_SXNM_DETECTOR_H_
#define SXNM_SXNM_DETECTOR_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sxnm/candidate_tree.h"
#include "sxnm/cluster_set.h"
#include "sxnm/config.h"
#include "sxnm/detection_report.h"
#include "sxnm/key_generation.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "xml/node.h"

namespace sxnm::core {

/// Phase names used in DetectionResult::timer.
inline constexpr char kPhaseKeyGeneration[] = "key_generation";
inline constexpr char kPhaseSlidingWindow[] = "sliding_window";
inline constexpr char kPhaseTransitiveClosure[] = "transitive_closure";

/// Detection output for one candidate.
struct CandidateResult {
  std::string name;
  size_t num_instances = 0;

  /// Pairs accepted by the similarity measure, as instance ordinals and as
  /// document element IDs; deduplicated across passes, sorted.
  std::vector<OrdinalPair> duplicate_pairs;
  std::vector<std::pair<xml::ElementId, xml::ElementId>> duplicate_eid_pairs;

  /// The cluster set CS_s after transitive closure.
  ClusterSet clusters;

  /// Distinct windowed pairs compared (exact-OD pre-pass pairs excluded).
  /// A pair windowed by several passes is compared by each but counted
  /// once, by the first pass whose window covers it. Where cancellation
  /// or a live wall-clock deadline cuts a level mid-pass, a pair whose
  /// counting pass was cut before reaching it is not counted, even when a
  /// later pass compared it: such a level's visited set depends on timing
  /// anyway, and it is never checkpointed.
  size_t comparisons = 0;

  /// The GK relation (kept for diagnostics, examples, and tests).
  GkTable gk;
};

/// Per-run options orthogonal to the (reusable) configuration.
struct RunOptions {
  /// Cooperative cancellation: Run polls this token at phase boundaries
  /// and every few thousand windowed pairs. A cancelled run still returns
  /// an OK Result — a partial DetectionResult whose DegradationReport is
  /// flagged kCancelled — never a half-built error.
  util::CancellationToken cancellation;

  /// Non-empty overrides Config::checkpoint() for this run: durable
  /// snapshots are committed to / resumed from this path (see
  /// CheckpointConfig for the full contract).
  std::string checkpoint_path;

  /// Paired with checkpoint_path (ignored while that is empty): snapshot
  /// at every completed level (true) or only after key generation.
  bool checkpoint_every_pass = true;
};

struct DetectionResult {
  /// Per-candidate results in bottom-up processing order.
  std::vector<CandidateResult> candidates;

  /// Phase timings: kPhaseKeyGeneration / kPhaseSlidingWindow /
  /// kPhaseTransitiveClosure.
  util::PhaseTimer timer;

  /// Engine-wide metrics of this run (kg.*, sw.*, tc.* counters and
  /// histograms). Empty unless Config::observability().metrics is on.
  obs::MetricsSnapshot metrics;

  /// Per-candidate × per-pass statistics. Empty unless
  /// Config::observability().metrics is on. report.TotalComparisons()
  /// equals the "sw.comparisons" counter in `metrics`.
  DetectionReport report;

  /// What the governance layer shed (always populated, metrics or not).
  /// Not degraded whenever the run completed all planned work. Its totals
  /// equal the robust.* counters in `metrics` when metrics are on.
  DegradationReport degradation;

  /// Span-attributed CPU profile of the run. Disabled (enabled == false)
  /// unless Config::observability().profile_path was set; with metrics
  /// on it is also embedded in `report` as the "profile" block.
  obs::CpuProfile profile;

  /// True when RunLimits/cancellation cut work: the result is a valid but
  /// partial detection (see `degradation` for what was shed).
  bool degraded() const { return degradation.degraded; }

  const CandidateResult* Find(std::string_view name) const;

  double KeyGenerationSeconds() const {
    return timer.Seconds(kPhaseKeyGeneration);
  }
  double SlidingWindowSeconds() const {
    return timer.Seconds(kPhaseSlidingWindow);
  }
  double TransitiveClosureSeconds() const {
    return timer.Seconds(kPhaseTransitiveClosure);
  }
  /// DD = SW + TC, the paper's "overall duplicate detection".
  double DuplicateDetectionSeconds() const {
    return SlidingWindowSeconds() + TransitiveClosureSeconds();
  }

  size_t TotalComparisons() const;
};

class Detector {
 public:
  /// The configuration is validated on first Run().
  explicit Detector(Config config) : config_(std::move(config)) {}

  const Config& config() const { return config_; }

  /// Runs SXNM over `doc`. The document must have element IDs assigned
  /// (xml::Parse does this; call doc.AssignElementIds() after manual
  /// construction or mutation).
  ///
  /// Governance (Config::limits()): a comparison budget — max_comparisons
  /// and/or a deadline converted once at run start via
  /// comparisons_per_second — sheds window passes deterministically: the
  /// same passes are shrunk/skipped for any num_threads. A deadline with
  /// rate 0 is instead enforced cooperatively against the wall clock
  /// (machine-dependent cut, always well-formed results). Shed work is
  /// recorded in DetectionResult::degradation; the run itself stays OK.
  util::Result<DetectionResult> Run(const xml::Document& doc) const;
  util::Result<DetectionResult> Run(const xml::Document& doc,
                                    const RunOptions& options) const;

 private:
  Config config_;
};

}  // namespace sxnm::core

#endif  // SXNM_SXNM_DETECTOR_H_
