// Engine-state serialization for crash-consistent checkpoint/resume.
//
// This maps the detector's resident state onto the persist layer's
// snapshot container (persist/snapshot.h): the GK relations (rows plus
// their OdPool), every completed
// candidate's merged result and cluster set, the degradation and report
// rows accumulated so far, a metrics snapshot, the explain-log byte
// stream, and the pass cursor (levels completed + budget governor
// state). A snapshot additionally carries a (config, document)
// fingerprint; loading against a different input or config refuses with
// kFailedPrecondition, and structural corruption surfaces as kDataLoss.
//
// Durability points are level boundaries of the bottom-up processing
// order: after a level's merge + transitive closure, every cluster set
// downstream levels need is complete, so the snapshot is a consistent
// cut of the run. Resume replays completed levels from the snapshot and
// re-runs the interrupted level from its start — output is then
// bit-identical to an uninterrupted run for any num_threads.

#ifndef SXNM_SXNM_CHECKPOINT_H_
#define SXNM_SXNM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "extsort/extsort.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/snapshot.h"
#include "sxnm/config.h"
#include "sxnm/detection_report.h"
#include "sxnm/detector.h"
#include "sxnm/key_generation.h"
#include "util/status.h"
#include "xml/node.h"

namespace sxnm::core {

/// Identity of the configuration a snapshot belongs to. Deliberately
/// EXCLUDES num_threads (resuming with a different thread count is
/// allowed — the engine is thread-count deterministic), observability
/// paths, the checkpoint settings themselves, and the out-of-core
/// knobs (shards / memory-budget / spill-dir, which are
/// output-identical by construction); everything that shapes detection
/// output is included.
uint64_t ConfigFingerprint(const Config& config);

/// Identity of the data document: a structural hash over names,
/// attributes, and text in document order.
uint64_t DocumentFingerprint(const xml::Document& doc);

/// The pass cursor: where the run stood when the snapshot was taken.
struct CheckpointCursor {
  /// Bottom-up levels fully processed (merge + closure done).
  uint64_t levels_completed = 0;

  /// Budget governor state at the cut, so resumed planning sheds exactly
  /// the passes an uninterrupted run would.
  uint64_t budget_spent = 0;
  bool budget_exhausted = false;

  /// Phase wall-clock accumulated before the cut.
  double kg_seconds = 0.0;
  double sw_seconds = 0.0;
  double tc_seconds = 0.0;
};

/// Snapshot identity header (the kFingerprint frame).
struct CheckpointFingerprint {
  uint64_t config_fingerprint = 0;
  uint64_t doc_fingerprint = 0;
  /// Observability shape: a snapshot taken without metrics/explain holds
  /// no counters/byte stream to restore, so resuming with them enabled
  /// would produce partial output — refused at load.
  bool metrics_enabled = false;
  bool explain_enabled = false;
};

/// Borrowed view of the detector's state for one snapshot write.
/// Pointers must outlive the SaveEngineSnapshot call; optional parts may
/// be null.
struct EngineSnapshotView {
  CheckpointFingerprint fingerprint;
  CheckpointCursor cursor;

  /// All candidates' GK relations, indexed by forest candidate index,
  /// with the kg_done flag of each (0 = key generation was shed).
  const std::vector<GkTable>* gk = nullptr;
  const std::vector<char>* kg_done = nullptr;

  /// Merged results of candidates in completed levels, as
  /// (candidate index, result). `result->clusters` carries the cluster
  /// set downstream levels read.
  std::vector<std::pair<uint64_t, const CandidateResult*>> completed;

  const DegradationReport* degradation = nullptr;              // optional
  const std::vector<DetectionReport::Row>* report_rows = nullptr;  // optional
  const obs::MetricsSnapshot* metrics = nullptr;               // optional
  /// Explain byte stream + tallies; both null when explain is off.
  const std::string* explain_text = nullptr;
  uint64_t explain_tallies[2] = {0, 0};  // owned, prepass
};

/// Owned form of a loaded snapshot.
struct EngineSnapshot {
  CheckpointFingerprint fingerprint;
  CheckpointCursor cursor;

  struct GkState {
    uint64_t index = 0;
    bool kg_done = false;
    GkTable table;
  };
  std::vector<GkState> gk;

  struct CompletedCandidate {
    uint64_t index = 0;
    CandidateResult result;
  };
  std::vector<CompletedCandidate> completed;

  DegradationReport degradation;
  std::vector<DetectionReport::Row> report_rows;
  obs::MetricsSnapshot metrics;
  std::string explain_text;
  uint64_t explain_tallies[2] = {0, 0};  // owned, prepass
};

/// Statistics of one committed snapshot (persist.* metrics).
struct SnapshotWriteStats {
  uint64_t bytes = 0;
  uint64_t frames = 0;
};

/// Serializes `view` and atomically commits it to `path` (never leaves a
/// torn file at `path`). Injected persist faults surface as
/// kResourceExhausted / kDataLoss.
util::Status SaveEngineSnapshot(const EngineSnapshotView& view,
                                const std::string& path,
                                SnapshotWriteStats* stats = nullptr);

/// Commits one snapshot of a running detection to `path`. `view` carries
/// the engine's state; its observability parts are filled in here from
/// `report_rows`, `metrics` and `explain`, each only when enabled. A
/// commit is counted in persist.snapshot_writes /
/// persist.snapshot_bytes_total after it lands, so a frame never holds
/// its own commit.
util::Status CommitEngineSnapshot(
    EngineSnapshotView view, const std::string& path,
    const std::vector<DetectionReport::Row>& report_rows,
    obs::MetricsRegistry& metrics, const obs::ExplainLog& explain);

/// Loads, verifies, and decodes the snapshot at `path`:
///   kNotFound           — no snapshot (caller starts fresh);
///   kDataLoss           — torn, truncated, or checksum-corrupt, or
///                         candidate indices out of range or repeated;
///   kFailedPrecondition — valid snapshot of a different config,
///                         document, observability shape, or format
///                         version.
util::Result<EngineSnapshot> LoadEngineSnapshot(
    const std::string& path, const CheckpointFingerprint& expected);

// --- Frame codecs (exposed for the sxnm_snapshot inspector and tests) ----

void EncodeFingerprint(const CheckpointFingerprint& fp, persist::Encoder& enc);
util::Result<CheckpointFingerprint> DecodeFingerprint(
    std::string_view payload);

void EncodeCursor(const CheckpointCursor& cursor, persist::Encoder& enc);
util::Result<CheckpointCursor> DecodeCursor(std::string_view payload);

void EncodeGkTable(const GkTable& table, uint64_t candidate_index,
                   bool kg_done, persist::Encoder& enc);
util::Result<EngineSnapshot::GkState> DecodeGkTable(std::string_view payload);

void EncodeCandidateResult(const CandidateResult& result,
                           uint64_t candidate_index, persist::Encoder& enc);
util::Result<EngineSnapshot::CompletedCandidate> DecodeCandidateResult(
    std::string_view payload);

void EncodeClusterSet(const ClusterSet& clusters, persist::Encoder& enc);
util::Result<ClusterSet> DecodeClusterSet(persist::Decoder& dec);

void EncodeDegradation(const DegradationReport& degradation,
                       persist::Encoder& enc);
util::Result<DegradationReport> DecodeDegradation(std::string_view payload);

void EncodeReportRows(const std::vector<DetectionReport::Row>& rows,
                      persist::Encoder& enc);
util::Result<std::vector<DetectionReport::Row>> DecodeReportRows(
    std::string_view payload);

void EncodeMetricsSnapshot(const obs::MetricsSnapshot& snapshot,
                           persist::Encoder& enc);
util::Result<obs::MetricsSnapshot> DecodeMetricsSnapshot(
    std::string_view payload);

/// `table.SortedOrder(key_index)` computed out of core: every row travels
/// through the external sorter as a spill row — unlike the GkTable codec,
/// with its normalized OD values inline, so a row is self-contained — and
/// the sorter's (key, insertion-seq) merge reproduces the stable sort
/// exactly. Rows are fully decoded on the way back, which validates every
/// spilled byte. Spill faults, ENOSPC and corrupt run files are returned;
/// `stats` receives the sorter's counters.
util::Result<std::vector<size_t>> ExternalSortedOrder(
    const GkTable& table, size_t key_index,
    const extsort::ExtSortOptions& options, obs::Tracer& tracer,
    extsort::ExtSortStats* stats);

}  // namespace sxnm::core

#endif  // SXNM_SXNM_CHECKPOINT_H_
