// SXNM configuration model (Sec. 3.2 of the paper).
//
// The configuration mirrors the paper's relations exactly:
//   PATH_s(id, relPath)            -> PathEntry
//   OD_s(pid, relevance)           -> OdEntry (plus a φ function name)
//   KEY_{s,i}(pid, order, pattern) -> KeyDef / KeyPartRef
// together with the per-candidate knobs of Sec. 3.4 (window size,
// thresholds, whether descendants participate).

#ifndef SXNM_SXNM_CONFIG_H_
#define SXNM_SXNM_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sxnm/equational_theory.h"
#include "sxnm/key_pattern.h"
#include "text/similarity.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/xpath.h"

namespace sxnm::core {

/// One row of PATH_s: a relative path addressing a text node or attribute
/// of the candidate, referenced by OD and KEY entries through `id`.
struct PathEntry {
  int id = 0;
  std::string rel_path;  // original string form
  xml::XPath path;       // parsed form
};

/// One row of OD_s: which path participates in the object description and
/// with which relevance (weight) and φ^OD function.
struct OdEntry {
  int pid = 0;
  double relevance = 1.0;
  std::string similarity_name = "edit";
  text::SimilarityFn similarity;  // resolved from similarity_name
};

/// One row of KEY_{s,i}: a (pid, order, pattern) triple.
struct KeyPartRef {
  int pid = 0;
  int order = 0;
  KeyPattern pattern;
};

/// One key definition: its parts sorted by `order`.
struct KeyDef {
  std::vector<KeyPartRef> parts;
};

/// How OD similarity and descendant similarity combine into the final
/// classification (the paper computes the average; the exact thresholding
/// in Experiment set 3 is configurable here — see DESIGN.md).
enum class CombineMode {
  kOdOnly,    // ignore descendants entirely
  kAverage,   // combined = (od + desc)/2 when descendants exist, else od
  kWeighted,  // combined = w*od + (1-w)*desc
  kDescBoost, // desc >= desc_threshold counts as fully similar children
              // (desc' = 1), else desc' = desc; combined = (od + desc')/2
  kDescGate,  // duplicate iff od >= od_threshold AND desc >= desc_threshold
              // (children must overlap at least a little — kills false
              // positives like series CDs, the Fig. 6(b) use of the
              // descendants threshold)
};

const char* CombineModeName(CombineMode mode);
util::Result<CombineMode> ParseCombineMode(std::string_view name);

/// How the comparison neighborhood is formed during the sliding-window
/// phase (Sec. 5 outlook cites [20] for dynamically adapted windows).
enum class WindowPolicy {
  kFixed,             // classic SNM: fixed window of `window_size`
  kAdaptivePrefix,    // fixed base window + extension within equal-key-
                      // prefix blocks, up to `max_window`
};

const char* WindowPolicyName(WindowPolicy policy);
util::Result<WindowPolicy> ParseWindowPolicy(std::string_view name);

struct ClassifierConfig {
  /// Pairs with combined similarity >= this are duplicates. In kOdOnly
  /// mode this is exactly the paper's "OD threshold".
  double od_threshold = 0.75;

  /// The paper's "descendants threshold" (Experiment set 3); used by
  /// kDescBoost.
  double desc_threshold = 0.5;

  /// OD weight for kWeighted.
  double od_weight = 0.5;

  CombineMode mode = CombineMode::kAverage;
};

/// Everything the algorithm knows about one candidate (one XML schema
/// element type subject to deduplication).
struct CandidateConfig {
  std::string name;               // unique, e.g. "movie"
  std::string absolute_path_str;  // e.g. "movie_database/movies/movie"
  xml::XPath absolute_path;

  std::vector<PathEntry> paths;
  std::vector<OdEntry> od;
  std::vector<KeyDef> keys;

  size_t window_size = 10;

  /// Adaptive-window knobs (used when window_policy == kAdaptivePrefix):
  /// the neighborhood extends past window_size while sort keys share a
  /// `adaptive_prefix_len`-character prefix, but never beyond
  /// `max_window`.
  WindowPolicy window_policy = WindowPolicy::kFixed;
  size_t adaptive_prefix_len = 4;
  size_t max_window = 100;

  ClassifierConfig classifier;

  /// "information about when not to use descendants" (Sec. 3.4): when
  /// false, descendants are ignored for this candidate even if present.
  bool use_descendants = true;

  /// DE-SNM-style exact-duplicate pre-pass (the paper's outlook, Sec. 5,
  /// citing [19]): instances whose whole normalized object description is
  /// byte-identical are accepted as duplicates before windowing, without
  /// any similarity computation. Escapes the window-size limit inside
  /// long runs of equal keys (e.g. identical track titles). Off by
  /// default; recommended for leaf candidates whose OD is a single text
  /// value.
  bool exact_od_prepass = false;

  /// Optional equational theory (outlook, Sec. 5). When non-empty, rule
  /// evaluation replaces the threshold classification: a pair is a
  /// duplicate iff some rule's conditions all hold over the per-component
  /// OD similarities (and optionally the descendant similarity).
  EquationalTheory theory;

  /// Resolves a pid to its PathEntry, nullptr when absent.
  const PathEntry* FindPath(int pid) const;
};

/// Observability switches for a detection run (the `sxnm_obs` layer).
/// With `metrics` on, the detector collects engine-wide counters and
/// histograms plus the per-candidate × per-pass DetectionReport; with a
/// trace path set, it records phase/pass spans and writes a Chrome
/// trace_event JSON there. Everything off (the default) routes the hot
/// paths through no-op handles — observability costs nothing unless
/// asked for.
struct ObservabilityConfig {
  /// Collect metrics and build DetectionResult::report / ::metrics.
  bool metrics = false;

  /// When non-empty, write a chrome://tracing / Perfetto compatible
  /// trace of the run to this path.
  std::string trace_path;

  /// When non-empty, serialize the DetectionReport as JSON to this path
  /// (requires `metrics`; validated).
  std::string report_path;

  /// When non-empty, write the decision-provenance log (one NDJSON
  /// record per pair classification, plus instance headers, shed
  /// notices and cluster lineage) to this path (requires `metrics`;
  /// validated). Output is byte-identical for any num_threads.
  std::string explain_path;

  /// When non-empty, a background sampler streams periodic NDJSON
  /// telemetry samples (counter rates, phase progress/ETA, RSS) to
  /// this path while the run executes (requires `metrics`; validated).
  /// The time series is wall-clock-driven and non-deterministic, but
  /// enabling it never changes detection output.
  std::string telemetry_path;

  /// Sampling period for the telemetry stream, in milliseconds.
  double telemetry_interval_ms = 250.0;

  /// When non-empty, charge each span's exact thread CPU to its span
  /// path for the duration of the detection and write a
  /// flamegraph.pl-compatible folded-stack profile (self CPU in µs) to
  /// this path (see docs/OBSERVABILITY.md and tools/sxnm_flame). With
  /// `metrics` on, the per-span-path breakdown is additionally embedded
  /// as the report's "profile" block. Profiling only observes:
  /// detection output is bit-identical with it on or off, for any
  /// num_threads.
  std::string profile_path;

  bool any() const { return metrics || !trace_path.empty(); }
};

/// Crash-consistent checkpointing for a detection run (`<checkpoint>` in
/// config XML; format in src/persist). With a non-empty path the
/// detector commits an atomic snapshot of its resident state — GK
/// relations, completed candidate results and cluster sets, degradation
/// and report rows, metrics, explain log, pass cursor — after key
/// generation and (with `every_pass`) after every completed bottom-up
/// candidate level. A later run pointed at the same path resumes from
/// the last durable snapshot and produces clusters, counters, and
/// explain output bit-identical to an uninterrupted run, for any
/// num_threads. Snapshots are fingerprinted against config + document;
/// resuming against different input refuses with kFailedPrecondition,
/// and a torn or corrupt snapshot fails with kDataLoss (never silently
/// recomputed — delete the file to start fresh). A successful run
/// removes its checkpoint file.
struct CheckpointConfig {
  /// Snapshot file path; empty (default) disables checkpointing.
  std::string path;

  /// True (default): snapshot after every completed candidate level —
  /// the run's pass-boundary durability points. False: snapshot only
  /// once, after key generation.
  bool every_pass = true;

  bool enabled() const { return !path.empty(); }
};

/// Resource governance for a run: hard ingestion limits (applied by the
/// tools and examples when they parse data documents) plus a comparison
/// budget / deadline for the detection phases. Everything defaults to
/// "ungoverned": the zero-cost path when nothing is configured.
struct RunLimits {
  // --- Ingestion (mirrors xml::ParseOptions; 0 = unlimited) ---------------
  size_t max_depth = 10'000;
  size_t max_input_bytes = 0;
  size_t max_nodes = 0;
  size_t max_attr_count = 1'000;

  /// Parse data documents in recovering mode: malformed subtrees are
  /// skipped with diagnostics instead of failing the whole file.
  bool recover_parse = false;

  // --- Detection governance -----------------------------------------------

  /// Hard cap on planned window comparisons across the whole run
  /// (0 = unlimited). Exceeding it sheds work deterministically:
  /// passes run in full in deterministic order until the budget is hit,
  /// the boundary pass shrinks its window to the largest size that still
  /// fits, and every later pass is skipped. The shed set is a pure
  /// function of config + data — identical for any num_threads.
  size_t max_comparisons = 0;

  /// Soft run deadline in seconds (0 = none). With a positive
  /// `comparisons_per_second`, the deadline converts ONCE at run start
  /// into a comparison budget (seconds × rate) and degrades exactly like
  /// max_comparisons — deterministically. With rate = 0, the deadline is
  /// enforced cooperatively against the wall clock: passes stop early at
  /// the next poll once it expires. Cooperative results are always
  /// well-formed but the cut point depends on machine speed.
  double deadline_seconds = 0.0;

  /// Deadline-to-budget conversion rate (pairs/second). The default is a
  /// conservative estimate of the comparison kernel's throughput; 0
  /// selects cooperative wall-clock enforcement.
  double comparisons_per_second = 1e6;

  /// The xml::ParseOptions equivalent of the ingestion limits.
  xml::ParseOptions ToParseOptions() const;

  /// True when any detection-phase governance is configured.
  bool HasGovernance() const {
    return max_comparisons != 0 || deadline_seconds > 0.0;
  }

  /// The comparison budget the detector resolves at run start: the
  /// stricter of max_comparisons and the deadline-derived budget
  /// (0 = none). Pure function of this struct.
  size_t ResolveComparisonBudget() const;

  /// Range validation (rates and deadlines non-negative, ...).
  util::Status Validate() const;
};

/// The full parameter set P = union of P_s over all candidates.
class Config {
 public:
  Config() = default;

  /// Adds a candidate. Fails on duplicate names.
  util::Status AddCandidate(CandidateConfig candidate);

  const std::vector<CandidateConfig>& candidates() const {
    return candidates_;
  }
  std::vector<CandidateConfig>& mutable_candidates() { return candidates_; }

  /// Candidate by name; nullptr when absent.
  const CandidateConfig* Find(std::string_view name) const;
  CandidateConfig* Find(std::string_view name);

  /// Worker threads for the duplicate-detection phase: window passes and
  /// independent candidates at the same forest depth run concurrently; the
  /// merge of pass results is deterministic, so any thread count produces
  /// the same detection result. 1 = serial (default), 0 = all hardware
  /// threads.
  size_t num_threads() const { return num_threads_; }
  void set_num_threads(size_t n) { num_threads_ = n; }

  /// Key-range shards per sliding-window pass. Each shard owns a
  /// contiguous range of entering positions of the sorted order
  /// (shard_plan.h); merged clusters, counters, and explain output are
  /// bit-identical for any shard count, so — like num_threads — this is
  /// a run-shape knob, excluded from the checkpoint fingerprint.
  /// 1 = unsharded (default).
  size_t shards() const { return shards_; }
  void set_shards(size_t n) { shards_ = n; }

  /// In-memory budget (bytes) for each pass's sort of the GK relation.
  /// 0 (default) keeps the historical fully-resident std::stable_sort;
  /// > 0 routes pass sorts through the external sorter (src/extsort),
  /// which spills budget-bounded sorted runs to disk and k-way merges
  /// them. Output is bit-identical either way for any budget.
  uint64_t memory_budget_bytes() const { return memory_budget_bytes_; }
  void set_memory_budget_bytes(uint64_t b) { memory_budget_bytes_ = b; }

  /// Directory for external-sort spill files; empty (default) = the
  /// process temp directory. Only consulted when memory_budget_bytes
  /// > 0.
  const std::string& spill_dir() const { return spill_dir_; }
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }

  /// Observability switches (metrics registry, tracing, report files).
  const ObservabilityConfig& observability() const { return observability_; }
  ObservabilityConfig& mutable_observability() { return observability_; }

  /// Resource-governance limits (<limits>/<deadline> in config XML).
  const RunLimits& limits() const { return limits_; }
  RunLimits& mutable_limits() { return limits_; }

  /// Checkpoint/resume settings (<checkpoint> in config XML).
  const CheckpointConfig& checkpoint() const { return checkpoint_; }
  CheckpointConfig& mutable_checkpoint() { return checkpoint_; }

  /// Structural validation: every candidate has >= 1 key and >= 1 OD
  /// entry, every pid resolves, relevancies are positive, window sizes
  /// >= 2, thresholds within [0, 1], similarity functions resolved.
  util::Status Validate() const;

 private:
  std::vector<CandidateConfig> candidates_;
  size_t num_threads_ = 1;
  size_t shards_ = 1;
  uint64_t memory_budget_bytes_ = 0;
  std::string spill_dir_;
  ObservabilityConfig observability_;
  RunLimits limits_;
  CheckpointConfig checkpoint_;
};

/// Fluent construction helper used by examples, tests, and benches:
///
///   auto movie = CandidateBuilder("movie", "movies/movie")
///                    .Path(1, "title/text()")
///                    .Path(3, "@year")
///                    .Od(1, 0.8).Od(3, 0.2, "numeric:10")
///                    .Key({{1, "K1,K2"}, {3, "D3,D4"}})
///                    .Window(10)
///                    .OdThreshold(0.75)
///                    .Build();
class CandidateBuilder {
 public:
  CandidateBuilder(std::string name, std::string absolute_path);

  CandidateBuilder& Path(int id, std::string rel_path);
  CandidateBuilder& Od(int pid, double relevance,
                       std::string similarity = "edit");
  /// One key: ordered (pid, pattern) pairs; order is the list position.
  CandidateBuilder& Key(std::vector<std::pair<int, std::string>> parts);
  CandidateBuilder& Window(size_t window_size);
  /// Enables the adaptive-prefix window policy.
  CandidateBuilder& AdaptiveWindow(size_t prefix_len, size_t max_window);
  CandidateBuilder& OdThreshold(double threshold);
  CandidateBuilder& DescThreshold(double threshold);
  CandidateBuilder& OdWeight(double weight);
  CandidateBuilder& Mode(CombineMode mode);
  CandidateBuilder& UseDescendants(bool use);
  CandidateBuilder& ExactOdPrepass(bool enable);
  /// Adds one equational-theory rule: conditions as (pid, min_similarity)
  /// pairs; use RuleCondition::kDescendants (-1) as pid for a condition
  /// on the descendant similarity.
  CandidateBuilder& TheoryRule(std::vector<std::pair<int, double>> conditions);

  /// Returns the candidate or the first accumulated error.
  util::Result<CandidateConfig> Build();

 private:
  CandidateConfig candidate_;
  util::Status first_error_;
  std::string abs_path_pending_;
};

}  // namespace sxnm::core

#endif  // SXNM_SXNM_CONFIG_H_
