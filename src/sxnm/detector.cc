#include "sxnm/detector.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "extsort/extsort.h"
#include "obs/explain.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "persist/io.h"
#include "sxnm/checkpoint.h"
#include "sxnm/shard_plan.h"
#include "sxnm/similarity_measure.h"
#include "sxnm/sliding_window.h"
#include "sxnm/transitive_closure.h"
#include "text/myers.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/flat_set.h"
#include "util/parallel.h"

namespace sxnm::core {

using util::Result;
using util::Status;

const CandidateResult* DetectionResult::Find(std::string_view name) const {
  for (const CandidateResult& c : candidates) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

size_t DetectionResult::TotalComparisons() const {
  size_t total = 0;
  for (const CandidateResult& c : candidates) total += c.comparisons;
  return total;
}

namespace {

// One word per pair for the pre-pass's hash set (ordinals stay < 2^32).
uint64_t PackPair(OrdinalPair pair) {
  return (static_cast<uint64_t>(pair.first) << 32) |
         static_cast<uint64_t>(pair.second);
}

// Bucket of a score under DefaultSimilarityBounds(), placed like
// Histogram::Observe, so sim_buckets agree with sw.similarity.
size_t SimilarityBucket(double value) {
  static const std::vector<double> bounds = obs::DefaultSimilarityBounds();
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

// The governor's verdict for one window pass. The WindowPlan base is the
// neighborhood the pass enumerates.
struct PassPlan : WindowPlan {
  bool skip = false;    // pass elided entirely (window 0)
  bool shrunk = false;  // boundary pass: window reduced to fit the budget
  size_t planned = 0;   // WindowPairCount(instances, configured window)
};

// One (pass, shard) task's output, written by exactly one worker.
struct ShardWork {
  Status status;
  bool stopped_early = false;  // cancellation or deadline cut the shard
  PassStats stats;
  size_t owned_comparisons = 0;  // visited, windowed by no earlier pass
  std::vector<OrdinalPair> duplicates;  // in visit order
  // `owned` pair records in visit order. A pass's shard logs in shard
  // order reproduce the unsharded visit order (the shard_plan.h owner
  // rule), so the explain bytes do not depend on the shard count.
  obs::ExplainLog explain{false};
};

// One window pass of a candidate. The order stage computes its order and
// inverse rank once (for skipped passes only with the explain log on,
// whose instance records carry per-pass ranks).
struct PassRun {
  PassPlan plan;
  std::vector<size_t> order;
  std::vector<uint32_t> rank;  // rank[ordinal] = position in `order`
  Status order_status;
  extsort::ExtSortStats sort_stats;  // zero unless sorted out of core
  std::vector<ShardWork> shards;
  PassStats stats;  // the shards' stats, reduced after the window stage
  bool stopped_early = false;
};

// Per-candidate state for one depth level of the bottom-up order.
struct CandidateRun {
  size_t index = 0;  // candidate index t within the forest
  const CandidateInstances* instances = nullptr;
  const CandidateConfig* cand = nullptr;
  const GkTable* table = nullptr;
  std::unique_ptr<SimilarityMeasure> measure;
  // False when cancellation cut key generation: every pass is skipped (a
  // partial GK relation would make the windowing depend on the cut).
  bool kg_ok = true;
  // DE-SNM exact-OD pre-pass: byte-identical normalized ODs are duplicates.
  util::FlatU64Set prepass_pairs;
  std::vector<OrdinalPair> prepass_accepted;
  std::vector<ShardSlice> shard_plan;  // owned entering ranges
  std::vector<PassRun> passes;  // one per key, in definition order
};

using PassTask = std::pair<size_t, size_t>;

// Links every instance whose normalized ODs equal an earlier instance's to
// the group's first instance. Key generation and the snapshot decode both
// intern every OD value, so equal pool-ID tuples mean equal bytes.
void RunExactOdPrepass(CandidateRun& run) {
  const GkTable& table = *run.table;
  std::unordered_map<std::string, size_t> first_of;
  first_of.reserve(table.rows.size());
  std::string key;
  for (const GkRow& row : table.rows) {
    key.clear();
    for (const OdRef& ref : row.norm_ods) {
      uint32_t id = ref.id;
      key.append(reinterpret_cast<const char*>(&id), sizeof(id));
    }
    auto [it, inserted] = first_of.emplace(key, row.ordinal);
    if (!inserted) {
      OrdinalPair pair = std::minmax(it->second, row.ordinal);
      run.prepass_pairs.Insert(PackPair(pair));
      run.prepass_accepted.push_back(pair);
    }
  }
}

// Resource governance of one run. A deadline with a positive rate becomes
// a comparison budget here, once, so the shed work set is a pure function
// of config + data; rate 0 keeps a live deadline, polled cooperatively.
struct Governor {
  Governor(const RunLimits& limits, const util::CancellationToken& token)
      : token(token),
        budget(limits.ResolveComparisonBudget()),
        wallclock_mode(limits.deadline_seconds > 0.0 &&
                       limits.comparisons_per_second == 0.0),
        deadline(wallclock_mode ? util::Deadline::After(limits.deadline_seconds)
                                : util::Deadline::Infinite()),
        interruptible(token.can_be_cancelled() || deadline.has_deadline()),
        // Which governance source binds first, for the degradation reason.
        budget_reason(limits.deadline_seconds > 0.0 &&
                              (limits.max_comparisons == 0 ||
                               budget < limits.max_comparisons)
                          ? util::StatusCode::kDeadlineExceeded
                          : util::StatusCode::kResourceExhausted) {}

  void Observe() {  // sticky
    if (token.cancelled()) cancelled = true;
    if (deadline.expired()) wall_expired = true;
  }

  // Cut work is timing-dependent: never checkpointed, re-run on resume.
  bool cut() const { return cancelled || wall_expired; }

  // Plans one pass, in deterministic order: passes run in full while the
  // planned cost fits the budget, the first that does not shrinks to the
  // largest window that fits (the paper's own knob), the rest are skipped.
  PassPlan Plan(const CandidateConfig& cand, size_t rows, bool kg_ok) {
    PassPlan plan;
    plan.planned = WindowPairCount(rows, cand.window_size);
    if (token.cancelled()) cancelled = true;
    plan.skip = !kg_ok || cut() || (budget > 0 && budget_exhausted);
    if (plan.skip) return plan;
    plan.window = cand.window_size;
    if (budget > 0 && budget_spent + plan.planned > budget) {
      // A shrunk pass stays fixed: adaptive extension would overrun it.
      budget_exhausted = true;
      plan.window = LargestWindowWithin(rows, cand.window_size,
                                        budget - budget_spent);
      plan.shrunk = plan.window >= 2;
      plan.skip = !plan.shrunk;
      if (plan.shrunk) budget_spent += WindowPairCount(rows, plan.window);
      return plan;
    }
    if (budget > 0) budget_spent += plan.planned;
    plan.adaptive = cand.window_policy == WindowPolicy::kAdaptivePrefix;
    if (plan.adaptive) {
      plan.max_window = cand.max_window;
      plan.prefix_len = cand.adaptive_prefix_len;
    }
    return plan;
  }

  const util::CancellationToken& token;
  const size_t budget;
  const bool wallclock_mode;
  const util::Deadline deadline;
  const bool interruptible;
  const util::StatusCode budget_reason;
  bool cancelled = false;
  bool wall_expired = false;
  size_t budget_spent = 0;
  bool budget_exhausted = false;
};

// True when an earlier, enumerating pass windows the pair: it counts it.
bool WindowedEarlier(const CandidateRun& run, size_t key_index, size_t a,
                     size_t b) {
  for (size_t j = 0; j < key_index; ++j) {
    const PassRun& earlier = run.passes[j];
    if (earlier.plan.skip) continue;
    auto key_of = [&](size_t ordinal) -> const std::string& {
      return run.table->rows[ordinal].keys[j];
    };
    if (Windowed(earlier.plan, earlier.rank, key_of, a, b)) return true;
  }
  return false;
}

// Publishes one shard's tallies from its worker thread, so each add lands
// on that worker's own metric shard.
void PublishShardMetrics(const PassStats& stats,
                         obs::MetricsRegistry& metrics) {
  metrics.counter("sw.pairs_windowed").Add(stats.pairs_windowed);
  metrics.counter("sw.prepass_skips").Add(stats.prepass_skips);
  metrics.counter("sw.comparisons").Add(stats.comparisons);
  metrics.counter("sw.hits").Add(stats.hits);
  metrics.counter("sw.ed_bailouts").Add(stats.ed_bailouts);
  metrics.counter("sw.desc_jaccard").Add(stats.desc_invocations);
  metrics.counter("sw.desc_short_circuits").Add(stats.desc_short_circuits);
  metrics.counter("sw.interned_equal").Add(stats.interned_equal);
  metrics.counter("text.myers_words").Add(stats.myers_words);
  metrics.histogram("sw.pass_seconds", obs::DefaultTimeBounds())
      .Observe(stats.wall_seconds);
}

// One shard of one window pass: classifies every windowed pair entering
// in the shard's owned range that the pre-pass has not accepted. A pair
// windowed by several passes is classified by each but counted as a
// distinct comparison by the first only. Shards share read-only state.
void RunWindowPass(CandidateRun& run, size_t key_index, size_t shard,
                   const Governor& gov, obs::MetricsRegistry& metrics,
                   obs::Tracer& tracer) {
  const PassRun& pass = run.passes[key_index];
  const PassPlan& plan = pass.plan;
  ShardWork& work = run.passes[key_index].shards[shard];
  if (plan.skip) return;
  if (util::FaultInjector::Instance().ShouldFail("detector.pass")) {
    work.status = Status::Internal(
        "injected fault: window pass " + std::to_string(key_index + 1) +
        " of candidate '" + run.cand->name + "' failed");
    return;
  }
  if (gov.interruptible && (gov.token.cancelled() || gov.deadline.expired())) {
    work.stopped_early = true;  // shed before enumerating
    return;
  }
  const ShardSlice& slice = run.shard_plan[shard];
  obs::Tracer::Span span = tracer.StartSpan(
      run.cand->name + "/pass" + std::to_string(key_index + 1) +
      (run.shard_plan.size() > 1 ? "/shard" + std::to_string(shard)
                                 : std::string()));
  util::Stopwatch watch;
  const GkTable& table = *run.table;
  PassStats& stats = work.stats;
  obs::ExplainLog* explain_log =
      work.explain.enabled() ? &work.explain : nullptr;
  obs::PairExplain trace;
  const std::vector<xml::ElementId>& eids = run.instances->eids;
  obs::Histogram* sim_hist = nullptr;
  if (metrics.enabled()) {
    sim_hist =
        &metrics.histogram("sw.similarity", obs::DefaultSimilarityBounds());
    stats.sim_buckets.assign(obs::DefaultSimilarityBounds().size() + 1, 0);
  }
  // One worker thread runs the shard, so this brackets its kernel work.
  const uint64_t myers_before = text::ThreadMyersStats().words;
  // Live progress in batches; the total equals sw.pairs_windowed.
  obs::Counter* pairs_done =
      metrics.enabled() ? &metrics.counter("sw.pairs_done") : nullptr;
  uint32_t pairs_done_pending = 0;
  constexpr uint32_t kPairsDoneBatch = 1024;

  auto visit = [&](size_t a, size_t b) {
    if (pairs_done != nullptr && ++pairs_done_pending >= kPairsDoneBatch) {
      pairs_done->Add(pairs_done_pending);
      pairs_done_pending = 0;
    }
    OrdinalPair pair = std::minmax(a, b);
    if (!run.prepass_pairs.empty() &&
        run.prepass_pairs.Contains(PackPair(pair))) {
      ++stats.prepass_skips;
      return;
    }
    if (!WindowedEarlier(run, key_index, a, b)) ++work.owned_comparisons;
    SimilarityVerdict verdict =
        run.measure->Decide(table.rows[pair.first], table.rows[pair.second],
                            explain_log != nullptr ? &trace : nullptr);
    ++stats.comparisons;
    if (verdict.is_duplicate) {
      ++stats.hits;
      work.duplicates.push_back(pair);
    }
    if (verdict.pruned) ++stats.ed_bailouts;
    if (verdict.desc_evaluated) ++stats.desc_invocations;
    if (verdict.desc_short_circuit) ++stats.desc_short_circuits;
    stats.interned_equal += verdict.interned_equal;
    if (sim_hist != nullptr) {
      sim_hist->Observe(verdict.combined);
      ++stats.sim_buckets[SimilarityBucket(verdict.combined)];
    }
    if (explain_log != nullptr) {
      uint32_t ra = pass.rank[a];
      uint32_t rb = pass.rank[b];
      explain_log->AppendPair(
          run.cand->name, static_cast<int>(key_index), pair.first,
          pair.second, static_cast<size_t>(eids[pair.first]),
          static_cast<size_t>(eids[pair.second]), ra > rb ? ra - rb : rb - ra,
          obs::PairProvenance::kOwned, &trace, verdict.is_duplicate);
    }
  };
  // The backward scan reads context rows across the shard's left edge, so
  // the shard streams in shard order are the unsharded enumeration.
  auto enumerate = [&](auto&& stop) {
    if (!plan.adaptive) {
      return ForEachWindowPair(pass.order, plan.window, slice.owned_begin,
                               slice.owned_end, stop, visit);
    }
    auto key_of = [&](size_t ordinal) -> const std::string& {
      return table.rows[ordinal].keys[key_index];
    };
    return ForEachAdaptiveWindowPair(
        pass.order, key_of, plan.window, plan.max_window, plan.prefix_len,
        slice.owned_begin, slice.owned_end, stop, visit);
  };
  obs::Tracer::Span classify_span = tracer.StartSpan("sw/classify");
  WindowRunResult outcome =
      gov.interruptible ? enumerate(InterruptPoll(gov.token, gov.deadline))
                        : enumerate(NeverStop{});
  classify_span.End();
  work.stopped_early = outcome.stopped_early;
  stats.pairs_windowed = outcome.pairs_visited;
  stats.myers_words = text::ThreadMyersStats().words - myers_before;
  stats.wall_seconds = watch.ElapsedSeconds();
  if (metrics.enabled()) {
    pairs_done->Add(pairs_done_pending);
    PublishShardMetrics(stats, metrics);
  }
  span.EndWithArgs("{\"pairs\": " + std::to_string(stats.pairs_windowed) +
                   ", \"comparisons\": " + std::to_string(stats.comparisons) +
                   ", \"hits\": " + std::to_string(stats.hits) + "}");
}

// A candidate's explain header, instance records (keys + per-pass ranks)
// and pre-pass pair records.
void EmitCandidateExplain(const CandidateRun& run, int depth,
                          obs::ExplainLog& explain) {
  const GkTable& table = *run.table;
  const std::vector<xml::ElementId>& eids = run.instances->eids;
  explain.AppendCandidate(run.cand->name, static_cast<size_t>(depth),
                          run.instances->NumInstances(),
                          run.cand->keys.size(), run.cand->window_size,
                          WindowPolicyName(run.cand->window_policy),
                          run.cand->classifier.od_threshold);
  std::vector<size_t> ranks(run.passes.size());
  for (size_t ordinal = 0; ordinal < table.rows.size(); ++ordinal) {
    for (size_t k = 0; k < run.passes.size(); ++k) {
      ranks[k] = run.passes[k].rank[ordinal];
    }
    explain.AppendInstance(run.cand->name, ordinal,
                           static_cast<size_t>(eids[ordinal]),
                           table.rows[ordinal].keys, ranks);
  }
  for (const auto& [a, b] : run.prepass_accepted) {
    explain.AppendPair(run.cand->name, /*pass=*/-1, a, b,
                       static_cast<size_t>(eids[a]),
                       static_cast<size_t>(eids[b]), /*window_distance=*/0,
                       obs::PairProvenance::kPrepass, /*detail=*/nullptr,
                       /*verdict=*/true);
  }
}

// Deterministic merge of one candidate's passes: the owned counts sum to
// the distinct comparisons, and the pre-pass accepts plus the shards'
// duplicates, sorted and de-duplicated, are the accepted pairs. Explain
// records follow in (pass, shard, visit) order.
void MergePasses(const CandidateRun& run, CandidateResult& result, int depth,
                 obs::MetricsRegistry& metrics, obs::ExplainLog& explain) {
  result.name = run.cand->name;
  result.num_instances = run.instances->NumInstances();
  if (explain.enabled()) EmitCandidateExplain(run, depth, explain);
  std::vector<OrdinalPair> accepted = run.prepass_accepted;
  for (const PassRun& pass : run.passes) {
    for (const ShardWork& work : pass.shards) {
      explain.AppendLog(work.explain);
      result.comparisons += work.owned_comparisons;
      accepted.insert(accepted.end(), work.duplicates.begin(),
                      work.duplicates.end());
    }
  }
  std::sort(accepted.begin(), accepted.end());
  accepted.erase(std::unique(accepted.begin(), accepted.end()),
                 accepted.end());
  result.duplicate_pairs = std::move(accepted);
  for (const auto& [a, b] : result.duplicate_pairs) {
    result.duplicate_eid_pairs.emplace_back(run.instances->eids[a],
                                            run.instances->eids[b]);
  }
  if (metrics.enabled()) {
    metrics.counter("sw.prepass_pairs").Add(run.prepass_accepted.size());
    metrics.counter("sw.unique_comparisons").Add(result.comparisons);
    metrics.counter("sw.unique_duplicates")
        .Add(result.duplicate_pairs.size());
  }
}

obs::TelemetryOptions TelemetryOptionsOf(const ObservabilityConfig& cfg) {
  obs::TelemetryOptions options;
  options.path = cfg.telemetry_path;
  options.interval_ms = cfg.telemetry_interval_ms;
  return options;
}

// One Detector::Run as stages over the run's state: setup (constructor) →
// Resume → GenerateKeys → RestoreLevels → per level (plan → order →
// window → merge → closure → commit) → Finish.
class DetectionRun {
 public:
  DetectionRun(const Config& config, const RunOptions& options,
               obs::Tracer& tracer);

  Status Resume(const xml::Document& doc);
  Status GenerateKeys(const xml::Document& doc);
  Status RestoreLevels();
  Status DetectLevels();
  Result<DetectionResult> Finish();

 private:
  void SetPhase(obs::RunPhase phase) {
    if (!metrics_.enabled()) return;
    metrics_.gauge("progress.phase")
        .Set(static_cast<double>(static_cast<int>(phase)));
  }

  Status DetectLevel(uint64_t level, int depth,
                     const std::vector<size_t>& members);
  std::vector<CandidateRun> PlanLevel(const std::vector<size_t>& members);
  Status OrderStage(std::vector<CandidateRun>& runs,
                    const std::vector<PassTask>& passes);
  Status WindowStage(std::vector<CandidateRun>& runs,
                     const std::vector<PassTask>& passes);
  void RecordPasses(const std::vector<CandidateRun>& runs);
  Status ClosureStage(const std::vector<CandidateRun>& runs);
  Status Commit(uint64_t levels_completed);

  const Config& config_;
  const ObservabilityConfig& obs_cfg_;
  obs::Tracer& tracer_;
  const size_t num_threads_;
  Governor gov_;
  DetectionResult result_;
  obs::MetricsRegistry metrics_;  // disabled handles are no-ops
  obs::ExplainLog explain_;
  obs::Tracer::Span run_span_;
  obs::TelemetrySampler telemetry_;  // read-only: never changes the output

  const std::string ckpt_path_;
  const bool ckpt_every_pass_;
  CheckpointFingerprint ckpt_fingerprint_;
  bool resumed_ = false;
  EngineSnapshot resume_;

  std::optional<CandidateForest> forest_;
  std::vector<GkTable> gk_;
  std::vector<char> kg_done_;  // 0 = key generation was shed
  std::map<int, std::vector<size_t>, std::greater<int>> levels_;
  uint64_t levels_restored_ = 0;
  // Merged results; parent levels read the closed levels' `clusters`.
  std::vector<CandidateResult> cand_results_;
  uint64_t spill_bytes_peak_ = 0;
  uint64_t merge_fanin_max_ = 0;
};

DetectionRun::DetectionRun(const Config& config, const RunOptions& options,
                           obs::Tracer& tracer)
    : config_(config),
      obs_cfg_(config.observability()),
      tracer_(tracer),
      num_threads_(util::ResolveNumThreads(config.num_threads())),
      gov_(config.limits(), options.cancellation),
      metrics_(obs_cfg_.metrics),
      explain_(!obs_cfg_.explain_path.empty()),
      run_span_(tracer.StartSpan("detect")),
      telemetry_(&metrics_, TelemetryOptionsOf(obs_cfg_)),
      ckpt_path_(!options.checkpoint_path.empty() ? options.checkpoint_path
                                                  : config.checkpoint().path),
      ckpt_every_pass_(!options.checkpoint_path.empty()
                           ? options.checkpoint_every_pass
                           : config.checkpoint().every_pass) {
  result_.degradation.comparison_budget = gov_.budget;
  if (!metrics_.enabled()) return;
  metrics_.gauge("engine.num_threads").Set(static_cast<double>(num_threads_));
  // Registered up front, so every snapshot and telemetry tick has them.
  metrics_.histogram("sw.similarity", obs::DefaultSimilarityBounds());
  SetPhase(obs::RunPhase::kSetup);
  metrics_.counter("kg.rows_done");
  metrics_.counter("sw.pairs_done");
  metrics_.counter("tc.edges_done");
  metrics_.gauge("kg.rows_total");
  metrics_.gauge("sw.pairs_planned_total");
}

// Loads the snapshot, if any, restores its observability state and starts
// telemetry. A snapshot of another config or document is refused; a torn
// or corrupt one is kDataLoss (recomputing would hide the data loss).
Status DetectionRun::Resume(const xml::Document& doc) {
  if (!ckpt_path_.empty()) {
    // Its own span: the document hash walks the whole DOM.
    obs::Tracer::Span fingerprint_span =
        tracer_.StartSpan("checkpoint_fingerprint");
    ckpt_fingerprint_.config_fingerprint = ConfigFingerprint(config_);
    ckpt_fingerprint_.doc_fingerprint = DocumentFingerprint(doc);
    fingerprint_span.End();
    ckpt_fingerprint_.metrics_enabled = metrics_.enabled();
    ckpt_fingerprint_.explain_enabled = explain_.enabled();
    obs::Tracer::Span load_span = tracer_.StartSpan("checkpoint_load");
    auto loaded = LoadEngineSnapshot(ckpt_path_, ckpt_fingerprint_);
    if (loaded.ok()) {
      resume_ = std::move(*loaded);
      resumed_ = true;
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  if (resumed_) {
    // Metrics continue from the cut; engine.num_threads reports this run
    // (resuming with another thread count is allowed).
    if (metrics_.enabled()) {
      metrics_.MergeFrom(resume_.metrics);
      metrics_.gauge("engine.num_threads")
          .Set(static_cast<double>(num_threads_));
      metrics_.counter("persist.resume_loads").Add(1);
      metrics_.counter("persist.resume_levels_restored")
          .Add(resume_.cursor.levels_completed);
    }
    explain_.Restore(std::move(resume_.explain_text),
                     resume_.explain_tallies[0], resume_.explain_tallies[1]);
    result_.timer.Add(kPhaseKeyGeneration, resume_.cursor.kg_seconds);
    result_.timer.Add(kPhaseSlidingWindow, resume_.cursor.sw_seconds);
    result_.timer.Add(kPhaseTransitiveClosure, resume_.cursor.tc_seconds);
    result_.degradation.passes = std::move(resume_.degradation.passes);
    result_.report.rows = std::move(resume_.report_rows);
  }
  if (obs_cfg_.telemetry_path.empty()) return Status::Ok();
  return telemetry_.Start();
}

// Key generation (KG): one read of the document builds the candidate
// forest and the GK tables, concurrently per candidate; a resumed run
// reads the tables back from the snapshot instead.
Status DetectionRun::GenerateKeys(const xml::Document& doc) {
  util::Stopwatch kg_watch;
  obs::Tracer::Span kg_span = tracer_.StartSpan("key_generation");
  SetPhase(obs::RunPhase::kKeyGeneration);
  auto forest_or = CandidateForest::Build(config_, doc);
  if (!forest_or.ok()) return forest_or.status();
  forest_.emplace(std::move(forest_or).value());
  const std::vector<CandidateInstances>& candidates = forest_->candidates();
  if (metrics_.enabled()) {
    // Pre-governance totals for the progress gauges (so the derived ETA is
    // an upper bound).
    size_t rows_total = 0;
    size_t pairs_total = 0;
    for (const CandidateInstances& ci : candidates) {
      rows_total += ci.NumInstances();
      pairs_total += ci.config->keys.size() *
                     WindowPairCount(ci.NumInstances(), ci.config->window_size);
    }
    metrics_.gauge("kg.rows_total").Set(static_cast<double>(rows_total));
    metrics_.gauge("sw.pairs_planned_total")
        .Set(static_cast<double>(pairs_total));
    metrics_.gauge("engine.num_candidates")
        .Set(static_cast<double>(candidates.size()));
  }

  gk_.resize(candidates.size());
  kg_done_.assign(candidates.size(), 0);
  if (resumed_) {
    // Every snapshot is taken at or after the post-KG durability point;
    // the fingerprint proved config + document identity, and the loader
    // checked the candidate indices.
    if (resume_.gk.size() != candidates.size()) {
      return Status::DataLoss(
          "corrupt snapshot: GK table count does not match the candidate "
          "forest");
    }
    for (EngineSnapshot::GkState& state : resume_.gk) {
      gk_[state.index] = std::move(state.table);
      kg_done_[state.index] = state.kg_done ? 1 : 0;
    }
  } else {
    std::vector<Status> kg_status(candidates.size());
    util::ParallelForCancellable(
        candidates.size(), num_threads_, gov_.token, [&](size_t t) {
          obs::Tracer::Span gen_span = tracer_.StartSpan("kg/generate");
          auto keys = GenerateKeysChecked(*candidates[t].config, candidates[t],
                                          gov_.token, &metrics_);
          gen_span.End();
          if (!keys.ok()) {
            kg_status[t] = keys.status();
          } else if (!keys->cancelled) {  // else: candidate shed
            gk_[t] = std::move(keys->table);
            kg_done_[t] = 1;
          }
        });
    // A genuine failure aborts the run (degradation is for shed work);
    // the lowest candidate index wins, deterministically.
    for (const Status& status : kg_status) SXNM_RETURN_IF_ERROR(status);
  }
  gov_.Observe();
  kg_span.End();
  result_.timer.Add(kPhaseKeyGeneration, kg_watch.ElapsedSeconds());
  return Status::Ok();
}

// Groups the candidates into levels by depth (the longest root distance,
// so children sit strictly deeper than parents) and restores the snapshot's
// completed ones, or commits the post-KG durability point.
Status DetectionRun::RestoreLevels() {
  for (size_t t : forest_->ProcessingOrder()) {
    levels_[forest_->candidates()[t].depth].push_back(t);
  }
  cand_results_.resize(forest_->candidates().size());
  if (!resumed_) {
    return ckpt_path_.empty() || gov_.cut() ? Status::Ok() : Commit(0);
  }
  // The governor continues from the cut, so it sheds the same passes.
  gov_.budget_spent = static_cast<size_t>(resume_.cursor.budget_spent);
  gov_.budget_exhausted = resume_.cursor.budget_exhausted;
  levels_restored_ = resume_.cursor.levels_completed;
  if (levels_restored_ > levels_.size()) {
    return Status::DataLoss(
        "corrupt snapshot: cursor names more levels than the forest has");
  }
  for (EngineSnapshot::CompletedCandidate& completed : resume_.completed) {
    cand_results_[completed.index] = std::move(completed.result);
  }
  return Status::Ok();
}

// Duplicate detection, level by level, deepest first, skipping the levels
// the snapshot restored.
Status DetectionRun::DetectLevels() {
  uint64_t level = 0;
  for (const auto& [depth, members] : levels_) {
    if (level++ < levels_restored_) continue;
    SXNM_RETURN_IF_ERROR(DetectLevel(level, depth, members));
  }
  return Status::Ok();
}

// One level; its passes and their shards are independent tasks.
Status DetectionRun::DetectLevel(uint64_t level, int depth,
                                 const std::vector<size_t>& members) {
  obs::Tracer::Span level_span =
      tracer_.StartSpan("level_" + std::to_string(depth));
  SetPhase(obs::RunPhase::kSlidingWindow);
  util::Stopwatch sw_watch;
  std::vector<CandidateRun> runs = PlanLevel(members);
  std::vector<PassTask> passes;  // (run, key)
  for (size_t r = 0; r < runs.size(); ++r) {
    for (size_t k = 0; k < runs[r].passes.size(); ++k) passes.push_back({r, k});
  }
  SXNM_RETURN_IF_ERROR(OrderStage(runs, passes));
  SXNM_RETURN_IF_ERROR(WindowStage(runs, passes));
  obs::Tracer::Span merge_span = tracer_.StartSpan("merge");
  for (const CandidateRun& run : runs) {
    MergePasses(run, cand_results_[run.index], depth, metrics_, explain_);
  }
  merge_span.End();
  result_.timer.Add(kPhaseSlidingWindow, sw_watch.ElapsedSeconds());
  RecordPasses(runs);
  SXNM_RETURN_IF_ERROR(ClosureStage(runs));
  // A level boundary is a consistent cut, committed unless the level was
  // cut or is the last (a successful run deletes the checkpoint anyway).
  bool commit = !ckpt_path_.empty() && ckpt_every_pass_ &&
                level < levels_.size() && !gov_.cut();
  return commit ? Commit(level) : Status::Ok();
}

// Plan stage, serial: similarity measures, the exact-OD pre-pass, the
// shard plan and the governor's verdict for every pass.
std::vector<CandidateRun> DetectionRun::PlanLevel(
    const std::vector<size_t>& members) {
  std::vector<CandidateRun> runs(members.size());
  for (size_t r = 0; r < members.size(); ++r) {
    CandidateRun& run = runs[r];
    run.index = members[r];
    run.instances = &forest_->candidates()[run.index];
    run.cand = run.instances->config;
    run.table = &gk_[run.index];
    std::vector<const ClusterSet*> child_sets;
    if (run.cand->use_descendants) {
      for (size_t child : run.instances->child_types) {
        child_sets.push_back(&cand_results_[child].clusters);
      }
    }
    run.measure = std::make_unique<SimilarityMeasure>(
        *run.cand, *run.instances, std::move(child_sets),
        &run.table->od_pool);
    run.kg_ok = kg_done_[run.index] != 0;
    if (run.cand->exact_od_prepass && run.kg_ok) RunExactOdPrepass(run);
    size_t n_inst = run.instances->NumInstances();
    size_t reach = run.cand->window_policy == WindowPolicy::kAdaptivePrefix
                       ? std::max(run.cand->max_window, run.cand->window_size)
                       : run.cand->window_size;
    run.shard_plan = ComputeShardPlan(n_inst, config_.shards(), reach);
    // One pass per key even when key generation was shed (each owes a
    // skipped degradation entry).
    run.passes.resize(run.cand->keys.size());
    for (PassRun& pass : run.passes) {
      pass.plan = gov_.Plan(*run.cand, n_inst, run.kg_ok);
      pass.shards.resize(run.shard_plan.size());
      for (ShardWork& work : pass.shards) {
        work.explain = obs::ExplainLog(explain_.enabled());
      }
    }
  }
  return runs;
}

// Order stage: every pass's order and ranks, in parallel. A memory budget
// covers the whole process, so the sorters get 1/16 of it, split by pass
// count (never thread count: extsort.* stays machine-independent).
Status DetectionRun::OrderStage(std::vector<CandidateRun>& runs,
                                const std::vector<PassTask>& passes) {
  const uint64_t memory_budget = config_.memory_budget_bytes();
  const uint64_t sorter_budget =
      memory_budget == 0
          ? 0
          : std::max<uint64_t>(
                memory_budget / (16 * std::max<size_t>(passes.size(), 1)),
                1);
  if (memory_budget > 0) SetPhase(obs::RunPhase::kExternalSort);
  util::ParallelFor(passes.size(), num_threads_, [&](size_t i) {
    auto [r, key_index] = passes[i];
    PassRun& pass = runs[r].passes[key_index];
    const GkTable& table = *runs[r].table;
    if (!runs[r].kg_ok || (pass.plan.skip && !explain_.enabled())) return;
    // Both paths yield one permutation; skipped passes sort resident.
    if (sorter_budget == 0 || pass.plan.skip) {
      obs::Tracer::Span sort_span = tracer_.StartSpan("sw/sort");
      pass.order = table.SortedOrder(key_index);
    } else {
      extsort::ExtSortOptions options;
      options.memory_budget_bytes = sorter_budget;
      options.temp_dir = config_.spill_dir();
      options.name = "sxnm." + runs[r].cand->name + ".pass" +
                     std::to_string(key_index + 1);
      options.metrics = metrics_.enabled() ? &metrics_ : nullptr;
      auto order = ExternalSortedOrder(table, key_index, options, tracer_,
                                       &pass.sort_stats);
      if (!order.ok()) {
        pass.order_status = order.status();
        return;
      }
      pass.order = std::move(order).value();
    }
    pass.rank.resize(pass.order.size());
    for (size_t pos = 0; pos < pass.order.size(); ++pos) {
      pass.rank[pass.order[pos]] = static_cast<uint32_t>(pos);
    }
  });
  for (const CandidateRun& run : runs) {
    for (const PassRun& pass : run.passes) {
      SXNM_RETURN_IF_ERROR(pass.order_status);
      const extsort::ExtSortStats& sorted = pass.sort_stats;
      spill_bytes_peak_ = std::max(spill_bytes_peak_, sorted.spill_bytes);
      merge_fanin_max_ = std::max(merge_fanin_max_, sorted.runs);
    }
  }
  if (metrics_.enabled() && memory_budget > 0) {
    SetPhase(obs::RunPhase::kSlidingWindow);
    metrics_.gauge("extsort.spill_bytes_peak")
        .Set(static_cast<double>(spill_bytes_peak_));
    metrics_.gauge("extsort.merge_fanin_max")
        .Set(static_cast<double>(merge_fanin_max_));
  }
  return Status::Ok();
}

// Window stage (SW): every (pass, shard) task in parallel, then the shard
// records reduce to per-pass stats.
Status DetectionRun::WindowStage(std::vector<CandidateRun>& runs,
                                 const std::vector<PassTask>& passes) {
  const size_t shards = config_.shards();  // every shard plan's size
  util::ParallelFor(passes.size() * shards, num_threads_, [&](size_t i) {
    auto [r, key_index] = passes[i / shards];
    RunWindowPass(runs[r], key_index, i % shards, gov_, metrics_, tracer_);
  });
  gov_.Observe();
  size_t sharded_passes = 0;
  size_t overlap_rows = 0;
  for (CandidateRun& run : runs) {
    for (PassRun& pass : run.passes) {
      // Wall seconds sum too: a report row holds the pass's worker time.
      for (const ShardWork& work : pass.shards) {
        SXNM_RETURN_IF_ERROR(work.status);
        pass.stats.Accumulate(work.stats);
        pass.stopped_early |= work.stopped_early;
      }
      if (pass.plan.skip) continue;
      ++sharded_passes;
      overlap_rows += ShardOverlapRows(run.shard_plan);
    }
  }
  // Run-shape telemetry, only when sharding is on: a shards=1 snapshot
  // stays identical to the unsharded engine's.
  if (metrics_.enabled() && shards > 1) {
    metrics_.gauge("shard.count").Set(static_cast<double>(shards));
    metrics_.counter("shard.tasks").Add(passes.size() * shards);
    metrics_.counter("shard.passes").Add(sharded_passes);
    metrics_.counter("shard.overlap_rows").Add(overlap_rows);
  }
  return Status::Ok();
}

// The level's report rows and degradation entries, in planning order; one
// rule covers skipped, shrunk and cut passes.
void DetectionRun::RecordPasses(const std::vector<CandidateRun>& runs) {
  for (const CandidateRun& run : runs) {
    for (size_t k = 0; k < run.passes.size(); ++k) {
      const PassRun& pass = run.passes[k];
      const PassPlan& plan = pass.plan;
      if (metrics_.enabled()) {
        result_.report.rows.push_back(
            {run.cand->name, k, run.instances->NumInstances(), pass.stats});
      }
      if (!plan.skip && !plan.shrunk && !pass.stopped_early) continue;
      size_t executed = plan.skip ? 0 : pass.stats.pairs_windowed;
      PassDegradation entry;
      entry.candidate = run.cand->name;
      entry.key_index = k;
      entry.skipped = plan.skip;
      entry.window_used = plan.window;
      entry.rows = run.instances->NumInstances();
      entry.pairs_planned = plan.planned;
      entry.pairs_elided =
          plan.planned > executed ? plan.planned - executed : 0;
      explain_.AppendShed(run.cand->name, static_cast<int>(k), plan.skip,
                          run.cand->window_size, plan.window, entry.rows,
                          entry.pairs_planned, entry.pairs_elided);
      result_.degradation.passes.push_back(std::move(entry));
    }
  }
}

// Transitive closure (TC), serially, with the explain lineage and clusters.
Status DetectionRun::ClosureStage(const std::vector<CandidateRun>& runs) {
  SetPhase(obs::RunPhase::kTransitiveClosure);
  for (const CandidateRun& run : runs) {
    if (util::FaultInjector::Instance().ShouldFail("tc.closure")) {
      return Status::Internal(
          "injected fault: transitive closure failed for candidate '" +
          run.cand->name + "'");
    }
    util::Stopwatch tc_watch;
    obs::Tracer::Span tc_span = tracer_.StartSpan("tc/" + run.cand->name);
    CandidateResult& cand_result = cand_results_[run.index];
    std::vector<MergeStep> lineage;
    cand_result.clusters = ComputeTransitiveClosure(
        run.instances->NumInstances(), cand_result.duplicate_pairs, &metrics_,
        explain_.enabled() ? &lineage : nullptr);
    for (const MergeStep& step : lineage) {
      explain_.AppendMerge(run.cand->name, step.pair.first, step.pair.second,
                           step.root_a, step.root_b, step.root, step.merged);
    }
    if (explain_.enabled()) {
      const ClusterSet& clusters = cand_result.clusters;
      for (const std::vector<size_t>& members :
           clusters.NonTrivialClusters()) {
        explain_.AppendCluster(run.cand->name,
                               static_cast<size_t>(clusters.cid(members[0])),
                               members);
      }
    }
    tc_span.End();
    result_.timer.Add(kPhaseTransitiveClosure, tc_watch.ElapsedSeconds());
  }
  return Status::Ok();
}

// Commits one durable snapshot of everything accumulated so far.
Status DetectionRun::Commit(uint64_t levels_completed) {
  obs::Tracer::Span ckpt_span = tracer_.StartSpan("checkpoint_write");
  EngineSnapshotView view;
  view.fingerprint = ckpt_fingerprint_;
  view.cursor.levels_completed = levels_completed;
  view.cursor.budget_spent = gov_.budget_spent;
  view.cursor.budget_exhausted = gov_.budget_exhausted;
  view.cursor.kg_seconds = result_.KeyGenerationSeconds();
  view.cursor.sw_seconds = result_.SlidingWindowSeconds();
  view.cursor.tc_seconds = result_.TransitiveClosureSeconds();
  view.gk = &gk_;
  view.kg_done = &kg_done_;
  uint64_t level = 0;
  for (const auto& [depth, members] : levels_) {
    if (level++ >= levels_completed) break;
    for (size_t t : members) view.completed.emplace_back(t, &cand_results_[t]);
  }
  view.degradation = &result_.degradation;
  return CommitEngineSnapshot(view, ckpt_path_, result_.report.rows, metrics_,
                              explain_);
}

// Assembles the result bottom-up, summarizes the degradation and exports
// the observability artifacts.
Result<DetectionResult> DetectionRun::Finish() {
  for (size_t t : forest_->ProcessingOrder()) {
    cand_results_[t].gk = std::move(gk_[t]);
    result_.candidates.push_back(std::move(cand_results_[t]));
  }
  gov_.Observe();
  DegradationReport& degradation = result_.degradation;
  if (!degradation.passes.empty()) {
    degradation.degraded = true;
    degradation.reason = gov_.cancelled ? util::StatusCode::kCancelled
                         : gov_.wallclock_mode && gov_.wall_expired
                             ? util::StatusCode::kDeadlineExceeded
                             : gov_.budget_reason;
  }
  if (metrics_.enabled()) {
    metrics_.counter("robust.degraded").Add(degradation.degraded ? 1 : 0);
    metrics_.counter("robust.passes_skipped")
        .Add(degradation.PassesSkipped());
    metrics_.counter("robust.passes_shrunk").Add(degradation.PassesShrunk());
    metrics_.counter("robust.rows_skipped").Add(degradation.RowsSkipped());
    metrics_.counter("robust.pairs_elided").Add(degradation.PairsElided());
    result_.report.degradation = degradation;
  }

  run_span_.End();
  if (!obs_cfg_.profile_path.empty()) {
    // Folded after every span charged its CPU; the returned profile also
    // covers the file commit.
    SXNM_RETURN_IF_ERROR(
        tracer_.CpuProfile().WriteFoldedFile(obs_cfg_.profile_path));
    result_.profile = tracer_.CpuProfile();
    if (metrics_.enabled()) result_.report.profile = result_.profile;
  }
  SetPhase(obs::RunPhase::kDone);
  // Stopped first, so its final sample equals result.metrics.
  SXNM_RETURN_IF_ERROR(telemetry_.Stop());
  if (tracer_.enabled()) {
    SXNM_RETURN_IF_ERROR(tracer_.WriteChromeTraceFile(obs_cfg_.trace_path));
  }
  if (metrics_.enabled()) {
    result_.metrics = metrics_.Snapshot();
    if (!obs_cfg_.report_path.empty()) {
      SXNM_RETURN_IF_ERROR(result_.report.WriteJsonFile(obs_cfg_.report_path));
    }
  }
  if (explain_.enabled()) {
    SXNM_RETURN_IF_ERROR(explain_.WriteFile(obs_cfg_.explain_path));
  }
  // A deterministically complete run (budget-shed ones included) has
  // nothing left to resume; a cut run keeps its snapshot for a later run.
  if (!ckpt_path_.empty() && !gov_.cut()) persist::RemoveFile(ckpt_path_);
  return std::move(result_);
}

}  // namespace

util::Result<DetectionResult> Detector::Run(const xml::Document& doc) const {
  return Run(doc, RunOptions());
}

util::Result<DetectionResult> Detector::Run(const xml::Document& doc,
                                            const RunOptions& options) const {
  // The tracer comes first, so a CPU profile covers the whole run.
  const ObservabilityConfig& obs_cfg = config_.observability();
  obs::Tracer tracer(!obs_cfg.trace_path.empty(),
                     !obs_cfg.profile_path.empty());
  SXNM_RETURN_IF_ERROR(config_.Validate());
  DetectionRun run(config_, options, tracer);
  SXNM_RETURN_IF_ERROR(run.Resume(doc));
  SXNM_RETURN_IF_ERROR(run.GenerateKeys(doc));
  SXNM_RETURN_IF_ERROR(run.RestoreLevels());
  SXNM_RETURN_IF_ERROR(run.DetectLevels());
  return run.Finish();
}

}  // namespace sxnm::core
