#include "sxnm/detector.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "extsort/extsort.h"
#include "obs/explain.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "persist/io.h"
#include "persist/snapshot.h"
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
#include "util/string_util.h"

namespace sxnm::core {

using util::Result;
using util::Status;

const CandidateResult* DetectionResult::Find(std::string_view name) const {
  for (const CandidateResult& c : candidates) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

double DetectionResult::KeyGenerationSeconds() const {
  return timer.Seconds(kPhaseKeyGeneration);
}

double DetectionResult::SlidingWindowSeconds() const {
  return timer.Seconds(kPhaseSlidingWindow);
}

double DetectionResult::TransitiveClosureSeconds() const {
  return timer.Seconds(kPhaseTransitiveClosure);
}

double DetectionResult::DuplicateDetectionSeconds() const {
  return SlidingWindowSeconds() + TransitiveClosureSeconds();
}

size_t DetectionResult::TotalComparisons() const {
  size_t total = 0;
  for (const CandidateResult& c : candidates) total += c.comparisons;
  return total;
}

namespace {

// Pairs are packed into one word for the flat hash sets of the merge
// (ordinals beyond 2^32 instances per candidate are far outside any
// supported document size).
uint64_t PackPair(OrdinalPair pair) {
  return (static_cast<uint64_t>(pair.first) << 32) |
         static_cast<uint64_t>(pair.second);
}

// One windowed pair as recorded by a pass worker. Only the verdict's
// classification survives into the merge; everything else about the
// verdict is pair-deterministic and need not be kept (the explain log's
// record of it is written by the worker itself). The pair is stored
// pre-packed (what the merge's dedup set keys on anyway), keeping the
// struct at 16 bytes — every windowed pair writes one of these, so the
// hit buffers are the largest per-pass memory stream.
struct PassHit {
  uint64_t packed;  // PackPair of the ordinal pair
  bool is_duplicate;

  OrdinalPair pair() const {
    return {static_cast<size_t>(packed >> 32),
            static_cast<size_t>(packed & 0xffffffffull)};
  }
};

// Bucket index of a similarity score under DefaultSimilarityBounds(),
// matching Histogram::Observe's lower_bound placement so the per-pass
// sim_buckets and the engine-wide sw.similarity histogram agree.
size_t SimilarityBucket(double value) {
  static const std::vector<double> bounds = obs::DefaultSimilarityBounds();
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

// The governor's verdict for one window pass, fixed at level setup time
// (serially, in deterministic pass order) before any worker runs.
struct PassPlan {
  bool skip = false;     // pass elided entirely
  bool shrunk = false;   // boundary pass: window reduced to fit the budget
  size_t window = 0;     // window to run with (0 when skipped)
  size_t planned = 0;    // WindowPairCount(instances, configured window)
};

// Per-candidate state for one depth level of the bottom-up order.
struct CandidateRun {
  size_t index = 0;  // candidate index t within the forest
  const CandidateInstances* instances = nullptr;
  const CandidateConfig* cand = nullptr;
  const GkTable* table = nullptr;
  std::unique_ptr<SimilarityMeasure> measure;

  // False when key generation for this candidate was cut off by
  // cancellation: every pass is then skipped (a partial GK relation would
  // make the windowing depend on where the cut landed).
  bool kg_ok = true;

  // DE-SNM exact-OD pre-pass output: byte-identical normalized ODs are
  // duplicates by definition. Both sets are read-only while the window
  // passes run.
  util::FlatU64Set prepass_pairs;
  std::vector<OrdinalPair> prepass_accepted;

  // pass_orders[key_index]: the pass's sorted order, computed once in
  // the level's order stage (in-memory stable sort, or the external
  // sorter when a memory budget is set — bit-identical either way) and
  // read by every shard of the pass plus the explain emitter.
  std::vector<std::vector<size_t>> pass_orders;

  // pass_hits[key_index][shard]: the shard's windowed pairs with
  // verdicts, in visit order. Written by exactly one shard task each.
  // Concatenating a pass's shard buffers in shard order reproduces the
  // unsharded pass's visit order exactly (the shard_plan.h owner rule),
  // which is what keeps the merge — and the explain byte stream —
  // bit-identical for any shard count.
  std::vector<std::vector<std::vector<PassHit>>> pass_hits;

  // pass_explain[key_index * num_shards + shard]: with the explain log
  // on, the shard's `owned` pair records, written by its worker in visit
  // order (same owner rule as pass_hits) and concatenated in index order
  // by the merge. Empty when explain is off.
  std::vector<obs::ExplainLog> pass_explain;

  // shard_stats[key_index][shard]: each shard task's tallies, reduced
  // serially into pass_stats[key_index] (the pass's report row) after
  // the level's shard tasks join. Collected unconditionally — a handful
  // of integer increments next to an edit-distance DP — and only
  // published to the registry / report when metrics are on.
  std::vector<std::vector<PassStats>> shard_stats;
  std::vector<PassStats> pass_stats;

  // The run's shard slices: contiguous owned ranges of entering
  // positions, shared by all of its passes (ownership is window-
  // independent; the context accounting uses the candidate's widest
  // window).
  std::vector<ShardSlice> shard_plan;

  // Governance state: the governor's plan and order-stage status per
  // key_index; enumeration outcomes and statuses per (key_index, shard),
  // single-writer like pass_hits, with shard_outcomes reduced into
  // outcomes[key_index] after the level joins.
  std::vector<PassPlan> plans;
  std::vector<std::vector<WindowRunResult>> shard_outcomes;
  std::vector<WindowRunResult> outcomes;
  std::vector<util::Status> pass_status;
  std::vector<std::vector<util::Status>> shard_status;
};

// DE-SNM-style pre-pass (runs before the window passes so their workers
// can skip the already-accepted pairs): link every instance whose whole
// normalized OD matches an earlier instance's to the group's first
// instance (the closure expands the group).
void RunExactOdPrepass(CandidateRun& run) {
  const GkTable& table = *run.table;

  // Fast path: with every row's normalized ODs interned, two OD tuples
  // are byte-identical iff their pool-ID tuples match, so the group key
  // is the raw ID bytes — no string assembly, no byte comparisons.
  bool all_interned = true;
  for (const GkRow& row : table.rows) {
    if (row.norm_ods.size() != row.ods.size()) {
      all_interned = false;
      break;
    }
  }
  auto group = [&run](auto& first_of, auto&& key, size_t ordinal) {
    auto [it, inserted] =
        first_of.emplace(std::forward<decltype(key)>(key), ordinal);
    if (!inserted) {
      OrdinalPair pair = std::minmax(it->second, ordinal);
      run.prepass_pairs.Insert(PackPair(pair));
      run.prepass_accepted.push_back(pair);
    }
  };
  if (all_interned) {
    std::unordered_map<std::string, size_t> first_of;
    first_of.reserve(table.rows.size());
    std::string key;
    for (const GkRow& row : table.rows) {
      key.clear();
      for (const OdRef& ref : row.norm_ods) {
        uint32_t id = ref.id;
        key.append(reinterpret_cast<const char*>(&id), sizeof(id));
      }
      group(first_of, key, row.ordinal);
    }
    return;
  }

  // Rows built by hand may lack interned ODs; normalize on the fly.
  std::map<std::string, size_t> first_of;
  for (const GkRow& row : table.rows) {
    std::string key;
    for (size_t i = 0; i < row.ods.size(); ++i) {
      key += util::ToLower(util::NormalizeWhitespace(row.ods[i]));
      key += '\x1f';
    }
    group(first_of, std::move(key), row.ordinal);
  }
}

// Worker-visible spill telemetry, reduced into the extsort gauges at
// the level's serial quiescent point.
struct ExtSortHighWater {
  std::atomic<uint64_t> spill_bytes_peak{0};
  std::atomic<uint64_t> merge_fanin_max{0};

  void Update(const extsort::ExtSortStats& stats) {
    auto raise = [](std::atomic<uint64_t>& slot, uint64_t value) {
      uint64_t seen = slot.load(std::memory_order_relaxed);
      while (seen < value &&
             !slot.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
      }
    };
    raise(spill_bytes_peak, stats.spill_bytes);
    raise(merge_fanin_max, stats.runs);
  }
};

// The order stage of one pass: computes the sorted order every shard of
// the pass (and the explain emitter) reads. With no memory budget this
// is the GK table's resident stable sort; with one, rows are serialized
// through the spill codec and routed through the external sorter, whose
// (key, insertion-seq) merge reproduces the stable sort exactly — the
// two paths yield the same permutation, so detection output is
// bit-identical either way. Skipped passes still need an order when the
// explain log is on (instance records carry per-pass sort ranks); they
// take the resident path — governance skipped their *enumeration*, not
// the relation. Failures (injected spill faults, ENOSPC, corrupt run
// files) land in pass_status.
void ComputePassOrder(CandidateRun& run, size_t key_index, bool explain_on,
                      uint64_t sorter_budget, const std::string& spill_dir,
                      obs::MetricsRegistry& metrics, obs::Tracer& tracer,
                      ExtSortHighWater& high_water) {
  const PassPlan& plan = run.plans[key_index];
  if (!run.kg_ok) return;
  if (plan.skip && !explain_on) return;
  const GkTable& table = *run.table;
  if (sorter_budget == 0 || plan.skip) {
    obs::Tracer::Span sort_span = tracer.StartSpan("sw/sort");
    run.pass_orders[key_index] = table.SortedOrder(key_index);
    return;
  }
  extsort::ExtSortOptions options;
  options.memory_budget_bytes = sorter_budget;
  options.temp_dir = spill_dir;
  options.name = "sxnm." + run.cand->name + ".pass" +
                 std::to_string(key_index + 1);
  options.metrics = metrics.enabled() ? &metrics : nullptr;
  extsort::ExternalSorter sorter(options);
  {
    obs::Tracer::Span spill_span = tracer.StartSpan("extsort/spill");
    for (const GkRow& row : table.rows) {
      persist::Encoder enc;
      EncodeSpillRow(row, table.od_pool, enc);
      Status s = sorter.Add(row.keys[key_index], enc.bytes());
      if (!s.ok()) {
        run.pass_status[key_index] = s;
        return;
      }
    }
  }
  obs::Tracer::Span merge_span = tracer.StartSpan("extsort/merge");
  auto stream = sorter.Finish();
  if (!stream.ok()) {
    run.pass_status[key_index] = stream.status();
    return;
  }
  std::vector<size_t>& order = run.pass_orders[key_index];
  order.reserve(table.rows.size());
  // Full decode rather than peeking the ordinal: the round trip
  // validates every spilled byte (CRC already guards the frames; this
  // guards the codec), and the scratch pool is bounded by the pass's
  // distinct OD values.
  OdPool scratch_pool;
  extsort::SortedRecord record;
  while (true) {
    auto more = (*stream)->Next(&record);
    if (!more.ok()) {
      run.pass_status[key_index] = more.status();
      return;
    }
    if (!*more) break;
    auto row = DecodeSpillRow(record.payload, &scratch_pool);
    if (!row.ok()) {
      run.pass_status[key_index] = row.status();
      return;
    }
    order.push_back(static_cast<size_t>(row->ordinal));
  }
  if (order.size() != table.rows.size()) {
    run.pass_status[key_index] = Status::DataLoss(
        "external sort of candidate '" + run.cand->name + "' pass " +
        std::to_string(key_index + 1) + " returned " +
        std::to_string(order.size()) + " of " +
        std::to_string(table.rows.size()) + " rows");
    return;
  }
  high_water.Update(sorter.stats());
}

// One shard of one window pass: enumerates the windowed pairs whose
// entering position falls in the shard's owned range and compares them,
// buffering (pair, verdict) locally — with the explain log on, also the
// pair's record, carrying the trace of the same Decide call. Pairs
// already accepted by the exact-OD pre-pass are skipped, exactly as the
// serial detector skips pairs in its `compared` set; every other
// windowed pair goes to the similarity kernel. A pair windowed by more
// than one key pass is classified by each of them — the verdict is a
// pure function of the pair — and the deterministic merge drops the
// repeats. Within one pass no pair spans two shards (each pair belongs
// to its entering position's owner), so the shard tasks share nothing
// but read-only state.
void RunWindowPass(CandidateRun& run, size_t key_index, size_t shard,
                   const util::CancellationToken& token,
                   const util::Deadline& deadline, bool interruptible,
                   obs::MetricsRegistry& metrics, obs::Tracer& tracer) {
  const PassPlan& plan = run.plans[key_index];
  if (plan.skip) return;
  if (util::FaultInjector::Instance().ShouldFail("detector.pass")) {
    run.shard_status[key_index][shard] = Status::Internal(
        "injected fault: window pass " + std::to_string(key_index + 1) +
        " of candidate '" + run.cand->name + "' failed");
    return;
  }
  if (interruptible && (token.cancelled() || deadline.expired())) {
    // Shed before enumerating: the shard contributes nothing, which the
    // degradation accounting reads off pairs_windowed == 0.
    run.shard_outcomes[key_index][shard].stopped_early = true;
    return;
  }
  const ShardSlice& slice = run.shard_plan[shard];
  obs::Tracer::Span span = tracer.StartSpan(
      run.cand->name + "/pass" + std::to_string(key_index + 1) +
      (run.shard_plan.size() > 1 ? "/shard" + std::to_string(shard)
                                 : std::string()));
  util::Stopwatch watch;
  const GkTable& table = *run.table;
  const std::vector<size_t>& order = run.pass_orders[key_index];
  std::vector<PassHit>& hits = run.pass_hits[key_index][shard];
  // Every windowed pair lands in `hits` (adaptive extensions can add
  // more); reserving the fixed-window count up front keeps the hot loop
  // free of growth reallocations.
  hits.reserve(WindowPairCountRange(order.size(), plan.window,
                                    slice.owned_begin, slice.owned_end));
  PassStats& stats = run.shard_stats[key_index][shard];
  // Window distances for the explain log come from the inverse rank
  // array, built only when explain is on — the classification hot path
  // allocates nothing extra otherwise.
  std::vector<uint32_t> inv_rank;
  obs::ExplainLog* explain_log = nullptr;
  obs::PairExplain trace;
  const std::vector<xml::ElementId>& eids = run.instances->eids;
  if (!run.pass_explain.empty()) {
    explain_log =
        &run.pass_explain[key_index * run.shard_plan.size() + shard];
    inv_rank.resize(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      inv_rank[order[i]] = static_cast<uint32_t>(i);
    }
  }
  // Per-pass similarity distribution: one engine-wide histogram (handle
  // resolved once, before the hot loop) plus the report row's decile
  // buckets. Every pass scores its pairs independently, so the observed
  // multiset is deterministic.
  const bool track_sim = metrics.enabled();
  obs::Histogram* sim_hist = nullptr;
  if (track_sim) {
    sim_hist =
        &metrics.histogram("sw.similarity", obs::DefaultSimilarityBounds());
    stats.sim_buckets.assign(obs::DefaultSimilarityBounds().size() + 1, 0);
  }
  // The whole pass runs on one worker thread, so the thread-local Myers
  // word count brackets exactly this pass's kernel work.
  const uint64_t myers_before = text::ThreadMyersStats().words;

  // Live progress: batched adds to the shared sw.pairs_done counter (one
  // null test + local increment per pair; one shard write per batch) so
  // the telemetry sampler can track completion against
  // sw.pairs_planned_total mid-pass. Counted per visit, so the total
  // equals sw.pairs_windowed.
  obs::Counter* pairs_done =
      metrics.enabled() ? &metrics.counter("sw.pairs_done") : nullptr;
  uint32_t pairs_done_pending = 0;
  constexpr uint32_t kPairsDoneBatch = 1024;

  // One pair classification: the similarity kernel plus its tallies.
  auto classify = [&](OrdinalPair pair) -> bool {
    SimilarityVerdict verdict =
        run.measure->Decide(table.rows[pair.first], table.rows[pair.second],
                            explain_log != nullptr ? &trace : nullptr);
    ++stats.comparisons;
    if (verdict.is_duplicate) ++stats.hits;
    if (verdict.pruned) ++stats.ed_bailouts;
    if (verdict.desc_evaluated) ++stats.desc_invocations;
    if (verdict.desc_short_circuit) ++stats.desc_short_circuits;
    stats.interned_equal += verdict.interned_equal;
    if (track_sim) {
      sim_hist->Observe(verdict.combined);
      ++stats.sim_buckets[SimilarityBucket(verdict.combined)];
    }
    return verdict.is_duplicate;
  };

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
    bool is_duplicate = classify(pair);
    hits.push_back({PackPair(pair), is_duplicate});
    if (explain_log != nullptr) {
      uint32_t ra = inv_rank[a];
      uint32_t rb = inv_rank[b];
      explain_log->AppendPair(
          run.cand->name, static_cast<int>(key_index), pair.first,
          pair.second, static_cast<size_t>(eids[pair.first]),
          static_cast<size_t>(eids[pair.second]), ra > rb ? ra - rb : rb - ra,
          obs::PairProvenance::kOwned, &trace, is_duplicate);
    }
  };
  // A shrunk boundary pass always runs the plain fixed window: adaptive
  // extension would overrun the budget it was shrunk to fit. Only the
  // shard's owned entering positions are enumerated; the backward scan
  // reads context rows across the left edge freely (all rows are
  // resident), so concatenating the shard streams in shard order
  // reproduces the unsharded enumeration pair for pair.
  WindowRunResult& outcome = run.shard_outcomes[key_index][shard];
  // The window enumeration plus every pair classification it triggers.
  obs::Tracer::Span classify_span = tracer.StartSpan("sw/classify");
  if (run.cand->window_policy == WindowPolicy::kAdaptivePrefix &&
      !plan.shrunk) {
    auto key_of = [&](size_t ordinal) -> const std::string& {
      return table.rows[ordinal].keys[key_index];
    };
    if (interruptible) {
      outcome = ForEachAdaptiveWindowPairRangeInterruptible(
          order, key_of, plan.window, run.cand->max_window,
          run.cand->adaptive_prefix_len, slice.owned_begin, slice.owned_end,
          token, deadline, visit);
      stats.pairs_windowed = outcome.pairs_visited;
    } else {
      stats.pairs_windowed = ForEachAdaptiveWindowPairRange(
          order, key_of, plan.window, run.cand->max_window,
          run.cand->adaptive_prefix_len, slice.owned_begin, slice.owned_end,
          visit);
    }
  } else if (interruptible) {
    outcome = ForEachWindowPairRangeInterruptible(
        order, plan.window, slice.owned_begin, slice.owned_end, token,
        deadline, visit);
    stats.pairs_windowed = outcome.pairs_visited;
  } else {
    stats.pairs_windowed = ForEachWindowPairRange(
        order, plan.window, slice.owned_begin, slice.owned_end, visit);
  }
  classify_span.End();
  stats.myers_words = text::ThreadMyersStats().words - myers_before;
  stats.wall_seconds = watch.ElapsedSeconds();

  // Publish from the worker thread itself: each add lands on the worker's
  // own shard, exercising the wait-free hot path under the pool.
  if (metrics.enabled()) {
    pairs_done->Add(pairs_done_pending);
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
  span.EndWithArgs("{\"pairs\": " + std::to_string(stats.pairs_windowed) +
                   ", \"comparisons\": " + std::to_string(stats.comparisons) +
                   ", \"hits\": " + std::to_string(stats.hits) + "}");
}

// Folds one shard's pass stats into the pass total. Counting fields sum
// (every windowed pair belongs to exactly one shard); wall_seconds sums
// too, so the report row reads as the pass's total worker time, and the
// per-shard wall distribution stays visible in sw.pass_seconds.
void AccumulateShardStats(PassStats& total, const PassStats& part) {
  total.pairs_windowed += part.pairs_windowed;
  total.prepass_skips += part.prepass_skips;
  total.comparisons += part.comparisons;
  total.hits += part.hits;
  total.ed_bailouts += part.ed_bailouts;
  total.desc_invocations += part.desc_invocations;
  total.desc_short_circuits += part.desc_short_circuits;
  total.interned_equal += part.interned_equal;
  total.myers_words += part.myers_words;
  total.wall_seconds += part.wall_seconds;
  if (!part.sim_buckets.empty()) {
    if (total.sim_buckets.empty()) {
      total.sim_buckets.assign(part.sim_buckets.size(), 0);
    }
    for (size_t i = 0; i < part.sim_buckets.size(); ++i) {
      total.sim_buckets[i] += part.sim_buckets[i];
    }
  }
}

// Explain-log emission for one candidate, from the serial merge point:
// the candidate header, one instance record per GK row (keys + per-pass
// sort ranks), and one pair record per prepass accept. The window
// passes' pair records follow from MergePasses.
void EmitCandidateExplain(const CandidateRun& run, int depth,
                          obs::ExplainLog& explain) {
  const GkTable& table = *run.table;
  const std::vector<xml::ElementId>& eids = run.instances->eids;
  explain.AppendCandidate(run.cand->name, static_cast<size_t>(depth),
                          run.instances->NumInstances(),
                          run.cand->keys.size(), run.cand->window_size,
                          WindowPolicyName(run.cand->window_policy),
                          run.cand->classifier.od_threshold);

  size_t num_keys = run.cand->keys.size();
  std::vector<std::vector<size_t>> rank_of(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    // The order stage computed every pass's order (skipped passes
    // included — their enumeration was shed, not their relation), so the
    // ranks here are the same permutations the passes enumerated.
    const std::vector<size_t>& order = run.pass_orders[k];
    rank_of[k].resize(order.size());
    for (size_t i = 0; i < order.size(); ++i) rank_of[k][order[i]] = i;
  }
  std::vector<size_t> ranks(num_keys);
  for (size_t ordinal = 0; ordinal < table.rows.size(); ++ordinal) {
    for (size_t k = 0; k < num_keys; ++k) ranks[k] = rank_of[k][ordinal];
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

// Deterministic merge: replays the pass buffers in key order against a
// flat hash set, so the accepted pairs, their order, and the comparison
// count are those of the serial single-pass-at-a-time detector no matter
// how the passes were interleaved across threads. With the explain log
// on, the workers' `owned` pair records (one per pass hit: each pass ran
// the kernel on it) follow the candidate's header in (pass, shard, visit)
// order, so the record counts reconcile with sw.comparisons /
// sw.prepass_pairs and the byte stream is identical for any num_threads
// and shard count.
void MergePasses(CandidateRun& run, CandidateResult& result, int depth,
                 obs::MetricsRegistry& metrics, obs::ExplainLog& explain) {
  if (explain.enabled()) {
    EmitCandidateExplain(run, depth, explain);
    for (const obs::ExplainLog& shard_log : run.pass_explain) {
      explain.AppendLog(shard_log);
    }
    run.pass_explain.clear();
  }

  util::FlatU64Set seen = run.prepass_pairs;
  std::vector<OrdinalPair> accepted = run.prepass_accepted;
  size_t total_hits = 0;
  for (const auto& shards : run.pass_hits) {
    for (const auto& hits : shards) total_hits += hits.size();
  }
  seen.Reserve(seen.size() + total_hits);

  // Reserve() above sized `seen` for every hit, so no rehash happens
  // mid-merge and prefetched slots stay valid.
  constexpr size_t kMergeLookahead = 16;
  for (size_t k = 0; k < run.pass_hits.size(); ++k) {
    // Shards in shard order concatenate to the pass's unsharded hit
    // stream (the owner rule), so the replay below never knows whether
    // the pass ran in one piece or many.
    for (const std::vector<PassHit>& pass : run.pass_hits[k]) {
      for (size_t idx = 0; idx < pass.size(); ++idx) {
        if (idx + kMergeLookahead < pass.size()) {
          seen.PrefetchKey(pass[idx + kMergeLookahead].packed);
        }
        const PassHit& hit = pass[idx];
        if (!seen.Insert(hit.packed)) continue;
        ++result.comparisons;
        if (hit.is_duplicate) accepted.push_back(hit.pair());
      }
    }
  }
  std::sort(accepted.begin(), accepted.end());
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

}  // namespace

util::Result<DetectionResult> Detector::Run(const xml::Document& doc) const {
  return Run(doc, RunOptions());
}

util::Result<DetectionResult> Detector::Run(const xml::Document& doc,
                                            const RunOptions& options) const {
  // Observability: the tracer comes first so that a CPU profile covers
  // the whole run. Profiled spans read their thread's CPU clock at start
  // and end; the tracer never writes engine state, so output is
  // bit-identical with profiling on or off.
  const ObservabilityConfig& obs_cfg = config_.observability();
  const bool profiling = !obs_cfg.profile_path.empty();
  obs::Tracer tracer(!obs_cfg.trace_path.empty(), profiling);
  SXNM_RETURN_IF_ERROR(config_.Validate());

  DetectionResult result;
  size_t num_threads = util::ResolveNumThreads(config_.num_threads());

  // --- Resource governance setup ------------------------------------------
  // A deadline with a positive conversion rate becomes a comparison
  // budget here, ONCE — after this point the governor never reads the
  // clock, so the shed work set is a pure function of config + data
  // (identical for any thread count). Rate 0 keeps a live wall-clock
  // deadline instead, polled cooperatively.
  const RunLimits& limits = config_.limits();
  const util::CancellationToken& token = options.cancellation;
  const size_t budget = limits.ResolveComparisonBudget();
  const bool wallclock_mode =
      limits.deadline_seconds > 0.0 && limits.comparisons_per_second == 0.0;
  util::Deadline deadline = wallclock_mode
                                ? util::Deadline::After(limits.deadline_seconds)
                                : util::Deadline::Infinite();
  // Which governance source binds first, for the degradation reason.
  util::StatusCode budget_reason = util::StatusCode::kResourceExhausted;
  if (limits.deadline_seconds > 0.0 &&
      (limits.max_comparisons == 0 || budget < limits.max_comparisons)) {
    budget_reason = util::StatusCode::kDeadlineExceeded;
  }
  const bool interruptible =
      token.can_be_cancelled() || deadline.has_deadline();
  DegradationReport& degradation = result.degradation;
  degradation.comparison_budget = budget;
  bool cancelled = false;      // cancellation observed at a checkpoint
  bool wall_expired = false;   // cooperative deadline observed expired

  // The remaining observability handles live for exactly this run.
  // Disabled instances are no-ops (every record is one branch), so the
  // default configuration pays nothing.
  obs::MetricsRegistry metrics(obs_cfg.metrics);
  obs::ExplainLog explain(!obs_cfg.explain_path.empty());
  obs::Tracer::Span run_span = tracer.StartSpan("detect");
  auto set_phase = [&metrics](obs::RunPhase phase) {
    metrics.gauge("progress.phase")
        .Set(static_cast<double>(static_cast<int>(phase)));
  };
  if (metrics.enabled()) {
    metrics.gauge("engine.num_threads")
        .Set(static_cast<double>(num_threads));
    // Registered up front so the histogram appears in every snapshot,
    // comparisons or not.
    metrics.histogram("sw.similarity", obs::DefaultSimilarityBounds());
    // Progress metrics likewise registered before any sample can be
    // taken: every telemetry tick carries the full progress family.
    set_phase(obs::RunPhase::kSetup);
    metrics.counter("kg.rows_done");
    metrics.counter("sw.pairs_done");
    metrics.counter("tc.edges_done");
    metrics.gauge("kg.rows_total");
    metrics.gauge("sw.pairs_planned_total");
  }

  // --- Checkpoint/resume setup ---------------------------------------------
  // Fingerprints are computed before any work: the load must refuse a
  // snapshot of a different config or document before the engine trusts
  // its contents. kNotFound simply means "no snapshot yet" (fresh run);
  // a torn or corrupt file is a hard kDataLoss — silently recomputing
  // would hide the data loss the checkpoint was supposed to prevent.
  const std::string& ckpt_path = !options.checkpoint_path.empty()
                                     ? options.checkpoint_path
                                     : config_.checkpoint().path;
  const bool ckpt_every_pass = !options.checkpoint_path.empty()
                                   ? options.checkpoint_every_pass
                                   : config_.checkpoint().every_pass;
  const bool checkpointing = !ckpt_path.empty();
  CheckpointFingerprint ckpt_fingerprint;
  EngineSnapshot resume;
  bool resumed = false;
  if (checkpointing) {
    // Its own span: the document hash walks the whole DOM.
    obs::Tracer::Span fingerprint_span =
        tracer.StartSpan("checkpoint_fingerprint");
    ckpt_fingerprint.config_fingerprint = ConfigFingerprint(config_);
    ckpt_fingerprint.doc_fingerprint = DocumentFingerprint(doc);
    fingerprint_span.End();
    ckpt_fingerprint.metrics_enabled = metrics.enabled();
    ckpt_fingerprint.explain_enabled = explain.enabled();
    obs::Tracer::Span load_span = tracer.StartSpan("checkpoint_load");
    auto loaded = LoadEngineSnapshot(ckpt_path, ckpt_fingerprint);
    if (loaded.ok()) {
      resume = std::move(*loaded);
      resumed = true;
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  if (resumed) {
    // Counters, gauges, and histogram buckets continue from the cut, so
    // the final snapshot equals an uninterrupted run's. engine.num_threads
    // is re-published afterwards: resuming with a different thread count
    // is allowed and the gauge reports *this* run.
    if (metrics.enabled()) {
      metrics.MergeFrom(resume.metrics);
      metrics.gauge("engine.num_threads")
          .Set(static_cast<double>(num_threads));
      metrics.counter("persist.resume_loads").Add(1);
      metrics.counter("persist.resume_levels_restored")
          .Add(resume.cursor.levels_completed);
    }
    explain.Restore(std::move(resume.explain_text), resume.explain_tallies[0],
                    resume.explain_tallies[1]);
    result.timer.Add(kPhaseKeyGeneration, resume.cursor.kg_seconds);
    result.timer.Add(kPhaseSlidingWindow, resume.cursor.sw_seconds);
    result.timer.Add(kPhaseTransitiveClosure, resume.cursor.tc_seconds);
    degradation.passes = std::move(resume.degradation.passes);
    result.report.rows = std::move(resume.report_rows);
  }

  // Live telemetry: a read-only background sampler over the registry.
  // It never writes a metric and the engine never waits on it, so the
  // detection output is bit-identical with telemetry on or off; the
  // sampler's destructor covers early-return paths (the stream is then
  // simply missing its final sample).
  obs::TelemetryOptions telemetry_options;
  telemetry_options.path = obs_cfg.telemetry_path;
  telemetry_options.interval_ms = obs_cfg.telemetry_interval_ms;
  obs::TelemetrySampler telemetry(&metrics, telemetry_options);
  if (!obs_cfg.telemetry_path.empty()) {
    SXNM_RETURN_IF_ERROR(telemetry.Start());
  }

  // --- Key generation phase (KG) -----------------------------------------
  // Candidate discovery and GK construction happen together: both read the
  // document once, mirroring the paper's single-pass key generation. The
  // per-candidate GK tables are independent, so they build concurrently.
  util::Stopwatch kg_watch;
  obs::Tracer::Span kg_span = tracer.StartSpan("key_generation");
  if (metrics.enabled()) set_phase(obs::RunPhase::kKeyGeneration);
  auto forest_or = CandidateForest::Build(config_, doc);
  if (!forest_or.ok()) return forest_or.status();
  const CandidateForest& forest = forest_or.value();

  if (metrics.enabled()) {
    // Planned totals for the progress gauges, published before the work
    // starts so completion fractions are meaningful from the first
    // sample. The pair total is pre-governance: budget shedding can
    // finish "early" relative to it, which makes the derived ETA an
    // upper-bound estimate.
    size_t rows_total = 0;
    size_t pairs_total = 0;
    for (const CandidateInstances& ci : forest.candidates()) {
      rows_total += ci.NumInstances();
      pairs_total += ci.config->keys.size() *
                     WindowPairCount(ci.NumInstances(), ci.config->window_size);
    }
    metrics.gauge("kg.rows_total").Set(static_cast<double>(rows_total));
    metrics.gauge("sw.pairs_planned_total")
        .Set(static_cast<double>(pairs_total));
  }

  std::vector<GkTable> gk(forest.candidates().size());
  std::vector<char> kg_done(forest.candidates().size(), 0);
  if (resumed) {
    // Every snapshot is taken at or after the post-KG durability point,
    // so the GK relations come back from disk instead of the document.
    // The fingerprint already proved config + document identity; the
    // size check below is pure defense against a hand-edited file.
    if (resume.gk.size() != forest.candidates().size()) {
      return Status::DataLoss(
          "corrupt snapshot: GK table count does not match the candidate "
          "forest");
    }
    for (EngineSnapshot::GkState& state : resume.gk) {
      if (state.index >= gk.size() || kg_done[state.index] != 0) {
        return Status::DataLoss(
            "corrupt snapshot: GK frame candidate index invalid or "
            "duplicated");
      }
      gk[state.index] = std::move(state.table);
      kg_done[state.index] = state.kg_done ? 1 : 0;
    }
  } else {
    std::vector<util::Status> kg_status(forest.candidates().size());
    util::ParallelForCancellable(
        forest.candidates().size(), num_threads, token, [&](size_t t) {
          const CandidateInstances& instances = forest.candidates()[t];
          obs::Tracer::Span gen_span = tracer.StartSpan("kg/generate");
          auto keys = GenerateKeysChecked(*instances.config, instances, token,
                                          &metrics);
          gen_span.End();
          if (!keys.ok()) {
            kg_status[t] = keys.status();
            return;
          }
          if (keys->cancelled) return;  // kg_done stays 0: candidate shed
          gk[t] = std::move(keys->table);
          kg_done[t] = 1;
        });
    // A genuine key-generation failure (fault injection, future IO) aborts
    // the run with its own status — degradation is only for shed work. The
    // lowest candidate index wins so the reported error is deterministic.
    for (const util::Status& status : kg_status) SXNM_RETURN_IF_ERROR(status);
  }
  if (token.cancelled()) cancelled = true;
  if (deadline.expired()) wall_expired = true;
  kg_span.End();
  result.timer.Add(kPhaseKeyGeneration, kg_watch.ElapsedSeconds());
  if (metrics.enabled()) {
    metrics.gauge("engine.num_candidates")
        .Set(static_cast<double>(forest.candidates().size()));
  }

  // --- Duplicate detection phase (per candidate, bottom-up) ---------------
  // Candidates are processed level by level: depths are longest root
  // distances, so every child type sits at a strictly greater depth than
  // its parents and all cluster sets a level needs are complete before it
  // starts. Within a level, every (candidate, key) window pass is an
  // independent task; a level-wide parallel-for covers both pass-level and
  // candidate-level parallelism without nesting.
  std::map<int, std::vector<size_t>, std::greater<int>> levels;
  for (size_t t : forest.ProcessingOrder()) {
    levels[forest.candidates()[t].depth].push_back(t);
  }

  std::vector<ClusterSet> cluster_sets(forest.candidates().size());
  std::vector<CandidateResult> cand_results(forest.candidates().size());

  // Budget governor state, threaded across levels. Passes are planned
  // serially in deterministic order (levels deepest-first, candidates in
  // processing order, keys in definition order): each runs in full while
  // the cumulative planned cost fits the budget, the first that does not
  // fit shrinks its window to the largest size that still does (the
  // paper's own efficiency knob), and everything after is skipped.
  size_t budget_spent = 0;
  bool budget_exhausted = false;

  // Out-of-core knobs, fixed for the run. The budget is split evenly
  // across the level's pass tasks (not its threads — the split, and so
  // every extsort.* counter, must not depend on the thread count), with
  // half held back for the merge readers and the decode scratch.
  const size_t num_shards = config_.shards();
  const uint64_t memory_budget = config_.memory_budget_bytes();
  ExtSortHighWater extsort_high_water;

  uint64_t levels_restored = 0;
  if (resumed) {
    // Governor state continues from the cut so the resumed planner sheds
    // exactly the passes an uninterrupted run would.
    budget_spent = static_cast<size_t>(resume.cursor.budget_spent);
    budget_exhausted = resume.cursor.budget_exhausted;
    levels_restored = resume.cursor.levels_completed;
    if (levels_restored > levels.size()) {
      return Status::DataLoss(
          "corrupt snapshot: cursor names more levels than the forest has");
    }
    for (EngineSnapshot::CompletedCandidate& completed : resume.completed) {
      size_t t = static_cast<size_t>(completed.index);
      if (t >= cand_results.size() || !cand_results[t].name.empty()) {
        return Status::DataLoss(
            "corrupt snapshot: completed-candidate index invalid or "
            "duplicated");
      }
      cluster_sets[t] = completed.result.clusters;
      cand_results[t] = std::move(completed.result);
    }
  }

  // Commits one durable snapshot of everything accumulated so far. The
  // view borrows the engine's live state; Save serializes and atomically
  // replaces the file, so a crash mid-write leaves the previous snapshot.
  auto write_checkpoint = [&](uint64_t levels_completed) -> util::Status {
    obs::Tracer::Span ckpt_span = tracer.StartSpan("checkpoint_write");
    EngineSnapshotView view;
    view.fingerprint = ckpt_fingerprint;
    view.cursor.levels_completed = levels_completed;
    view.cursor.budget_spent = budget_spent;
    view.cursor.budget_exhausted = budget_exhausted;
    view.cursor.kg_seconds = result.KeyGenerationSeconds();
    view.cursor.sw_seconds = result.SlidingWindowSeconds();
    view.cursor.tc_seconds = result.TransitiveClosureSeconds();
    view.gk = &gk;
    view.kg_done = &kg_done;
    uint64_t ordinal = 0;
    for (const auto& [level_depth, level_members] : levels) {
      if (ordinal++ >= levels_completed) break;
      for (size_t t : level_members) {
        view.completed.emplace_back(t, &cand_results[t]);
      }
    }
    view.degradation = &degradation;
    obs::MetricsSnapshot metrics_snapshot;
    if (metrics.enabled()) {
      view.report_rows = &result.report.rows;
      metrics_snapshot = metrics.Snapshot();
      view.metrics = &metrics_snapshot;
    }
    if (explain.enabled()) {
      view.explain_text = &explain.text();
      view.explain_tallies[0] = explain.owned_pairs();
      view.explain_tallies[1] = explain.prepass_pairs();
    }
    SnapshotWriteStats stats;
    SXNM_RETURN_IF_ERROR(SaveEngineSnapshot(view, ckpt_path, &stats));
    if (metrics.enabled()) {
      // Counted after the commit (and so absent from the frame just
      // written): persist.* counters describe *this* run's IO, differ
      // between resumed and uninterrupted runs by design, and are
      // excluded from determinism digests like the wall-time counters.
      metrics.counter("persist.snapshot_writes").Add(1);
      metrics.counter("persist.snapshot_bytes_total").Add(stats.bytes);
    }
    return util::Status::Ok();
  };

  // The post-KG durability point: even with every_pass off, a resumed
  // run never repeats key generation. Levels "completed" after a
  // cancellation or wall-clock cut are not checkpointed — their passes
  // were shed nondeterministically, and a resume must re-run them.
  if (checkpointing && !resumed && !cancelled && !wall_expired) {
    SXNM_RETURN_IF_ERROR(write_checkpoint(0));
  }

  uint64_t level_ordinal = 0;
  for (auto& [depth, members] : levels) {
    // Fast-forward through levels the snapshot already holds: their
    // merged results, cluster sets, report rows, shed entries, counters,
    // and explain records were all restored above.
    if (level_ordinal++ < levels_restored) continue;
    obs::Tracer::Span level_span =
        tracer.StartSpan("level_" + std::to_string(depth));
    if (metrics.enabled()) set_phase(obs::RunPhase::kSlidingWindow);
    // Serial setup: similarity measures (which snapshot the child cluster
    // sets into sorted cid lists) and the exact-OD pre-pass.
    util::Stopwatch sw_watch;
    std::vector<CandidateRun> runs(members.size());
    std::vector<std::pair<size_t, size_t>> pass_tasks;  // (run, key_index)
    for (size_t r = 0; r < members.size(); ++r) {
      CandidateRun& run = runs[r];
      run.index = members[r];
      run.instances = &forest.candidates()[run.index];
      run.cand = run.instances->config;
      run.table = &gk[run.index];

      std::vector<const ClusterSet*> child_sets;
      if (run.cand->use_descendants && !run.instances->child_types.empty()) {
        child_sets.reserve(run.instances->child_types.size());
        for (size_t child : run.instances->child_types) {
          child_sets.push_back(&cluster_sets[child]);
        }
      }
      run.measure = std::make_unique<SimilarityMeasure>(
          *run.cand, *run.instances, std::move(child_sets),
          &run.table->od_pool);
      run.kg_ok = kg_done[run.index] != 0;

      if (run.cand->exact_od_prepass && run.kg_ok) RunExactOdPrepass(run);

      // Sized from the config, not the GK table: a candidate whose key
      // generation was shed has an empty table but still owes one
      // (skipped) degradation entry per configured pass.
      size_t num_keys = run.cand->keys.size();
      size_t n_inst = run.instances->NumInstances();
      // The shard plan partitions entering positions by the candidate's
      // maximum reach (adaptive passes can extend any window up to
      // max_window); context_begin is accounting only — rows are
      // resident, so a shard reads across its left edge freely.
      size_t reach =
          run.cand->window_policy == WindowPolicy::kAdaptivePrefix
              ? std::max(run.cand->max_window, run.cand->window_size)
              : run.cand->window_size;
      run.shard_plan = ComputeShardPlan(n_inst, num_shards, reach);
      run.pass_orders.resize(num_keys);
      run.pass_hits.assign(num_keys,
                           std::vector<std::vector<PassHit>>(num_shards));
      if (explain.enabled()) {
        for (size_t i = 0; i < num_keys * num_shards; ++i) {
          run.pass_explain.emplace_back(true);
        }
      }
      run.shard_stats.assign(num_keys, std::vector<PassStats>(num_shards));
      run.pass_stats.resize(num_keys);
      run.plans.resize(num_keys);
      run.shard_outcomes.assign(num_keys,
                                std::vector<WindowRunResult>(num_shards));
      run.outcomes.resize(num_keys);
      run.pass_status.resize(num_keys);
      run.shard_status.assign(num_keys,
                              std::vector<util::Status>(num_shards));
      for (size_t k = 0; k < num_keys; ++k) {
        PassPlan& plan = run.plans[k];
        plan.planned = WindowPairCount(n_inst, run.cand->window_size);
        if (token.cancelled()) cancelled = true;
        if (!run.kg_ok || cancelled || wall_expired) {
          plan.skip = true;
        } else if (budget == 0) {
          plan.window = run.cand->window_size;
        } else if (budget_exhausted) {
          plan.skip = true;
        } else if (budget_spent + plan.planned <= budget) {
          plan.window = run.cand->window_size;
          budget_spent += plan.planned;
        } else {
          // The boundary pass: shrink to the largest window whose full
          // pass still fits what is left, then close the budget.
          budget_exhausted = true;
          size_t shrunk = LargestWindowWithin(n_inst, run.cand->window_size,
                                              budget - budget_spent);
          if (shrunk >= 2) {
            plan.window = shrunk;
            plan.shrunk = true;
            budget_spent += WindowPairCount(n_inst, shrunk);
          } else {
            plan.skip = true;
          }
        }
        pass_tasks.emplace_back(r, k);
      }
    }

    // Order stage: every pass's sorted order, in parallel. With a memory
    // budget this is where rows spill and merge back; either way the
    // orders are fixed before any shard enumerates, so all shards of a
    // pass read one shared permutation.
    //
    // The budget is the envelope for the whole process — the resident
    // document, GK tables, and cluster state take most of it — so the
    // spill buffers get a 1/16 slice, split across the level's
    // concurrent sorters. Dividing by pass count (never thread count)
    // keeps the extsort.* counters machine-independent.
    const uint64_t sorter_budget =
        memory_budget == 0
            ? 0
            : std::max<uint64_t>(
                  memory_budget /
                      (16 * std::max<size_t>(pass_tasks.size(), 1)),
                  1);
    if (metrics.enabled() && memory_budget > 0) {
      set_phase(obs::RunPhase::kExternalSort);
    }
    util::ParallelFor(pass_tasks.size(), num_threads, [&](size_t i) {
      auto [r, key_index] = pass_tasks[i];
      ComputePassOrder(runs[r], key_index, explain.enabled(), sorter_budget,
                       config_.spill_dir(), metrics, tracer,
                       extsort_high_water);
    });
    for (const CandidateRun& run : runs) {
      for (const util::Status& status : run.pass_status) {
        SXNM_RETURN_IF_ERROR(status);
      }
    }
    if (metrics.enabled() && memory_budget > 0) {
      set_phase(obs::RunPhase::kSlidingWindow);
      metrics.gauge("extsort.spill_bytes_peak")
          .Set(static_cast<double>(
              extsort_high_water.spill_bytes_peak.load()));
      metrics.gauge("extsort.merge_fanin_max")
          .Set(static_cast<double>(
              extsort_high_water.merge_fanin_max.load()));
    }

    // Multi-pass sorted window (SW): every (pass, shard) of the level in
    // parallel. Each task owns a disjoint range of entering positions,
    // writes only its own buffers, and shares the pass order read-only.
    std::vector<std::array<size_t, 3>> shard_tasks;  // (run, key, shard)
    shard_tasks.reserve(pass_tasks.size() * num_shards);
    for (auto [r, key_index] : pass_tasks) {
      for (size_t s = 0; s < num_shards; ++s) {
        shard_tasks.push_back({r, key_index, s});
      }
    }
    util::ParallelFor(shard_tasks.size(), num_threads, [&](size_t i) {
      auto [r, key_index, s] = shard_tasks[i];
      RunWindowPass(runs[r], key_index, s, token, deadline, interruptible,
                    metrics, tracer);
    });
    for (const CandidateRun& run : runs) {
      for (const auto& per_key : run.shard_status) {
        for (const util::Status& status : per_key) {
          SXNM_RETURN_IF_ERROR(status);
        }
      }
    }
    if (token.cancelled()) cancelled = true;
    if (deadline.expired()) wall_expired = true;

    // Reduce the per-shard stats and outcomes to the per-pass values the
    // merge, report rows, and degradation accounting read. Serial
    // quiescent point, so plain sums.
    for (CandidateRun& run : runs) {
      for (size_t k = 0; k < run.plans.size(); ++k) {
        for (const PassStats& part : run.shard_stats[k]) {
          AccumulateShardStats(run.pass_stats[k], part);
        }
        for (const WindowRunResult& part : run.shard_outcomes[k]) {
          run.outcomes[k].pairs_visited += part.pairs_visited;
          run.outcomes[k].stopped_early |= part.stopped_early;
        }
      }
    }
    if (metrics.enabled() && num_shards > 1) {
      // Run-shape telemetry, published only when sharding is actually
      // on: a shards=1 run's metric snapshot stays byte-identical to the
      // unsharded engine's. Excluded from determinism digests like the
      // persist.* family.
      metrics.gauge("shard.count").Set(static_cast<double>(num_shards));
      metrics.counter("shard.tasks").Add(shard_tasks.size());
      size_t sharded_passes = 0;
      size_t overlap_rows = 0;
      for (const CandidateRun& run : runs) {
        size_t per_pass_overlap = ShardOverlapRows(run.shard_plan);
        for (const PassPlan& plan : run.plans) {
          if (plan.skip) continue;
          ++sharded_passes;
          overlap_rows += per_pass_overlap;
        }
      }
      metrics.counter("shard.passes").Add(sharded_passes);
      metrics.counter("shard.overlap_rows").Add(overlap_rows);
    }

    // Deterministic merge + transitive closure (TC), serially in
    // processing order.
    obs::Tracer::Span merge_span = tracer.StartSpan("merge");
    for (CandidateRun& run : runs) {
      CandidateResult& cand_result = cand_results[run.index];
      cand_result.name = run.cand->name;
      cand_result.num_instances = run.instances->NumInstances();
      MergePasses(run, cand_result, depth, metrics, explain);
    }
    merge_span.End();
    result.timer.Add(kPhaseSlidingWindow, sw_watch.ElapsedSeconds());

    // Degradation accounting, in the same deterministic order the
    // governor planned in. `pairs_windowed` is what the pass actually
    // enumerated, so one rule covers skips, shrunk windows, and
    // cooperative early stops alike.
    for (CandidateRun& run : runs) {
      for (size_t k = 0; k < run.plans.size(); ++k) {
        const PassPlan& plan = run.plans[k];
        if (!plan.skip && !plan.shrunk && !run.outcomes[k].stopped_early) {
          continue;
        }
        size_t executed = plan.skip ? 0 : run.pass_stats[k].pairs_windowed;
        PassDegradation entry;
        entry.candidate = run.cand->name;
        entry.key_index = k;
        entry.skipped = plan.skip;
        entry.window_used = plan.window;
        entry.rows = run.instances->NumInstances();
        entry.pairs_planned = plan.planned;
        entry.pairs_elided =
            plan.planned > executed ? plan.planned - executed : 0;
        explain.AppendShed(run.cand->name, static_cast<int>(k), plan.skip,
                           run.cand->window_size, plan.window, entry.rows,
                           entry.pairs_planned, entry.pairs_elided);
        degradation.passes.push_back(std::move(entry));
      }
    }

    if (metrics.enabled()) set_phase(obs::RunPhase::kTransitiveClosure);
    for (CandidateRun& run : runs) {
      if (util::FaultInjector::Instance().ShouldFail("tc.closure")) {
        return Status::Internal(
            "injected fault: transitive closure failed for candidate '" +
            run.cand->name + "'");
      }
      util::Stopwatch tc_watch;
      obs::Tracer::Span tc_span = tracer.StartSpan("tc/" + run.cand->name);
      std::vector<MergeStep> lineage;
      cluster_sets[run.index] = ComputeTransitiveClosure(
          run.instances->NumInstances(),
          cand_results[run.index].duplicate_pairs, &metrics,
          explain.enabled() ? &lineage : nullptr);
      if (explain.enabled()) {
        for (const MergeStep& step : lineage) {
          explain.AppendMerge(run.cand->name, step.pair.first,
                              step.pair.second, step.root_a, step.root_b,
                              step.root, step.merged);
        }
        const ClusterSet& clusters = cluster_sets[run.index];
        for (const std::vector<size_t>& members :
             clusters.NonTrivialClusters()) {
          explain.AppendCluster(run.cand->name,
                                static_cast<size_t>(clusters.cid(members[0])),
                                members);
        }
      }
      tc_span.End();
      result.timer.Add(kPhaseTransitiveClosure, tc_watch.ElapsedSeconds());
      cand_results[run.index].clusters = cluster_sets[run.index];
    }

    // The report rows of this level, in processing order (levels iterate
    // deepest-first, matching the bottom-up assembly below).
    if (metrics.enabled()) {
      for (CandidateRun& run : runs) {
        for (size_t k = 0; k < run.pass_stats.size(); ++k) {
          result.report.rows.push_back({run.cand->name, k,
                                        run.instances->NumInstances(),
                                        run.pass_stats[k]});
        }
      }
    }

    // Level boundary: merge + closure done, every cluster set downstream
    // levels need is final — a consistent cut. Commit it. Cancelled /
    // wall-expired levels shed work nondeterministically, so they are
    // never recorded as completed (a resume re-runs them properly). The
    // FINAL level is not committed: a successful run deletes its
    // checkpoint moments later anyway, so the commit would be pure
    // overhead in the common case — a crash between here and completion
    // resumes from the previous cut and re-runs one level.
    if (checkpointing && ckpt_every_pass && level_ordinal < levels.size() &&
        !cancelled && !wall_expired) {
      SXNM_RETURN_IF_ERROR(write_checkpoint(level_ordinal));
    }
  }

  // Assemble in the canonical bottom-up order, independent of the level
  // grouping above.
  for (size_t t : forest.ProcessingOrder()) {
    cand_results[t].gk = std::move(gk[t]);
    result.candidates.push_back(std::move(cand_results[t]));
  }

  // --- Degradation summary -------------------------------------------------
  if (token.cancelled()) cancelled = true;
  if (deadline.expired()) wall_expired = true;
  if (!degradation.passes.empty()) {
    degradation.degraded = true;
    if (cancelled) {
      degradation.reason = util::StatusCode::kCancelled;
    } else if (wallclock_mode && wall_expired) {
      degradation.reason = util::StatusCode::kDeadlineExceeded;
    } else {
      degradation.reason = budget_reason;
    }
  }
  if (metrics.enabled()) {
    metrics.counter("robust.degraded").Add(degradation.degraded ? 1 : 0);
    metrics.counter("robust.passes_skipped").Add(degradation.PassesSkipped());
    metrics.counter("robust.passes_shrunk").Add(degradation.PassesShrunk());
    metrics.counter("robust.rows_skipped").Add(degradation.RowsSkipped());
    metrics.counter("robust.pairs_elided").Add(degradation.PairsElided());
    result.report.degradation = degradation;
  }

  // --- Observability export ----------------------------------------------
  run_span.End();
  if (profiling) {
    // Folded after the run span ends, so every span has charged its
    // CPU. The folded file commits atomically: a crash leaves the
    // previous profile or none, never a torn one. The returned profile
    // is folded again after the commit so that it covers the commit's
    // CPU too (in "(unattributed)").
    SXNM_RETURN_IF_ERROR(
        tracer.CpuProfile().WriteFoldedFile(obs_cfg.profile_path));
    result.profile = tracer.CpuProfile();
    if (metrics.enabled()) result.report.profile = result.profile;
  }
  if (metrics.enabled()) set_phase(obs::RunPhase::kDone);
  // Stop the sampler before snapshotting: the worker joins first, so the
  // stream's final sample is taken after every engine writer quiesced
  // and equals result.metrics below.
  SXNM_RETURN_IF_ERROR(telemetry.Stop());
  if (tracer.enabled()) {
    SXNM_RETURN_IF_ERROR(tracer.WriteChromeTraceFile(obs_cfg.trace_path));
  }
  if (metrics.enabled()) {
    result.metrics = metrics.Snapshot();
    if (!obs_cfg.report_path.empty()) {
      SXNM_RETURN_IF_ERROR(result.report.WriteJsonFile(obs_cfg.report_path));
    }
  }
  if (explain.enabled()) {
    SXNM_RETURN_IF_ERROR(explain.WriteFile(obs_cfg.explain_path));
  }

  // A deterministically complete run (including budget-shed runs, whose
  // shed set is final) has nothing left to resume: drop the snapshot.
  // Cancelled or wall-clock-expired runs keep theirs so a later run can
  // pick up at the last durable level and finish the job.
  if (checkpointing && !cancelled && !wall_expired) {
    persist::RemoveFile(ckpt_path);
  }
  return result;
}

}  // namespace sxnm::core
