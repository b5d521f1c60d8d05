#include "eval/miss_diagnosis.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "eval/gold.h"
#include "sxnm/candidate_tree.h"
#include "sxnm/key_generation.h"
#include "sxnm/similarity_measure.h"
#include "sxnm/sliding_window.h"

namespace sxnm::eval {

namespace {

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

uint64_t PackPair(core::OrdinalPair pair) {
  return (static_cast<uint64_t>(pair.first) << 32) |
         static_cast<uint64_t>(pair.second);
}

// Replays one pass's whole-relation window enumeration: the same order,
// policy, and window the pass ran with, stopped after its executed pair
// count (`limit`) when governance cut it short. A cut-short pass visits a
// prefix of each shard's range, so the replay's prefix of the whole
// enumeration is exactly the executed set only for shards = 1; with more
// shards the executed set is a union of per-shard prefixes and the replay
// marks the same number of pairs, not necessarily the same ones.
template <typename Visit>
void EnumeratePass(const core::GkTable& gk, size_t key_index,
                   const std::vector<size_t>& order,
                   const core::CandidateConfig& cand, size_t window,
                   bool adaptive, size_t limit, Visit&& visit) {
  auto stop = [left = limit]() mutable { return left-- == 0; };
  if (adaptive) {
    auto key_of = [&](size_t ordinal) -> const std::string& {
      return gk.rows[ordinal].keys[key_index];
    };
    core::ForEachAdaptiveWindowPair(order, key_of, window, cand.max_window,
                                    cand.adaptive_prefix_len, 0, order.size(),
                                    stop, visit);
  } else {
    core::ForEachWindowPair(order, window, 0, order.size(), stop, visit);
  }
}

}  // namespace

std::string_view MissKindName(MissKind kind) {
  switch (kind) {
    case MissKind::kNeverWindowed:
      return "never_windowed";
    case MissKind::kWindowedButRejected:
      return "windowed_but_rejected";
    case MissKind::kShed:
      return "shed";
  }
  return "unknown";
}

size_t MissDiagnosis::CountKind(MissKind kind) const {
  size_t count = 0;
  for (const MissedPair& miss : misses) count += miss.kind == kind ? 1 : 0;
  return count;
}

std::string MissDiagnosis::ToString() const {
  std::ostringstream os;
  os << "candidate '" << candidate << "': " << gold_pairs << " gold pair(s), "
     << detected_pairs << " detected, " << true_positives
     << " true positive(s), " << misses.size() << " miss(es), "
     << false_positives.size() << " false positive(s)\n";
  if (!misses.empty()) {
    os << "  misses: " << CountKind(MissKind::kNeverWindowed)
       << " never windowed, " << CountKind(MissKind::kWindowedButRejected)
       << " windowed but rejected, " << CountKind(MissKind::kShed)
       << " shed\n";
  }
  for (const MissedPair& miss : misses) {
    os << "  (" << miss.pair.first << ", " << miss.pair.second << ") "
       << MissKindName(miss.kind);
    switch (miss.kind) {
      case MissKind::kNeverWindowed:
        if (!miss.rank_gaps.empty()) {
          os << ": min rank gap " << miss.min_rank_gap;
        }
        break;
      case MissKind::kWindowedButRejected:
        os << ": pass " << miss.pass + 1;
        if (miss.has_explain) {
          os << ", score " << miss.explain.score << " < threshold "
             << miss.explain.threshold;
        }
        break;
      case MissKind::kShed:
        if (miss.pass >= 0) os << ": pass " << miss.pass + 1;
        break;
    }
    os << "\n";
  }
  return os.str();
}

util::Result<MissDiagnosis> DiagnoseMisses(const core::Config& config,
                                           const xml::Document& doc,
                                           const core::DetectionResult& result,
                                           const std::string& candidate,
                                           const std::string& gold_attribute) {
  const core::CandidateConfig* cand = config.Find(candidate);
  if (cand == nullptr) {
    return util::Status::InvalidArgument("miss diagnosis: unknown candidate '" +
                                         candidate + "'");
  }
  const core::CandidateResult* cand_result = result.Find(candidate);
  if (cand_result == nullptr) {
    return util::Status::InvalidArgument("miss diagnosis: candidate '" +
                                         candidate +
                                         "' absent from the detection result");
  }

  util::Result<core::ClusterSet> gold =
      GoldClusterSet(doc, cand->absolute_path_str, gold_attribute);
  if (!gold.ok()) return gold.status();
  if (gold->num_instances() != cand_result->num_instances) {
    return util::Status::InvalidArgument(
        "miss diagnosis: gold standard covers " +
        std::to_string(gold->num_instances()) +
        " instance(s) but the detection result has " +
        std::to_string(cand_result->num_instances) +
        " — document/config mismatch?");
  }

  MissDiagnosis diag;
  diag.candidate = candidate;
  diag.num_instances = cand_result->num_instances;

  const std::vector<core::OrdinalPair> gold_pairs = gold->DuplicatePairs();
  const std::vector<core::OrdinalPair> detected =
      cand_result->clusters.DuplicatePairs();
  diag.gold_pairs = gold_pairs.size();
  diag.detected_pairs = detected.size();

  std::unordered_set<uint64_t> gold_set;
  gold_set.reserve(gold_pairs.size());
  for (const core::OrdinalPair& pair : gold_pairs) {
    gold_set.insert(PackPair(pair));
  }
  std::unordered_set<uint64_t> dup_set;
  dup_set.reserve(cand_result->duplicate_pairs.size());
  for (const core::OrdinalPair& pair : cand_result->duplicate_pairs) {
    dup_set.insert(PackPair(pair));
  }

  std::vector<core::OrdinalPair> fp_pairs;
  for (const core::OrdinalPair& pair : detected) {
    if (gold->cid(pair.first) == gold->cid(pair.second)) {
      ++diag.true_positives;
    } else {
      fp_pairs.push_back(pair);
    }
  }
  std::vector<core::OrdinalPair> fns;
  std::unordered_map<uint64_t, size_t> fn_index;
  for (const core::OrdinalPair& pair : gold_pairs) {
    if (cand_result->clusters.cid(pair.first) !=
        cand_result->clusters.cid(pair.second)) {
      fn_index.emplace(PackPair(pair), fns.size());
      fns.push_back(pair);
    }
  }

  // Windowing replay. The result carries the run's own GK relation; an
  // empty table (against a non-empty candidate) means key generation
  // itself was shed and no pass saw any pair.
  const core::GkTable& gk = cand_result->gk;
  const size_t num_keys = cand->keys.size();
  const bool have_rows =
      diag.num_instances > 0 && gk.rows.size() == diag.num_instances;

  std::vector<std::vector<size_t>> orders(num_keys);
  std::vector<std::vector<size_t>> inv_rank(num_keys);
  if (have_rows) {
    for (size_t k = 0; k < num_keys; ++k) {
      orders[k] = gk.SortedOrder(k);
      inv_rank[k].resize(diag.num_instances);
      for (size_t r = 0; r < orders[k].size(); ++r) {
        inv_rank[k][orders[k][r]] = r;
      }
    }
  }

  std::unordered_map<size_t, const core::PassDegradation*> degraded;
  for (const core::PassDegradation& entry : result.degradation.passes) {
    if (entry.candidate == candidate) degraded.emplace(entry.key_index, &entry);
  }
  // Executed-prefix lengths: exact per-pass counts from the report when
  // metrics were on, else reconstructed from the degradation entry
  // (pairs_planned - pairs_elided).
  std::vector<size_t> executed(num_keys, kNoLimit);
  for (const core::DetectionReport::Row& row : result.report.rows) {
    if (row.candidate == candidate && row.key_index < num_keys) {
      executed[row.key_index] = row.stats.pairs_windowed;
    }
  }

  std::vector<int> fn_windowed_pass(fns.size(), -1);
  std::vector<int> fn_shed_pass(fns.size(), -1);

  diag.attribution.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    core::PassAttribution attr;
    attr.candidate = candidate;
    attr.key_index = k;
    attr.gold_pairs = gold_pairs.size();

    auto it = degraded.find(k);
    const core::PassDegradation* entry =
        it == degraded.end() ? nullptr : it->second;
    const bool ran = have_rows && (entry == nullptr || !entry->skipped);
    if (ran) {
      const bool shrunk =
          entry != nullptr && entry->window_used < cand->window_size;
      const size_t window = entry != nullptr ? entry->window_used
                                             : cand->window_size;
      // A shrunk boundary pass runs the plain fixed window (the engine
      // disables adaptive extension to honor the shrunk budget).
      const bool adaptive =
          cand->window_policy == core::WindowPolicy::kAdaptivePrefix &&
          !shrunk;
      size_t limit = executed[k];
      if (limit == kNoLimit && entry != nullptr) {
        limit = entry->pairs_planned > entry->pairs_elided
                    ? entry->pairs_planned - entry->pairs_elided
                    : 0;
      }
      EnumeratePass(gk, k, orders[k], *cand, window, adaptive, limit,
                    [&](size_t a, size_t b) {
                      uint64_t packed = PackPair(std::minmax(a, b));
                      const bool is_gold = gold_set.count(packed) != 0;
                      if (is_gold) ++attr.gold_windowed;
                      if (dup_set.count(packed) != 0) {
                        ++attr.accepted;
                        if (is_gold) ++attr.accepted_gold;
                      }
                      auto fn = fn_index.find(packed);
                      if (fn != fn_index.end() &&
                          fn_windowed_pass[fn->second] < 0) {
                        fn_windowed_pass[fn->second] =
                            static_cast<int>(k);
                      }
                    });
    }
    // Shed probe: which false negatives the *configured* plan of a
    // degraded pass would have windowed. Final classification prefers
    // windowed-but-rejected, so over-marking an actually-windowed pair
    // here is harmless.
    if (have_rows && entry != nullptr && !fns.empty()) {
      const bool adaptive_full =
          cand->window_policy == core::WindowPolicy::kAdaptivePrefix;
      EnumeratePass(gk, k, orders[k], *cand, cand->window_size, adaptive_full,
                    kNoLimit, [&](size_t a, size_t b) {
                      auto fn = fn_index.find(PackPair(std::minmax(a, b)));
                      if (fn != fn_index.end() &&
                          fn_shed_pass[fn->second] < 0) {
                        fn_shed_pass[fn->second] = static_cast<int>(k);
                      }
                    });
    }
    attr.precision =
        attr.accepted > 0
            ? static_cast<double>(attr.accepted_gold) / attr.accepted
            : 1.0;
    attr.recall = attr.gold_pairs > 0 ? static_cast<double>(attr.accepted_gold) /
                                            attr.gold_pairs
                                      : 0.0;
    diag.attribution.push_back(std::move(attr));
  }

  // Rebuild the similarity measure the run used, to score rejected pairs
  // and false positives exactly (child cluster sets come from the run's
  // own bottom-up results).
  util::Result<core::CandidateForest> forest =
      core::CandidateForest::Build(config, doc);
  if (!forest.ok()) return forest.status();
  int forest_index = forest->IndexOf(candidate);
  if (forest_index < 0 ||
      forest->candidates()[forest_index].NumInstances() !=
          diag.num_instances) {
    return util::Status::InvalidArgument(
        "miss diagnosis: candidate forest of the given document does not "
        "match the detection result for '" +
        candidate + "'");
  }
  const core::CandidateInstances& instances =
      forest->candidates()[forest_index];
  std::unique_ptr<core::SimilarityMeasure> measure;
  if (have_rows) {
    std::vector<const core::ClusterSet*> child_sets;
    bool children_ok = true;
    if (cand->use_descendants && !instances.child_types.empty()) {
      child_sets.reserve(instances.child_types.size());
      for (size_t child : instances.child_types) {
        const core::CandidateResult* child_result =
            result.Find(forest->candidates()[child].config->name);
        if (child_result == nullptr) {
          children_ok = false;
          break;
        }
        child_sets.push_back(&child_result->clusters);
      }
    }
    if (children_ok) {
      measure = std::make_unique<core::SimilarityMeasure>(
          *instances.config, instances, std::move(child_sets), &gk.od_pool);
    }
  }

  const bool any_degradation = !degraded.empty();
  diag.misses.reserve(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    MissedPair miss;
    miss.pair = fns[i];
    if (have_rows) {
      miss.rank_gaps.reserve(num_keys);
      miss.min_rank_gap = kNoLimit;
      for (size_t k = 0; k < num_keys; ++k) {
        size_t ra = inv_rank[k][miss.pair.first];
        size_t rb = inv_rank[k][miss.pair.second];
        size_t gap = ra > rb ? ra - rb : rb - ra;
        miss.rank_gaps.push_back(gap);
        miss.min_rank_gap = std::min(miss.min_rank_gap, gap);
      }
      if (miss.rank_gaps.empty()) miss.min_rank_gap = 0;
    }
    if (fn_windowed_pass[i] >= 0) {
      miss.kind = MissKind::kWindowedButRejected;
      miss.pass = fn_windowed_pass[i];
      if (measure != nullptr) {
        measure->Decide(gk.rows[miss.pair.first], gk.rows[miss.pair.second],
                        &miss.explain);
        miss.has_explain = true;
      }
    } else if (fn_shed_pass[i] >= 0 || (!have_rows && any_degradation)) {
      miss.kind = MissKind::kShed;
      miss.pass = fn_shed_pass[i];
    } else {
      miss.kind = MissKind::kNeverWindowed;
    }
    diag.misses.push_back(std::move(miss));
  }

  diag.false_positives.reserve(fp_pairs.size());
  for (const core::OrdinalPair& pair : fp_pairs) {
    FalsePositivePair fp;
    fp.pair = pair;
    if (measure != nullptr) {
      measure->Decide(gk.rows[pair.first], gk.rows[pair.second], &fp.explain);
      fp.has_explain = true;
    }
    diag.false_positives.push_back(std::move(fp));
  }

  return diag;
}

void AttachAttribution(const MissDiagnosis& diagnosis,
                       core::DetectionReport& report) {
  std::vector<core::PassAttribution> kept;
  kept.reserve(report.attribution.size() + diagnosis.attribution.size());
  for (core::PassAttribution& row : report.attribution) {
    if (row.candidate != diagnosis.candidate) kept.push_back(std::move(row));
  }
  for (const core::PassAttribution& row : diagnosis.attribution) {
    kept.push_back(row);
  }
  report.attribution = std::move(kept);
}

}  // namespace sxnm::eval
