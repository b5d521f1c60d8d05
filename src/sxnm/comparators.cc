#include "sxnm/comparators.h"

#include <algorithm>
#include <set>

#include "sxnm/similarity_measure.h"
#include "sxnm/sliding_window.h"
#include "sxnm/transitive_closure.h"
#include "util/string_util.h"

namespace sxnm::core {

namespace {

using util::Result;
using util::Status;

// Upper bound on one OD component's similarity, valid for the edit-
// distance family (similarity can never exceed min_len/max_len); 1.0 for
// other φ functions.
double ComponentUpperBound(const OdEntry& od, const std::string& a,
                           const std::string& b) {
  if (!util::StartsWith(od.similarity_name, "edit")) return 1.0;
  size_t la = a.size(), lb = b.size();
  size_t lo = std::min(la, lb), hi = std::max(la, lb);
  if (hi == 0) return 1.0;
  if (lo == 0) return 0.0;
  return static_cast<double>(lo) / static_cast<double>(hi);
}

// Upper bound on the OD similarity of a pair (mirrors the renormalizing
// weighted sum of SimilarityMeasure::OdSimilarity).
double OdUpperBound(const CandidateConfig& cand, const GkRow& a,
                    const GkRow& b) {
  double sum = 0.0, weight = 0.0;
  for (size_t i = 0; i < cand.od.size(); ++i) {
    if (a.ods[i].empty() && b.ods[i].empty()) continue;
    sum += cand.od[i].relevance *
           ComponentUpperBound(cand.od[i], a.ods[i], b.ods[i]);
    weight += cand.od[i].relevance;
  }
  if (weight <= 0.0) return 0.0;
  return sum / weight;
}

// True when the pair can be skipped: even the most optimistic combined
// similarity stays below the decision threshold.
bool FilterRejects(const CandidateConfig& cand, const GkRow& a,
                   const GkRow& b) {
  if (!cand.theory.empty()) return false;  // rules are arbitrary
  double ub_od = OdUpperBound(cand, a, b);
  const ClassifierConfig& cls = cand.classifier;
  double ub_combined;
  switch (cls.mode) {
    case CombineMode::kOdOnly:
    case CombineMode::kDescGate:
      ub_combined = ub_od;  // the OD must clear the threshold by itself
      break;
    case CombineMode::kAverage:
    case CombineMode::kDescBoost:
      ub_combined = 0.5 * (ub_od + 1.0);  // descendants at most 1
      break;
    case CombineMode::kWeighted:
      ub_combined = cls.od_weight * ub_od + (1.0 - cls.od_weight);
      break;
    default:
      ub_combined = 1.0;
      break;
  }
  return ub_combined < cls.od_threshold;
}

}  // namespace

util::Result<DetectionResult> AllPairsDetector::Run(
    const xml::Document& doc) const {
  SXNM_RETURN_IF_ERROR(config_.Validate());

  DetectionResult result;
  util::Stopwatch kg_watch;
  auto forest_or = CandidateForest::Build(config_, doc);
  if (!forest_or.ok()) return forest_or.status();
  const CandidateForest& forest = forest_or.value();
  std::vector<GkTable> gk(forest.candidates().size());
  for (size_t t = 0; t < forest.candidates().size(); ++t) {
    gk[t] = GenerateKeys(*forest.candidates()[t].config,
                         forest.candidates()[t]);
  }
  result.timer.Add(kPhaseKeyGeneration, kg_watch.ElapsedSeconds());

  std::vector<ClusterSet> cluster_sets(forest.candidates().size());
  for (size_t t : forest.ProcessingOrder()) {
    const CandidateInstances& instances = forest.candidates()[t];
    const CandidateConfig& cand = *instances.config;

    std::vector<const ClusterSet*> child_sets;
    if (cand.use_descendants && !instances.child_types.empty()) {
      for (size_t child : instances.child_types) {
        child_sets.push_back(&cluster_sets[child]);
      }
    }
    SimilarityMeasure measure(cand, instances, std::move(child_sets),
                              &gk[t].od_pool);

    CandidateResult cand_result;
    cand_result.name = cand.name;
    cand_result.num_instances = instances.NumInstances();

    util::Stopwatch sw_watch;
    std::vector<OrdinalPair> accepted;
    const GkTable& table = gk[t];
    size_t n = table.rows.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (options_.use_filter &&
            FilterRejects(cand, table.rows[i], table.rows[j])) {
          continue;
        }
        ++cand_result.comparisons;
        SimilarityVerdict verdict =
            measure.Decide(table.rows[i], table.rows[j]);
        if (verdict.is_duplicate) accepted.emplace_back(i, j);
      }
    }
    cand_result.duplicate_pairs = std::move(accepted);
    for (const auto& [a, b] : cand_result.duplicate_pairs) {
      cand_result.duplicate_eid_pairs.emplace_back(instances.eids[a],
                                                   instances.eids[b]);
    }
    result.timer.Add(kPhaseSlidingWindow, sw_watch.ElapsedSeconds());

    util::Stopwatch tc_watch;
    cluster_sets[t] = ComputeTransitiveClosure(instances.NumInstances(),
                                               cand_result.duplicate_pairs);
    result.timer.Add(kPhaseTransitiveClosure, tc_watch.ElapsedSeconds());

    cand_result.clusters = cluster_sets[t];
    cand_result.gk = std::move(gk[t]);
    result.candidates.push_back(std::move(cand_result));
  }
  return result;
}

util::Result<DetectionResult> TopDownDetector::Run(
    const xml::Document& doc) const {
  SXNM_RETURN_IF_ERROR(config_.Validate());
  if (options_.root_window < 2) {
    return Status::InvalidArgument("root_window must be >= 2");
  }

  DetectionResult result;
  util::Stopwatch kg_watch;
  auto forest_or = CandidateForest::Build(config_, doc);
  if (!forest_or.ok()) return forest_or.status();
  const CandidateForest& forest = forest_or.value();
  std::vector<GkTable> gk(forest.candidates().size());
  for (size_t t = 0; t < forest.candidates().size(); ++t) {
    gk[t] = GenerateKeys(*forest.candidates()[t].config,
                         forest.candidates()[t]);
  }
  result.timer.Add(kPhaseKeyGeneration, kg_watch.ElapsedSeconds());

  // parents_of[t] = (parent candidate index, slot of t within the parent).
  size_t n_types = forest.candidates().size();
  std::vector<std::vector<std::pair<size_t, size_t>>> parents_of(n_types);
  for (size_t s = 0; s < n_types; ++s) {
    const CandidateInstances& info = forest.candidates()[s];
    for (size_t slot = 0; slot < info.child_types.size(); ++slot) {
      parents_of[info.child_types[slot]].emplace_back(s, slot);
    }
  }

  // Top-down: reverse of the bottom-up order (parents first).
  std::vector<size_t> top_down(forest.ProcessingOrder().rbegin(),
                               forest.ProcessingOrder().rend());

  std::vector<ClusterSet> cluster_sets(n_types);
  for (size_t t : top_down) {
    const CandidateInstances& instances = forest.candidates()[t];
    const CandidateConfig& cand = *instances.config;
    // No descendant information in top-down order.
    SimilarityMeasure measure(cand, instances, {}, &gk[t].od_pool);

    CandidateResult cand_result;
    cand_result.name = cand.name;
    cand_result.num_instances = instances.NumInstances();

    util::Stopwatch sw_watch;
    std::set<OrdinalPair> accepted;
    std::set<OrdinalPair> compared;
    const GkTable& table = gk[t];

    auto compare = [&](size_t a, size_t b) {
      OrdinalPair pair = std::minmax(a, b);
      if (!compared.insert(pair).second) return;
      ++cand_result.comparisons;
      SimilarityVerdict verdict =
          measure.Decide(table.rows[pair.first], table.rows[pair.second]);
      if (verdict.is_duplicate) accepted.insert(pair);
    };

    if (parents_of[t].empty()) {
      // Root candidate: multi-pass sorted window.
      for (size_t key_index = 0; key_index < table.num_keys; ++key_index) {
        std::vector<size_t> order = table.SortedOrder(key_index);
        ForEachWindowPair(order, options_.root_window, 0, order.size(),
                          NeverStop{}, compare);
      }
    } else {
      // Child candidate: compare only within a parent cluster ("children
      // with same or similar ancestors").
      for (const auto& [parent_type, slot] : parents_of[t]) {
        const CandidateInstances& parent_info =
            forest.candidates()[parent_type];
        const ClusterSet& parent_clusters = cluster_sets[parent_type];
        for (const auto& parent_cluster : parent_clusters.clusters()) {
          // Union of the members' nearest descendant instances of type t.
          std::vector<size_t> scope;
          for (size_t parent_ordinal : parent_cluster) {
            const auto& descendants =
                parent_info.desc_instances[slot][parent_ordinal];
            scope.insert(scope.end(), descendants.begin(),
                         descendants.end());
          }
          for (size_t i = 0; i < scope.size(); ++i) {
            for (size_t j = i + 1; j < scope.size(); ++j) {
              compare(scope[i], scope[j]);
            }
          }
        }
      }
    }

    cand_result.duplicate_pairs.assign(accepted.begin(), accepted.end());
    for (const auto& [a, b] : cand_result.duplicate_pairs) {
      cand_result.duplicate_eid_pairs.emplace_back(instances.eids[a],
                                                   instances.eids[b]);
    }
    result.timer.Add(kPhaseSlidingWindow, sw_watch.ElapsedSeconds());

    util::Stopwatch tc_watch;
    cluster_sets[t] = ComputeTransitiveClosure(instances.NumInstances(),
                                               cand_result.duplicate_pairs);
    result.timer.Add(kPhaseTransitiveClosure, tc_watch.ElapsedSeconds());

    cand_result.clusters = cluster_sets[t];
    cand_result.gk = std::move(gk[t]);
    result.candidates.push_back(std::move(cand_result));
  }
  return result;
}

}  // namespace sxnm::core
