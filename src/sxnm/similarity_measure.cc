#include "sxnm/similarity_measure.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string_view>

#include "text/edit_distance.h"

namespace sxnm::core {

namespace {

// Size of the intersection of two sorted unique sequences.
size_t SortedOverlap(const std::vector<int>& a, const std::vector<int>& b) {
  size_t overlap = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++overlap;
      ++ia;
      ++ib;
    }
  }
  return overlap;
}

}  // namespace

SimilarityMeasure::SimilarityMeasure(
    const CandidateConfig& config, const CandidateInstances& instances,
    std::vector<const ClusterSet*> child_cluster_sets, const OdPool* od_pool)
    : config_(config),
      instances_(instances),
      child_cluster_sets_(std::move(child_cluster_sets)),
      od_pool_(od_pool) {
  assert(child_cluster_sets_.empty() ||
         child_cluster_sets_.size() == instances_.child_types.size());

  // The l_e lists of Def. 3 as sorted unique cluster-ID vectors, built
  // once per candidate instead of once per compared pair.
  desc_cids_.resize(child_cluster_sets_.size());
  for (size_t slot = 0; slot < child_cluster_sets_.size(); ++slot) {
    const ClusterSet* clusters = child_cluster_sets_[slot];
    if (clusters == nullptr) continue;
    const auto& per_instance = instances_.desc_instances[slot];
    desc_cids_[slot].resize(per_instance.size());
    for (size_t ordinal = 0; ordinal < per_instance.size(); ++ordinal) {
      std::vector<int>& cids = desc_cids_[slot][ordinal];
      cids.reserve(per_instance[ordinal].size());
      for (size_t d : per_instance[ordinal]) cids.push_back(clusters->cid(d));
      std::sort(cids.begin(), cids.end());
      cids.erase(std::unique(cids.begin(), cids.end()), cids.end());
    }
  }

  od_is_norm_edit_.reserve(config_.od.size());
  for (const OdEntry& od : config_.od) {
    od_is_norm_edit_.push_back(od.similarity_name == "edit");
  }
}

double SimilarityMeasure::ComponentSimilarity(const GkRow& a, const GkRow& b,
                                              size_t i, double min_sim,
                                              bool* pruned_out,
                                              size_t* interned_out) const {
  if (config_.enable_fast_paths && od_is_norm_edit_[i] && od_pool_ != nullptr &&
      a.norm_ods.size() == a.ods.size() &&
      b.norm_ods.size() == b.ods.size()) {
    const OdRef ra = a.norm_ods[i];
    const OdRef rb = b.norm_ods[i];
    if (ra.id == rb.id) {
      // Interned-equal: byte-identical normalized values, so φ^edit is
      // exactly 1.0 (distance 0) — same result the kernel would produce.
      if (interned_out != nullptr) ++*interned_out;
      return 1.0;
    }
    // "edit" is NormalizedEditSimilarity: lowercase + collapse whitespace,
    // then plain edit similarity. The normalization already happened at
    // key generation, so only the (bounded) distance kernel remains.
    return text::BoundedEditSimilarity(od_pool_->View(ra), od_pool_->View(rb),
                                       min_sim, pruned_out);
  }
  return config_.od[i].similarity(a.ods[i], b.ods[i]);
}

double SimilarityMeasure::OdSimilarity(const GkRow& a, const GkRow& b) const {
  // Components missing on *both* sides carry no information and are
  // excluded, with the relevancies renormalized over the remaining
  // components — the paper's "comparisons were then only performed on
  // 'readable' attributes" behaviour. A value present on one side only
  // still counts (as dissimilarity evidence).
  return OdSimilarityBounded(a, b, /*min_required=*/0.0, nullptr);
}

double SimilarityMeasure::OdSimilarityBounded(const GkRow& a, const GkRow& b,
                                              double min_required,
                                              bool* pruned_out,
                                              size_t* interned_out) const {
  if (pruned_out != nullptr) *pruned_out = false;

  double total_weight = 0.0;
  for (size_t i = 0; i < config_.od.size(); ++i) {
    if (a.ods[i].empty() && b.ods[i].empty()) continue;
    total_weight += config_.od[i].relevance;
  }
  if (total_weight <= 0.0) return 0.0;  // nothing comparable at all

  double sim = 0.0;
  double remaining = total_weight;
  for (size_t i = 0; i < config_.od.size(); ++i) {
    const OdEntry& od = config_.od[i];
    if (a.ods[i].empty() && b.ods[i].empty()) continue;
    remaining -= od.relevance;

    // Smallest value this component may take while the pair can still
    // reach min_required with perfect scores on everything after it:
    //   (sim + relevance*s + remaining) / total_weight >= min_required.
    double comp_min = 0.0;
    if (min_required > 0.0) {
      double needed = min_required * total_weight - sim - remaining;
      if (needed > 0.0) comp_min = needed / od.relevance;
    }

    bool comp_pruned = false;
    double s = ComponentSimilarity(a, b, i, comp_min, &comp_pruned,
                                   interned_out);
    sim += od.relevance * s;

    if (min_required > 0.0) {
      double upper_bound = (sim + remaining) / total_weight;
      if (comp_pruned || upper_bound < min_required) {
        // `s` may itself be an upper bound when comp_pruned; either way
        // the true OD similarity cannot reach min_required anymore.
        if (pruned_out != nullptr) *pruned_out = true;
        return upper_bound;
      }
    }
  }
  return sim / total_weight;
}

std::vector<double> SimilarityMeasure::ComponentSimilarities(
    const GkRow& a, const GkRow& b) const {
  std::vector<double> sims;
  sims.reserve(config_.od.size());
  for (size_t i = 0; i < config_.od.size(); ++i) {
    if (a.ods[i].empty() && b.ods[i].empty()) {
      sims.push_back(0.0);
    } else {
      sims.push_back(ComponentSimilarity(a, b, i, /*min_sim=*/0.0, nullptr));
    }
  }
  return sims;
}

double SimilarityMeasure::DescendantSimilarity(size_t ordinal_a,
                                               size_t ordinal_b) const {
  if (child_cluster_sets_.empty()) return -1.0;
  if (!config_.enable_fast_paths) {
    return DescendantSimilaritySetBased(ordinal_a, ordinal_b);
  }

  double sum = 0.0;
  size_t comparable_types = 0;

  for (size_t slot = 0; slot < child_cluster_sets_.size(); ++slot) {
    if (child_cluster_sets_[slot] == nullptr) continue;
    const std::vector<int>& cids_a = desc_cids_[slot][ordinal_a];
    const std::vector<int>& cids_b = desc_cids_[slot][ordinal_b];
    if (cids_a.empty() && cids_b.empty()) continue;  // nothing to compare

    size_t overlap = SortedOverlap(cids_a, cids_b);
    size_t unions = cids_a.size() + cids_b.size() - overlap;
    double phi_desc =
        unions == 0 ? 0.0
                    : static_cast<double>(overlap) / static_cast<double>(unions);
    sum += phi_desc;
    ++comparable_types;
  }

  if (comparable_types == 0) return -1.0;
  return sum / static_cast<double>(comparable_types);  // agg() = average
}

double SimilarityMeasure::DescendantSimilaritySetBased(
    size_t ordinal_a, size_t ordinal_b) const {
  double sum = 0.0;
  size_t comparable_types = 0;

  for (size_t slot = 0; slot < child_cluster_sets_.size(); ++slot) {
    const ClusterSet* clusters = child_cluster_sets_[slot];
    if (clusters == nullptr) continue;
    const auto& per_instance = instances_.desc_instances[slot];
    const std::vector<size_t>& desc_a = per_instance[ordinal_a];
    const std::vector<size_t>& desc_b = per_instance[ordinal_b];
    if (desc_a.empty() && desc_b.empty()) continue;  // nothing to compare

    // l_e lists of Def. 3, as cluster-ID sets.
    std::set<int> cids_a, cids_b;
    for (size_t d : desc_a) cids_a.insert(clusters->cid(d));
    for (size_t d : desc_b) cids_b.insert(clusters->cid(d));

    size_t overlap = 0;
    for (int cid : cids_a) overlap += cids_b.count(cid);
    size_t unions = cids_a.size() + cids_b.size() - overlap;
    double phi_desc =
        unions == 0 ? 0.0
                    : static_cast<double>(overlap) / static_cast<double>(unions);
    sum += phi_desc;
    ++comparable_types;
  }

  if (comparable_types == 0) return -1.0;
  return sum / static_cast<double>(comparable_types);
}

double SimilarityMeasure::MinUsefulOd(bool desc_possible) const {
  const ClassifierConfig& cls = config_.classifier;
  double t = cls.od_threshold;
  double m = t;
  if (desc_possible) {
    switch (cls.mode) {
      case CombineMode::kOdOnly:
      case CombineMode::kDescGate:
        m = t;  // the OD must clear the threshold by itself
        break;
      case CombineMode::kAverage:
      case CombineMode::kDescBoost:
        m = 2.0 * t - 1.0;  // descendants (boosted or not) at most 1
        break;
      case CombineMode::kWeighted:
        m = cls.od_weight > 0.0
                ? (t - (1.0 - cls.od_weight)) / cls.od_weight
                : 0.0;  // weight 0: the OD never matters, never prune
        break;
    }
  }
  // Safety margin: pruning must never flip a borderline accept into a
  // reject through bound arithmetic rounding differently than the exact
  // path.
  return std::max(0.0, m - 1e-9);
}

SimilarityVerdict SimilarityMeasure::Compare(const GkRow& a,
                                             const GkRow& b) const {
  return CompareImpl(a, b, /*bounded=*/false);
}

SimilarityVerdict SimilarityMeasure::CompareFast(const GkRow& a,
                                                 const GkRow& b) const {
  return CompareImpl(a, b, /*bounded=*/config_.enable_fast_paths);
}

SimilarityVerdict SimilarityMeasure::CompareImpl(const GkRow& a,
                                                 const GkRow& b,
                                                 bool bounded) const {
  const ClassifierConfig& cls = config_.classifier;
  SimilarityVerdict verdict;

  if (!config_.theory.empty()) {
    // Equational theory replaces the threshold classification (Sec. 5).
    // Rules read the per-component similarities, so OD pruning does not
    // apply; the OD similarity is derived from the same component values
    // (identical arithmetic to OdSimilarity).
    std::vector<double> comp = ComponentSimilarities(a, b);
    double sim = 0.0, weight = 0.0;
    for (size_t i = 0; i < config_.od.size(); ++i) {
      if (a.ods[i].empty() && b.ods[i].empty()) continue;
      sim += config_.od[i].relevance * comp[i];
      weight += config_.od[i].relevance;
    }
    verdict.od_sim = weight > 0.0 ? sim / weight : 0.0;

    // The descendant similarity is only worth computing when some rule
    // actually conditions on it.
    double desc = -1.0;
    if (config_.use_descendants && config_.theory.UsesDescendants()) {
      desc = DescendantSimilarity(a.ordinal, b.ordinal);
      verdict.desc_evaluated = true;
    }
    verdict.used_descendants = desc >= 0.0;
    verdict.desc_sim = verdict.used_descendants ? desc : 0.0;

    std::vector<int> od_pids;
    od_pids.reserve(config_.od.size());
    for (const OdEntry& od : config_.od) od_pids.push_back(od.pid);
    verdict.combined = verdict.od_sim;
    verdict.is_duplicate = config_.theory.Fires(comp, od_pids, desc);
    return verdict;
  }

  bool desc_possible = config_.use_descendants &&
                       !child_cluster_sets_.empty() &&
                       cls.mode != CombineMode::kOdOnly;

  double min_od = bounded ? MinUsefulOd(desc_possible) : 0.0;
  bool pruned = false;
  double od = OdSimilarityBounded(a, b, min_od, &pruned,
                                  &verdict.interned_equal);
  verdict.od_sim = od;
  if (pruned) {
    // Even the upper bound stays below every branch's requirement: not a
    // duplicate, whatever the descendants say.
    verdict.combined = od;
    verdict.pruned = true;
    return verdict;
  }

  if (!desc_possible) {
    // Leaf candidate, descendants disabled, or OD-only mode: classify on
    // the object description alone.
    verdict.combined = od;
    verdict.is_duplicate = od >= cls.od_threshold;
    return verdict;
  }

  // Descendant short-circuit: skip the Jaccard when every possible value
  // (including "no descendant info", which falls back to the plain OD
  // threshold) yields the same verdict. The bounds are evaluated with the
  // same formulas as the exact combination below, so floating-point
  // monotonicity keeps the classification identical.
  double t = cls.od_threshold;
  switch (cls.mode) {
    case CombineMode::kOdOnly:
      break;  // unreachable: desc_possible excludes kOdOnly
    case CombineMode::kAverage:
    case CombineMode::kDescBoost:
      if (0.5 * (od + 1.0) < t && od < t) {
        verdict.combined = od;
        verdict.desc_short_circuit = true;
        return verdict;  // reject in every branch
      }
      if (0.5 * od >= t && od >= t) {
        verdict.combined = od;
        verdict.is_duplicate = true;
        verdict.desc_short_circuit = true;
        return verdict;  // accept in every branch
      }
      break;
    case CombineMode::kWeighted: {
      double w = cls.od_weight;
      if (w * od + (1.0 - w) < t && od < t) {
        verdict.combined = od;
        verdict.desc_short_circuit = true;
        return verdict;
      }
      if (w * od >= t && od >= t) {
        verdict.combined = od;
        verdict.is_duplicate = true;
        verdict.desc_short_circuit = true;
        return verdict;
      }
      break;
    }
    case CombineMode::kDescGate:
      if (od < t) {
        verdict.combined = od;
        verdict.desc_short_circuit = true;
        return verdict;  // the gate can only veto, never rescue
      }
      break;
  }

  double desc = DescendantSimilarity(a.ordinal, b.ordinal);
  verdict.desc_evaluated = true;
  verdict.used_descendants = desc >= 0.0;
  verdict.desc_sim = verdict.used_descendants ? desc : 0.0;

  if (!verdict.used_descendants) {
    // No descendant info for the pair: classify on the object
    // description alone.
    verdict.combined = od;
    verdict.is_duplicate = od >= t;
    return verdict;
  }

  switch (cls.mode) {
    case CombineMode::kOdOnly:
      verdict.combined = od;
      break;
    case CombineMode::kAverage:
      verdict.combined = 0.5 * (od + verdict.desc_sim);
      break;
    case CombineMode::kWeighted:
      verdict.combined =
          cls.od_weight * od + (1.0 - cls.od_weight) * verdict.desc_sim;
      break;
    case CombineMode::kDescBoost: {
      // The paper's Experiment set 3 reading: a descendant overlap above
      // the descendants threshold means the children sets are similar
      // (full credit), compensating the harsh Jaccard of non-overlapping
      // children.
      double boosted =
          verdict.desc_sim >= cls.desc_threshold ? 1.0 : verdict.desc_sim;
      verdict.combined = 0.5 * (od + boosted);
      break;
    }
    case CombineMode::kDescGate:
      // The OD decides; descendants act as a veto: real duplicates share
      // at least a small fraction of their children's clusters, whereas
      // confusers (e.g. series CDs with disjoint track lists) do not.
      verdict.combined = od;
      verdict.is_duplicate =
          od >= t && verdict.desc_sim >= cls.desc_threshold;
      return verdict;
  }
  verdict.is_duplicate = verdict.combined >= t;
  return verdict;
}

obs::PairExplain SimilarityMeasure::Explain(const GkRow& a,
                                            const GkRow& b) const {
  const ClassifierConfig& cls = config_.classifier;
  obs::PairExplain out;
  out.threshold = cls.od_threshold;

  const bool pooled = od_pool_ != nullptr &&
                      a.norm_ods.size() == a.ods.size() &&
                      b.norm_ods.size() == b.ods.size();

  // Exact per-component detail. The explain path never prunes: every
  // comparable component gets its true similarity and (for the edit φ
  // with interned normalized values) its true edit distance.
  double weighted_sim = 0.0;
  double total_weight = 0.0;
  out.components.reserve(config_.od.size());
  for (size_t i = 0; i < config_.od.size(); ++i) {
    obs::ExplainOdComponent comp;
    comp.index = i;
    comp.weight = config_.od[i].relevance;
    comp.comparable = !(a.ods[i].empty() && b.ods[i].empty());
    const bool edit_entry = pooled && od_is_norm_edit_[i];
    if (pooled) {
      comp.ref_a = a.norm_ods[i].id;
      comp.ref_b = b.norm_ods[i].id;
    }
    if (edit_entry) {
      comp.value_a = std::string(od_pool_->View(a.norm_ods[i]));
      comp.value_b = std::string(od_pool_->View(b.norm_ods[i]));
    } else {
      comp.value_a = a.ods[i];
      comp.value_b = b.ods[i];
    }
    if (comp.comparable) {
      comp.interned_equal = edit_entry && a.norm_ods[i].id == b.norm_ods[i].id;
      if (edit_entry) {
        comp.edit_distance =
            comp.interned_equal
                ? 0
                : static_cast<int64_t>(text::LevenshteinDistance(
                      od_pool_->View(a.norm_ods[i]),
                      od_pool_->View(b.norm_ods[i])));
      }
      comp.sim = ComponentSimilarity(a, b, i, /*min_sim=*/0.0, nullptr);
      weighted_sim += comp.weight * comp.sim;
      total_weight += comp.weight;
    }
    out.components.push_back(std::move(comp));
  }
  out.od_valid = total_weight > 0.0;
  out.od_sim = out.od_valid ? weighted_sim / total_weight : 0.0;

  const bool desc_possible = config_.use_descendants &&
                             !child_cluster_sets_.empty() &&
                             cls.mode != CombineMode::kOdOnly;

  // Replay the bounded kernel's pruning decision to flag where the
  // sliding window would have bailed out (purely informational; the
  // similarities above stay exact).
  if (config_.enable_fast_paths && config_.theory.empty()) {
    double min_required = MinUsefulOd(desc_possible);
    if (min_required > 0.0) {
      double sim = 0.0;
      double remaining = total_weight;
      for (size_t i = 0; i < config_.od.size(); ++i) {
        if (a.ods[i].empty() && b.ods[i].empty()) continue;
        const OdEntry& od = config_.od[i];
        remaining -= od.relevance;
        double comp_min = 0.0;
        double needed = min_required * total_weight - sim - remaining;
        if (needed > 0.0) comp_min = needed / od.relevance;
        bool comp_pruned = false;
        double s = ComponentSimilarity(a, b, i, comp_min, &comp_pruned);
        sim += od.relevance * s;
        double upper_bound =
            total_weight > 0.0 ? (sim + remaining) / total_weight : 0.0;
        if (comp_pruned || upper_bound < min_required) {
          out.components[i].bailout = true;
          break;
        }
      }
    }
  }

  // Descendant detail: one slot per child type with a cluster set, with
  // the multiset sizes, intersection, and union behind the Jaccard.
  if (config_.use_descendants) {
    for (size_t slot = 0; slot < child_cluster_sets_.size(); ++slot) {
      if (child_cluster_sets_[slot] == nullptr) continue;
      obs::ExplainDescSlot d;
      d.child = slot;
      const std::vector<int>& cids_a = desc_cids_[slot][a.ordinal];
      const std::vector<int>& cids_b = desc_cids_[slot][b.ordinal];
      d.size_a = cids_a.size();
      d.size_b = cids_b.size();
      d.intersection = SortedOverlap(cids_a, cids_b);
      d.union_size = d.size_a + d.size_b - d.intersection;
      d.jaccard = d.union_size == 0
                      ? 0.0
                      : static_cast<double>(d.intersection) /
                            static_cast<double>(d.union_size);
      out.descendants.push_back(d);
    }
  }

  if (!config_.theory.empty()) {
    // Theory classification: the score facing the user is the OD
    // similarity; whether the rules fired is recorded explicitly.
    std::vector<double> comp = ComponentSimilarities(a, b);
    double desc = -1.0;
    if (config_.use_descendants && config_.theory.UsesDescendants()) {
      desc = DescendantSimilarity(a.ordinal, b.ordinal);
    }
    out.desc_valid = desc >= 0.0;
    out.desc_sim = out.desc_valid ? desc : 0.0;
    std::vector<int> od_pids;
    od_pids.reserve(config_.od.size());
    for (const OdEntry& od : config_.od) od_pids.push_back(od.pid);
    out.theory_equal = config_.theory.Fires(comp, od_pids, desc);
    out.score = out.od_sim;
    return out;
  }

  if (!desc_possible) {
    out.score = out.od_sim;
    return out;
  }

  double desc = DescendantSimilarity(a.ordinal, b.ordinal);
  out.desc_valid = desc >= 0.0;
  out.desc_sim = out.desc_valid ? desc : 0.0;
  if (!out.desc_valid) {
    out.score = out.od_sim;
    return out;
  }
  switch (cls.mode) {
    case CombineMode::kOdOnly:
    case CombineMode::kDescGate:
      out.score = out.od_sim;
      break;
    case CombineMode::kAverage:
      out.score = 0.5 * (out.od_sim + out.desc_sim);
      break;
    case CombineMode::kWeighted:
      out.score =
          cls.od_weight * out.od_sim + (1.0 - cls.od_weight) * out.desc_sim;
      break;
    case CombineMode::kDescBoost: {
      double boosted =
          out.desc_sim >= cls.desc_threshold ? 1.0 : out.desc_sim;
      out.score = 0.5 * (out.od_sim + boosted);
      break;
    }
  }
  return out;
}

}  // namespace sxnm::core
