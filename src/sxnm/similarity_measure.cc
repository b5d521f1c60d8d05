#include "sxnm/similarity_measure.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>

#include "text/edit_distance.h"
#include "text/myers.h"

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
      child_cluster_sets_(std::move(child_cluster_sets)),
      od_pool_(od_pool) {
  assert(child_cluster_sets_.empty() ||
         child_cluster_sets_.size() == instances.child_types.size());

  // The l_e lists of Def. 3 as sorted unique cluster-ID vectors, built
  // once per candidate instead of once per compared pair.
  desc_cids_.resize(child_cluster_sets_.size());
  for (size_t slot = 0; slot < child_cluster_sets_.size(); ++slot) {
    const ClusterSet* clusters = child_cluster_sets_[slot];
    if (clusters == nullptr) continue;
    const auto& per_instance = instances.desc_instances[slot];
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
  if (od_is_norm_edit_[i] && Pooled(a, b)) {
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
  bool pruned = false;
  return OdSimilarityBounded<false>(a, b, /*min_required=*/0.0, &pruned,
                                    nullptr, nullptr);
}

template <bool kTraced>
double SimilarityMeasure::OdSimilarityBounded(const GkRow& a, const GkRow& b,
                                              double min_required,
                                              bool* pruned_out,
                                              size_t* interned_out,
                                              obs::PairExplain* trace) const {
  *pruned_out = false;

  double total_weight = 0.0;
  for (size_t i = 0; i < config_.od.size(); ++i) {
    if (a.ods[i].empty() && b.ods[i].empty()) continue;
    total_weight += config_.od[i].relevance;
  }
  if (total_weight <= 0.0) return 0.0;  // nothing comparable at all

  double sim = 0.0;
  double remaining = total_weight;
  double bound = 0.0;      // traced: the upper bound at the bail-out point
  double exact_sum = 0.0;  // traced: the exact weighted sum
  for (size_t i = 0; i < config_.od.size(); ++i) {
    const OdEntry& od = config_.od[i];
    if (a.ods[i].empty() && b.ods[i].empty()) continue;
    if constexpr (kTraced) {
      if (*pruned_out) {
        // Past the bail-out point: scored for the trace only.
        exact_sum += od.relevance * TraceComponent(a, b, i, 0.0, false, trace);
        continue;
      }
    }
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
    if constexpr (kTraced) {
      exact_sum +=
          od.relevance * TraceComponent(a, b, i, s, !comp_pruned, trace);
    }

    if (min_required > 0.0) {
      double upper_bound = (sim + remaining) / total_weight;
      if (comp_pruned || upper_bound < min_required) {
        // `s` may itself be an upper bound when comp_pruned; either way
        // the true OD similarity cannot reach min_required anymore.
        *pruned_out = true;
        if constexpr (!kTraced) {
          return upper_bound;
        } else {
          trace->components[i].bailout = true;
          bound = upper_bound;
        }
      }
    }
  }
  if constexpr (kTraced) {
    trace->od_valid = true;
    trace->od_sim = exact_sum / total_weight;
    if (*pruned_out) return bound;
  }
  return sim / total_weight;
}

double SimilarityMeasure::DescendantSimilarity(
    size_t ordinal_a, size_t ordinal_b,
    std::vector<obs::ExplainDescSlot>* slots) const {
  if (child_cluster_sets_.empty()) return -1.0;

  double sum = 0.0;
  size_t comparable_types = 0;

  for (size_t slot = 0; slot < child_cluster_sets_.size(); ++slot) {
    if (child_cluster_sets_[slot] == nullptr) continue;
    const std::vector<int>& cids_a = desc_cids_[slot][ordinal_a];
    const std::vector<int>& cids_b = desc_cids_[slot][ordinal_b];
    size_t overlap = SortedOverlap(cids_a, cids_b);
    size_t unions = cids_a.size() + cids_b.size() - overlap;
    double phi_desc =
        unions == 0 ? 0.0
                    : static_cast<double>(overlap) / static_cast<double>(unions);
    if (slots != nullptr) {
      slots->push_back(
          {slot, cids_a.size(), cids_b.size(), overlap, unions, phi_desc});
    }
    if (unions == 0) continue;  // both lists empty: nothing to compare
    sum += phi_desc;
    ++comparable_types;
  }

  if (comparable_types == 0) return -1.0;
  return sum / static_cast<double>(comparable_types);  // agg() = average
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

double SimilarityMeasure::Combine(double od, double desc) const {
  const ClassifierConfig& cls = config_.classifier;
  switch (cls.mode) {
    case CombineMode::kOdOnly:
    case CombineMode::kDescGate:
      return od;
    case CombineMode::kAverage:
      return 0.5 * (od + desc);
    case CombineMode::kWeighted:
      return cls.od_weight * od + (1.0 - cls.od_weight) * desc;
    case CombineMode::kDescBoost:
      // The paper's Experiment set 3 reading: a descendant overlap above
      // the descendants threshold means the children sets are similar
      // (full credit), compensating the harsh Jaccard of non-overlapping
      // children.
      return 0.5 * (od + (desc >= cls.desc_threshold ? 1.0 : desc));
  }
  return od;
}

void SimilarityMeasure::StartTrace(const GkRow& a, const GkRow& b,
                                   obs::PairExplain* trace) const {
  *trace = obs::PairExplain();
  trace->threshold = config_.classifier.od_threshold;
  const bool pooled = Pooled(a, b);
  trace->components.resize(config_.od.size());
  for (size_t i = 0; i < config_.od.size(); ++i) {
    obs::ExplainOdComponent& comp = trace->components[i];
    comp.index = i;
    comp.weight = config_.od[i].relevance;
    comp.comparable = !(a.ods[i].empty() && b.ods[i].empty());
    comp.ref_a = pooled ? a.norm_ods[i].id : 0;
    comp.ref_b = pooled ? b.norm_ods[i].id : 0;
    const bool pooled_edit = pooled && od_is_norm_edit_[i];
    comp.value_a = pooled_edit ? od_pool_->View(a.norm_ods[i]) : a.ods[i];
    comp.value_b = pooled_edit ? od_pool_->View(b.norm_ods[i]) : b.ods[i];
  }
}

double SimilarityMeasure::TraceComponent(const GkRow& a, const GkRow& b,
                                         size_t i, double sim, bool sim_exact,
                                         obs::PairExplain* trace) const {
  obs::ExplainOdComponent& comp = trace->components[i];
  if (!sim_exact) {
    // Trace-only scoring is not kernel work: keep it out of the thread's
    // Myers tallies, which text.myers_words reads per window pass.
    const text::MyersStats myers = text::ThreadMyersStats();
    sim = ComponentSimilarity(a, b, i, /*min_sim=*/0.0, nullptr);
    text::ThreadMyersStats() = myers;
  }
  comp.sim = sim;
  if (od_is_norm_edit_[i] && Pooled(a, b)) {
    // The exact φ^edit is 1 - distance / max(|a|, |b|), so the distance
    // is recovered from it exactly, without another DP.
    comp.interned_equal = a.norm_ods[i].id == b.norm_ods[i].id;
    const uint32_t longest =
        std::max(a.norm_ods[i].length, b.norm_ods[i].length);
    comp.edit_distance =
        std::llround((1.0 - sim) * static_cast<double>(longest));
  }
  return sim;
}

SimilarityVerdict SimilarityMeasure::Decide(const GkRow& a, const GkRow& b,
                                            obs::PairExplain* trace) const {
  return trace == nullptr ? DecideImpl<false>(a, b, nullptr)
                          : DecideImpl<true>(a, b, trace);
}

template <bool kTraced>
SimilarityVerdict SimilarityMeasure::DecideImpl(
    const GkRow& a, const GkRow& b, obs::PairExplain* trace) const {
  const ClassifierConfig& cls = config_.classifier;
  SimilarityVerdict verdict;
  double trace_desc = -1.0;  // traced: the exact descendant similarity
  if constexpr (kTraced) {
    StartTrace(a, b, trace);
    if (config_.use_descendants) {
      trace_desc =
          DescendantSimilarity(a.ordinal, b.ordinal, &trace->descendants);
    }
  }

  if (!config_.theory.empty()) {
    // Equational theory replaces the threshold classification (Sec. 5).
    // Rules read the per-component similarities, so OD pruning does not
    // apply; the OD similarity is derived from the same component values
    // (identical arithmetic to OdSimilarity). Components missing on both
    // sides stay 0.0 (a rule condition on such a component fails).
    std::vector<double> comp(config_.od.size(), 0.0);
    double sim = 0.0, weight = 0.0;
    for (size_t i = 0; i < config_.od.size(); ++i) {
      if (a.ods[i].empty() && b.ods[i].empty()) continue;
      comp[i] = ComponentSimilarity(a, b, i, /*min_sim=*/0.0, nullptr);
      sim += config_.od[i].relevance * comp[i];
      weight += config_.od[i].relevance;
      if constexpr (kTraced) {
        TraceComponent(a, b, i, comp[i], /*sim_exact=*/true, trace);
      }
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
    if constexpr (kTraced) {
      // The score facing the user is the OD similarity; whether the
      // rules fired is recorded explicitly.
      trace->od_valid = weight > 0.0;
      trace->od_sim = trace->score = verdict.od_sim;
      trace->desc_valid = verdict.used_descendants;
      trace->desc_sim = verdict.desc_sim;
      trace->theory_equal = verdict.is_duplicate;
    }
    return verdict;
  }

  bool desc_possible = config_.use_descendants &&
                       !child_cluster_sets_.empty() &&
                       cls.mode != CombineMode::kOdOnly;

  bool pruned = false;
  double od = OdSimilarityBounded<kTraced>(
      a, b, MinUsefulOd(desc_possible), &pruned, &verdict.interned_equal,
      trace);
  if constexpr (kTraced) {
    // The exact score, whatever the shortcuts below skip.
    if (desc_possible) {
      trace->desc_valid = trace_desc >= 0.0;
      trace->desc_sim = trace->desc_valid ? trace_desc : 0.0;
    }
    trace->score = trace->desc_valid ? Combine(trace->od_sim, trace->desc_sim)
                                     : trace->od_sim;
  }

  // The verdict on the object description alone. It is final when pruned
  // (even the upper bound stays below every branch's requirement, whatever
  // the descendants say) and for a leaf candidate, with descendants
  // disabled, or in OD-only mode.
  const double t = cls.od_threshold;
  verdict.od_sim = verdict.combined = od;
  verdict.pruned = pruned;
  verdict.is_duplicate = !pruned && od >= t;
  if (pruned || !desc_possible) return verdict;

  // Descendant short-circuit: skip the Jaccard when every possible value
  // (including "no descendant info", which falls back to the plain OD
  // threshold) yields the same verdict. Combine is monotone in the
  // descendant similarity, so its values at 0 and 1 bound every branch,
  // and they are evaluated with the same formula as the exact
  // combination below, so floating-point monotonicity keeps the
  // classification identical. The kDescGate gate can only veto, never
  // rescue, so it never accepts early.
  if ((Combine(od, 1.0) < t && od < t) ||
      (cls.mode != CombineMode::kDescGate && Combine(od, 0.0) >= t &&
       od >= t)) {
    verdict.desc_short_circuit = true;
    return verdict;
  }

  double desc = DescendantSimilarity(a.ordinal, b.ordinal);
  verdict.desc_evaluated = true;
  // No descendant info for the pair: the OD-alone verdict stands.
  if (desc < 0.0) return verdict;

  verdict.used_descendants = true;
  verdict.desc_sim = desc;
  verdict.combined = Combine(od, desc);
  // Under kDescGate the OD decides and descendants act as a veto: real
  // duplicates share at least a small fraction of their children's
  // clusters, whereas confusers (e.g. series CDs with disjoint track
  // lists) do not.
  verdict.is_duplicate = cls.mode == CombineMode::kDescGate
                             ? od >= t && desc >= cls.desc_threshold
                             : verdict.combined >= t;
  return verdict;
}

}  // namespace sxnm::core
