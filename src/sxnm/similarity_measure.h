// SXNM similarity measure: OD similarity (Def. 2), descendant similarity
// (Def. 3), and their combination into a duplicate classification.
//
// A pair is decided in one place, `Decide`. It prunes the OD computation
// with bounded edit distances as soon as the best achievable weighted sum
// can no longer reach the classifier threshold, and skips the descendant
// Jaccard whenever its value cannot change the verdict. A pruned verdict
// reports an *upper bound* in `od_sim`/`combined` instead of the exact
// value. Passing a trace makes the same pass record the exact values as
// well (for the explain log), so the traced verdict is the untraced one.

#ifndef SXNM_SXNM_SIMILARITY_MEASURE_H_
#define SXNM_SXNM_SIMILARITY_MEASURE_H_

#include <vector>

#include "obs/explain.h"
#include "sxnm/candidate_tree.h"
#include "sxnm/cluster_set.h"
#include "sxnm/config.h"
#include "sxnm/key_generation.h"

namespace sxnm::core {

/// Outcome of comparing two candidate instances.
struct SimilarityVerdict {
  double od_sim = 0.0;        // sim^OD (Def. 2); an upper bound when
                              // `pruned`
  double desc_sim = 0.0;      // sim^Desc (Def. 3); meaningful only when
                              // used_descendants
  double combined = 0.0;      // sim^comb; an upper bound when `pruned`
  bool used_descendants = false;
  bool is_duplicate = false;
  bool pruned = false;        // the bounded OD loop bailed out early;
                              // od_sim and combined are upper bounds,
                              // is_duplicate is still correct

  // Kernel accounting for the obs layer (which fast path decided the
  // verdict). Never feeds back into the classification.
  bool desc_evaluated = false;      // the descendant Jaccard actually ran
  bool desc_short_circuit = false;  // descendants were available but the
                                    // OD bounds alone fixed the verdict
  size_t interned_equal = 0;        // OD components scored 1.0 via interned
                                    // ID equality, no bytes touched
};

/// Compares instances of one candidate. Descendant information is
/// optional: pass the child cluster sets produced earlier in the
/// bottom-up order (parallel to `instances.child_types`); pass an empty
/// vector for leaf candidates or when descendants are disabled.
///
/// All comparison methods are const and touch no mutable state, so one
/// instance may be shared by concurrent window passes.
class SimilarityMeasure {
 public:
  /// Each element of `child_cluster_sets` must outlive this object.
  /// `child_cluster_sets` is either empty or parallel to
  /// `instances.child_types`. Construction precomputes the per-ordinal
  /// sorted, deduplicated descendant cluster-ID lists (the l_e of Def. 3),
  /// so per-pair descendant comparison is a linear merge.
  ///
  /// `od_pool` (when non-null, must outlive this object) is the pool the
  /// rows' interned `norm_ods` resolve against — normally the GkTable's
  /// own pool. Without a pool the edit fast path falls back to on-the-fly
  /// normalization of the raw OD values.
  SimilarityMeasure(const CandidateConfig& config,
                    const CandidateInstances& instances,
                    std::vector<const ClusterSet*> child_cluster_sets,
                    const OdPool* od_pool = nullptr);

  /// Weighted φ^OD similarity of two GK rows (Def. 2). Relevancies are
  /// normalized to sum to 1 over the *comparable* components: entries
  /// whose value is missing on both sides are skipped (no information),
  /// so e.g. two discs both lacking a <did> are compared on the remaining
  /// fields alone. Returns 0 when nothing is comparable. Always exact.
  double OdSimilarity(const GkRow& a, const GkRow& b) const;

  /// Descendant similarity (Def. 3): per child type, the Jaccard ratio of
  /// the two instances' descendant cluster-ID sets; aggregated by
  /// averaging over child types where at least one side has descendants.
  /// Returns -1 when no child type yields a comparable pair (no
  /// descendant information at all). With non-null `slots`, appends each
  /// child type's Jaccard detail (both-empty types included).
  double DescendantSimilarity(
      size_t ordinal_a, size_t ordinal_b,
      std::vector<obs::ExplainDescSlot>* slots = nullptr) const;

  /// Decides one pair: the sliding-window kernel, with upper-bound
  /// pruning (see SimilarityVerdict::pruned). Rows without precomputed
  /// normalized ODs are normalized on the fly. A non-null `trace` also
  /// receives the explain log's breakdown: exact values for every
  /// comparable component (those past the bail-out point included),
  /// `bailout` where the kernel pruned, the descendant slots, the exact
  /// score and whether a theory's rules fired. It never alters the
  /// verdict.
  SimilarityVerdict Decide(const GkRow& a, const GkRow& b,
                           obs::PairExplain* trace = nullptr) const;

 private:
  /// Decide, compiled once with and once without the trace bookkeeping
  /// so the untraced kernel carries no trace checks.
  template <bool kTraced>
  SimilarityVerdict DecideImpl(const GkRow& a, const GkRow& b,
                               obs::PairExplain* trace) const;

  /// True when both rows carry interned normalized ODs resolvable in
  /// `od_pool_` (what key generation produces).
  bool Pooled(const GkRow& a, const GkRow& b) const {
    return od_pool_ != nullptr && a.norm_ods.size() == a.ods.size() &&
           b.norm_ods.size() == b.ods.size();
  }

  /// One φ^OD component. When the entry uses the default "edit" function
  /// and both rows carry interned normalized ODs, equal pool IDs score
  /// exactly 1.0 without touching bytes (counted into `*interned_out`
  /// when non-null); unequal IDs run the bounded edit-distance kernel:
  /// the result is exact whenever it is >= `min_sim`; otherwise
  /// `*pruned_out` is set and the result is an upper bound. Other φ
  /// functions are always exact.
  double ComponentSimilarity(const GkRow& a, const GkRow& b, size_t i,
                             double min_sim, bool* pruned_out,
                             size_t* interned_out = nullptr) const;

  /// OD similarity that bails out once even a perfect score on the
  /// remaining components cannot lift the renormalized weighted sum to
  /// `min_required`. Returns the exact similarity with `pruned == false`,
  /// or an upper bound with `pruned == true` (the bound is < the real
  /// requirement used by the caller). `min_required <= 0` disables
  /// pruning. When traced, the loop goes on past the bail-out point to
  /// record exact values in `trace`; the return value is unaffected.
  template <bool kTraced>
  double OdSimilarityBounded(const GkRow& a, const GkRow& b,
                             double min_required, bool* pruned_out,
                             size_t* interned_out,
                             obs::PairExplain* trace) const;

  /// Fills the trace's per-component identity (index, weight, values,
  /// interned refs, comparability) and threshold; scores come later.
  void StartTrace(const GkRow& a, const GkRow& b,
                  obs::PairExplain* trace) const;

  /// Records and returns comparable component `i`'s exact similarity
  /// (the kernel's `sim` when `sim_exact`, else scored again unbounded),
  /// plus its edit distance.
  double TraceComponent(const GkRow& a, const GkRow& b, size_t i, double sim,
                        bool sim_exact, obs::PairExplain* trace) const;

  /// sim^comb for a pair whose descendant similarity `desc` is defined
  /// (>= 0). kDescGate combines to the OD alone: its descendants act as a
  /// veto on the verdict, not on the score.
  double Combine(double od, double desc) const;

  /// Smallest OD similarity at which the pair could still be classified a
  /// duplicate in *some* branch of the combine mode (descendants at their
  /// most favorable value, including "no descendant info"), minus a 1e-9
  /// safety margin so bounded arithmetic never flips a borderline accept.
  double MinUsefulOd(bool desc_possible) const;

  const CandidateConfig& config_;
  std::vector<const ClusterSet*> child_cluster_sets_;
  const OdPool* od_pool_ = nullptr;

  /// desc_cids_[slot][ordinal]: sorted unique cluster IDs of the
  /// instance's nearest descendants of child type `slot`.
  std::vector<std::vector<std::vector<int>>> desc_cids_;

  /// Which OD entries use the default normalized-edit φ (eligible for the
  /// precomputed-normalization + bounded-DP kernel).
  std::vector<bool> od_is_norm_edit_;
};

}  // namespace sxnm::core

#endif  // SXNM_SXNM_SIMILARITY_MEASURE_H_
