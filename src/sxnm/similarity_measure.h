// SXNM similarity measure: OD similarity (Def. 2), descendant similarity
// (Def. 3), and their combination into a duplicate classification.
//
// Two comparison entry points exist. `Compare` reports exact similarity
// values. `CompareFast` is the sliding-window kernel: it additionally
// prunes the OD computation with bounded edit distances as soon as the
// best achievable weighted sum can no longer reach the classifier
// threshold. Both classify identically (`is_duplicate` only differs on
// floating-point ties within ~1e-9 of the threshold), but a pruned
// verdict reports an *upper bound* in `od_sim`/`combined` instead of the
// exact value. Both entry points skip the descendant Jaccard whenever its
// value cannot change the verdict.

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
  bool pruned = false;        // CompareFast bailed out early; od_sim and
                              // combined are upper bounds, is_duplicate is
                              // still correct

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
  /// `instances` and each element of `child_cluster_sets` must outlive
  /// this object. `child_cluster_sets` is either empty or parallel to
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

  /// Per-OD-entry similarities (parallel to the config's OD entries).
  /// Components missing on both sides yield 0.0 here (an equational-
  /// theory condition on such a component fails).
  std::vector<double> ComponentSimilarities(const GkRow& a,
                                            const GkRow& b) const;

  /// Descendant similarity (Def. 3): per child type, the Jaccard ratio of
  /// the two instances' descendant cluster-ID sets; aggregated by
  /// averaging over child types where at least one side has descendants.
  /// Returns -1 when no child type yields a comparable pair (no
  /// descendant information at all).
  double DescendantSimilarity(size_t ordinal_a, size_t ordinal_b) const;

  /// Full comparison with exact similarity values in the verdict.
  SimilarityVerdict Compare(const GkRow& a, const GkRow& b) const;

  /// The sliding-window comparison kernel: classifies identically to
  /// Compare but with upper-bound pruning (see SimilarityVerdict::pruned).
  /// Falls back to the exact path when the candidate disables fast paths
  /// (CandidateConfig::enable_fast_paths) or rows lack precomputed
  /// normalized ODs.
  SimilarityVerdict CompareFast(const GkRow& a, const GkRow& b) const;

  /// Full decision breakdown for the explain log: exact per-component
  /// similarities (values, interned refs, edit distances), per-child-slot
  /// descendant Jaccard detail, the exact combined score, and which
  /// component the bounded kernel would have pruned at (`bailout`).
  /// Deliberately off the hot path — it recomputes everything without
  /// pruning, so scores match Compare, not CompareFast's upper bounds.
  obs::PairExplain Explain(const GkRow& a, const GkRow& b) const;

 private:
  SimilarityVerdict CompareImpl(const GkRow& a, const GkRow& b,
                                bool bounded) const;

  /// One φ^OD component. When the entry uses the default "edit" function
  /// and both rows carry interned normalized ODs (and fast paths are
  /// enabled), equal pool IDs score exactly 1.0 without touching bytes
  /// (counted into `*interned_out` when non-null); unequal IDs run the
  /// bounded edit-distance kernel: the result is exact whenever it is
  /// >= `min_sim`; otherwise `*pruned_out` is set and the result is an
  /// upper bound. Other φ functions are always exact.
  double ComponentSimilarity(const GkRow& a, const GkRow& b, size_t i,
                             double min_sim, bool* pruned_out,
                             size_t* interned_out = nullptr) const;

  /// OD similarity that bails out once even a perfect score on the
  /// remaining components cannot lift the renormalized weighted sum to
  /// `min_required`. Returns the exact similarity with `pruned == false`,
  /// or an upper bound with `pruned == true` (the bound is < the real
  /// requirement used by the caller). `min_required <= 0` disables
  /// pruning.
  double OdSimilarityBounded(const GkRow& a, const GkRow& b,
                             double min_required, bool* pruned_out,
                             size_t* interned_out = nullptr) const;

  /// Smallest OD similarity at which the pair could still be classified a
  /// duplicate in *some* branch of the combine mode (descendants at their
  /// most favorable value, including "no descendant info"), minus a 1e-9
  /// safety margin so bounded arithmetic never flips a borderline accept.
  double MinUsefulOd(bool desc_possible) const;

  /// Set-based reference implementation of Def. 3, used when fast paths
  /// are disabled (bench baselines measure the original kernel).
  double DescendantSimilaritySetBased(size_t ordinal_a,
                                      size_t ordinal_b) const;

  const CandidateConfig& config_;
  const CandidateInstances& instances_;
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
