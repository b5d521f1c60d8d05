// Dirty-data generation — our substitute for the HU-Berlin "Dirty XML
// Data Generator" the paper uses.
//
// Given a clean document whose candidate elements carry `_gold` identity
// attributes, the generator duplicates elements according to per-path
// duplication rules (duplication probability, duplicate count — exactly
// the tool's parameters named in Sec. 4.1) and pollutes the duplicates'
// text with character-level errors (delete / insert / swap, the error
// types named in Experiment set 2), plus optional word swaps, dropped
// optional fields, and rare severe corruption (the "5% of titles polluted
// such that their keys sort far apart" effect of Fig. 4(b)).
//
// Duplicates inherit the original's `_gold` value, so ground-truth
// clusters are exactly the groups of equal `_gold` values.

#ifndef SXNM_DATAGEN_DIRTY_GEN_H_
#define SXNM_DATAGEN_DIRTY_GEN_H_

#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"
#include "xml/node.h"

namespace sxnm::datagen {

/// Character-level error model applied to duplicates' text values.
struct ErrorModel {
  /// Probability that a given text value receives errors at all.
  double field_error_probability = 0.5;

  /// Number of character edits applied to a polluted value, uniform in
  /// [min_edits, max_edits]. Each edit is delete / insert / swap with
  /// equal probability.
  int min_edits = 1;
  int max_edits = 3;

  /// Probability of swapping two adjacent words in a polluted multi-word
  /// value.
  double word_swap_probability = 0.1;

  /// Probability that an *optional* child element of a duplicate is
  /// dropped entirely (missing data).
  double field_drop_probability = 0.0;

  /// Probability of severe corruption of a polluted value: the first
  /// characters are replaced so that generated keys sort far away
  /// (the paper's "titles polluted in such a way that their keys are
  /// sorted far apart").
  double severe_probability = 0.05;
};

/// One duplication rule: which elements to duplicate and how many copies.
struct DuplicationRule {
  /// Absolute path of the elements to duplicate,
  /// e.g. "movie_database/movies/movie" or "movies/movie/title".
  std::string path;

  /// Probability that a given element is duplicated at all
  /// (the tool's dupProb).
  double dup_probability = 0.2;

  /// Number of duplicates for a selected element, uniform in
  /// [min_duplicates, max_duplicates].
  int min_duplicates = 1;
  int max_duplicates = 1;

  /// Probability that a created duplicate is an *exact* copy — no error
  /// model applied, the subtree byte-identical to the original. Models
  /// copy-paste replication (repeated subtrees, long runs of equal sort
  /// keys); 0 keeps the historical behaviour (and
  /// the historical RNG stream, so existing corpora are unchanged).
  double exact_copy_probability = 0.0;
};

struct DirtyOptions {
  std::vector<DuplicationRule> rules;
  ErrorModel errors;
  uint64_t seed = 42;
};

struct DirtyStats {
  size_t elements_considered = 0;
  size_t elements_duplicated = 0;
  size_t duplicates_created = 0;
  size_t values_polluted = 0;
};

/// Produces a polluted copy of `clean`. Rules are applied in order; a rule
/// duplicating an ancestor (e.g. movie) runs before rules on its
/// descendants (e.g. title) see the document, so descendant rules also
/// apply inside freshly created ancestor duplicates — matching the tool's
/// behaviour of polluting the final document. Element IDs of the result
/// are freshly assigned.
util::Result<xml::Document> MakeDirty(const xml::Document& clean,
                                      const DirtyOptions& options,
                                      DirtyStats* stats = nullptr);

/// Applies the character-level error model to a single string (exposed for
/// tests and the FreeDB generator).
std::string PolluteValue(const std::string& value, const ErrorModel& errors,
                         util::Rng& rng, bool* polluted = nullptr);

}  // namespace sxnm::datagen

#endif  // SXNM_DATAGEN_DIRTY_GEN_H_
