// Data set 1 of the paper: artificial movie data.
//
// Schema (Sec. 4.1): <movie> elements with several <title>, <person> and
// <review> descendants; <person> has one <lastname> and several
// <firstname>; <movie> carries @year and @length. The document root is
// movie_database/movies, matching Fig. 3(a).

#ifndef SXNM_DATAGEN_MOVIES_H_
#define SXNM_DATAGEN_MOVIES_H_

#include <cstdint>

#include "datagen/dirty_gen.h"
#include "sxnm/config.h"
#include "util/status.h"
#include "xml/node.h"

namespace sxnm::datagen {

struct MovieDataOptions {
  size_t num_movies = 1000;
  uint64_t seed = 1;
};

/// Clean movie database, gold-marked on <movie>, <title> and <person>.
xml::Document GenerateCleanMovies(const MovieDataOptions& options);

struct SharedCastOptions {
  size_t num_movies = 500;
  /// Size of the shared actor pool; each movie's cast is drawn from it,
  /// so the same real-world actor appears in several movies — the M:N
  /// parent/child relationship of Sec. 2.
  size_t pool_size = 120;
  int min_cast = 1;
  int max_cast = 4;
  uint64_t seed = 1;
};

/// Movie database where <person> elements reference a shared actor pool:
/// all appearances of pool actor k carry the same gold id ("cast-k"), so
/// the ground truth contains duplicate persons *across different movies*.
/// This is the scenario where top-down pruning (DELPHI-style) must lose
/// against bottom-up SXNM (the paper's Sec. 2 argument).
xml::Document GenerateSharedCastMovies(const SharedCastOptions& options);

/// Dirty preset for effectiveness experiments (Experiment set 1, Data set
/// 1): 40% of movies receive one duplicate with the standard error model
/// including 5% severe title corruption.
DirtyOptions DataSet1DirtyPreset(uint64_t seed);

/// Scalability presets (Experiment set 2):
/// "few duplicates": 20% dupProb for movie, title, and person, exactly
/// one duplicate each.
DirtyOptions FewDuplicatesPreset(uint64_t seed);

/// "many duplicates": 100% dupProb for movie and person with up to two
/// duplicates, 20% for title with exactly one.
DirtyOptions ManyDuplicatesPreset(uint64_t seed);

/// "repeated subtrees": copy-paste-heavy corpus — every movie duplicated
/// (one to three copies), 70% of the copies byte-exact
/// (DuplicationRule::exact_copy_probability), the rest with the standard
/// error model.
DirtyOptions RepeatedSubtreePreset(uint64_t seed);

/// SXNM configuration for Data set 1 (Tab. 3(a)): candidate movie only,
/// OD = title/text() (0.8) + @length (0.2), three keys:
///   Key 1: title K1-K5, @year D3,D4      (title-led, most distinctive)
///   Key 2: @year D3,D4, title K1,K2      (year-led, weak when year bad)
///   Key 3: @length D1,D2, title K1,K2    (length-led, likewise weak)
util::Result<core::Config> MovieConfig(size_t window);

/// Configuration for the scalability runs: candidates movie, title and
/// person (bottom-up: person & title, then movie with descendants).
util::Result<core::Config> MovieScalabilityConfig(size_t window);

}  // namespace sxnm::datagen

#endif  // SXNM_DATAGEN_MOVIES_H_
