// Sliding-window pair enumeration — the heart of SNM/SXNM efficiency.
//
// A window of size w advances one position at a time over a sorted order;
// the element entering the window is compared with the w-1 elements
// already inside. Thus every pair of elements within sort distance < w is
// visited exactly once per pass, and a full pass costs (n - w + 1)·(w - 1)
// + C(w-1, 2) comparisons — linear in n for fixed w.
//
// The enumerations are templates on the visitor: a window pass visits
// every windowed pair through this call, so routing it through
// std::function would put one indirect dispatch on the hottest edge of
// the whole detector. With the visitor a template parameter the call
// inlines into the enumeration loop.

#ifndef SXNM_SXNM_SLIDING_WINDOW_H_
#define SXNM_SXNM_SLIDING_WINDOW_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/cancellation.h"

namespace sxnm::core {

/// The neighborhood one window pass enumerates. A fixed window visits
/// every pair at sort distance < `window`. An adaptive window (the
/// paper's outlook cites Lehti & Fankhauser's precise blocking [20])
/// visits those too and *extends* beyond them — up to `max_window` — for
/// as long as the sort keys still share a prefix of `prefix_len`
/// characters with the entering element's key, so duplicates stranded in
/// long runs of near-equal keys are reached without paying a large
/// window everywhere.
struct WindowPlan {
  size_t window = 0;  // fixed window, or the adaptive base window (>= 2)
  bool adaptive = false;
  size_t max_window = 0;  // adaptive only; >= window
  size_t prefix_len = 0;  // adaptive only; >= 1
};

/// Number of pairs a fixed window visits for `n` elements.
size_t WindowPairCount(size_t n, size_t window);

/// Largest window w' in [2, window] with WindowPairCount(n, w') <= budget,
/// or 0 when even w' = 2 exceeds the budget. The governance layer shrinks
/// a boundary pass to this window — the paper's own efficiency knob —
/// instead of truncating the pass mid-way.
size_t LargestWindowWithin(size_t n, size_t window, size_t budget);

/// How often InterruptPoll polls cancellation/deadline: every this many
/// visited pairs (and once up front).
inline constexpr size_t kInterruptCheckInterval = 4096;

/// Outcome of a window enumeration.
struct WindowRunResult {
  size_t pairs_visited = 0;
  bool stopped_early = false;  // the stop policy cut the pass short
};

/// Stop policies. An enumeration asks its policy `stop()` before every
/// visit and returns as soon as it answers true, so the visited pairs are
/// a prefix of the range's enumeration order (a cut-short sharded pass is
/// a union of per-shard prefixes). NeverStop is a compile-time false: the
/// test folds away and the loop is the plain enumeration.
using NeverStop = std::false_type;

/// Polls `token`/`deadline` every kInterruptCheckInterval pairs.
class InterruptPoll {
 public:
  InterruptPoll(const util::CancellationToken& token,
                const util::Deadline& deadline)
      : token_(token), deadline_(deadline) {}

  bool operator()() {
    if (until_check_ > 0) {
      --until_check_;
      return false;
    }
    until_check_ = kInterruptCheckInterval - 1;
    return token_.cancelled() || deadline_.expired();
  }

 private:
  const util::CancellationToken& token_;
  const util::Deadline& deadline_;
  size_t until_check_ = 0;
};

namespace internal {

inline bool SharePrefix(const std::string& a, const std::string& b,
                        size_t len) {
  if (a.size() < len || b.size() < len) {
    // Keys shorter than the prefix must match entirely (and be equal in
    // length) to count as "same block".
    return a == b;
  }
  return a.compare(0, len, b, 0, len) == 0;
}

}  // namespace internal

/// Calls `visit(a, b)` for every pair of values of `order` at positions
/// within distance < window of each other whose ENTERING (later)
/// position lies in [begin, end), in increasing position order; `a`
/// precedes `b` in `order`. window >= 2; a window larger than the
/// sequence degenerates to all pairs, and [0, n) visits
/// WindowPairCount(n, window) pairs. Every windowed pair has exactly one
/// entering position, so a partition of [0, n) into contiguous ranges
/// partitions the pair stream: running the ranges in order and
/// concatenating their visits reproduces the whole-relation enumeration
/// exactly — the owner rule behind key-range sharding (shard_plan.h).
template <typename Stop, typename Visit>
WindowRunResult ForEachWindowPair(const std::vector<size_t>& order,
                                  size_t window, size_t begin, size_t end,
                                  Stop&& stop, Visit&& visit) {
  assert(window >= 2);
  assert(end <= order.size());
  WindowRunResult result;
  for (size_t i = std::max<size_t>(begin, 1); i < end; ++i) {
    size_t lo = (i >= window - 1) ? i - (window - 1) : 0;
    for (size_t j = lo; j < i; ++j) {
      if (stop()) {
        result.stopped_early = true;
        return result;
      }
      visit(order[j], order[i]);
      ++result.pairs_visited;
    }
  }
  return result;
}

/// The adaptive enumeration of WindowPlan over entering positions
/// [begin, end). `key_of(v)` returns the sort key of value `v` of `order`
/// for the current pass. Requires 2 <= base_window <= max_window and
/// prefix_len >= 1. The backward scan reaches through the range's left
/// edge (context rows of the owning shard), so concatenated range streams
/// reproduce the whole-relation enumeration, as for ForEachWindowPair.
template <typename KeyOf, typename Stop, typename Visit>
WindowRunResult ForEachAdaptiveWindowPair(const std::vector<size_t>& order,
                                          KeyOf&& key_of, size_t base_window,
                                          size_t max_window,
                                          size_t prefix_len, size_t begin,
                                          size_t end, Stop&& stop,
                                          Visit&& visit) {
  assert(base_window >= 2);
  assert(max_window >= base_window);
  assert(prefix_len >= 1);
  assert(end <= order.size());
  WindowRunResult result;
  for (size_t i = std::max<size_t>(begin, 1); i < end; ++i) {
    const std::string& entering = key_of(order[i]);
    size_t max_span = std::min(i, max_window - 1);
    for (size_t span = 1; span <= max_span; ++span) {
      size_t j = i - span;
      if (span >= base_window &&
          !internal::SharePrefix(key_of(order[j]), entering, prefix_len)) {
        break;  // left the equal-prefix block; stop extending
      }
      if (stop()) {
        result.stopped_early = true;
        return result;
      }
      visit(order[j], order[i]);
      ++result.pairs_visited;
    }
  }
  return result;
}

/// True iff a whole-relation enumeration of `plan` visits the pair of
/// values `a` != `b`, given `rank[v]` = position of `v` in the pass order
/// and `key_of` as above. A fixed window visits rank distance < window.
/// An adaptive window adds distance < max_window with SharePrefix between
/// the two keys alone: a prefix class is a contiguous run of the sorted
/// order, so every key the backward scan passes between the two shares
/// the prefix too and the scan cannot have stopped short.
template <typename KeyOf>
bool Windowed(const WindowPlan& plan, const std::vector<uint32_t>& rank,
              KeyOf&& key_of, size_t a, size_t b) {
  uint32_t ra = rank[a];
  uint32_t rb = rank[b];
  size_t distance = ra > rb ? ra - rb : rb - ra;
  if (distance < plan.window) return true;
  return plan.adaptive && distance < plan.max_window &&
         internal::SharePrefix(key_of(a), key_of(b), plan.prefix_len);
}

}  // namespace sxnm::core

#endif  // SXNM_SXNM_SLIDING_WINDOW_H_
