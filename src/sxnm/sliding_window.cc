#include "sxnm/sliding_window.h"

#include <algorithm>
#include <cassert>

namespace sxnm::core {

size_t WindowPairCount(size_t n, size_t window) {
  assert(window >= 2);
  size_t count = 0;
  for (size_t i = 1; i < n; ++i) {
    count += std::min(i, window - 1);
  }
  return count;
}

size_t LargestWindowWithin(size_t n, size_t window, size_t budget) {
  assert(window >= 2);
  // WindowPairCount is monotone in the window, so binary search works;
  // windows are small enough that a linear scan from the top is fine too,
  // but the search keeps this O(log w) per boundary pass.
  if (WindowPairCount(n, 2) > budget) return 0;
  size_t lo = 2, hi = window;
  while (lo < hi) {
    size_t mid = lo + (hi - lo + 1) / 2;
    if (WindowPairCount(n, mid) <= budget) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace sxnm::core
