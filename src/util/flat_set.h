// Insert-only open-addressed hash set of non-zero 64-bit keys.
//
// The detector's merge phase dedupes one packed ordinal pair per
// classification — millions of inserts per run — and libstdc++'s
// node-based unordered_set pays a heap allocation plus two dependent
// cache misses for every one of them. This set stores keys in a single
// flat power-of-two array (linear probing, load factor <= 0.5), so an
// insert is one hash, one probe chain in contiguous memory, and no
// allocation. Key 0 is reserved as the empty-slot sentinel; the
// detector's packed pairs (lo << 32 | hi with lo < hi, so hi >= 1) are
// never 0.
//
// Not thread-safe; single-writer like the merge itself.

#ifndef SXNM_UTIL_FLAT_SET_H_
#define SXNM_UTIL_FLAT_SET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sxnm::util {

/// Finalizer-style mixer (splitmix64): packed pairs are highly regular
/// (adjacent ordinals), so identity hashing would cluster probes.
inline uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class FlatU64Set {
 public:
  FlatU64Set() = default;

  /// Ensures capacity for `n` keys total without rehashing mid-insert.
  void Reserve(size_t n) {
    size_t capacity = kMinCapacity;
    while (capacity < n * 2) capacity <<= 1;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  /// Inserts `key` (must be non-zero); returns true when newly inserted.
  bool Insert(uint64_t key) {
    assert(key != 0);
    if (slots_.empty()) Rehash(kMinCapacity);
    size_t slot = static_cast<size_t>(MixHash64(key)) & mask_;
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = key;
    if (++size_ * 2 > slots_.size()) Rehash(slots_.size() * 2);
    return true;
  }

  bool Contains(uint64_t key) const {
    assert(key != 0);
    if (slots_.empty()) return false;
    size_t slot = static_cast<size_t>(MixHash64(key)) & mask_;
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return true;
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  /// Hints the key's home slot into cache ahead of an Insert/Contains.
  /// With load factor <= 0.5 probe chains are almost always length 1, so
  /// prefetching the home line hides the DRAM miss of a cold probe.
  void PrefetchKey(uint64_t key) const {
    if (slots_.empty()) return;
    size_t slot = static_cast<size_t>(MixHash64(key)) & mask_;
    __builtin_prefetch(&slots_[slot], /*rw=*/1);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr size_t kMinCapacity = 16;

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (uint64_t key : old) {
      if (key == 0) continue;
      size_t slot = static_cast<size_t>(MixHash64(key)) & mask_;
      while (slots_[slot] != 0) slot = (slot + 1) & mask_;
      slots_[slot] = key;
    }
  }

  std::vector<uint64_t> slots_;  // 0 = empty
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace sxnm::util

#endif  // SXNM_UTIL_FLAT_SET_H_
