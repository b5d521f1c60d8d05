// Per-candidate interning pool for normalized OD values. Dirty XML data
// is highly repetitive — the same normalized strings recur across
// records — so key generation interns each value once and GK rows store
// compact (id, length) references instead of owning strings. Equal IDs
// mean byte-identical values, which lets the comparison kernel score such
// component pairs 1.0 without touching any bytes; unequal IDs resolve to
// contiguous arena views for the edit-distance kernel.

#ifndef SXNM_SXNM_OD_POOL_H_
#define SXNM_SXNM_OD_POOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sxnm::core {

/// Interned reference to one normalized OD value: the pool-stable ID plus
/// the value's byte length (kept inline so length-based pruning and
/// empty checks never touch the pool).
struct OdRef {
  uint32_t id = 0;
  uint32_t length = 0;
};

/// Append-only string pool. IDs are dense (0, 1, 2, ...) in first-intern
/// order and stable for the pool's lifetime; the backing arena keeps all
/// distinct values contiguous. Not thread-safe for interning; concurrent
/// read-only View calls are safe once building is done.
class OdPool {
 public:
  /// Returns the existing reference when `value` was interned before,
  /// otherwise appends it to the arena and assigns the next ID.
  OdRef Intern(std::string_view value);

  /// The interned bytes of `ref`. `ref` must come from this pool.
  std::string_view View(OdRef ref) const {
    return std::string_view(arena_).substr(offsets_[ref.id], ref.length);
  }

  /// Number of distinct interned values.
  size_t size() const { return offsets_.size(); }

  /// Bytes held by the arena (distinct values only).
  size_t arena_bytes() const { return arena_.size(); }

  /// Raw parts for serialization (checkpointing). Values are appended
  /// contiguously, so `arena` + `offsets` fully determine the pool:
  /// value i spans [offsets[i], offsets[i+1]) (the last one runs to the
  /// arena's end).
  const std::string& arena() const { return arena_; }
  const std::vector<uint32_t>& offsets() const { return offsets_; }

  /// Rebuilds a pool from serialized parts. `offsets` must be strictly
  /// derived from a pool built by Intern (ascending, within the arena);
  /// the lookup index is reconstructed so further interning works.
  static OdPool FromParts(std::string arena, std::vector<uint32_t> offsets);

 private:
  // Open-addressing index over the IDs: a slot holds id + 1 (0 = empty)
  // and a 32-bit hash of the value, which both places the slot and
  // filters probes. Values are compared through the arena, so each
  // distinct value is stored once. At most half the slots are used.
  struct Slot {
    uint32_t id_plus_one = 0;
    uint32_t hash = 0;
  };

  static uint32_t Hash(std::string_view value);
  std::string_view ValueAt(uint32_t id) const;
  // The slot holding `value`, or the empty slot where it belongs.
  size_t FindSlot(std::string_view value, uint32_t hash) const;
  // Makes room for one more value.
  void Reserve();

  std::string arena_;
  std::vector<uint32_t> offsets_;  // offsets_[id]: start of the value
  std::vector<Slot> index_;        // size 0 or a power of two
};

}  // namespace sxnm::core

#endif  // SXNM_SXNM_OD_POOL_H_
