#include "sxnm/od_pool.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace sxnm::core {

uint32_t OdPool::Hash(std::string_view value) {
  const uint64_t hash = std::hash<std::string_view>{}(value);
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

std::string_view OdPool::ValueAt(uint32_t id) const {
  const size_t end =
      id + 1 < offsets_.size() ? offsets_[id + 1] : arena_.size();
  return std::string_view(arena_).substr(offsets_[id], end - offsets_[id]);
}

size_t OdPool::FindSlot(std::string_view value, uint32_t hash) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.id_plus_one == 0) return i;
    if (slot.hash == hash && ValueAt(slot.id_plus_one - 1) == value) return i;
  }
}

void OdPool::Reserve() {
  if ((offsets_.size() + 1) * 2 <= index_.size()) return;
  std::vector<Slot> old = std::move(index_);
  index_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
  const size_t mask = index_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus_one == 0) continue;
    size_t i = slot.hash & mask;
    while (index_[i].id_plus_one != 0) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

OdRef OdPool::Intern(std::string_view value) {
  assert(value.size() <= UINT32_MAX);
  Reserve();
  const uint32_t hash = Hash(value);
  Slot& slot = index_[FindSlot(value, hash)];
  if (slot.id_plus_one == 0) {
    assert(arena_.size() + value.size() <= UINT32_MAX);
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
    arena_.append(value);
    slot = Slot{static_cast<uint32_t>(offsets_.size()), hash};
  }
  return OdRef{slot.id_plus_one - 1, static_cast<uint32_t>(value.size())};
}

OdPool OdPool::FromParts(std::string arena, std::vector<uint32_t> offsets) {
  OdPool pool;
  pool.arena_ = std::move(arena);
  pool.offsets_ = std::move(offsets);
  size_t slots = 16;
  while (slots < (pool.offsets_.size() + 1) * 2) slots *= 2;
  pool.index_.assign(slots, Slot{});
  for (size_t id = 0; id < pool.offsets_.size(); ++id) {
    const std::string_view value = pool.ValueAt(static_cast<uint32_t>(id));
    const uint32_t hash = Hash(value);
    Slot& slot = pool.index_[pool.FindSlot(value, hash)];
    // A repeated value keeps its first ID, as Intern would have given.
    if (slot.id_plus_one == 0) {
      slot = Slot{static_cast<uint32_t>(id + 1), hash};
    }
  }
  return pool;
}

}  // namespace sxnm::core
