// An insertion-ordered, open-addressing hash set.
//
// Items live in one std::vector<T>, in insertion order, so the index an
// item is admitted at is dense (0, 1, 2, ...) and stable for the set's
// lifetime: callers may use it as an id. The table is a power-of-two array
// of uint32_t item indices, probed linearly and kept at most half full. A
// key's home slot is the high bits of its FibonacciMix'd hash
// (base/hash.h), so a hash with weak low bits (the identity
// std::hash<uint64_t>, a multiplicative fold) still spreads. There is no
// erase, so a probe run ends at the first empty slot.
//
// Lookups are heterogeneous: Find and Insert take any key K for which
// Hash{}(key) and Eq{}(item, key) are defined and agree with T's own
// hashing and equality (e.g. ShapeView for Shape, logic/shape.h). Insert
// constructs a T from the key only when it admits a new item, so a probe
// that hits through a borrowed view allocates nothing.
//
// Not thread-safe: concurrent Find calls are fine, anything alongside an
// Insert needs the caller's latch.

#ifndef CHASE_BASE_FLAT_SET_H_
#define CHASE_BASE_FLAT_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "base/hash.h"

namespace chase {

template <typename T, typename Hash = std::hash<T>,
          typename Eq = std::equal_to<>>
class FlatSet {
 public:
  // Find's answer for an absent key.
  static constexpr uint32_t kNotFound = UINT32_MAX;

  size_t size() const { return items_.size(); }

  // The item admitted at `index`.
  const T& operator[](uint32_t index) const { return items_[index]; }

  // Hands the items over in insertion order and leaves the set empty.
  std::vector<T> TakeItems() {
    std::vector<T> items = std::move(items_);
    items_.clear();
    slots_.clear();
    return items;
  }

  // The index of the item equal to `key`, or kNotFound.
  template <typename K>
  uint32_t Find(const K& key) const {
    if (slots_.empty()) return kNotFound;
    const size_t mask = slots_.size() - 1;
    for (size_t slot = SlotOf(Hash{}(key));; slot = (slot + 1) & mask) {
      const uint32_t index = slots_[slot];
      if (index == kEmpty) return kNotFound;
      if (Eq{}(items_[index], key)) return index;
    }
  }

  template <typename K>
  bool Contains(const K& key) const {
    return Find(key) != kNotFound;
  }

  // Returns {index of the item equal to `key`, whether it was just
  // admitted}. A new item is constructed from std::forward<K>(key) and
  // appended, so its index is the previous size().
  template <typename K>
  std::pair<uint32_t, bool> Insert(K&& key) {
    const uint64_t hash = Hash{}(std::as_const(key));
    size_t slot = 0;
    if (!slots_.empty()) {
      const size_t mask = slots_.size() - 1;
      for (slot = SlotOf(hash);; slot = (slot + 1) & mask) {
        const uint32_t index = slots_[slot];
        if (index == kEmpty) break;
        if (Eq{}(items_[index], std::as_const(key))) return {index, false};
      }
    }
    // Load stays at or below one half; a grown table moves every index,
    // so the new item's slot is found again.
    if (2 * (items_.size() + 1) > slots_.size()) {
      Grow();
      slot = FreeSlot(hash);
    }
    const auto index = static_cast<uint32_t>(items_.size());
    items_.emplace_back(std::forward<K>(key));
    slots_[slot] = index;
    return {index, true};
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinSlots = 16;

  size_t SlotOf(uint64_t hash) const { return FibonacciMix(hash) >> shift_; }

  // The first empty slot of `hash`'s probe run.
  size_t FreeSlot(uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = SlotOf(hash);
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    return slot;
  }

  // Doubles the table and re-seats every item; hashes are recomputed, not
  // stored.
  void Grow() {
    const size_t slots = std::max(kMinSlots, 2 * slots_.size());
    slots_.assign(slots, kEmpty);
    shift_ = 64 - std::countr_zero(slots);
    for (uint32_t index = 0; index < items_.size(); ++index) {
      slots_[FreeSlot(Hash{}(items_[index]))] = index;
    }
  }

  std::vector<T> items_;
  std::vector<uint32_t> slots_;  // item indices; kEmpty marks a free slot
  int shift_ = 64;               // 64 - log2(slots_.size())
};

}  // namespace chase

#endif  // CHASE_BASE_FLAT_SET_H_
