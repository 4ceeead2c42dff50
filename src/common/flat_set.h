// FlatSet and FlatMap: small open-addressing hash tables for fixed-size keys.
//
// FlatSet backs the simulator's per-message dedup sets; FlatMap indexes the
// mempool's resident transactions by id. Both use AccountTable's layout: slots
// in one array probed linearly, behind a dense ctrl byte per slot (0 = empty,
// else a 7-bit hash tag) that is scanned first; keys are compared in full on
// a tag match. A key hashes via prefix_u64(), mixed with splitmix64. Neither
// needs tombstones: FlatSet has no erase (clear() drops a generation and keeps
// the capacity), and FlatMap erases by backward shift.
#ifndef ALGORAND_SRC_COMMON_FLAT_SET_H_
#define ALGORAND_SRC_COMMON_FLAT_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace algorand {

// The probe machinery FlatSet and FlatMap share. `Slot` is the key itself or
// a key-value entry with a `key` member.
template <typename Key, typename Slot>
class FlatTable {
 public:
  size_t size() const { return size_; }
  size_t capacity() const { return ctrl_.size(); }
  bool contains(const Key& key) const { return Find(key) != capacity(); }

 protected:
  static const Key& KeyOf(const Slot& slot) {
    if constexpr (std::is_same_v<Slot, Key>) {
      return slot;
    } else {
      return slot.key;
    }
  }

  static uint64_t Hash(const Key& key) {
    uint64_t x = key.prefix_u64();
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  // The slot index comes from the low bits of the mixed hash, the tag from
  // the top 7.
  static uint8_t Tag(uint64_t h) { return static_cast<uint8_t>(0x80 | (h >> 57)); }

  // The slot holding `key`, or the empty slot that ends its probe chain.
  size_t Probe(const Key& key, uint64_t h) const {
    const uint8_t tag = Tag(h);
    size_t i = h & mask_;
    while (ctrl_[i] != 0 && !(ctrl_[i] == tag && KeyOf(slots_[i]) == key)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  // The slot holding `key`, or capacity() if it is absent.
  size_t Find(const Key& key) const {
    if (size_ == 0) {
      return capacity();
    }
    const size_t i = Probe(key, Hash(key));
    return ctrl_[i] != 0 ? i : capacity();
  }

  // Stores `slot` unless its key is present. Returns whether it was stored.
  bool Insert(const Slot& slot) {
    if ((size_ + 1) * 4 > capacity() * 3) {  // Grow at 3/4 load.
      Rehash(std::max<size_t>(16, capacity() * 2));
    }
    const uint64_t h = Hash(KeyOf(slot));
    const size_t i = Probe(KeyOf(slot), h);
    if (ctrl_[i] != 0) {
      return false;
    }
    ctrl_[i] = Tag(h);
    slots_[i] = slot;
    ++size_;
    return true;
  }

  // Empties slot `hole` (Knuth's algorithm R): each later entry of the probe
  // run whose home is not cyclically in (hole, j] moves back into the hole,
  // which then moves to where that entry was. No chain is ever broken, so no
  // tombstone is needed.
  void EraseAt(size_t hole) {
    for (size_t j = (hole + 1) & mask_; ctrl_[j] != 0; j = (j + 1) & mask_) {
      const size_t home = Hash(KeyOf(slots_[j])) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        ctrl_[hole] = ctrl_[j];
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    ctrl_[hole] = 0;
    --size_;
  }

  void Clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), uint8_t{0});
    size_ = 0;
  }

  const Slot& slot(size_t i) const { return slots_[i]; }

 private:
  void Rehash(size_t capacity) {
    std::vector<uint8_t> old_ctrl(capacity, 0);
    std::vector<Slot> old_slots(capacity);
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
    mask_ = capacity - 1;
    for (size_t j = 0; j < old_ctrl.size(); ++j) {
      if (old_ctrl[j] != 0) {
        const size_t i = Probe(KeyOf(old_slots[j]), Hash(KeyOf(old_slots[j])));
        ctrl_[i] = old_ctrl[j];
        slots_[i] = old_slots[j];
      }
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

template <typename Key>
class FlatSet : public FlatTable<Key, Key> {
 public:
  // Returns false (and changes nothing) if `key` is already present.
  bool insert(const Key& key) { return this->Insert(key); }

  // Forgets every key; the capacity stays for the next generation.
  void clear() { this->Clear(); }
};

template <typename Key, typename Value>
struct FlatMapEntry {
  Key key;
  Value value;
};

template <typename Key, typename Value>
class FlatMap : public FlatTable<Key, FlatMapEntry<Key, Value>> {
 public:
  // The value stored under `key`, or nullptr. Invalidated by any insert or
  // erase.
  const Value* find(const Key& key) const {
    const size_t i = this->Find(key);
    return i != this->capacity() ? &this->slot(i).value : nullptr;
  }

  // Returns false (and changes nothing) if `key` is already present.
  bool insert(const Key& key, const Value& value) { return this->Insert({key, value}); }

  // Returns false if `key` was absent.
  bool erase(const Key& key) {
    const size_t i = this->Find(key);
    if (i == this->capacity()) {
      return false;
    }
    this->EraseAt(i);
    return true;
  }
};

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_FLAT_SET_H_
