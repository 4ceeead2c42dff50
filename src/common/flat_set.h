// FlatSet and FlatMap: open-addressing hash tables for fixed-size keys.
//
// FlatSet backs the simulator's per-message dedup sets. FlatMap indexes the
// mempool by transaction id, holds a block-apply overlay's touched accounts
// and is each shard of AccountTable (ledger/account_table.h). Both are one
// FlatTable: slots in one array of any capacity, probed linearly from a
// multiply-shift home slot, behind a dense ctrl byte per slot (0 = empty,
// else a 7-bit hash tag) that is scanned first; keys are compared in full on
// a tag match. Both erase by backward shift, so neither needs tombstones;
// FlatSet's clear() drops a whole generation and keeps the capacity.
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

  // Removes `key` by backward shift (see EraseAt); returns false if it was
  // absent.
  bool erase(const Key& key) {
    const size_t i = Find(key);
    if (i == capacity()) {
      return false;
    }
    EraseAt(i);
    return true;
  }

  // Bytes of slot storage: one ctrl byte plus one Slot per slot.
  size_t memory_bytes() const { return capacity() * (1 + sizeof(Slot)); }

  // Sizes the table so that `n` keys fit at or below 3/4 load. Never shrinks.
  void reserve(size_t n) {
    const size_t needed = (n * 4 + 2) / 3;
    if (needed > capacity()) {
      Rehash(needed);
    }
  }

  // Calls `f(slot)` for every occupied slot, in slot order (which depends on
  // the insertion history, not only on the contents). A FlatSet's slot is its
  // key, a FlatMap's a FlatMapEntry.
  template <typename F>
  void for_each(F&& f) const {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] != 0) {
        f(slots_[i]);
      }
    }
  }

  // Slots a lookup of `key` in a non-empty table inspects, the one that ends
  // it included. A diagnostic: tests bound it to catch a badly spread hash.
  size_t probe_length(const Key& key) const {
    const uint64_t h = Hash(key);
    const size_t home = Home(h);
    const size_t end = Probe(key, h);
    return (end >= home ? end : end + capacity()) - home + 1;
  }

  // splitmix64 over the key's first 8 bytes: ed25519 keys and hashes are
  // already uniform, but synthetic test keys may be patterned. Bits 0..5 are
  // left to callers that shard by hash (AccountTable::ShardOf), bits 57..63
  // are the tag, and the home slot is taken from the bits in between, so
  // neither the shard nor the tag constrains where a key lands.
  static uint64_t Hash(const Key& key) {
    uint64_t x = key.prefix_u64();
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 protected:
  static const Key& KeyOf(const Slot& slot) {
    if constexpr (std::is_same_v<Slot, Key>) {
      return slot;
    } else {
      return slot.key;
    }
  }

  static uint8_t Tag(uint64_t h) { return static_cast<uint8_t>(0x80 | (h >> 57)); }

  // Bits 6..56 of the hash as a 51-bit fraction, scaled onto [0, capacity).
  size_t Home(uint64_t h) const {
    constexpr int kHomeBits = 51;
    const uint64_t mid = (h >> 6) & ((uint64_t{1} << kHomeBits) - 1);
    return static_cast<size_t>((static_cast<unsigned __int128>(mid) * capacity()) >> kHomeBits);
  }

  size_t Next(size_t i) const { return i + 1 == capacity() ? 0 : i + 1; }

  // The slot holding `key`, or the empty slot that ends its probe chain.
  size_t Probe(const Key& key, uint64_t h) const {
    const uint8_t tag = Tag(h);
    size_t i = Home(h);
    while (ctrl_[i] != 0 && !(ctrl_[i] == tag && KeyOf(slots_[i]) == key)) {
      i = Next(i);
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

  // The slot holding `key`, claiming a fresh one (key set, value
  // value-initialized) if it is absent, and whether it was claimed. Grows
  // only on a claim that would pass 3/4 load.
  std::pair<size_t, bool> FindOrInsert(const Key& key) {
    if (capacity() == 0) {
      Rehash(16);
    }
    const uint64_t h = Hash(key);
    size_t i = Probe(key, h);
    if (ctrl_[i] != 0) {
      return {i, false};
    }
    if ((size_ + 1) * 4 > capacity() * 3) {
      Rehash(capacity() * 2);
      i = Probe(key, h);
    }
    ctrl_[i] = Tag(h);
    if constexpr (std::is_same_v<Slot, Key>) {
      slots_[i] = key;
    } else {
      slots_[i] = Slot{key, {}};
    }
    ++size_;
    return {i, true};
  }

  // Empties slot `hole` (Knuth's algorithm R): each later entry of the probe
  // run whose home is not cyclically in (hole, j] moves back into the hole,
  // which then moves to where that entry was. No chain is ever broken, so no
  // tombstone is needed.
  void EraseAt(size_t hole) {
    auto distance = [this](size_t from, size_t to) {
      return to >= from ? to - from : to + capacity() - from;
    };
    for (size_t j = Next(hole); ctrl_[j] != 0; j = Next(j)) {
      if (distance(Home(Hash(KeyOf(slots_[j]))), j) >= distance(hole, j)) {
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

  Slot& slot(size_t i) { return slots_[i]; }
  const Slot& slot(size_t i) const { return slots_[i]; }

 private:
  void Rehash(size_t capacity) {
    std::vector<uint8_t> old_ctrl(capacity, 0);
    std::vector<Slot> old_slots(capacity);
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
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
};

template <typename Key>
class FlatSet : public FlatTable<Key, Key> {
 public:
  // Returns false (and changes nothing) if `key` is already present.
  bool insert(const Key& key) { return this->FindOrInsert(key).second; }

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
  bool insert(const Key& key, const Value& value) { return try_emplace(key, value).second; }

  // The value under `key`, value-initialized first if `key` was absent.
  // Invalidated by any later insert or erase.
  Value& operator[](const Key& key) { return this->slot(this->FindOrInsert(key).first).value; }

  // The value under `key`, and whether it was absent and has been set to
  // `value`. The reference is invalidated by any later insert or erase.
  std::pair<Value&, bool> try_emplace(const Key& key, const Value& value) {
    const auto [i, inserted] = this->FindOrInsert(key);
    Value& stored = this->slot(i).value;
    if (inserted) {
      stored = value;
    }
    return {stored, inserted};
  }
};

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_FLAT_SET_H_
