// FlatSet: a small open-addressing hash set for fixed-size keys.
//
// Backs the simulator's per-message dedup sets. AccountTable's layout: keys in
// one array probed linearly, behind a dense ctrl byte per slot (0 = empty,
// else a 7-bit hash tag) that is scanned first; keys are compared in full on
// a tag match. No erase, so no tombstones: clear() drops a generation and
// keeps the capacity. A key hashes via prefix_u64(), mixed with splitmix64.
#ifndef ALGORAND_SRC_COMMON_FLAT_SET_H_
#define ALGORAND_SRC_COMMON_FLAT_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace algorand {

template <typename Key>
class FlatSet {
 public:
  size_t size() const { return size_; }
  size_t capacity() const { return ctrl_.size(); }

  bool contains(const Key& key) const {
    return size_ != 0 && ctrl_[Probe(key, Mix(key.prefix_u64()))] != 0;
  }

  // Returns false (and changes nothing) if `key` is already present.
  bool insert(const Key& key) {
    if ((size_ + 1) * 4 > capacity() * 3) {  // Grow at 3/4 load.
      Rehash(std::max<size_t>(16, capacity() * 2));
    }
    const uint64_t h = Mix(key.prefix_u64());
    const size_t i = Probe(key, h);
    if (ctrl_[i] != 0) {
      return false;
    }
    ctrl_[i] = Tag(h);
    slots_[i] = key;
    ++size_;
    return true;
  }

  // Forgets every key; the capacity stays for the next generation.
  void clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), uint8_t{0});
    size_ = 0;
  }

 private:
  static uint64_t Mix(uint64_t x) {
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
    while (ctrl_[i] != 0 && !(ctrl_[i] == tag && slots_[i] == key)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(size_t capacity) {
    std::vector<uint8_t> old_ctrl(capacity, 0);
    std::vector<Key> old_slots(capacity);
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
    mask_ = capacity - 1;
    for (size_t j = 0; j < old_ctrl.size(); ++j) {
      if (old_ctrl[j] != 0) {
        const size_t i = Probe(old_slots[j], Mix(old_slots[j].prefix_u64()));
        ctrl_[i] = old_ctrl[j];
        slots_[i] = old_slots[j];
      }
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Key> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_FLAT_SET_H_
