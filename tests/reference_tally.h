// The step tally's previous copy-based layout, kept as the reference the
// compact StepTally (src/core/vote_counter.h) is checked against: every
// entry copies the voter's pk, value and sorthash out of its vote, and counts
// live in an unordered_map keyed by value. Same dedup, leader scan and common
// coin; only the storage differs.
#ifndef ALGORAND_TESTS_REFERENCE_TALLY_H_
#define ALGORAND_TESTS_REFERENCE_TALLY_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_set.h"
#include "src/common/serialize.h"
#include "src/crypto/sha256.h"
#include "src/crypto/vrf.h"

namespace algorand {

class ReferenceTally {
 public:
  struct Entry {
    PublicKey pk;
    uint64_t weight = 0;
    Hash256 value;
    VrfOutput sorthash;
    uint64_t running = 0;  // The value's count once this vote is in.
  };

  bool AddVote(const PublicKey& pk, uint64_t weight, const Hash256& value,
               const VrfOutput& sorthash) {
    if (weight == 0 || !voters_.insert(pk)) {
      return false;
    }
    entries_.push_back(Entry{pk, weight, value, sorthash, counts_[value] += weight});
    total_weight_ += weight;
    return true;
  }

  uint64_t CountFor(const Hash256& value) const {
    auto it = counts_.find(value);
    return it == counts_.end() ? 0 : it->second;
  }

  std::optional<Hash256> Leader(double threshold) const {
    for (const Entry& e : entries_) {
      if (static_cast<double>(e.running) > threshold) {
        return e.value;
      }
    }
    return std::nullopt;
  }

  int CommonCoin() const {
    bool have = false;
    Hash256 best;
    for (const Entry& e : entries_) {
      for (uint64_t j = 0; j < e.weight; ++j) {
        Writer w;
        w.Fixed(e.sorthash);
        w.U64(j);
        Hash256 h = Sha256::Hash(w.buffer());
        if (!have || h < best) {
          best = h;
          have = true;
        }
      }
    }
    return have ? best[best.size() - 1] & 1 : 0;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  uint64_t total_weight() const { return total_weight_; }

 private:
  FlatSet<PublicKey> voters_;
  std::unordered_map<Hash256, uint64_t, FixedBytesHasher> counts_;
  std::vector<Entry> entries_;
  uint64_t total_weight_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_TESTS_REFERENCE_TALLY_H_
