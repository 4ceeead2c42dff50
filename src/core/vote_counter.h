// Weighted vote tallying for one (round, step) — the data structure behind
// CountVotes (Algorithm 5) and CommonCoin (Algorithm 9).
//
// Each public key is counted once (first vote wins, matching the `voters`
// set in the paper); a vote carries the voter's sub-user count as weight.
#ifndef ALGORAND_SRC_CORE_VOTE_COUNTER_H_
#define ALGORAND_SRC_CORE_VOTE_COUNTER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_set.h"
#include "src/crypto/vrf.h"

namespace algorand {

class StepTally {
 public:
  struct Entry {
    PublicKey pk;
    uint64_t weight = 0;
    Hash256 value;
    VrfOutput sorthash;
    uint64_t running = 0;  // The value's count once this vote is in (Leader's scan).
  };

  // Records a vote; returns false if this pk already voted in the step.
  bool AddVote(const PublicKey& pk, uint64_t weight, const Hash256& value,
               const VrfOutput& sorthash);

  // Total weighted votes for a value.
  uint64_t CountFor(const Hash256& value) const;

  // The first value whose count exceeds `threshold`, in arrival order of the
  // crossing vote (at most one value can cross a >1/2-of-committee threshold
  // under honest-majority assumptions, but ties from an adversary resolve by
  // arrival, matching the streaming CountVotes loop).
  std::optional<Hash256> Leader(double threshold) const;

  // Common coin (Algorithm 9): least-significant bit of the minimum
  // H(sorthash || j) over all recorded votes and their sub-user indices.
  int CommonCoin() const;

  const std::vector<Entry>& entries() const { return entries_; }
  size_t voter_count() const { return voters_.size(); }
  uint64_t total_weight() const { return total_weight_; }

 private:
  FlatSet<PublicKey> voters_;
  std::unordered_map<Hash256, uint64_t, FixedBytesHasher> counts_;
  std::vector<Entry> entries_;  // Arrival order, for certificates and coin.
  uint64_t total_weight_ = 0;
  // Leader()'s scan: no entry before scan_pos_ crosses scan_threshold_.
  mutable double scan_threshold_ = 0;
  mutable size_t scan_pos_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_VOTE_COUNTER_H_
