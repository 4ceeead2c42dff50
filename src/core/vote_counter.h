// Weighted vote tallying for one (round, step) — the data structure behind
// CountVotes (Algorithm 5) and CommonCoin (Algorithm 9).
//
// Each public key is counted once (first vote wins, matching the `voters`
// set in the paper); a vote carries the voter's sub-user count as weight.
// The tally is the one index of a step's counted votes: an entry holds the
// shared message it counted (a sent message is immutable, so every node
// points at the same one), and the step's few distinct values are interned
// in a small table that also keeps their counts. Certificates (§8.3) and the
// common coin read the messages through the entries.
#ifndef ALGORAND_SRC_CORE_VOTE_COUNTER_H_
#define ALGORAND_SRC_CORE_VOTE_COUNTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_set.h"
#include "src/core/messages.h"
#include "src/crypto/vrf.h"

namespace algorand {

class StepTally {
 public:
  using VotePtr = std::shared_ptr<const VoteMessage>;

  // One counted vote, in arrival order.
  struct Entry {
    VotePtr vote;
    uint64_t weight = 0;
    uint64_t running = 0;   // The value's count once this vote is in (Leader's scan).
    uint32_t value_id = 0;  // Index into the step's value table.

    const PublicKey& pk() const { return vote->pk; }
    const Hash256& value() const { return vote->value; }
    const VrfOutput& sorthash() const { return vote->sorthash; }
  };

  // Records `vote`, counted with `weight` sub-users; returns false if its pk
  // already voted in the step or the weight is 0. The step is the caller's
  // (vote->step is not read).
  bool AddVote(const VotePtr& vote, uint64_t weight);
  // Adapter for callers that hold the fields, not a message: records them
  // wrapped in a VoteMessage (see Wrap).
  bool AddVote(const PublicKey& pk, uint64_t weight, const Hash256& value,
               const VrfOutput& sorthash) {
    return AddVote(Wrap(0, pk, value, sorthash), weight);
  }
  // A VoteMessage carrying only the fields a tally reads.
  static VotePtr Wrap(uint32_t step, const PublicKey& pk, const Hash256& value,
                      const VrfOutput& sorthash);

  // Sizes the entry array and voter set for `n` votes.
  void reserve(size_t n);

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
  // Heap bytes held: the entry array, the value table and the voter set (not
  // the shared messages).
  size_t memory_bytes() const;

 private:
  struct ValueCount {
    Hash256 value;
    uint64_t count = 0;
  };

  FlatSet<PublicKey> voters_;
  std::vector<ValueCount> values_;  // Distinct values in first-vote order.
  std::vector<Entry> entries_;      // Arrival order, for certificates and coin.
  uint64_t total_weight_ = 0;
  // Leader()'s scan: no entry before scan_pos_ crosses scan_threshold_.
  mutable double scan_threshold_ = 0;
  mutable size_t scan_pos_ = 0;
};

static_assert(sizeof(StepTally::Entry) <= 40);

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_VOTE_COUNTER_H_
