#include "src/core/vote_counter.h"

#include "src/common/serialize.h"
#include "src/crypto/sha256.h"

namespace algorand {

bool StepTally::AddVote(const VotePtr& vote, uint64_t weight) {
  if (weight == 0 || !voters_.insert(vote->pk)) {
    return false;
  }
  // A step sees one to a few distinct values: a linear scan interns them.
  uint32_t id = 0;
  while (id < values_.size() && values_[id].value != vote->value) {
    ++id;
  }
  if (id == values_.size()) {
    values_.push_back(ValueCount{vote->value, 0});
  }
  entries_.push_back(Entry{vote, weight, values_[id].count += weight, id});
  total_weight_ += weight;
  return true;
}

StepTally::VotePtr StepTally::Wrap(uint32_t step, const PublicKey& pk, const Hash256& value,
                                   const VrfOutput& sorthash) {
  auto vote = std::make_shared<VoteMessage>();
  vote->step = step;
  vote->pk = pk;
  vote->value = value;
  vote->sorthash = sorthash;
  return vote;
}

void StepTally::reserve(size_t n) {
  entries_.reserve(n);
  voters_.reserve(n);
}

uint64_t StepTally::CountFor(const Hash256& value) const {
  for (const ValueCount& v : values_) {
    if (v.value == value) {
      return v.count;
    }
  }
  return 0;
}

std::optional<Hash256> StepTally::Leader(double threshold) const {
  // Replay arrival order so the result matches the streaming CountVotes loop,
  // resuming where the last call with this threshold stopped.
  if (threshold != scan_threshold_) {
    scan_threshold_ = threshold;
    scan_pos_ = 0;
  }
  while (scan_pos_ < entries_.size() && entries_[scan_pos_].running <= threshold) {
    ++scan_pos_;
  }
  if (scan_pos_ == entries_.size()) {
    return std::nullopt;
  }
  return values_[entries_[scan_pos_].value_id].value;
}

int StepTally::CommonCoin() const {
  bool have = false;
  Hash256 best;
  for (const Entry& e : entries_) {
    for (uint64_t j = 0; j < e.weight; ++j) {
      Writer w;
      w.Fixed(e.sorthash());
      w.U64(j);
      Hash256 h = Sha256::Hash(w.buffer());
      if (!have || h < best) {
        best = h;
        have = true;
      }
    }
  }
  if (!have) {
    return 0;
  }
  return best[best.size() - 1] & 1;
}

size_t StepTally::memory_bytes() const {
  return entries_.capacity() * sizeof(Entry) + values_.capacity() * sizeof(ValueCount) +
         voters_.memory_bytes();
}

}  // namespace algorand
