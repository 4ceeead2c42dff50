#include "src/core/vote_counter.h"

#include "src/common/serialize.h"
#include "src/crypto/sha256.h"

namespace algorand {

bool StepTally::AddVote(const PublicKey& pk, uint64_t weight, const Hash256& value,
                        const VrfOutput& sorthash) {
  if (weight == 0 || !voters_.insert(pk)) {
    return false;
  }
  entries_.push_back(Entry{pk, weight, value, sorthash, counts_[value] += weight});
  total_weight_ += weight;
  return true;
}

uint64_t StepTally::CountFor(const Hash256& value) const {
  auto it = counts_.find(value);
  return it == counts_.end() ? 0 : it->second;
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
  return entries_[scan_pos_].value;
}

int StepTally::CommonCoin() const {
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
  if (!have) {
    return 0;
  }
  return best[best.size() - 1] & 1;
}

}  // namespace algorand
