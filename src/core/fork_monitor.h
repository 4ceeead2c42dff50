// Fork detection (§8.2): users passively monitor all BA* votes — including
// votes whose prev_hash does not match their own chain — and keep track of
// the forks those votes imply, so the periodic recovery protocol can propose
// the longest fork to agree on.
#ifndef ALGORAND_SRC_CORE_FORK_MONITOR_H_
#define ALGORAND_SRC_CORE_FORK_MONITOR_H_

#include <cstdint>
#include <map>
#include <unordered_map>

#include "src/common/bytes.h"

namespace algorand {

class ForkMonitor {
 public:
  // Hard cap on tracked tips: a Byzantine voter flooding fabricated
  // prev_hashes must not grow this map without bound. When full, a new tip
  // evicts the stalest tracked one (lowest highest_round) only if it is
  // strictly fresher; otherwise it is dropped.
  static constexpr size_t kMaxTips = 1024;

  // Records a vote that extends a chain whose tip (prev_hash) is not ours.
  void RecordAlienVote(uint64_t round, const Hash256& prev_hash) {
    auto it = alien_.find(prev_hash);
    if (it == alien_.end()) {
      if (alien_.size() >= kMaxTips && !EvictStalerThan(round)) {
        return;
      }
      it = alien_.emplace(prev_hash, 0).first;
    }
    if (round > it->second) {
      it->second = round;
    }
  }

  // Drops tips whose most recent vote is at or below the last final round:
  // finality supersedes any fork those votes implied. Call whenever the
  // final frontier advances so the map tracks only live suspicions.
  void Prune(uint64_t final_round) {
    for (auto it = alien_.begin(); it != alien_.end();) {
      it = it->second <= final_round ? alien_.erase(it) : std::next(it);
    }
  }

  bool ForkSuspected() const { return !alien_.empty(); }
  void Clear() { alien_.clear(); }

 private:
  // Evicts the tracked tip with the lowest highest_round if it is strictly
  // staler than `round`. Returns true if a slot was freed.
  bool EvictStalerThan(uint64_t round) {
    auto stalest = alien_.end();
    for (auto it = alien_.begin(); it != alien_.end(); ++it) {
      if (stalest == alien_.end() || it->second < stalest->second) {
        stalest = it;
      }
    }
    if (stalest == alien_.end() || stalest->second >= round) {
      return false;
    }
    alien_.erase(stalest);
    return true;
  }

  // Alien tip -> the highest round of a vote extending it.
  std::unordered_map<Hash256, uint64_t, FixedBytesHasher> alien_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_FORK_MONITOR_H_
