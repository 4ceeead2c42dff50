// Shared verification cache.
//
// Within one simulation process every node re-verifies the same gossip
// message; one valid check per unique message suffices (the receivers share
// the arithmetic, not the trust — each node would perform the identical
// computation). This is the paper's own methodology at 500k users, where
// verifications were replaced by equal-cost sleeps (§10.1). The cache maps a
// message's DedupId to its verified sortition weight (0 = invalid).
//
// The cache is thread-safe: VerifyBatch's VerifyPool workers and the
// engine's shard threads may look up the same entry at once. The first
// lookup computes it (a miss); a concurrent lookup of that key waits for the
// result instead of recomputing (a hit), so a key is computed once however
// many threads ask for it. Entries are round-stamped and pruned a few rounds
// after their last use so the map does not grow with chain length.
#ifndef ALGORAND_SRC_CORE_VERIFICATION_CACHE_H_
#define ALGORAND_SRC_CORE_VERIFICATION_CACHE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/common/bytes.h"
#include "src/obs/metrics.h"

namespace algorand {

class VerificationCache {
 public:
  // Routes cache counts through `registry` ("verify.cache_hits" /
  // "verify.cache_misses" / "verify.cache_pruned", plus "verify.pool_waits"
  // and the "verify.pool_wait_us" histogram for lookups that waited on
  // another thread); without a registry the private fallback counters keep
  // the accessors working.
  void AttachMetrics(MetricsRegistry* registry) {
    if (registry == nullptr) {
      hits_ = &fallback_hits_;
      misses_ = &fallback_misses_;
      pruned_ = &fallback_pruned_;
      pool_waits_ = &fallback_pool_waits_;
      pool_wait_us_ = nullptr;
      return;
    }
    hits_ = &registry->GetCounter("verify.cache_hits");
    misses_ = &registry->GetCounter("verify.cache_misses");
    pruned_ = &registry->GetCounter("verify.cache_pruned");
    pool_waits_ = &registry->GetCounter("verify.pool_waits");
    pool_wait_us_ = &registry->GetHistogram("verify.pool_wait_us");
  }

  // Returns the cached value or computes, stores and returns it. Templated
  // over the callable so the hot path never allocates a std::function. If
  // another thread is computing this entry, waits for its result instead of
  // recomputing.
  template <typename F>
  uint64_t GetOrCompute(const Hash256& id, F&& compute) {
    std::unique_lock<std::mutex> lock(mu_);
    auto [it, inserted] = cache_.try_emplace(id);
    Entry& entry = it->second;
    entry.round = round_;
    if (!inserted) {
      if (!entry.ready) {
        // Another thread is computing this entry right now; its result is
        // identical to what we would compute, so wait rather than duplicate
        // the work. (Unreachable in the single-threaded configuration.)
        pool_waits_->Increment();
        auto start = std::chrono::steady_clock::now();
        cv_.wait(lock, [&entry] { return entry.ready; });
        if (pool_wait_us_ != nullptr) {
          pool_wait_us_->Observe(
              std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
                  .count());
        }
      }
      hits_->Increment();
      return entry.value;
    }
    misses_->Increment();
    lock.unlock();
    uint64_t v = compute();  // Off-lock: other entries stay accessible.
    lock.lock();
    entry.value = v;
    entry.ready = true;
    lock.unlock();
    cv_.notify_all();
    return v;
  }

  // True if `id` is present (ready or in flight).
  bool Contains(const Hash256& id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.find(id) != cache_.end();
  }

  // Round-advancement hook: prunes entries last touched more than
  // kKeepRounds rounds ago. Message verdicts are only consulted around the
  // round the message belongs to, so old entries are dead weight — without
  // pruning the map grows linearly with chain length.
  void NoteRound(uint64_t round) {
    std::lock_guard<std::mutex> lock(mu_);
    if (round <= round_) {
      return;
    }
    round_ = round;
    if (round_ <= kKeepRounds) {
      return;
    }
    const uint64_t min_keep = round_ - kKeepRounds;
    uint64_t removed = 0;
    for (auto it = cache_.begin(); it != cache_.end();) {
      // Never prune an in-flight entry: its computing thread and any waiters
      // hold a reference.
      if (it->second.ready && it->second.round < min_keep) {
        it = cache_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    if (removed > 0) {
      pruned_->Increment(removed);
    }
  }

  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t pruned() const { return pruned_->Value(); }
  uint64_t pool_waits() const { return pool_waits_->Value(); }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
  }

 private:
  // Entries from the previous 2 rounds may still serve buffered or straggler
  // messages; anything older is unreachable in practice.
  static constexpr uint64_t kKeepRounds = 2;

  struct Entry {
    uint64_t value = 0;
    bool ready = false;
    uint64_t round = 0;  // Last round this entry was touched in.
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<Hash256, Entry, FixedBytesHasher> cache_;
  uint64_t round_ = 0;

  Counter fallback_hits_;
  Counter fallback_misses_;
  Counter fallback_pruned_;
  Counter fallback_pool_waits_;
  Counter* hits_ = &fallback_hits_;
  Counter* misses_ = &fallback_misses_;
  Counter* pruned_ = &fallback_pruned_;
  Counter* pool_waits_ = &fallback_pool_waits_;
  Histogram* pool_wait_us_ = nullptr;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_VERIFICATION_CACHE_H_
