// Concurrent transaction pool feeding proposer block assembly.
//
// The pool holds signed payments that have passed signature verification but
// are not yet in an agreed block. It enforces, under one lock so gossip
// threads and the protocol thread can share it:
//
//   * dedup by transaction id — relay copies of the same gossip payload are
//     counted and dropped;
//   * per-sender nonce sequencing — each sender keeps a nonce-ordered queue;
//     gaps are held (a future nonce waits for its predecessors) and only the
//     contiguous prefix starting at the ledger's next nonce is proposable;
//   * replacement by fee — a second transaction for the same (sender, nonce)
//     replaces the resident one only if it pays a strictly higher fee;
//   * fee-priority ordering — block assembly drains sender queues highest
//     head-fee first (ties by transaction id), so a full block carries the
//     most valuable payload;
//   * bounded capacity — at capacity the lowest-fee resident transaction is
//     evicted (preferring the tail of its sender's queue, so no new nonce
//     gaps are created); an arrival pricing below every resident is rejected.
//
// Every decision is a deterministic function of the pool contents and the
// account table passed in — assembly at two nodes with equal pools and
// ledgers yields byte-identical blocks.
//
// Layout: resident transactions live in one slab vector (freed slots are
// reused through a free list) and everything else holds a slab index. The id
// index is a FlatMap; each sender's queue is a nonce-sorted vector of (nonce,
// slab index) pairs; senders_ is an ordered map, so assembly and sweeps visit
// senders in key order at every node. The eviction order is a binary heap
// with lazy deletion: an entry is live only while its (sender, nonce) is
// resident at its fee, dead entries are popped when they reach the top, and
// the heap is rebuilt from the residents once it holds more than twice as many
// entries as the pool.
#ifndef ALGORAND_SRC_LEDGER_MEMPOOL_H_
#define ALGORAND_SRC_LEDGER_MEMPOOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_set.h"
#include "src/ledger/account_table.h"
#include "src/ledger/transaction.h"
#include "src/obs/metrics.h"

namespace algorand {

struct MempoolConfig {
  size_t capacity = size_t{1} << 16;  // Max resident transactions.
};

class Mempool {
 public:
  enum class AddResult : uint8_t {
    kAdded,        // Newly admitted.
    kReplaced,     // Took over a (sender, nonce) slot from a lower-fee tx.
    kDuplicate,    // Same id already resident (relay copy), or same
                   // (sender, nonce) at an equal-or-higher fee.
    kStale,        // Nonce below the sender's ledger nonce: can never apply.
    kUnderpriced,  // Pool full and this tx prices below every resident one.
  };

  explicit Mempool(MempoolConfig config = {}) : config_(config) {}

  // Routes "mempool.added" / "mempool.duplicates" / "mempool.stale" /
  // "mempool.replaced" / "mempool.evicted" / "mempool.underpriced" /
  // "mempool.committed" counters and the "mempool.size" gauge through
  // `registry`.
  void AttachMetrics(MetricsRegistry* registry);

  // Admits `tx`, where `ledger_next_nonce` is the sender's current account
  // nonce. The caller has already verified the signature.
  AddResult Add(const Transaction& tx, uint64_t ledger_next_nonce);

  bool Contains(const Hash256& id) const;
  // The transactions of `txns` whose ids are not resident, in order, taken in
  // one locked pass. A resident id means Add's caller already verified those
  // exact bytes, so block validation only needs to verify what this returns.
  std::vector<Transaction> NotResident(const std::vector<Transaction>& txns) const;
  size_t size() const;
  // Senders with at least one resident transaction.
  size_t sender_count() const;

  // Assembles the fee-priority, nonce-sequenced transaction list for a block
  // proposal: highest head-fee sender queues first, each drained in nonce
  // order while the transactions keep applying against an overlay of
  // `accounts`, up to `max_bytes` of wire size. Deterministic.
  std::vector<Transaction> BuildBlock(const AccountTable& accounts, size_t max_bytes) const;

  // Commit-time maintenance after a block is appended: drops the committed
  // transactions by id, then drops any resident transaction of the touched
  // senders whose nonce fell below the ledger's — the apply-time
  // invalidation when a competing block spends the same nonces.
  void ObserveCommitted(const std::vector<Transaction>& committed, const AccountTable& accounts);

  // Full-scan staleness sweep against `accounts` (fork recovery / suffix
  // replacement, where any sender may have regressed or advanced).
  void DropStale(const AccountTable& accounts);

 private:
  // One sender's resident transactions in ascending nonce order. Arrivals
  // almost always append at the tail, commits pop the head and evictions the
  // tail. The popped prefix [0, head_) is reclaimed once it is half of
  // entries_, so popping either end is amortized O(1).
  struct QueueEntry {
    uint64_t nonce;
    uint32_t slot;  // Index into slab_.
  };
  class SenderQueue {
   public:
    using Iter = std::vector<QueueEntry>::const_iterator;
    Iter begin() const { return entries_.begin() + static_cast<std::ptrdiff_t>(head_); }
    Iter end() const { return entries_.end(); }
    bool empty() const { return head_ == entries_.size(); }
    // The entry for `nonce`, or end().
    Iter Find(uint64_t nonce) const;
    void Insert(uint64_t nonce, uint32_t slot);
    void Erase(Iter it);

   private:
    Iter LowerBound(uint64_t nonce) const;

    std::vector<QueueEntry> entries_;
    size_t head_ = 0;
  };

  // An eviction candidate; live only while (sender, nonce) is resident at
  // `fee`. The victim is the lowest fee, then the lowest sender, then the
  // highest nonce, so it is a queue tail and no gap appears below it.
  struct EvictionEntry {
    uint64_t fee;
    PublicKey sender;
    uint64_t nonce;
  };
  // The heap comparator: true if `a` is evicted after `b`, so the heap's top
  // is the next victim.
  static bool EvictsAfter(const EvictionEntry& a, const EvictionEntry& b);

  uint32_t StoreLocked(const Transaction& tx);
  // Drops the id and frees the slab slot; the caller unlinks the queue entry.
  void ReleaseLocked(uint32_t slot);
  void RemoveLocked(const PublicKey& sender, uint64_t nonce);
  void PushEvictionLocked(const Transaction& tx);
  // Pops dead entries off the heap; the live top, or nullptr if none is left.
  const EvictionEntry* VictimLocked();
  void DropStaleSenderLocked(const PublicKey& sender, uint64_t ledger_next_nonce);
  size_t SizeLocked() const { return ids_.size(); }
  void UpdateSizeGauge() const;

  const MempoolConfig config_;
  mutable std::mutex mu_;
  std::vector<Transaction> slab_;
  std::vector<uint32_t> free_slots_;
  std::map<PublicKey, SenderQueue> senders_;
  FlatMap<Hash256, uint32_t> ids_;  // Id -> slab index of every resident.
  std::vector<EvictionEntry> eviction_heap_;

  Counter fallback_[7];
  Counter* added_ = &fallback_[0];
  Counter* duplicates_ = &fallback_[1];
  Counter* stale_ = &fallback_[2];
  Counter* replaced_ = &fallback_[3];
  Counter* evicted_ = &fallback_[4];
  Counter* underpriced_ = &fallback_[5];
  Counter* committed_ = &fallback_[6];
  Gauge* size_gauge_ = nullptr;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_LEDGER_MEMPOOL_H_
