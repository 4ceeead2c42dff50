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
#ifndef ALGORAND_SRC_LEDGER_MEMPOOL_H_
#define ALGORAND_SRC_LEDGER_MEMPOOL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
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
  // Eviction order: lowest fee first; within a fee, by sender then highest
  // nonce first, so the victim is a queue tail and no gap appears below it.
  struct EvictionOrder {
    bool operator()(const std::tuple<uint64_t, PublicKey, uint64_t>& a,
                    const std::tuple<uint64_t, PublicKey, uint64_t>& b) const {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) < std::get<0>(b);
      }
      if (std::get<1>(a) != std::get<1>(b)) {
        return std::get<1>(a) < std::get<1>(b);
      }
      return std::get<2>(a) > std::get<2>(b);
    }
  };

  void RemoveLocked(const PublicKey& sender, uint64_t nonce);
  void DropStaleSenderLocked(const PublicKey& sender, uint64_t ledger_next_nonce);
  size_t SizeLocked() const { return ids_.size(); }
  void UpdateSizeGauge() const;

  const MempoolConfig config_;
  mutable std::mutex mu_;
  // Sender queues are std::map so iteration (assembly, sweeps) is
  // deterministic across nodes and runs.
  std::map<PublicKey, std::map<uint64_t, Transaction>> senders_;
  std::unordered_map<Hash256, std::pair<PublicKey, uint64_t>, FixedBytesHasher> ids_;
  std::set<std::tuple<uint64_t, PublicKey, uint64_t>, EvictionOrder> eviction_index_;

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
