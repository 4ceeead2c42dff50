// The mempool's previous node-based layout, kept as the reference the flat
// Mempool (src/ledger/mempool.h) is checked against: per-sender
// std::map<nonce, tx> queues, an unordered_map id index and a std::set
// eviction order. Same admission, replacement and eviction rules, same
// counters; only the containers differ.
#ifndef ALGORAND_TESTS_REFERENCE_MEMPOOL_H_
#define ALGORAND_TESTS_REFERENCE_MEMPOOL_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/ledger/account_table.h"
#include "src/ledger/mempool.h"
#include "src/ledger/transaction.h"
#include "src/obs/metrics.h"

namespace algorand {

class ReferenceMempool {
 public:
  using AddResult = Mempool::AddResult;

  explicit ReferenceMempool(MempoolConfig config = {}) : config_(config) {}

  // The API and contract of Mempool (src/ledger/mempool.h).
  void AttachMetrics(MetricsRegistry* registry);
  AddResult Add(const Transaction& tx, uint64_t ledger_next_nonce);
  bool Contains(const Hash256& id) const;
  std::vector<Transaction> NotResident(const std::vector<Transaction>& txns) const;
  size_t size() const;
  size_t sender_count() const;
  std::vector<Transaction> BuildBlock(const AccountTable& accounts, size_t max_bytes) const;
  void ObserveCommitted(const std::vector<Transaction>& committed, const AccountTable& accounts);
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

inline void ReferenceMempool::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    added_ = &fallback_[0];
    duplicates_ = &fallback_[1];
    stale_ = &fallback_[2];
    replaced_ = &fallback_[3];
    evicted_ = &fallback_[4];
    underpriced_ = &fallback_[5];
    committed_ = &fallback_[6];
    size_gauge_ = nullptr;
    return;
  }
  added_ = &registry->GetCounter("mempool.added");
  duplicates_ = &registry->GetCounter("mempool.duplicates");
  stale_ = &registry->GetCounter("mempool.stale");
  replaced_ = &registry->GetCounter("mempool.replaced");
  evicted_ = &registry->GetCounter("mempool.evicted");
  underpriced_ = &registry->GetCounter("mempool.underpriced");
  committed_ = &registry->GetCounter("mempool.committed");
  size_gauge_ = &registry->GetGauge("mempool.size");
}

inline void ReferenceMempool::UpdateSizeGauge() const {
  if (size_gauge_ != nullptr) {
    size_gauge_->Set(static_cast<int64_t>(ids_.size()));
  }
}

inline void ReferenceMempool::RemoveLocked(const PublicKey& sender, uint64_t nonce) {
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) {
    return;
  }
  auto nit = sit->second.find(nonce);
  if (nit == sit->second.end()) {
    return;
  }
  ids_.erase(nit->second.Id());
  eviction_index_.erase({nit->second.fee, sender, nonce});
  sit->second.erase(nit);
  if (sit->second.empty()) {
    senders_.erase(sit);
  }
}

inline ReferenceMempool::AddResult ReferenceMempool::Add(const Transaction& tx,
                                                       uint64_t ledger_next_nonce) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tx.nonce < ledger_next_nonce) {
    stale_->Increment();
    return AddResult::kStale;
  }
  const Hash256& id = tx.Id();
  if (ids_.find(id) != ids_.end()) {
    duplicates_->Increment();
    return AddResult::kDuplicate;
  }
  auto queue = senders_.find(tx.from);
  if (queue != senders_.end()) {
    auto slot = queue->second.find(tx.nonce);
    if (slot != queue->second.end()) {
      // A different transaction already claims this (sender, nonce): only a
      // strictly higher fee may replace it.
      if (tx.fee <= slot->second.fee) {
        duplicates_->Increment();
        return AddResult::kDuplicate;
      }
      ids_.erase(slot->second.Id());
      eviction_index_.erase({slot->second.fee, tx.from, tx.nonce});
      slot->second = tx;
      ids_.emplace(id, std::make_pair(tx.from, tx.nonce));
      eviction_index_.insert({tx.fee, tx.from, tx.nonce});
      replaced_->Increment();
      UpdateSizeGauge();
      return AddResult::kReplaced;
    }
  }
  if (SizeLocked() >= config_.capacity) {
    const auto victim = *eviction_index_.begin();  // Lowest fee, tail-most.
    if (!(tx.fee > std::get<0>(victim))) {
      underpriced_->Increment();
      return AddResult::kUnderpriced;
    }
    RemoveLocked(std::get<1>(victim), std::get<2>(victim));
    evicted_->Increment();
    queue = senders_.find(tx.from);  // The victim may have emptied this queue.
  }
  // The sender's queue is created only now, on admission: a rejected first
  // arrival leaves no empty queue behind.
  if (queue == senders_.end()) {
    queue = senders_.try_emplace(tx.from).first;
  }
  queue->second.emplace(tx.nonce, tx);
  ids_.emplace(id, std::make_pair(tx.from, tx.nonce));
  eviction_index_.insert({tx.fee, tx.from, tx.nonce});
  added_->Increment();
  UpdateSizeGauge();
  return AddResult::kAdded;
}

inline bool ReferenceMempool::Contains(const Hash256& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ids_.find(id) != ids_.end();
}

inline std::vector<Transaction> ReferenceMempool::NotResident(
    const std::vector<Transaction>& txns) const {
  std::vector<Transaction> out;
  std::lock_guard<std::mutex> lock(mu_);
  std::copy_if(txns.begin(), txns.end(), std::back_inserter(out),
               [&](const Transaction& tx) { return !ids_.contains(tx.Id()); });
  return out;
}

inline size_t ReferenceMempool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ids_.size();
}

inline size_t ReferenceMempool::sender_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return senders_.size();
}

inline std::vector<Transaction> ReferenceMempool::BuildBlock(const AccountTable& accounts,
                                                             size_t max_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  AccountOverlay overlay(accounts);
  // Ready heads, drained highest fee first; ties broken by transaction id so
  // assembly is a pure function of (pool, accounts).
  struct HeadOrder {
    bool operator()(const std::tuple<uint64_t, Hash256, PublicKey>& a,
                    const std::tuple<uint64_t, Hash256, PublicKey>& b) const {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) > std::get<0>(b);
      }
      return std::get<1>(a) < std::get<1>(b);
    }
  };
  std::set<std::tuple<uint64_t, Hash256, PublicKey>, HeadOrder> heads;
  for (const auto& [sender, queue] : senders_) {
    auto it = queue.find(accounts.NextNonceOf(sender));
    if (it != queue.end()) {
      heads.insert({it->second.fee, it->second.Id(), sender});
    }
  }
  std::vector<Transaction> out;
  size_t used = 0;
  while (!heads.empty() && used + Transaction::kWireSize <= max_bytes) {
    const auto head = *heads.begin();
    heads.erase(heads.begin());
    const PublicKey& sender = std::get<2>(head);
    const auto& queue = senders_.at(sender);
    auto it = queue.find(overlay.NextNonceOf(sender));
    if (it == queue.end()) {
      continue;
    }
    const Transaction& tx = it->second;
    if (!overlay.ApplyTransaction(tx)) {
      // Insufficient balance at this point of assembly; later nonces of this
      // sender cannot apply either (the nonce would gap), so drop the queue.
      continue;
    }
    out.push_back(tx);
    used += Transaction::kWireSize;
    auto next = queue.find(tx.nonce + 1);
    if (next != queue.end()) {
      heads.insert({next->second.fee, next->second.Id(), sender});
    }
  }
  return out;
}

inline void ReferenceMempool::ObserveCommitted(const std::vector<Transaction>& committed,
                                               const AccountTable& accounts) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Transaction& tx : committed) {
    auto it = ids_.find(tx.Id());
    if (it != ids_.end()) {
      const auto [sender, nonce] = it->second;
      RemoveLocked(sender, nonce);
    }
  }
  committed_->Increment(committed.size());
  // Apply-time invalidation: a competing block may have consumed a sender's
  // nonce with a *different* transaction id; everything below the ledger
  // nonce is now unappliable.
  for (const Transaction& tx : committed) {
    DropStaleSenderLocked(tx.from, accounts.NextNonceOf(tx.from));
  }
  UpdateSizeGauge();
}

inline void ReferenceMempool::DropStaleSenderLocked(const PublicKey& sender,
                                                     uint64_t ledger_next_nonce) {
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) {
    return;
  }
  auto& queue = sit->second;
  while (!queue.empty() && queue.begin()->first < ledger_next_nonce) {
    ids_.erase(queue.begin()->second.Id());
    eviction_index_.erase({queue.begin()->second.fee, sender, queue.begin()->first});
    queue.erase(queue.begin());
    stale_->Increment();
  }
  if (queue.empty()) {
    senders_.erase(sit);
  }
}

inline void ReferenceMempool::DropStale(const AccountTable& accounts) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PublicKey> sender_list;
  sender_list.reserve(senders_.size());
  for (const auto& [sender, queue] : senders_) {
    sender_list.push_back(sender);
  }
  for (const PublicKey& sender : sender_list) {
    DropStaleSenderLocked(sender, accounts.NextNonceOf(sender));
  }
  UpdateSizeGauge();
}

}  // namespace algorand

#endif  // ALGORAND_TESTS_REFERENCE_MEMPOOL_H_
