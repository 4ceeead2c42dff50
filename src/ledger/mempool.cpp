#include "src/ledger/mempool.h"

#include <algorithm>
#include <iterator>

namespace algorand {

void Mempool::AttachMetrics(MetricsRegistry* registry) {
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

void Mempool::UpdateSizeGauge() const {
  if (size_gauge_ != nullptr) {
    size_gauge_->Set(static_cast<int64_t>(ids_.size()));
  }
}

Mempool::SenderQueue::Iter Mempool::SenderQueue::LowerBound(uint64_t nonce) const {
  return std::lower_bound(begin(), end(), nonce,
                          [](const QueueEntry& e, uint64_t n) { return e.nonce < n; });
}

Mempool::SenderQueue::Iter Mempool::SenderQueue::Find(uint64_t nonce) const {
  auto it = LowerBound(nonce);
  return it != end() && it->nonce == nonce ? it : end();
}

void Mempool::SenderQueue::Insert(uint64_t nonce, uint32_t slot) {
  if (empty() || entries_.back().nonce < nonce) {
    entries_.push_back({nonce, slot});
  } else {
    entries_.insert(LowerBound(nonce), {nonce, slot});
  }
}

void Mempool::SenderQueue::Erase(Iter it) {
  if (it != begin()) {
    entries_.erase(it);
    return;
  }
  if (++head_ * 2 >= entries_.size()) {
    entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

bool Mempool::EvictsAfter(const EvictionEntry& a, const EvictionEntry& b) {
  if (a.fee != b.fee) {
    return a.fee > b.fee;
  }
  if (a.sender != b.sender) {
    return a.sender > b.sender;
  }
  return a.nonce < b.nonce;
}

uint32_t Mempool::StoreLocked(const Transaction& tx) {
  if (free_slots_.empty()) {
    slab_.push_back(tx);
    return static_cast<uint32_t>(slab_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slab_[slot] = tx;
  return slot;
}

void Mempool::ReleaseLocked(uint32_t slot) {
  ids_.erase(slab_[slot].Id());
  free_slots_.push_back(slot);
}

void Mempool::RemoveLocked(const PublicKey& sender, uint64_t nonce) {
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) {
    return;
  }
  auto entry = sit->second.Find(nonce);
  if (entry == sit->second.end()) {
    return;
  }
  ReleaseLocked(entry->slot);
  sit->second.Erase(entry);
  if (sit->second.empty()) {
    senders_.erase(sit);
  }
}

void Mempool::PushEvictionLocked(const Transaction& tx) {
  eviction_heap_.push_back({tx.fee, tx.from, tx.nonce});
  std::push_heap(eviction_heap_.begin(), eviction_heap_.end(), EvictsAfter);
  if (eviction_heap_.size() <= 2 * SizeLocked()) {
    return;
  }
  // Mostly dead entries: rebuild from the residents, one entry each.
  eviction_heap_.clear();
  for (const auto& [sender, queue] : senders_) {
    for (const QueueEntry& e : queue) {
      eviction_heap_.push_back({slab_[e.slot].fee, sender, e.nonce});
    }
  }
  std::make_heap(eviction_heap_.begin(), eviction_heap_.end(), EvictsAfter);
}

const Mempool::EvictionEntry* Mempool::VictimLocked() {
  while (!eviction_heap_.empty()) {
    const EvictionEntry& top = eviction_heap_.front();
    auto sit = senders_.find(top.sender);
    if (sit != senders_.end()) {
      auto entry = sit->second.Find(top.nonce);
      if (entry != sit->second.end() && slab_[entry->slot].fee == top.fee) {
        return &top;
      }
    }
    std::pop_heap(eviction_heap_.begin(), eviction_heap_.end(), EvictsAfter);
    eviction_heap_.pop_back();
  }
  return nullptr;
}

Mempool::AddResult Mempool::Add(const Transaction& tx, uint64_t ledger_next_nonce) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tx.nonce < ledger_next_nonce) {
    stale_->Increment();
    return AddResult::kStale;
  }
  const Hash256& id = tx.Id();
  if (ids_.contains(id)) {
    duplicates_->Increment();
    return AddResult::kDuplicate;
  }
  auto queue = senders_.find(tx.from);
  if (queue != senders_.end()) {
    auto entry = queue->second.Find(tx.nonce);
    if (entry != queue->second.end()) {
      // A different transaction already claims this (sender, nonce): only a
      // strictly higher fee may replace it. The old heap entry dies with its
      // fee.
      Transaction& resident = slab_[entry->slot];
      if (tx.fee <= resident.fee) {
        duplicates_->Increment();
        return AddResult::kDuplicate;
      }
      ids_.erase(resident.Id());
      resident = tx;
      ids_.insert(id, entry->slot);
      PushEvictionLocked(tx);
      replaced_->Increment();
      UpdateSizeGauge();
      return AddResult::kReplaced;
    }
  }
  if (SizeLocked() >= config_.capacity) {
    const EvictionEntry* top = VictimLocked();  // Lowest fee, tail-most.
    if (top == nullptr || !(tx.fee > top->fee)) {
      underpriced_->Increment();
      return AddResult::kUnderpriced;
    }
    const EvictionEntry victim = *top;
    std::pop_heap(eviction_heap_.begin(), eviction_heap_.end(), EvictsAfter);
    eviction_heap_.pop_back();
    RemoveLocked(victim.sender, victim.nonce);
    evicted_->Increment();
    queue = senders_.find(tx.from);  // The victim may have emptied this queue.
  }
  // The sender's queue is created only now, on admission: a rejected first
  // arrival leaves no empty queue behind.
  if (queue == senders_.end()) {
    queue = senders_.try_emplace(tx.from).first;
  }
  const uint32_t slot = StoreLocked(tx);
  queue->second.Insert(tx.nonce, slot);
  ids_.insert(id, slot);
  PushEvictionLocked(tx);
  added_->Increment();
  UpdateSizeGauge();
  return AddResult::kAdded;
}

bool Mempool::Contains(const Hash256& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ids_.contains(id);
}

std::vector<Transaction> Mempool::NotResident(const std::vector<Transaction>& txns) const {
  std::vector<Transaction> out;
  std::lock_guard<std::mutex> lock(mu_);
  std::copy_if(txns.begin(), txns.end(), std::back_inserter(out),
               [&](const Transaction& tx) { return !ids_.contains(tx.Id()); });
  return out;
}

size_t Mempool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ids_.size();
}

size_t Mempool::sender_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return senders_.size();
}

std::vector<Transaction> Mempool::BuildBlock(const AccountTable& accounts,
                                             size_t max_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  AccountOverlay overlay(accounts);
  // A sender's next proposable transaction. Heads drain highest fee first,
  // ties broken by transaction id, so assembly is a pure function of (pool,
  // accounts).
  struct Head {
    uint64_t fee;
    const Hash256* id;
    const SenderQueue* queue;
    SenderQueue::Iter pos;
  };
  const auto drains_after = [](const Head& a, const Head& b) {
    return a.fee != b.fee ? a.fee < b.fee : *b.id < *a.id;
  };
  const auto head_at = [&](const SenderQueue& queue, SenderQueue::Iter pos) {
    const Transaction& tx = slab_[pos->slot];
    return Head{tx.fee, &tx.Id(), &queue, pos};
  };
  std::vector<Head> heads;
  heads.reserve(senders_.size());
  for (const auto& [sender, queue] : senders_) {
    auto it = queue.Find(accounts.NextNonceOf(sender));
    if (it != queue.end()) {
      heads.push_back(head_at(queue, it));
    }
  }
  std::make_heap(heads.begin(), heads.end(), drains_after);
  std::vector<Transaction> out;
  out.reserve(std::min(max_bytes / Transaction::kWireSize, SizeLocked()));
  size_t used = 0;
  while (!heads.empty() && used + Transaction::kWireSize <= max_bytes) {
    std::pop_heap(heads.begin(), heads.end(), drains_after);
    const Head head = heads.back();
    heads.pop_back();
    const Transaction& tx = slab_[head.pos->slot];
    if (!overlay.ApplyTransaction(tx)) {
      // Insufficient balance at this point of assembly; later nonces of this
      // sender cannot apply either (the nonce would gap), so drop the queue.
      continue;
    }
    out.push_back(tx);
    used += Transaction::kWireSize;
    auto next = std::next(head.pos);
    if (next != head.queue->end() && next->nonce == tx.nonce + 1) {
      heads.push_back(head_at(*head.queue, next));
      std::push_heap(heads.begin(), heads.end(), drains_after);
    }
  }
  return out;
}

void Mempool::ObserveCommitted(const std::vector<Transaction>& committed,
                               const AccountTable& accounts) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Transaction& tx : committed) {
    if (const uint32_t* slot = ids_.find(tx.Id())) {
      RemoveLocked(slab_[*slot].from, slab_[*slot].nonce);
    }
  }
  committed_->Increment(committed.size());
  // Apply-time invalidation: a competing block may have consumed a sender's
  // nonce with a *different* transaction id; everything below the ledger
  // nonce is now unappliable. Once per sender: the sweep is idempotent.
  FlatSet<PublicKey> swept;
  for (const Transaction& tx : committed) {
    if (swept.insert(tx.from)) {
      DropStaleSenderLocked(tx.from, accounts.NextNonceOf(tx.from));
    }
  }
  UpdateSizeGauge();
}

void Mempool::DropStaleSenderLocked(const PublicKey& sender, uint64_t ledger_next_nonce) {
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) {
    return;
  }
  SenderQueue& queue = sit->second;
  while (!queue.empty() && queue.begin()->nonce < ledger_next_nonce) {
    ReleaseLocked(queue.begin()->slot);
    queue.Erase(queue.begin());
    stale_->Increment();
  }
  if (queue.empty()) {
    senders_.erase(sit);
  }
}

void Mempool::DropStale(const AccountTable& accounts) {
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
