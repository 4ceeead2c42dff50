#include "src/ledger/account_table.h"

#include <algorithm>

#include "src/crypto/sha256.h"

namespace algorand {

size_t AccountTable::account_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.size();
  }
  return n;
}

size_t AccountTable::memory_bytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    bytes += shard.memory_bytes();
  }
  return bytes;
}

void AccountTable::Reserve(size_t expected_accounts) {
  // A shard's fill is binomial around n/64; 3% slack is ~4 standard
  // deviations of it at 1M accounts, so no shard grows during the load and
  // the table sits at ~0.73 load.
  const size_t per_shard = (expected_accounts * 103 / 100 + kShards - 1) / kShards;
  for (Shard& shard : shards_) {
    shard.reserve(per_shard);
  }
}

void AccountTable::Credit(const PublicKey& pk, uint64_t amount) {
  GetOrInsert(pk).balance += amount;
  total_weight_ += amount;
}

uint64_t AccountTable::BalanceOf(const PublicKey& pk) const {
  const Account* a = Find(pk);
  return a == nullptr ? 0 : a->balance;
}

uint64_t AccountTable::NextNonceOf(const PublicKey& pk) const {
  const Account* a = Find(pk);
  return a == nullptr ? 0 : a->next_nonce;
}

bool AccountTable::CheckTransaction(const Transaction& tx) const {
  const Account* from = Find(tx.from);
  if (from == nullptr) {
    return false;
  }
  if (tx.nonce != from->next_nonce) {
    return false;
  }
  // Overflow-safe balance check.
  if (tx.amount > from->balance || tx.fee > from->balance - tx.amount) {
    return false;
  }
  return true;
}

bool AccountTable::ApplyTransaction(const Transaction& tx) {
  if (!CheckTransaction(tx)) {
    return false;
  }
  Account& from = GetOrInsert(tx.from);  // Present: CheckTransaction found it.
  from.balance -= tx.amount + tx.fee;
  from.next_nonce += 1;
  GetOrInsert(tx.to).balance += tx.amount;  // May invalidate `from`; done with it.
  total_weight_ -= tx.fee;                  // Fees are burned.
  return true;
}

void AccountTable::Upsert(const PublicKey& pk, const Account& account) {
  GetOrInsert(pk) = account;
}

std::vector<std::pair<PublicKey, Account>> AccountTable::SortedEntries() const {
  std::vector<std::pair<PublicKey, Account>> out;
  out.reserve(account_count());
  for (const Shard& shard : shards_) {
    shard.for_each([&out](const auto& e) { out.emplace_back(e.key, e.value); });
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

Hash256 AccountTable::StateFingerprint() const {
  Sha256 h;
  h.Update("account-table-v1");
  for (const auto& [pk, account] : SortedEntries()) {
    h.Update(std::span<const uint8_t>(pk.data(), pk.size()));
    uint8_t buf[16];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<uint8_t>(account.balance >> (8 * i));
      buf[8 + i] = static_cast<uint8_t>(account.next_nonce >> (8 * i));
    }
    h.Update(std::span<const uint8_t>(buf, sizeof buf));
  }
  uint8_t tail[8];
  for (int i = 0; i < 8; ++i) {
    tail[i] = static_cast<uint8_t>(total_weight_ >> (8 * i));
  }
  h.Update(std::span<const uint8_t>(tail, sizeof tail));
  return h.Finish();
}

void AccountTable::SerializeTo(Writer* w) const {
  w->U64(total_weight_);
  const auto entries = SortedEntries();
  w->U64(entries.size());
  for (const auto& [pk, account] : entries) {
    w->Fixed(pk);
    w->U64(account.balance);
    w->U64(account.next_nonce);
  }
}

bool AccountTable::DeserializeFrom(Reader* rd) {
  const uint64_t total = rd->U64();
  const uint64_t count = rd->U64();
  // Entries are 48 bytes each; a count the input cannot possibly back is
  // malformed (prevents a corrupt header from driving a huge Reserve).
  if (!rd->ok() || count > rd->remaining() / 48 + 1) {
    return false;
  }
  Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const PublicKey pk = rd->Fixed<32>();
    Account account;
    account.balance = rd->U64();
    account.next_nonce = rd->U64();
    if (!rd->ok()) {
      return false;
    }
    Upsert(pk, account);
  }
  total_weight_ = total;
  return true;
}

Account AccountOverlay::Get(const PublicKey& pk) const {
  if (const Account* a = delta_.find(pk)) {
    return *a;
  }
  const Account* a = base_->Find(pk);
  return a == nullptr ? Account{} : *a;
}

bool AccountOverlay::CheckTransaction(const Transaction& tx) const {
  const Account from = Get(tx.from);
  if (from.balance == 0 && from.next_nonce == 0 && base_->Find(tx.from) == nullptr &&
      !delta_.contains(tx.from)) {
    return false;  // Unknown sender, same verdict as the table.
  }
  if (tx.nonce != from.next_nonce) {
    return false;
  }
  if (tx.amount > from.balance || tx.fee > from.balance - tx.amount) {
    return false;
  }
  return true;
}

bool AccountOverlay::ApplyTransaction(const Transaction& tx) {
  if (!CheckTransaction(tx)) {
    return false;
  }
  Account from = Get(tx.from);
  from.balance -= tx.amount + tx.fee;
  from.next_nonce += 1;
  delta_[tx.from] = from;
  Account to = Get(tx.to);
  to.balance += tx.amount;
  delta_[tx.to] = to;
  fees_burned_ += tx.fee;
  return true;
}

void AccountOverlay::CommitTo(AccountTable* table) const {
  delta_.for_each([table](const auto& e) { table->Upsert(e.key, e.value); });
  table->BurnFees(fees_burned_);
}

}  // namespace algorand
