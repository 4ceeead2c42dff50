// The account state implied by a chain prefix: balances and nonces per public
// key. Balances double as sortition weights (§2 "weighted users"), so the
// table also tracks the total outstanding currency W.
//
// Layout: a sharded open-addressing hash table sized for millions of
// accounts. Each shard is a FlatMap<PublicKey, Account> (common/flat_set.h):
// 49-byte slots (one ctrl byte, plus key + balance + nonce) probed linearly
// from a mixed 64-bit prefix of the public key, at any capacity and at most
// 3/4 load, so a lookup or balance update touches one cache line of metadata
// and one slot in the common case — against the std::map layout this removes
// the pointer chase and per-node allocation that dominated at 10^6 accounts.
// Accounts are never deleted. Shards exist for the parallel block-apply path
// (ledger/exec.h): partitions that commit concurrently serialize per shard,
// not per table, via AccountTable::ShardOf, which takes the hash bits the
// shard's FlatMap leaves unused.
//
// Iteration order over an open-addressing table depends on insertion order,
// which the parallel committer does not fix; every observable ordering
// (snapshots, fingerprints, tests) therefore goes through SortedEntries().
//
// A copy duplicates the shard arrays as they are, with no rehash: ledgers start
// from a copy of one shared, immutable genesis table (MintGenesis, ledger.h).
#ifndef ALGORAND_SRC_LEDGER_ACCOUNT_TABLE_H_
#define ALGORAND_SRC_LEDGER_ACCOUNT_TABLE_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_set.h"
#include "src/common/serialize.h"
#include "src/ledger/transaction.h"

namespace algorand {

struct Account {
  uint64_t balance = 0;
  uint64_t next_nonce = 0;

  friend bool operator==(const Account& a, const Account& b) {
    return a.balance == b.balance && a.next_nonce == b.next_nonce;
  }
};

class AccountTable {
 public:
  // Shard count is a layout constant: ShardOf() must agree across every code
  // path that locks shards (ledger/exec.h keys its commit mutexes by it).
  static constexpr size_t kShardBits = 6;
  static constexpr size_t kShards = size_t{1} << kShardBits;

  AccountTable() = default;

  // Mints `amount` to `pk` (genesis only).
  void Credit(const PublicKey& pk, uint64_t amount);

  uint64_t BalanceOf(const PublicKey& pk) const;
  uint64_t NextNonceOf(const PublicKey& pk) const;

  // Sortition weight of a user: their balance in currency units.
  uint64_t WeightOf(const PublicKey& pk) const { return BalanceOf(pk); }
  uint64_t total_weight() const { return total_weight_; }
  size_t account_count() const;

  // True if the transaction could apply right now (nonce matches, balance
  // covers amount + fee). Does not check the signature.
  bool CheckTransaction(const Transaction& tx) const;

  // Applies the transaction; returns false (and leaves state unchanged) if it
  // does not apply. Fees are burned, which shrinks total_weight.
  bool ApplyTransaction(const Transaction& tx);

  // Pre-sizes every shard for ~`expected_accounts` total entries so a bulk
  // load (genesis at millions of accounts) does not rehash log(n) times.
  void Reserve(size_t expected_accounts);

  // Bytes of slot storage over all shards: capacity times slot size.
  size_t memory_bytes() const;

  // Slots a lookup of `pk` inspects (FlatTable::probe_length).
  size_t ProbeLength(const PublicKey& pk) const { return ShardFor(pk).probe_length(pk); }

  // The account if present, else nullptr. Pointers are invalidated by any
  // mutation of the table.
  const Account* Find(const PublicKey& pk) const { return ShardFor(pk).find(pk); }

  // Inserts or overwrites the full account record. Used by the block-apply
  // committer to flush an overlay delta; does NOT touch total_weight (the
  // committer accounts for burned fees itself via BurnFees).
  void Upsert(const PublicKey& pk, const Account& account);

  // Subtracts burned fees from total outstanding currency. Pairs with
  // Upsert() when committing an overlay whose transfers conserve balance.
  void BurnFees(uint64_t fees) { total_weight_ -= fees; }

  // The shard an account lives in. The parallel committer locks this index.
  static size_t ShardOf(const PublicKey& pk) { return Shard::Hash(pk) & (kShards - 1); }

  // Deterministic (key-sorted) iteration for snapshots and tests. O(n log n).
  std::vector<std::pair<PublicKey, Account>> SortedEntries() const;

  // SHA-256 over the sorted entries plus total_weight: a layout-independent
  // digest of the logical state, used by the exec_workers A/B determinism
  // tests to pin "bit-identical ledger state".
  Hash256 StateFingerprint() const;

  // Serializes the logical state — total_weight plus the key-sorted entries,
  // the same ordering StateFingerprint hashes — for checkpoints (store/
  // checkpoint.h). Layout-independent: the bytes depend only on the logical
  // state, never on shard load factors or insertion order.
  void SerializeTo(Writer* w) const;

  // Restores state serialized by SerializeTo into this table (on top of
  // whatever it holds; callers pass a fresh table). Returns false on
  // malformed input, leaving the table unspecified.
  bool DeserializeFrom(Reader* rd);

 private:
  using Shard = FlatMap<PublicKey, Account>;

  const Shard& ShardFor(const PublicKey& pk) const { return shards_[ShardOf(pk)]; }
  Account& GetOrInsert(const PublicKey& pk) { return shards_[ShardOf(pk)][pk]; }

  // The account count is derived by summing shard sizes (account_count())
  // rather than kept as one member: the parallel committer inserts into
  // different shards concurrently, and per-shard counters keep that race-free
  // under the per-shard commit locks.
  std::array<Shard, kShards> shards_;
  uint64_t total_weight_ = 0;
};

// A scratch view over an AccountTable: reads fall through to the base table,
// writes land in a small per-view delta map. Replaces the full-table copies
// the proposer / validator / append paths used to make, which are O(accounts)
// and prohibitive at millions of accounts; an overlay is O(touched).
class AccountOverlay {
 public:
  explicit AccountOverlay(const AccountTable& base) : base_(&base) {}

  uint64_t BalanceOf(const PublicKey& pk) const { return Get(pk).balance; }
  uint64_t NextNonceOf(const PublicKey& pk) const { return Get(pk).next_nonce; }

  // Same semantics as AccountTable::CheckTransaction/ApplyTransaction, seen
  // through the overlay.
  bool CheckTransaction(const Transaction& tx) const;
  bool ApplyTransaction(const Transaction& tx);

  uint64_t fees_burned() const { return fees_burned_; }
  const FlatMap<PublicKey, Account>& delta() const { return delta_; }

  // Flushes the delta into `table` (single-threaded path) and burns the
  // accumulated fees. The overlay must have been built over `table`.
  void CommitTo(AccountTable* table) const;

 private:
  Account Get(const PublicKey& pk) const;

  const AccountTable* base_;
  FlatMap<PublicKey, Account> delta_;
  uint64_t fees_burned_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_LEDGER_ACCOUNT_TABLE_H_
