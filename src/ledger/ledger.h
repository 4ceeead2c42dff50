// Per-node ledger state: the chain of agreed blocks, the account table they
// imply, the per-round seed schedule (§5.2), and optional historical weight
// snapshots for the look-back rule (§5.3).
//
// Every account state a ledger derives starts from one base table: a
// checkpoint's state, or the genesis table, which is minted once per
// GenesisConfig, shared immutable by its ledgers, and copied, not re-derived.
#ifndef ALGORAND_SRC_LEDGER_LEDGER_H_
#define ALGORAND_SRC_LEDGER_LEDGER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/ledger/account_table.h"
#include "src/ledger/block.h"
#include "src/ledger/exec.h"

namespace algorand {

// How a round's block was agreed (§4): final consensus confirms the block and
// all its predecessors; tentative consensus awaits a final successor.
enum class ConsensusKind : uint8_t {
  kFinal = 0,
  kTentative = 1,
};

struct GenesisConfig {
  // The genesis accounts, minted by MintGenesis. Immutable, so configs and
  // their ledgers share it: copying a config copies a pointer.
  std::shared_ptr<const AccountTable> accounts = std::make_shared<const AccountTable>();
  SeedBytes seed0;

  // If > 0, the ledger keeps account-table snapshots for this many recent
  // rounds so sortition can use look-back weights (§5.3).
  uint64_t weight_lookback_rounds = 0;
};

// The genesis table of `allocations`, credited in order. Configs keep no
// allocation list, so no later edit can put one out of step with the table.
std::shared_ptr<const AccountTable> MintGenesis(
    const std::vector<std::pair<PublicKey, uint64_t>>& allocations);

class Ledger {
 public:
  explicit Ledger(const GenesisConfig& config);

  // Appends a block extending the tip; the caller is responsible for protocol
  // validation (see core/validation.h). Returns false if the block does not
  // structurally extend the tip (wrong round or prev_hash) or a transaction
  // fails to apply.
  bool Append(const Block& block, ConsensusKind kind);

  // Replaces the chain suffix starting at `from_round` with `blocks`
  // (fork-recovery switch, §8.2). Replays state from the base (genesis, or
  // the installed checkpoint). Returns false and leaves the ledger unchanged
  // if the replacement does not form a valid chain, or if `from_round` dips
  // into the compacted prefix (<= base_round(): final history, never forked).
  bool ReplaceSuffix(uint64_t from_round, const std::vector<Block>& blocks);

  // Installs a checkpoint into a *fresh* ledger (chain_length() == 1, no
  // look-back configured): the round-B tip block, the account state after
  // applying rounds 1..B, and the seed window [seed_base .. B]. Afterwards
  // the ledger runs in compacted-prefix mode — rounds <= B are final and
  // their blocks unavailable; Append continues at B+1. Fails (leaving the
  // ledger untouched) on structural mismatch. Callers validate the state
  // against the checkpoint manifest (tip hash, fingerprint) themselves.
  bool InstallCheckpoint(const Block& tip_block, AccountTable accounts,
                         uint64_t seed_base, std::vector<SeedBytes> seeds);

  // Round below which history is compacted away (0 = full history from
  // genesis). chain, kinds and seeds start here, not at round 0.
  uint64_t base_round() const { return base_round_; }
  // Lowest round SeedForRound can answer (0 in full-history mode).
  uint64_t seed_base() const { return seed_base_; }
  // Look-back window configured at genesis (0 = current-weight sortition).
  uint64_t lookback_rounds() const { return lookback_rounds_; }

  // Only meaningful when base_round() == 0 (chain_.front() is the round-B
  // checkpoint block otherwise).
  const Block& genesis() const { return chain_.front(); }
  const Block& Tip() const { return chain_.back(); }
  Hash256 tip_hash() const { return tip_hash_; }
  // The round the node is currently trying to agree on.
  uint64_t next_round() const { return Tip().round + 1; }
  // Logical length: 1 + tip round, whether or not the prefix is compacted.
  size_t chain_length() const { return base_round_ + chain_.size(); }

  // Valid for round in [base_round(), chain_length()).
  const Block& BlockAtRound(uint64_t round) const { return chain_.at(round - base_round_); }
  std::optional<Block> BlockByHash(const Hash256& hash) const;

  // seed_r: defined for r in [seed_base, next_round()] — seed_base is 0 for a
  // full-history ledger, the checkpoint's window start otherwise.
  SeedBytes SeedForRound(uint64_t round) const;

  // The seed actually passed to sortition in round r, refreshed every
  // `refresh_interval` rounds: seed_{r-1-(r mod R)} (§5.2), clamped at the
  // genesis seed.
  SeedBytes SortitionSeed(uint64_t round, uint64_t refresh_interval) const;

  const AccountTable& accounts() const { return accounts_; }
  // Account state at base_round(): the genesis table (the same object for
  // every ledger of one GenesisConfig), or the installed checkpoint's state.
  const AccountTable& base_accounts() const { return *base_; }

  // Routes Append's transaction execution through `applier` (the pipelined
  // verify → partition → apply path of ledger/exec.h). Null restores the
  // built-in sequential applier. The applier must outlive the ledger; its
  // worker count never changes the committed state, only how it is computed.
  void SetApplier(const BlockApplier* applier) { applier_ = applier; }

  // Execution stats of the most recent successful Append.
  const ExecStats& last_exec_stats() const { return last_exec_stats_; }

  // Account state after applying blocks 1..round (by replay). Used by the
  // recovery protocol, which needs weights from the pre-fork (final) prefix.
  AccountTable AccountsAtRound(uint64_t round) const;

  // Sortition weights. If a look-back is configured and history is deep
  // enough, weights come from `lookback` rounds before the tip.
  uint64_t WeightOf(const PublicKey& pk) const;
  uint64_t total_weight() const;

  // Rounds below the base are final by construction (the checkpoint only
  // covers certified-final history).
  ConsensusKind ConsensusAtRound(uint64_t round) const {
    return round < base_round_ ? ConsensusKind::kFinal : kinds_.at(round - base_round_);
  }
  // Marks `round` and every earlier round final: a final block confirms all
  // its predecessors (§8.2). Finality is prefix-closed, so the walk back
  // stops at the last round already final. No-op below the base.
  void MarkFinalThrough(uint64_t round);

  // A transaction is confirmed once it appears in a block that is final or
  // has a final successor (§4, §8.2). Scans the retained blocks newest-first.
  bool IsConfirmed(const Hash256& txn_id) const;

  // Rounds of the highest final block, if any beyond genesis.
  std::optional<uint64_t> HighestFinalRound() const;

 private:
  // Recomputes accounts/seeds/indexes by replaying chain_ from the base
  // state. Sets replay_ok_ false if any transaction fails to apply.
  void RebuildState();

  uint64_t lookback_rounds_;
  bool replay_ok_ = true;

  // Compacted-prefix mode (InstallCheckpoint). base_round_ == 0 means full
  // history; then base_seeds_ == {seed0} and base_ is the genesis table.
  uint64_t base_round_ = 0;
  uint64_t seed_base_ = 0;
  // Seeds of rounds [seed_base_ .. base_round_]; chain_[0]'s next_seed (the
  // round base_round_+1 seed) is appended by RebuildState, keeping the replay
  // loop uniform across both modes.
  std::vector<SeedBytes> base_seeds_;
  std::shared_ptr<const AccountTable> base_;  // State after rounds 1..base_round_.

  std::vector<Block> chain_;          // chain_[i] is the round base_round_+i block.
  std::vector<ConsensusKind> kinds_;  // Parallel to chain_.
  std::vector<SeedBytes> seeds_;      // seeds_[i] = seed of round seed_base_+i.
  Hash256 tip_hash_;
  AccountTable accounts_;
  const BlockApplier* applier_ = nullptr;
  ExecStats last_exec_stats_;
  std::unordered_map<Hash256, uint64_t, FixedBytesHasher> round_by_hash_;
  std::deque<AccountTable> snapshots_;  // Most recent last; only if lookback.
};

// Deterministic test/simulation genesis: `n` users with equal `stake`, keys
// derived from a seed. Returns the configs plus the key pairs.
struct GenesisBundle {
  GenesisConfig config;
  std::vector<Ed25519KeyPair> keys;
};
GenesisBundle MakeTestGenesis(size_t n_users, uint64_t stake_per_user, uint64_t rng_seed);
// MakeTestGenesis's keys and seed0 with an empty table, for callers that
// mint their own allocations (SimHarness: stake shapes, clients, fillers).
GenesisBundle MakeTestGenesisKeys(size_t n_users, uint64_t rng_seed);

}  // namespace algorand

#endif  // ALGORAND_SRC_LEDGER_LEDGER_H_
