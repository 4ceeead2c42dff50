#include "src/ledger/ledger.h"

#include "src/common/rng.h"

namespace algorand {

std::shared_ptr<const AccountTable> MintGenesis(
    const std::vector<std::pair<PublicKey, uint64_t>>& allocations) {
  auto table = std::make_shared<AccountTable>();
  table->Reserve(allocations.size());
  for (const auto& [pk, amount] : allocations) {
    table->Credit(pk, amount);
  }
  return table;
}

Ledger::Ledger(const GenesisConfig& config)
    : lookback_rounds_(config.weight_lookback_rounds),
      base_(config.accounts),
      accounts_(*base_) {
  Block genesis;
  genesis.round = 0;
  genesis.is_empty = true;
  genesis.next_seed = Block::DerivedSeed(config.seed0, 0);
  chain_.push_back(genesis);
  kinds_.push_back(ConsensusKind::kFinal);
  base_seeds_.push_back(config.seed0);
  seeds_.push_back(config.seed0);
  seeds_.push_back(genesis.next_seed);
  tip_hash_ = genesis.Hash();
  round_by_hash_[tip_hash_] = 0;
  if (lookback_rounds_ > 0) {
    snapshots_.push_back(accounts_);
  }
}

bool Ledger::InstallCheckpoint(const Block& tip_block, AccountTable accounts,
                               uint64_t seed_base, std::vector<SeedBytes> seeds) {
  if (chain_length() != 1 || lookback_rounds_ > 0) {
    return false;  // Only a fresh, no-look-back ledger can adopt a prefix.
  }
  if (tip_block.round == 0 || seed_base > tip_block.round ||
      seed_base + seeds.size() != tip_block.round + 1) {
    return false;  // Seed window must cover [seed_base .. B] exactly.
  }
  base_round_ = tip_block.round;
  seed_base_ = seed_base;
  base_seeds_ = std::move(seeds);
  base_ = std::make_shared<const AccountTable>(std::move(accounts));
  chain_.assign(1, tip_block);
  kinds_.assign(1, ConsensusKind::kFinal);
  RebuildState();
  return true;
}

bool Ledger::Append(const Block& block, ConsensusKind kind) {
  if (block.round != next_round() || block.prev_hash != tip_hash_) {
    return false;
  }
  // Apply transactions atomically (check all, then commit) through the
  // conflict-partitioned applier. The historical path copied the whole
  // account table as scratch — O(accounts) per block, prohibitive at 10^6
  // accounts; the applier's overlays are O(touched).
  static const BlockApplier kSequentialApplier;
  const BlockApplier* applier = applier_ != nullptr ? applier_ : &kSequentialApplier;
  if (!applier->ApplyBlock(block.txns, &accounts_, &last_exec_stats_)) {
    return false;
  }
  chain_.push_back(block);
  kinds_.push_back(ConsensusKind::kTentative);
  seeds_.push_back(block.next_seed);
  tip_hash_ = block.Hash();
  round_by_hash_[tip_hash_] = block.round;
  if (kind == ConsensusKind::kFinal) {
    MarkFinalThrough(block.round);
  }
  if (lookback_rounds_ > 0) {
    snapshots_.push_back(accounts_);
    while (snapshots_.size() > lookback_rounds_ + 1) {
      snapshots_.pop_front();
    }
  }
  return true;
}

void Ledger::MarkFinalThrough(uint64_t round) {
  if (round < base_round_) {
    return;
  }
  // kinds_[0] (genesis or the checkpoint block) is final, so the walk ends.
  for (size_t i = round - base_round_; kinds_.at(i) != ConsensusKind::kFinal; --i) {
    kinds_[i] = ConsensusKind::kFinal;
  }
}

bool Ledger::ReplaceSuffix(uint64_t from_round, const std::vector<Block>& blocks) {
  if (from_round <= base_round_ || from_round > chain_length()) {
    return false;  // The compacted prefix is final; forks never reach it.
  }
  const size_t keep = from_round - base_round_;
  // Build the prospective chain.
  std::vector<Block> new_chain(chain_.begin(), chain_.begin() + static_cast<long>(keep));
  for (const Block& b : blocks) {
    if (b.round != new_chain.back().round + 1 || b.prev_hash != new_chain.back().Hash()) {
      return false;
    }
    new_chain.push_back(b);
  }
  std::vector<Block> old_chain = chain_;
  std::vector<ConsensusKind> old_kinds = kinds_;

  chain_ = std::move(new_chain);
  kinds_.assign(chain_.size(), ConsensusKind::kTentative);
  for (size_t r = 0; r < keep && r < old_kinds.size(); ++r) {
    kinds_[r] = old_kinds[r];
  }
  RebuildState();
  if (!replay_ok_) {
    chain_ = std::move(old_chain);
    kinds_ = std::move(old_kinds);
    RebuildState();
    return false;
  }
  return true;
}

void Ledger::RebuildState() {
  seeds_ = base_seeds_;  // Seeds of [seed_base_ .. base_round_].
  round_by_hash_.clear();
  snapshots_.clear();
  replay_ok_ = true;
  accounts_ = *base_;  // State after rounds 1..base_round_.
  for (const Block& b : chain_) {
    seeds_.push_back(b.next_seed);
    round_by_hash_[b.Hash()] = b.round;
    if (b.round > base_round_) {
      // chain_[0] (genesis, or the checkpoint block) is already folded into
      // the starting account state; only the suffix replays transactions.
      for (const Transaction& tx : b.txns) {
        if (!accounts_.ApplyTransaction(tx)) {
          replay_ok_ = false;
        }
      }
    }
    if (lookback_rounds_ > 0) {
      snapshots_.push_back(accounts_);
      while (snapshots_.size() > lookback_rounds_ + 1) {
        snapshots_.pop_front();
      }
    }
  }
  tip_hash_ = chain_.back().Hash();
}

AccountTable Ledger::AccountsAtRound(uint64_t round) const {
  AccountTable table = *base_;  // Rounds <= base_round_ resolve to the base state.
  for (uint64_t r = base_round_ + 1; r <= round && r < chain_length(); ++r) {
    for (const Transaction& tx : chain_[r - base_round_].txns) {
      table.ApplyTransaction(tx);
    }
  }
  return table;
}

std::optional<Block> Ledger::BlockByHash(const Hash256& hash) const {
  auto it = round_by_hash_.find(hash);
  if (it == round_by_hash_.end()) {
    return std::nullopt;
  }
  return chain_[it->second - base_round_];
}

SeedBytes Ledger::SeedForRound(uint64_t round) const {
  // seeds_ covers [seed_base_, next_round()].
  return seeds_.at(round - seed_base_);
}

SeedBytes Ledger::SortitionSeed(uint64_t round, uint64_t refresh_interval) const {
  if (refresh_interval == 0) {
    refresh_interval = 1;
  }
  uint64_t offset = 1 + (round % refresh_interval);
  uint64_t idx = round > offset ? round - offset : 0;
  // A compacted ledger's window starts at seed_base_ — the checkpoint sized
  // it so every reachable idx from rounds > base_round_ lands inside it.
  return SeedForRound(std::max(idx, seed_base_));
}

uint64_t Ledger::WeightOf(const PublicKey& pk) const {
  if (lookback_rounds_ > 0 && snapshots_.size() > lookback_rounds_) {
    return snapshots_.front().WeightOf(pk);
  }
  return accounts_.WeightOf(pk);
}

uint64_t Ledger::total_weight() const {
  if (lookback_rounds_ > 0 && snapshots_.size() > lookback_rounds_) {
    return snapshots_.front().total_weight();
  }
  return accounts_.total_weight();
}

bool Ledger::IsConfirmed(const Hash256& txn_id) const {
  // Newest block carrying the id decides: confirmed if it or any successor is
  // final. chain_[0] (genesis or the checkpoint block) is never searched.
  bool final_at_or_after = false;
  for (size_t i = chain_.size(); i-- > 1;) {
    final_at_or_after = final_at_or_after || kinds_[i] == ConsensusKind::kFinal;
    for (const Transaction& tx : chain_[i].txns) {
      if (tx.Id() == txn_id) {
        return final_at_or_after;
      }
    }
  }
  return false;
}

std::optional<uint64_t> Ledger::HighestFinalRound() const {
  for (size_t i = kinds_.size(); i > 1; --i) {
    if (kinds_[i - 1] == ConsensusKind::kFinal) {
      return base_round_ + i - 1;
    }
  }
  // The checkpoint block itself is certified final; only a genuine
  // genesis-only chain has no final round.
  if (base_round_ > 0) {
    return base_round_;
  }
  return std::nullopt;
}

GenesisBundle MakeTestGenesisKeys(size_t n_users, uint64_t rng_seed) {
  GenesisBundle bundle;
  DeterministicRng rng(rng_seed, "genesis-keys");
  bundle.keys.reserve(n_users);
  for (size_t i = 0; i < n_users; ++i) {
    FixedBytes<32> seed;
    rng.FillBytes(seed.data(), seed.size());
    bundle.keys.push_back(Ed25519KeyFromSeed(seed));
  }
  DeterministicRng seed_rng(rng_seed, "genesis-seed0");
  seed_rng.FillBytes(bundle.config.seed0.data(), bundle.config.seed0.size());
  return bundle;
}

GenesisBundle MakeTestGenesis(size_t n_users, uint64_t stake_per_user, uint64_t rng_seed) {
  GenesisBundle bundle = MakeTestGenesisKeys(n_users, rng_seed);
  std::vector<std::pair<PublicKey, uint64_t>> allocations;
  for (const Ed25519KeyPair& key : bundle.keys) {
    allocations.emplace_back(key.public_key, stake_per_user);
  }
  bundle.config.accounts = MintGenesis(allocations);
  return bundle;
}

}  // namespace algorand
