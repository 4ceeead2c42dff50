// Ledger substrate tests: transactions, accounts, blocks, chain state, seed
// schedule, look-back weights, fork switching.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/ledger/ledger.h"

namespace algorand {
namespace {

const Ed25519Signer kSigner;

struct Fixture {
  Fixture() : bundle(MakeTestGenesis(4, 1000, 42)), ledger(bundle.config) {}
  GenesisBundle bundle;
  Ledger ledger;

  const Ed25519KeyPair& key(size_t i) const { return bundle.keys[i]; }
  PublicKey pk(size_t i) const { return bundle.keys[i].public_key; }

  Block NextEmptyBlock() const {
    return Block::MakeEmpty(ledger.next_round(), ledger.tip_hash(),
                            ledger.SeedForRound(ledger.Tip().round + 1 - 1));
  }
};

TEST(TransactionTest, SignAndVerify) {
  DeterministicRng rng(1);
  FixedBytes<32> s;
  rng.FillBytes(s.data(), 32);
  Ed25519KeyPair sender = Ed25519KeyFromSeed(s);
  rng.FillBytes(s.data(), 32);
  Ed25519KeyPair receiver = Ed25519KeyFromSeed(s);
  Transaction tx = MakeTransaction(sender, receiver.public_key, 100, 0, kSigner);
  EXPECT_TRUE(VerifyTransactionSignature(tx, kSigner));
  tx = Transaction::Edited(tx, [](auto& f) { f.amount = 200; });
  EXPECT_FALSE(VerifyTransactionSignature(tx, kSigner));
}

TEST(TransactionTest, SerializeRoundTrip) {
  DeterministicRng rng(2);
  FixedBytes<32> s;
  rng.FillBytes(s.data(), 32);
  Ed25519KeyPair sender = Ed25519KeyFromSeed(s);
  Transaction tx = MakeTransaction(sender, sender.public_key, 5, 3, kSigner, 1);
  auto bytes = tx.Serialize();
  EXPECT_EQ(bytes.size(), Transaction::kWireSize);
  Reader r(bytes);
  auto back = Transaction::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Id(), tx.Id());
  EXPECT_EQ(back->amount, 5u);
  EXPECT_EQ(back->fee, 1u);
  EXPECT_EQ(back->nonce, 3u);
}

TEST(TransactionTest, DeserializeRejectsTruncation) {
  Transaction tx;
  auto bytes = tx.Serialize();
  bytes.pop_back();
  Reader r(bytes);
  EXPECT_FALSE(Transaction::Deserialize(&r).has_value());
}

// The wire image and id of one fixed transaction, pinned so that a change to
// the encoder cannot silently change ids, signatures or block hashes.
TEST(TransactionTest, GoldenWireImageAndId) {
  const Transaction tx = Transaction::Edited(Transaction(), [](auto& f) {
    for (size_t i = 0; i < 32; ++i) {
      f.from[i] = static_cast<uint8_t>(i);
      f.to[i] = static_cast<uint8_t>(0xa0 + i);
    }
    for (size_t i = 0; i < 64; ++i) {
      f.signature[i] = static_cast<uint8_t>(0xff - 3 * i);
    }
    f.amount = 0x0102030405060708ULL;
    f.fee = 1000;
    f.nonce = 0xfedcba9876543210ULL;
  });

  const std::string golden =
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
      "0807060504030201"
      "e803000000000000"
      "1032547698badcfe"
      "fffcf9f6f3f0edeae7e4e1dedbd8d5d2cfccc9c6c3c0bdbab7b4b1aeaba8a5a2"
      "9f9c999693908d8a8784817e7b7875726f6c696663605d5a5754514e4b484542";
  const std::vector<uint8_t> wire = tx.Serialize();
  EXPECT_EQ(HexEncode(wire), golden);
  EXPECT_EQ(HexEncode(tx.SerializeBody()), golden.substr(0, 2 * 88));
  EXPECT_EQ(tx.Id(), Sha256::Hash(wire));
  EXPECT_EQ(tx.Id().ToHex(), "d1042e3162802e6d014c1c32d12670f1c9c46d363fc0ef9e8e79ac55ed6c6d16");
}

// Fields are read-only outside Transaction; whole transactions still copy
// and assign, so containers of them work as before.
static_assert(!std::is_assignable_v<decltype((std::declval<Transaction&>().amount)), uint64_t>);
static_assert(!std::is_assignable_v<decltype((std::declval<Transaction&>().nonce)),
                                    decltype(std::declval<Transaction&>().nonce)>);
static_assert(!std::is_assignable_v<decltype((std::declval<Transaction&>().from)), PublicKey>);
static_assert(
    !std::is_assignable_v<decltype((std::declval<Transaction&>().signature)), Signature>);
static_assert(std::is_copy_assignable_v<Transaction>);
static_assert(std::is_copy_constructible_v<Transaction>);

// The carried id is SHA-256 of the wire image however the transaction was
// built.
TEST(TransactionTest, IdIsHashOfWireImageForEveryConstructor) {
  DeterministicRng rng(3);
  FixedBytes<32> s;
  rng.FillBytes(s.data(), 32);
  Ed25519KeyPair sender = Ed25519KeyFromSeed(s);
  const Transaction made = MakeTransaction(sender, sender.public_key, 7, 2, kSigner, 3);
  EXPECT_EQ(made.Id(), Sha256::Hash(made.Serialize()));

  const std::vector<uint8_t> bytes = made.Serialize();
  Reader r(bytes);
  const auto decoded = Transaction::Deserialize(&r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->Id(), Sha256::Hash(decoded->Serialize()));
  EXPECT_EQ(decoded->Id(), made.Id());

  const Transaction zero;
  EXPECT_EQ(zero.Id(), Sha256::Hash(zero.Serialize()));
  EXPECT_EQ(zero.Id(), Sha256::Hash(std::vector<uint8_t>(Transaction::kWireSize, 0)));

  // An edited copy carries its own id; the original keeps its own.
  const Transaction edited = Transaction::Edited(made, [](auto& f) { f.amount = 8; });
  EXPECT_EQ(edited.Id(), Sha256::Hash(edited.Serialize()));
  EXPECT_NE(edited.Id(), made.Id());
  Transaction assigned;
  assigned = edited;
  EXPECT_EQ(assigned.Id(), edited.Id());
  EXPECT_EQ(assigned.amount, 8u);
}

TEST(AccountTableTest, CreditAndBalances) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  t.Credit(b, 50);
  t.Credit(a, 10);
  EXPECT_EQ(t.BalanceOf(a), 110u);
  EXPECT_EQ(t.BalanceOf(b), 50u);
  EXPECT_EQ(t.total_weight(), 160u);
  EXPECT_EQ(t.account_count(), 2u);
}

TEST(AccountTableTest, ApplyTransfersValue) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 30;
    f.nonce = 0;
  });
  EXPECT_TRUE(t.ApplyTransaction(tx));
  EXPECT_EQ(t.BalanceOf(a), 70u);
  EXPECT_EQ(t.BalanceOf(b), 30u);
  EXPECT_EQ(t.total_weight(), 100u);
}

TEST(AccountTableTest, RejectsWrongNonce) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 10;
    f.nonce = 5;
  });
  EXPECT_FALSE(t.ApplyTransaction(tx));
  EXPECT_EQ(t.BalanceOf(a), 100u);
}

TEST(AccountTableTest, RejectsOverdraft) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 101;
    f.nonce = 0;
  });
  EXPECT_FALSE(t.ApplyTransaction(tx));
}

TEST(AccountTableTest, RejectsOverdraftViaFee) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 95;
    f.fee = 10;
    f.nonce = 0;
  });
  EXPECT_FALSE(t.ApplyTransaction(tx));
}

TEST(AccountTableTest, FeesAreBurned) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 40;
    f.fee = 5;
    f.nonce = 0;
  });
  EXPECT_TRUE(t.ApplyTransaction(tx));
  EXPECT_EQ(t.total_weight(), 95u);
}

TEST(AccountTableTest, NoncePreventsDoubleSpendReplay) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  t.Credit(a, 100);
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 60;
    f.nonce = 0;
  });
  EXPECT_TRUE(t.ApplyTransaction(tx));
  EXPECT_FALSE(t.ApplyTransaction(tx));  // Same nonce again: rejected.
}

TEST(AccountTableTest, UnknownSenderRejected) {
  AccountTable t;
  PublicKey a, b;
  a[0] = 1;
  b[0] = 2;
  const Transaction tx = Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = a;
    f.to = b;
    f.amount = 0;
  });
  EXPECT_FALSE(t.CheckTransaction(tx));
}

TEST(BlockTest, SerializeRoundTrip) {
  Fixture f;
  Block b;
  b.round = 1;
  b.prev_hash = f.ledger.tip_hash();
  b.timestamp = Seconds(30);
  b.proposer = f.pk(0);
  b.padding_bytes = 1000;
  b.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 10, 0, kSigner));
  auto bytes = b.Serialize();
  auto back = Block::Deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Hash(), b.Hash());
  EXPECT_EQ(back->txns.size(), 1u);
  EXPECT_EQ(back->padding_bytes, 1000u);
}

TEST(BlockTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk(10, 0xab);
  EXPECT_FALSE(Block::Deserialize(junk).has_value());
}

TEST(BlockTest, DeserializeRejectsMalformedTxCount) {
  // Fuzz the little-endian u32 transaction count in an otherwise valid
  // serialization. The count's byte offset is the size of a zero-transaction
  // block minus the count field itself (it is the last header field).
  Fixture f;
  Block b;
  b.round = 1;
  b.prev_hash = f.ledger.tip_hash();
  for (uint64_t n = 0; n < 3; ++n) {
    b.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 10, n, kSigner));
  }
  std::vector<uint8_t> bytes = b.Serialize();
  Block empty;
  const size_t count_offset = empty.Serialize().size() - 4;
  ASSERT_TRUE(Block::Deserialize(bytes).has_value());

  auto with_count = [&](uint32_t n) {
    std::vector<uint8_t> fuzzed = bytes;
    for (size_t i = 0; i < 4; ++i) {
      fuzzed[count_offset + i] = static_cast<uint8_t>(n >> (8 * i));
    }
    return fuzzed;
  };
  // One more transaction than the remaining bytes can hold: the exact
  // boundary the remaining-bytes bound must catch (the old whole-buffer
  // bound admitted it and fell through to a truncation error later —
  // malformed counts must be rejected up front, before any reserve()).
  EXPECT_FALSE(Block::Deserialize(with_count(4)).has_value());
  // A count whose byte size overflows any plausible buffer.
  EXPECT_FALSE(Block::Deserialize(with_count(0xFFFFFFFFu)).has_value());
  // Fewer transactions than bytes present: trailing bytes are malformed too.
  EXPECT_FALSE(Block::Deserialize(with_count(2)).has_value());
  // A truncated final transaction with a correct count still fails cleanly.
  std::vector<uint8_t> truncated = bytes;
  truncated.resize(truncated.size() - 7);
  EXPECT_FALSE(Block::Deserialize(truncated).has_value());
}

TEST(BlockTest, WireSizeIncludesPadding) {
  Block b;
  uint64_t base = b.WireSize();
  b.padding_bytes = 5000;
  EXPECT_EQ(b.WireSize(), base + 5000);
}

TEST(BlockTest, HashChangesWithContent) {
  Block a;
  Block b;
  b.round = 1;
  EXPECT_NE(a.Hash(), b.Hash());
  Block c;
  c.padding_digest[0] = 1;  // Different synthetic payload -> different hash.
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(BlockTest, EmptyBlockIsDeterministic) {
  Fixture f;
  SeedBytes seed = f.ledger.SeedForRound(1);
  Block e1 = Block::MakeEmpty(1, f.ledger.tip_hash(), seed);
  Block e2 = Block::MakeEmpty(1, f.ledger.tip_hash(), seed);
  EXPECT_EQ(e1.Hash(), e2.Hash());
  EXPECT_TRUE(e1.is_empty);
}

TEST(LedgerTest, GenesisState) {
  Fixture f;
  EXPECT_EQ(f.ledger.chain_length(), 1u);
  EXPECT_EQ(f.ledger.next_round(), 1u);
  EXPECT_EQ(f.ledger.total_weight(), 4000u);
  EXPECT_EQ(f.ledger.WeightOf(f.pk(0)), 1000u);
  EXPECT_EQ(f.ledger.ConsensusAtRound(0), ConsensusKind::kFinal);
}

TEST(LedgerTest, AppendExtendsChain) {
  Fixture f;
  Block b = Block::MakeEmpty(1, f.ledger.tip_hash(), f.ledger.SeedForRound(1));
  EXPECT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  EXPECT_EQ(f.ledger.next_round(), 2u);
  EXPECT_EQ(f.ledger.tip_hash(), b.Hash());
}

TEST(LedgerTest, AppendRejectsWrongRound) {
  Fixture f;
  Block b = Block::MakeEmpty(2, f.ledger.tip_hash(), f.ledger.SeedForRound(1));
  EXPECT_FALSE(f.ledger.Append(b, ConsensusKind::kFinal));
}

TEST(LedgerTest, AppendRejectsWrongPrevHash) {
  Fixture f;
  Hash256 wrong;
  wrong[0] = 9;
  Block b = Block::MakeEmpty(1, wrong, f.ledger.SeedForRound(1));
  EXPECT_FALSE(f.ledger.Append(b, ConsensusKind::kFinal));
}

TEST(LedgerTest, AppendAppliesTransactions) {
  Fixture f;
  Block b;
  b.round = 1;
  b.prev_hash = f.ledger.tip_hash();
  b.next_seed = Block::DerivedSeed(f.ledger.SeedForRound(1), 1);
  b.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 250, 0, kSigner));
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  EXPECT_EQ(f.ledger.WeightOf(f.pk(0)), 750u);
  EXPECT_EQ(f.ledger.WeightOf(f.pk(1)), 1250u);
}

TEST(LedgerTest, AppendRejectsBlockWithBadTransaction) {
  Fixture f;
  Block b;
  b.round = 1;
  b.prev_hash = f.ledger.tip_hash();
  b.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 9999, 0, kSigner));  // Overdraft.
  EXPECT_FALSE(f.ledger.Append(b, ConsensusKind::kFinal));
  EXPECT_EQ(f.ledger.chain_length(), 1u);
  EXPECT_EQ(f.ledger.WeightOf(f.pk(0)), 1000u);
}

TEST(LedgerTest, ConfirmationSemantics) {
  Fixture f;
  Block b;
  b.round = 1;
  b.prev_hash = f.ledger.tip_hash();
  Transaction tx = MakeTransaction(f.key(0), f.pk(1), 5, 0, kSigner);
  b.txns.push_back(tx);
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kTentative));
  // Tentative only: not confirmed yet (§4).
  EXPECT_FALSE(f.ledger.IsConfirmed(tx.Id()));
  // A final successor confirms it.
  Block next = Block::MakeEmpty(2, f.ledger.tip_hash(), f.ledger.SeedForRound(2));
  ASSERT_TRUE(f.ledger.Append(next, ConsensusKind::kFinal));
  EXPECT_TRUE(f.ledger.IsConfirmed(tx.Id()));
}

// On a ledger started from a checkpoint, payments in the checkpoint block
// and below are not found (their blocks are not retained as searchable
// history); payments appended after it follow the usual rule.
TEST(LedgerTest, ConfirmationOnCompactedLedger) {
  Fixture f;
  std::vector<Transaction> paid;
  for (uint64_t r = 1; r <= 3; ++r) {
    Block b = Block::MakeEmpty(r, f.ledger.tip_hash(), f.ledger.SeedForRound(r));
    b.is_empty = false;
    paid.push_back(MakeTransaction(f.key(0), f.pk(1), 5, r - 1, kSigner));
    b.txns.push_back(paid.back());
    ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  }
  std::vector<SeedBytes> seeds;
  for (uint64_t r = 0; r <= 2; ++r) {
    seeds.push_back(f.ledger.SeedForRound(r));
  }
  Ledger compacted(f.bundle.config);
  ASSERT_TRUE(compacted.InstallCheckpoint(f.ledger.BlockAtRound(2), f.ledger.AccountsAtRound(2),
                                          0, seeds));
  ASSERT_EQ(compacted.base_round(), 2u);
  EXPECT_FALSE(compacted.IsConfirmed(paid[0].Id()));  // Compacted away.
  EXPECT_FALSE(compacted.IsConfirmed(paid[1].Id()));  // In the checkpoint block.
  EXPECT_FALSE(compacted.IsConfirmed(paid[2].Id()));  // Not appended yet.

  ASSERT_TRUE(compacted.Append(f.ledger.BlockAtRound(3), ConsensusKind::kTentative));
  EXPECT_FALSE(compacted.IsConfirmed(paid[1].Id()));
  EXPECT_FALSE(compacted.IsConfirmed(paid[2].Id()));  // Tentative.
  Block next = Block::MakeEmpty(4, compacted.tip_hash(), compacted.SeedForRound(4));
  ASSERT_TRUE(compacted.Append(next, ConsensusKind::kFinal));
  EXPECT_TRUE(compacted.IsConfirmed(paid[2].Id()));
  EXPECT_FALSE(compacted.IsConfirmed(paid[1].Id()));
  // The full-history ledger confirms all three.
  for (const Transaction& tx : paid) {
    EXPECT_TRUE(f.ledger.IsConfirmed(tx.Id()));
  }
}

TEST(LedgerTest, FinalBlockConfirmsPredecessors) {
  Fixture f;
  for (int r = 1; r <= 3; ++r) {
    Block b = Block::MakeEmpty(static_cast<uint64_t>(r), f.ledger.tip_hash(),
                               f.ledger.SeedForRound(static_cast<uint64_t>(r)));
    ASSERT_TRUE(f.ledger.Append(
        b, r == 3 ? ConsensusKind::kFinal : ConsensusKind::kTentative));
  }
  EXPECT_EQ(f.ledger.ConsensusAtRound(1), ConsensusKind::kFinal);
  EXPECT_EQ(f.ledger.ConsensusAtRound(2), ConsensusKind::kFinal);
  EXPECT_EQ(f.ledger.HighestFinalRound(), 3u);
}

TEST(LedgerTest, MarkFinalThroughMatchesMarkingEveryEarlierRound) {
  // The reference: the per-round loops MarkFinalThrough replaced, which set
  // rounds 1..r final one by one (and Append(kFinal), which set them all).
  auto reference = [](std::vector<ConsensusKind> kinds, uint64_t through) {
    for (uint64_t r = 1; r <= through; ++r) {
      kinds[r] = ConsensusKind::kFinal;
    }
    return kinds;
  };
  auto kinds_of = [](const Ledger& l) {
    std::vector<ConsensusKind> kinds;
    for (uint64_t r = 0; r < l.chain_length(); ++r) {
      kinds.push_back(l.ConsensusAtRound(r));
    }
    return kinds;
  };
  Fixture f;
  for (int r = 1; r <= 8; ++r) {
    ASSERT_TRUE(f.ledger.Append(f.NextEmptyBlock(),
                                r == 2 ? ConsensusKind::kFinal : ConsensusKind::kTentative));
  }
  EXPECT_EQ(f.ledger.HighestFinalRound(), 2u);
  for (uint64_t through : {1u, 5u, 3u, 8u}) {
    std::vector<ConsensusKind> want = reference(kinds_of(f.ledger), through);
    f.ledger.MarkFinalThrough(through);
    EXPECT_EQ(kinds_of(f.ledger), want) << "through " << through;
  }
  EXPECT_EQ(f.ledger.HighestFinalRound(), 8u);
  ASSERT_TRUE(f.ledger.Append(f.NextEmptyBlock(), ConsensusKind::kTentative));
  ASSERT_TRUE(f.ledger.Append(f.NextEmptyBlock(), ConsensusKind::kFinal));
  EXPECT_EQ(kinds_of(f.ledger), std::vector<ConsensusKind>(11, ConsensusKind::kFinal));
}

TEST(LedgerTest, SeedScheduleAdvances) {
  Fixture f;
  SeedBytes s1 = f.ledger.SeedForRound(1);
  Block b = Block::MakeEmpty(1, f.ledger.tip_hash(), s1);
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  SeedBytes s2 = f.ledger.SeedForRound(2);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s2, b.next_seed);
}

TEST(LedgerTest, SortitionSeedRefreshInterval) {
  Fixture f;
  for (int r = 1; r <= 10; ++r) {
    Block b = Block::MakeEmpty(static_cast<uint64_t>(r), f.ledger.tip_hash(),
                               f.ledger.SeedForRound(static_cast<uint64_t>(r)));
    ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  }
  // With R = 4: rounds 4..7 use seed_3, rounds 8..11 use seed_7.
  EXPECT_EQ(f.ledger.SortitionSeed(4, 4), f.ledger.SeedForRound(3));
  EXPECT_EQ(f.ledger.SortitionSeed(5, 4), f.ledger.SeedForRound(3));
  EXPECT_EQ(f.ledger.SortitionSeed(7, 4), f.ledger.SeedForRound(3));
  EXPECT_EQ(f.ledger.SortitionSeed(8, 4), f.ledger.SeedForRound(7));
  // Early rounds clamp to the genesis seed.
  EXPECT_EQ(f.ledger.SortitionSeed(1, 4), f.ledger.SeedForRound(0));
}

TEST(LedgerTest, BlockByHashFindsChainBlocks) {
  Fixture f;
  Block b = Block::MakeEmpty(1, f.ledger.tip_hash(), f.ledger.SeedForRound(1));
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  auto found = f.ledger.BlockByHash(b.Hash());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->round, 1u);
  Hash256 unknown;
  unknown[5] = 1;
  EXPECT_FALSE(f.ledger.BlockByHash(unknown).has_value());
}

TEST(LedgerTest, ReplaceSuffixSwitchesFork) {
  Fixture f;
  // Build chain: rounds 1, 2 (tentative).
  Block b1 = Block::MakeEmpty(1, f.ledger.tip_hash(), f.ledger.SeedForRound(1));
  ASSERT_TRUE(f.ledger.Append(b1, ConsensusKind::kTentative));
  Block b2 = Block::MakeEmpty(2, f.ledger.tip_hash(), f.ledger.SeedForRound(2));
  ASSERT_TRUE(f.ledger.Append(b2, ConsensusKind::kTentative));

  // Alternative round-2 block with a transaction.
  Block alt2;
  alt2.round = 2;
  alt2.prev_hash = b1.Hash();
  alt2.next_seed = Block::DerivedSeed(b1.next_seed, 2);
  alt2.txns.push_back(MakeTransaction(f.key(1), f.pk(2), 100, 0, kSigner));
  ASSERT_TRUE(f.ledger.ReplaceSuffix(2, {alt2}));
  EXPECT_EQ(f.ledger.tip_hash(), alt2.Hash());
  EXPECT_EQ(f.ledger.WeightOf(f.pk(2)), 1100u);
}

TEST(LedgerTest, ReplaceSuffixRejectsBrokenChain) {
  Fixture f;
  Block b1 = Block::MakeEmpty(1, f.ledger.tip_hash(), f.ledger.SeedForRound(1));
  ASSERT_TRUE(f.ledger.Append(b1, ConsensusKind::kTentative));
  Block bad;
  bad.round = 2;
  bad.prev_hash[0] = 77;  // Does not match b1.
  EXPECT_FALSE(f.ledger.ReplaceSuffix(2, {bad}));
  EXPECT_EQ(f.ledger.tip_hash(), b1.Hash());
}

TEST(LedgerTest, ReplaceSuffixRejectsBadTransactions) {
  Fixture f;
  Block b1 = Block::MakeEmpty(1, f.ledger.tip_hash(), f.ledger.SeedForRound(1));
  ASSERT_TRUE(f.ledger.Append(b1, ConsensusKind::kTentative));
  Block alt1;
  alt1.round = 1;
  alt1.prev_hash = f.ledger.genesis().Hash();
  alt1.next_seed = Block::DerivedSeed(f.ledger.SeedForRound(1), 1);
  alt1.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 99999, 0, kSigner));
  EXPECT_FALSE(f.ledger.ReplaceSuffix(1, {alt1}));
  EXPECT_EQ(f.ledger.tip_hash(), b1.Hash());
  EXPECT_EQ(f.ledger.WeightOf(f.pk(0)), 1000u);
}

TEST(LedgerTest, LookbackWeightsLagTransfers) {
  GenesisBundle bundle = MakeTestGenesis(3, 1000, 7);
  bundle.config.weight_lookback_rounds = 2;
  Ledger ledger(bundle.config);
  const auto& k0 = bundle.keys[0];
  PublicKey p1 = bundle.keys[1].public_key;

  // Round 1: k0 sends 500 to p1.
  Block b1;
  b1.round = 1;
  b1.prev_hash = ledger.tip_hash();
  b1.next_seed = Block::DerivedSeed(ledger.SeedForRound(1), 1);
  b1.txns.push_back(MakeTransaction(k0, p1, 500, 0, kSigner));
  ASSERT_TRUE(ledger.Append(b1, ConsensusKind::kFinal));

  // Immediately after, look-back weights still reflect genesis.
  // (Snapshots: genesis, round1 -> not deep enough yet; falls back to current
  // until history exceeds the lookback.)
  Block b2 = Block::MakeEmpty(2, ledger.tip_hash(), ledger.SeedForRound(2));
  ASSERT_TRUE(ledger.Append(b2, ConsensusKind::kFinal));
  // Now snapshots = {genesis, r1, r2}, lookback 2 -> use genesis weights.
  EXPECT_EQ(ledger.WeightOf(k0.public_key), 1000u);
  EXPECT_EQ(ledger.accounts().WeightOf(k0.public_key), 500u);
}

TEST(LedgerTest, AccountsAtRoundReplaysHistory) {
  Fixture f;
  // Round 1: pk0 -> pk1 100. Round 2: pk1 -> pk2 50.
  Block b1;
  b1.round = 1;
  b1.prev_hash = f.ledger.tip_hash();
  b1.next_seed = Block::DerivedSeed(f.ledger.SeedForRound(1), 1);
  b1.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 100, 0, kSigner));
  ASSERT_TRUE(f.ledger.Append(b1, ConsensusKind::kFinal));
  Block b2;
  b2.round = 2;
  b2.prev_hash = f.ledger.tip_hash();
  b2.next_seed = Block::DerivedSeed(f.ledger.SeedForRound(2), 2);
  b2.txns.push_back(MakeTransaction(f.key(1), f.pk(2), 50, 0, kSigner));
  ASSERT_TRUE(f.ledger.Append(b2, ConsensusKind::kFinal));

  AccountTable at0 = f.ledger.AccountsAtRound(0);
  EXPECT_EQ(at0.BalanceOf(f.pk(0)), 1000u);
  EXPECT_EQ(at0.BalanceOf(f.pk(1)), 1000u);
  AccountTable at1 = f.ledger.AccountsAtRound(1);
  EXPECT_EQ(at1.BalanceOf(f.pk(0)), 900u);
  EXPECT_EQ(at1.BalanceOf(f.pk(1)), 1100u);
  AccountTable at2 = f.ledger.AccountsAtRound(2);
  EXPECT_EQ(at2.BalanceOf(f.pk(1)), 1050u);
  EXPECT_EQ(at2.BalanceOf(f.pk(2)), 1050u);
  // Beyond the chain: same as the tip.
  EXPECT_EQ(f.ledger.AccountsAtRound(99).BalanceOf(f.pk(2)), 1050u);
}

TEST(LedgerTest, MakeTestGenesisIsDeterministic) {
  GenesisBundle a = MakeTestGenesis(5, 10, 99);
  GenesisBundle b = MakeTestGenesis(5, 10, 99);
  EXPECT_EQ(a.keys[3].public_key, b.keys[3].public_key);
  EXPECT_EQ(a.config.seed0, b.config.seed0);
  GenesisBundle c = MakeTestGenesis(5, 10, 100);
  EXPECT_NE(a.keys[0].public_key, c.keys[0].public_key);
}

// MakeTestGenesis(8, 1000, 42)'s users, then 200 stake-1 fillers drawn the
// way SimHarness draws them (harness seed 42, filler_accounts = 200).
std::vector<std::pair<PublicKey, uint64_t>> SmallGenesisWithFillers() {
  std::vector<std::pair<PublicKey, uint64_t>> allocations;
  for (const Ed25519KeyPair& key : MakeTestGenesisKeys(8, 42).keys) {
    allocations.emplace_back(key.public_key, 1000);
  }
  DeterministicRng rng(42, "tx-fillers");
  for (int i = 0; i < 200; ++i) {
    PublicKey pk;
    rng.FillBytes(pk.data(), pk.size());
    allocations.emplace_back(pk, 1);
  }
  return allocations;
}

// Fingerprints of the genesis tables above, as the per-ledger credit loop
// derived them before the table was minted once and shared.
constexpr char kGoldenWithFillers[] =
    "97ab367eee09a3dcab18f577b506fcb899a51f055deb9ba5a44bb4f8b5389f74";
constexpr char kGoldenTestGenesis8[] =
    "2d7d0449db3a54d160877bc90fd51c3d1d8b00254c50890f54c35743fbe4dffe";

TEST(GenesisTest, MintedTableMatchesCreditLoopGolden) {
  EXPECT_EQ(MintGenesis(SmallGenesisWithFillers())->StateFingerprint().ToHex(),
            kGoldenWithFillers);
  EXPECT_EQ(MakeTestGenesis(8, 1000, 42).config.accounts->StateFingerprint().ToHex(),
            kGoldenTestGenesis8);
  // A default config is the empty genesis.
  EXPECT_EQ(Ledger(GenesisConfig{}).accounts().account_count(), 0u);
}

TEST(GenesisTest, LedgersFromOneConfigAreIndependent) {
  Fixture f;
  Ledger other(f.bundle.config);
  const AccountTable& shared = *f.bundle.config.accounts;
  EXPECT_EQ(&f.ledger.base_accounts(), &shared);
  EXPECT_EQ(&other.base_accounts(), &shared);
  const Hash256 genesis_state = shared.StateFingerprint();

  Block b = f.NextEmptyBlock();
  b.is_empty = false;
  b.txns.push_back(MakeTransaction(f.key(0), f.pk(1), 100, 0, kSigner, /*fee=*/5));
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  EXPECT_EQ(f.ledger.accounts().BalanceOf(f.pk(0)), 895u);
  EXPECT_EQ(f.ledger.total_weight(), 3995u);

  // Neither the sibling ledger nor the shared table saw the payment.
  EXPECT_EQ(other.accounts().BalanceOf(f.pk(0)), 1000u);
  EXPECT_EQ(other.accounts().StateFingerprint(), genesis_state);
  EXPECT_EQ(shared.StateFingerprint(), genesis_state);
  EXPECT_EQ(shared.BalanceOf(f.pk(0)), 1000u);
  EXPECT_EQ(shared.total_weight(), 4000u);
  // And a ledger built after the append still starts at genesis.
  EXPECT_EQ(Ledger(f.bundle.config).accounts().StateFingerprint(), genesis_state);
}

TEST(GenesisTest, EveryReplayFromGenesisStartsAtTheMintedTable) {
  GenesisBundle g = MakeTestGenesisKeys(8, 42);
  g.config.accounts = MintGenesis(SmallGenesisWithFillers());
  Ledger ledger(g.config);
  EXPECT_EQ(ledger.accounts().StateFingerprint().ToHex(), kGoldenWithFillers);

  for (uint64_t nonce = 0; nonce < 2; ++nonce) {
    Block b = Block::MakeEmpty(ledger.next_round(), ledger.tip_hash(),
                               ledger.SeedForRound(ledger.next_round() - 1));
    b.is_empty = false;
    b.txns.push_back(MakeTransaction(g.keys[0], g.keys[1].public_key, 10, nonce, kSigner));
    ASSERT_TRUE(ledger.Append(b, ConsensusKind::kTentative));
  }
  EXPECT_NE(ledger.accounts().StateFingerprint().ToHex(), kGoldenWithFillers);
  EXPECT_EQ(ledger.AccountsAtRound(0).StateFingerprint().ToHex(), kGoldenWithFillers);

  // Switching to an empty suffix replays back to genesis.
  ASSERT_TRUE(ledger.ReplaceSuffix(1, {}));
  EXPECT_EQ(ledger.chain_length(), 1u);
  EXPECT_EQ(ledger.accounts().StateFingerprint().ToHex(), kGoldenWithFillers);
  EXPECT_EQ(g.config.accounts->StateFingerprint().ToHex(), kGoldenWithFillers);
}

}  // namespace
}  // namespace algorand
