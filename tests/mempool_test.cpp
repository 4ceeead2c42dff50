// Mempool edge cases: nonce gaps held then filled, fee-priority eviction at
// capacity, duplicate-id rejection across relay copies, replacement by fee,
// and apply-time invalidation after a competing block commits.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/ledger/ledger.h"
#include "src/ledger/mempool.h"

namespace algorand {
namespace {

const Ed25519Signer kSigner;

struct Fixture {
  Fixture() : bundle(MakeTestGenesis(8, 1000, 7)), ledger(bundle.config) {}
  GenesisBundle bundle;
  Ledger ledger;

  const Ed25519KeyPair& key(size_t i) const { return bundle.keys[i]; }
  PublicKey pk(size_t i) const { return bundle.keys[i].public_key; }

  Transaction Pay(size_t from, size_t to, uint64_t amount, uint64_t nonce, uint64_t fee = 0) {
    return MakeTransaction(key(from), pk(to), amount, nonce, kSigner, fee);
  }

  uint64_t NextNonce(size_t i) const { return ledger.accounts().NextNonceOf(pk(i)); }
};

TEST(MempoolTest, NonceGapHeldThenFilled) {
  Fixture f;
  Mempool pool;
  Transaction t0 = f.Pay(0, 1, 10, 0);
  Transaction t2 = f.Pay(0, 1, 10, 2);
  EXPECT_EQ(pool.Add(t0, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(t2, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.size(), 2u);

  // Only the contiguous prefix from the ledger nonce is proposable: nonce 2
  // waits for nonce 1.
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].Id(), t0.Id());

  // Filling the gap releases the whole run, in nonce order.
  Transaction t1 = f.Pay(0, 1, 10, 1);
  EXPECT_EQ(pool.Add(t1, f.NextNonce(0)), Mempool::AddResult::kAdded);
  block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].nonce, 0u);
  EXPECT_EQ(block[1].nonce, 1u);
  EXPECT_EQ(block[2].nonce, 2u);
}

TEST(MempoolTest, FeePriorityEvictionAtCapacity) {
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = 4;
  Mempool pool(cfg);
  // Four senders, fees 1..4. The fee-1 transaction is the eviction victim.
  std::vector<Transaction> resident;
  for (size_t s = 0; s < 4; ++s) {
    resident.push_back(f.Pay(s, 5, 10, 0, /*fee=*/s + 1));
    EXPECT_EQ(pool.Add(resident.back(), f.NextNonce(s)), Mempool::AddResult::kAdded);
  }
  EXPECT_EQ(pool.size(), 4u);

  // Pricing below every resident transaction: rejected, pool unchanged.
  Transaction cheap = f.Pay(4, 5, 10, 0, /*fee=*/1);
  EXPECT_EQ(pool.Add(cheap, f.NextNonce(4)), Mempool::AddResult::kUnderpriced);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_FALSE(pool.Contains(cheap.Id()));

  // A higher-fee arrival displaces the lowest-fee resident.
  Transaction rich = f.Pay(4, 5, 10, 0, /*fee=*/9);
  EXPECT_EQ(pool.Add(rich, f.NextNonce(4)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_TRUE(pool.Contains(rich.Id()));
  EXPECT_FALSE(pool.Contains(resident[0].Id()));  // fee 1: evicted.
  EXPECT_TRUE(pool.Contains(resident[1].Id()));

  // An arrival pricing at (not above) the current floor is also rejected:
  // eviction requires a strictly higher fee, so fee ties never churn.
  Transaction tie = f.Pay(5, 6, 10, 0, /*fee=*/2);
  EXPECT_EQ(pool.Add(tie, f.NextNonce(5)), Mempool::AddResult::kUnderpriced);
}

TEST(MempoolTest, EvictionTakesQueueTailSoNoGapOpens) {
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = 4;
  Mempool pool(cfg);
  // Sender 0 holds the two lowest-fee transactions, nonces 0 and 1.
  Transaction head = f.Pay(0, 4, 10, 0, /*fee=*/1);
  Transaction tail = f.Pay(0, 4, 10, 1, /*fee=*/1);
  EXPECT_EQ(pool.Add(head, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(tail, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(f.Pay(1, 4, 10, 0, /*fee=*/5), f.NextNonce(1)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(f.Pay(2, 4, 10, 0, /*fee=*/5), f.NextNonce(2)), Mempool::AddResult::kAdded);

  // The displacement victim must be sender 0's *tail* (nonce 1), never the
  // head — evicting nonce 0 while keeping nonce 1 would strand a gap the
  // proposer can never cross.
  EXPECT_EQ(pool.Add(f.Pay(3, 4, 10, 0, /*fee=*/9), f.NextNonce(3)), Mempool::AddResult::kAdded);
  EXPECT_TRUE(pool.Contains(head.Id()));
  EXPECT_FALSE(pool.Contains(tail.Id()));
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 4u);  // Every resident transaction is proposable.
}

TEST(MempoolTest, RejectedArrivalsLeaveNoSenderQueue) {
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = 2;
  Mempool pool(cfg);
  EXPECT_EQ(pool.Add(f.Pay(0, 7, 10, 0, /*fee=*/5), f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(f.Pay(1, 7, 10, 0, /*fee=*/5), f.NextNonce(1)), Mempool::AddResult::kAdded);
  const std::vector<Transaction> before = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(before.size(), 2u);

  // First arrivals from senders the pool has never seen: underpriced at
  // capacity, or stale against the ledger nonce passed in.
  for (size_t s = 2; s < 7; ++s) {
    EXPECT_EQ(pool.Add(f.Pay(s, 7, 10, 0, /*fee=*/1), f.NextNonce(s)),
              Mempool::AddResult::kUnderpriced);
    EXPECT_EQ(pool.Add(f.Pay(s, 7, 10, 0, /*fee=*/9), /*ledger_next_nonce=*/1),
              Mempool::AddResult::kStale);
  }
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.sender_count(), 2u);
  const std::vector<Transaction> after = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].Id(), before[i].Id());
  }
}

TEST(MempoolTest, EvictingTheSendersOnlyTransactionStillAdmits) {
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = 2;
  Mempool pool(cfg);
  EXPECT_EQ(pool.Add(f.Pay(0, 7, 10, 0, /*fee=*/1), f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(f.Pay(1, 7, 10, 0, /*fee=*/5), f.NextNonce(1)), Mempool::AddResult::kAdded);
  // The victim is sender 0's one resident transaction: its queue is emptied
  // and erased before sender 0's new arrival is queued.
  Transaction next = f.Pay(0, 7, 10, 1, /*fee=*/9);
  EXPECT_EQ(pool.Add(next, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.sender_count(), 2u);
  EXPECT_TRUE(pool.Contains(next.Id()));
}

TEST(MempoolTest, DuplicateIdAcrossRelayCopies) {
  Fixture f;
  Mempool pool;
  Transaction tx = f.Pay(0, 1, 10, 0, /*fee=*/3);
  EXPECT_EQ(pool.Add(tx, f.NextNonce(0)), Mempool::AddResult::kAdded);
  // Gossip delivers the same payload along several paths; every relay copy
  // after the first is dropped.
  EXPECT_EQ(pool.Add(tx, f.NextNonce(0)), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.Add(tx, f.NextNonce(0)), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(MempoolTest, SameSlotReplacedOnlyByHigherFee) {
  Fixture f;
  Mempool pool;
  Transaction low = f.Pay(0, 1, 10, 0, /*fee=*/2);
  Transaction equal = f.Pay(0, 2, 10, 0, /*fee=*/2);   // Different payload, same slot.
  Transaction higher = f.Pay(0, 3, 10, 0, /*fee=*/5);
  EXPECT_EQ(pool.Add(low, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(equal, f.NextNonce(0)), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.Add(higher, f.NextNonce(0)), Mempool::AddResult::kReplaced);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(higher.Id()));
  EXPECT_FALSE(pool.Contains(low.Id()));
}

TEST(MempoolTest, StaleNonceRejected) {
  Fixture f;
  Mempool pool;
  // Commit a block spending sender 0's nonce 0 so the ledger nonce is 1.
  Block b = Block::MakeEmpty(f.ledger.next_round(), f.ledger.tip_hash(),
                             f.ledger.SeedForRound(f.ledger.next_round() - 1));
  b.is_empty = false;
  b.txns.push_back(f.Pay(0, 1, 10, 0));
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  Transaction stale = f.Pay(0, 2, 10, 0);
  EXPECT_EQ(pool.Add(stale, f.NextNonce(0)), Mempool::AddResult::kStale);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(MempoolTest, ApplyTimeInvalidationAfterCompetingCommit) {
  Fixture f;
  Mempool pool;
  // The pool holds sender 0's nonces 0 and 1 (payments to node 1)...
  Transaction mine0 = f.Pay(0, 1, 10, 0, /*fee=*/1);
  Transaction mine1 = f.Pay(0, 1, 10, 1, /*fee=*/1);
  EXPECT_EQ(pool.Add(mine0, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(mine1, f.NextNonce(0)), Mempool::AddResult::kAdded);

  // ...but consensus commits a *competing* block where sender 0 spent nonce 0
  // on a different payment. The resident nonce-0 transaction can never apply
  // again; nonce 1 is still valid.
  Transaction competing = f.Pay(0, 2, 50, 0, /*fee=*/2);
  Block b = Block::MakeEmpty(f.ledger.next_round(), f.ledger.tip_hash(),
                             f.ledger.SeedForRound(f.ledger.next_round() - 1));
  b.is_empty = false;
  b.txns.push_back(competing);
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));

  pool.ObserveCommitted(b.txns, f.ledger.accounts());
  EXPECT_FALSE(pool.Contains(mine0.Id()));
  EXPECT_TRUE(pool.Contains(mine1.Id()));
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].Id(), mine1.Id());
}

TEST(MempoolTest, BuildBlockOrdersByFeeAndRespectsBudget) {
  Fixture f;
  Mempool pool;
  Transaction cheap = f.Pay(0, 3, 10, 0, /*fee=*/1);
  Transaction mid = f.Pay(1, 3, 10, 0, /*fee=*/5);
  Transaction rich = f.Pay(2, 3, 10, 0, /*fee=*/9);
  EXPECT_EQ(pool.Add(cheap, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(mid, f.NextNonce(1)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(rich, f.NextNonce(2)), Mempool::AddResult::kAdded);

  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].Id(), rich.Id());
  EXPECT_EQ(block[1].Id(), mid.Id());
  EXPECT_EQ(block[2].Id(), cheap.Id());

  // A two-transaction byte budget keeps the most valuable payload.
  block = pool.BuildBlock(f.ledger.accounts(), 2 * Transaction::kWireSize);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block[0].Id(), rich.Id());
  EXPECT_EQ(block[1].Id(), mid.Id());
}

TEST(MempoolTest, BuildBlockSkipsSendersThatCannotPay) {
  Fixture f;
  Mempool pool;
  // Sender 0's first transaction drains the balance; the second can never
  // apply on top of it and must not be proposed.
  Transaction drain = f.Pay(0, 1, 1000, 0);
  Transaction broke = f.Pay(0, 1, 500, 1);
  EXPECT_EQ(pool.Add(drain, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(broke, f.NextNonce(0)), Mempool::AddResult::kAdded);
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].Id(), drain.Id());
}

TEST(MempoolTest, ConcurrentCallersMatchSerial) {
  // Four threads add payments for disjoint senders while a fifth reads the
  // pool throughout. The pool never fills, so every arrival is admitted
  // whatever the interleaving, and the final assembly must equal a serial
  // run's.
  constexpr size_t kAdders = 4;
  constexpr size_t kSendersPerAdder = 4;
  constexpr uint64_t kNonces = 150;
  AccountTable accounts;
  std::vector<std::vector<Transaction>> batches(kAdders);
  for (size_t t = 0; t < kAdders; ++t) {
    for (size_t s = 0; s < kSendersPerAdder; ++s) {
      PublicKey pk;
      pk[0] = static_cast<uint8_t>(t);
      pk[1] = static_cast<uint8_t>(s);
      accounts.Upsert(pk, Account{1'000'000, 0});
      for (uint64_t n = 0; n < kNonces; ++n) {
        Transaction::Fields fields;
        fields.from = pk;
        fields.to[0] = 0xee;
        fields.amount = 1;
        fields.fee = 1 + (t * kSendersPerAdder + s) % 5;
        fields.nonce = n ^ 1;  // Pairs swapped: each odd nonce waits briefly on a gap.
        batches[t].push_back(Transaction(fields));
      }
    }
  }
  Mempool serial;
  for (const auto& batch : batches) {
    for (const Transaction& tx : batch) {
      ASSERT_EQ(serial.Add(tx, 0), Mempool::AddResult::kAdded);
    }
  }

  Mempool pool;
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kAdders; ++t) {
    threads.emplace_back([&, t] {
      for (const Transaction& tx : batches[t]) {
        EXPECT_EQ(pool.Add(tx, 0), Mempool::AddResult::kAdded);
        EXPECT_EQ(pool.Add(tx, 0), Mempool::AddResult::kDuplicate);  // A relay copy.
      }
      finished.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    const std::vector<Transaction>& probe = batches[0];
    while (finished.load() < kAdders) {
      const size_t missing = pool.NotResident(probe).size();
      if (missing < probe.size()) {
        // Adder 0 admits its batch in order and nothing leaves the pool.
        EXPECT_TRUE(pool.Contains(probe.front().Id()));
      }
      EXPECT_LE(pool.BuildBlock(accounts, 64 * Transaction::kWireSize).size(), 64u);
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(pool.size(), serial.size());
  EXPECT_EQ(pool.sender_count(), kAdders * kSendersPerAdder);
  const std::vector<Transaction> got = pool.BuildBlock(accounts, 1 << 20);
  const std::vector<Transaction> want = serial.BuildBlock(accounts, 1 << 20);
  ASSERT_EQ(got.size(), kAdders * kSendersPerAdder * kNonces);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].Serialize(), want[i].Serialize()) << i;
  }
}

}  // namespace
}  // namespace algorand
