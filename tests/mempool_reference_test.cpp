// Differential test: the flat Mempool (slab, FlatMap id index, lazy eviction
// heap) against ReferenceMempool, the node-based layout it replaced. Seeded
// random operation sequences drive both pools with identical inputs; after
// every operation the two must agree on the Add result, size, sender count,
// residency, NotResident, the BuildBlock bytes and every mempool.* counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/ledger/mempool.h"
#include "src/obs/metrics.h"
#include "tests/reference_mempool.h"

namespace algorand {
namespace {

const char* const kCounters[] = {"mempool.added",    "mempool.duplicates", "mempool.stale",
                                 "mempool.replaced", "mempool.evicted",    "mempool.underpriced",
                                 "mempool.committed"};

std::vector<uint8_t> WireImage(const std::vector<Transaction>& txns) {
  Writer w;
  for (const Transaction& tx : txns) {
    tx.SerializeTo(&w);
  }
  return w.Take();
}

// Op weights out of 100; Add takes what the others leave.
struct Mix {
  uint64_t build = 5;
  uint64_t commit = 8;
  uint64_t drop_stale = 4;
  uint64_t rebalance = 4;
  uint64_t max_fee = 9;  // New arrivals pay a fee in [0, max_fee].
};

class Differential {
 public:
  Differential(uint64_t seed, size_t capacity, size_t senders, Mix mix)
      : rng_(seed), mix_(mix), pool_(MempoolConfig{capacity}), ref_(MempoolConfig{capacity}) {
    pool_.AttachMetrics(&pool_metrics_);
    ref_.AttachMetrics(&ref_metrics_);
    for (const char* name : kCounters) {
      counters_.push_back({&pool_metrics_.GetCounter(name), &ref_metrics_.GetCounter(name)});
    }
    for (size_t s = 0; s < senders; ++s) {
      PublicKey pk;
      rng_.FillBytes(pk.data(), pk.size());
      senders_.push_back(pk);
      accounts_.Upsert(pk, Account{RandomBalance(), 0});
    }
  }

  // One random operation on both pools, then the full comparison.
  void Step() {
    const uint64_t r = rng_.UniformU64(100);
    uint64_t edge = mix_.build;
    if (r < edge) {
      const size_t budget = rng_.UniformU64(12) * Transaction::kWireSize + rng_.UniformU64(152);
      ASSERT_EQ(WireImage(pool_.BuildBlock(accounts_, budget)),
                WireImage(ref_.BuildBlock(accounts_, budget)));
    } else if (r < (edge += mix_.commit)) {
      Commit();
    } else if (r < (edge += mix_.drop_stale)) {
      // Fork recovery: some senders' ledger nonces regress or advance.
      for (uint64_t k = 1 + rng_.UniformU64(3); k > 0; --k) {
        const PublicKey& pk = RandomSender();
        const Account* a = accounts_.Find(pk);
        const uint64_t nonce = a->next_nonce + rng_.UniformU64(4);
        accounts_.Upsert(pk, Account{a->balance, nonce > 2 ? nonce - 2 : 0});
      }
      pool_.DropStale(accounts_);
      ref_.DropStale(accounts_);
    } else if (r < (edge += mix_.rebalance)) {
      // Some senders go broke (BuildBlock must skip them) or get funded.
      const PublicKey& pk = RandomSender();
      accounts_.Upsert(pk, Account{RandomBalance(), accounts_.NextNonceOf(pk)});
    } else {
      Add();
    }
    Compare();
  }

  uint64_t counter(const char* name) { return pool_metrics_.GetCounter(name).Value(); }
  size_t size() const { return pool_.size(); }

 private:
  uint64_t RandomBalance() {
    // One sender in four can pay for only a few transactions.
    return rng_.UniformU64(4) == 0 ? rng_.UniformU64(40) : 1'000'000;
  }
  const PublicKey& RandomSender() { return senders_[rng_.UniformU64(senders_.size())]; }

  // Unsigned payments: the pool never checks a signature, and a fresh
  // recipient tag gives every payment its own id.
  Transaction Pay(const PublicKey& from, uint64_t nonce, uint64_t fee) {
    Transaction::Fields f;
    f.from = from;
    f.to[0] = 0xee;  // Never a sender, so sender balances only fall.
    const uint64_t tag = next_tag_++;
    for (size_t i = 0; i < 8; ++i) {
      f.to[1 + i] = static_cast<uint8_t>(tag >> (8 * i));
    }
    f.amount = 1 + rng_.UniformU64(5);
    f.fee = fee;
    f.nonce = nonce;
    Transaction tx(f);
    history_.push_back(tx);
    return tx;
  }

  void Add() {
    Transaction tx;
    const uint64_t kind = rng_.UniformU64(100);
    if (kind < 10 && !history_.empty()) {
      tx = history_[rng_.UniformU64(history_.size())];  // Same id again.
    } else if (kind < 25 && !history_.empty()) {
      // The same (sender, nonce) slot at a lower, equal or higher fee.
      const size_t back = rng_.UniformU64(std::min<size_t>(history_.size(), 64));
      const Transaction& old = history_[history_.size() - 1 - back];
      const uint64_t fee = old.fee + rng_.UniformU64(3);
      tx = Pay(old.from, old.nonce, fee > 0 ? fee - 1 : 0);
    } else {
      // Nonces from one below the ledger's (stale) to a few above (gaps).
      const PublicKey& pk = RandomSender();
      const uint64_t next = accounts_.NextNonceOf(pk) + rng_.UniformU64(12);
      tx = Pay(pk, next > 0 ? next - 1 : 0, rng_.UniformU64(mix_.max_fee + 1));
    }
    // Mostly the ledger's nonce; sometimes a lagging view, which admits a
    // transaction the ledger has already passed.
    uint64_t ledger_nonce = accounts_.NextNonceOf(tx.from);
    if (ledger_nonce > 0 && rng_.UniformU64(10) == 0) {
      --ledger_nonce;
    }
    const Mempool::AddResult got = pool_.Add(tx, ledger_nonce);
    ASSERT_EQ(got, ref_.Add(tx, ledger_nonce));
    ASSERT_EQ(pool_.Contains(tx.Id()), ref_.Contains(tx.Id()));
  }

  // Commits a block: the pool's own assembly, sometimes with one payment
  // swapped for a competing one at the same (sender, nonce) and some
  // payments the pool never saw appended.
  void Commit() {
    const size_t budget = rng_.UniformU64(8) * Transaction::kWireSize;
    std::vector<Transaction> block = pool_.BuildBlock(accounts_, budget);
    if (!block.empty() && rng_.UniformU64(3) == 0) {
      Transaction& victim = block[rng_.UniformU64(block.size())];
      Transaction competing = Transaction::Edited(victim, [&](Transaction::Fields& f) {
        f.to[31] ^= 0x5a;  // Same amount and fee: the block still applies.
      });
      victim = competing;
    }
    AccountOverlay overlay(accounts_);
    for (const Transaction& tx : block) {
      ASSERT_TRUE(overlay.ApplyTransaction(tx));
    }
    for (uint64_t k = rng_.UniformU64(3); k > 0; --k) {
      const PublicKey& pk = RandomSender();
      Transaction tx = Pay(pk, overlay.NextNonceOf(pk), rng_.UniformU64(mix_.max_fee + 1));
      if (overlay.ApplyTransaction(tx)) {
        block.push_back(tx);
      }
    }
    overlay.CommitTo(&accounts_);
    pool_.ObserveCommitted(block, accounts_);
    ref_.ObserveCommitted(block, accounts_);
  }

  void Compare() {
    ASSERT_EQ(pool_.size(), ref_.size());
    ASSERT_EQ(pool_.sender_count(), ref_.sender_count());
    for (size_t i = 0; i < counters_.size(); ++i) {
      ASSERT_EQ(counters_[i].first->Value(), counters_[i].second->Value()) << kCounters[i];
    }
    ASSERT_EQ(pool_metrics_.GetGauge("mempool.size").Value(),
              ref_metrics_.GetGauge("mempool.size").Value());
    // Residency of the recent payments and a few old ones.
    std::vector<Transaction> sample;
    for (size_t i = history_.size() > 48 ? history_.size() - 48 : 0; i < history_.size(); ++i) {
      sample.push_back(history_[i]);
    }
    for (int k = 0; k < 8 && !history_.empty(); ++k) {
      sample.push_back(history_[rng_.UniformU64(history_.size())]);
    }
    for (const Transaction& tx : sample) {
      ASSERT_EQ(pool_.Contains(tx.Id()), ref_.Contains(tx.Id()));
    }
    ASSERT_EQ(WireImage(pool_.NotResident(sample)), WireImage(ref_.NotResident(sample)));
    ASSERT_EQ(WireImage(pool_.BuildBlock(accounts_, 1 << 20)),
              WireImage(ref_.BuildBlock(accounts_, 1 << 20)));
  }

  DeterministicRng rng_;
  const Mix mix_;
  MetricsRegistry pool_metrics_;
  MetricsRegistry ref_metrics_;
  Mempool pool_;
  ReferenceMempool ref_;
  std::vector<std::pair<Counter*, Counter*>> counters_;  // (pool, reference).
  AccountTable accounts_;
  std::vector<PublicKey> senders_;
  std::vector<Transaction> history_;
  uint64_t next_tag_ = 0;
};

TEST(MempoolDifferentialTest, RandomSequencesMatchReference) {
  for (size_t capacity : {8, 16, 32, 64}) {
    std::map<std::string, uint64_t> fired;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " + std::to_string(seed));
      Differential d(seed * 1000 + capacity, capacity, /*senders=*/4 + seed * 3, Mix{});
      for (int op = 0; op < 2500; ++op) {
        ASSERT_NO_FATAL_FAILURE(d.Step()) << "op " << op;
      }
      for (const char* name : kCounters) {
        fired[name] += d.counter(name);
      }
    }
    // Every rule fired at every capacity.
    for (const char* name : kCounters) {
      EXPECT_GT(fired[name], 0u) << name << " at capacity " << capacity;
    }
  }
}

// A full pool under steady arrivals with a wide fee spread: most adds evict
// (or are refused), so the lazy heap's dead entries, its compaction and the
// slab's free list all churn.
TEST(MempoolDifferentialTest, ChurnAtCapacityMatchesReference) {
  Mix churn;
  churn.build = 1;
  churn.commit = 2;
  churn.drop_stale = 1;
  churn.rebalance = 1;
  churn.max_fee = 1000;
  Differential d(/*seed=*/77, /*capacity=*/64, /*senders=*/16, churn);
  constexpr int kOps = 100'000;
  for (int op = 0; op < kOps; ++op) {
    ASSERT_NO_FATAL_FAILURE(d.Step()) << "op " << op;
  }
  EXPECT_GT(d.counter("mempool.evicted"), d.counter("mempool.added") / 2);
  EXPECT_EQ(d.size(), 64u);
}

}  // namespace
}  // namespace algorand
