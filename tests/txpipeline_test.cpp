// Transaction-pipeline determinism: the conflict partitioner, the parallel
// block applier's bit-identity with the sequential path, batched signature
// verification, the sharded account table against a std::map reference, and
// the end-to-end exec_workers A/B at harness level (sim_determinism_test's
// pattern applied to block execution).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sim_harness.h"
#include "src/core/tx_verifier.h"
#include "src/ledger/exec.h"
#include "src/ledger/ledger.h"
#include "src/ledger/mempool.h"

namespace algorand {
namespace {

const Ed25519Signer kSigner;

PublicKey KeyFromIndex(uint64_t i) {
  PublicKey pk{};
  for (size_t b = 0; b < 8; ++b) {
    pk.data()[b] = static_cast<uint8_t>(i >> (8 * b));
  }
  return pk;
}

// An unsigned payment — the applier checks applicability, not signatures.
Transaction RawPay(uint64_t from, uint64_t to, uint64_t amount, uint64_t nonce,
                   uint64_t fee = 0) {
  return Transaction::Edited(Transaction(), [&](auto& f) {
    f.from = KeyFromIndex(from);
    f.to = KeyFromIndex(to);
    f.amount = amount;
    f.nonce = nonce;
    f.fee = fee;
  });
}

TEST(PartitionTest, DisjointTransactionsGetOwnPartitions) {
  std::vector<Transaction> txns = {RawPay(1, 2, 5, 0), RawPay(3, 4, 5, 0), RawPay(5, 6, 5, 0)};
  auto parts = PartitionByAccount(txns);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(parts[1], (std::vector<uint32_t>{1}));
  EXPECT_EQ(parts[2], (std::vector<uint32_t>{2}));
}

TEST(PartitionTest, SharedAccountsMergeTransitively) {
  // tx0 and tx2 share account 2 through tx1 (1→2, 2→3, 3→4): one partition.
  // tx3 is disjoint.
  std::vector<Transaction> txns = {RawPay(1, 2, 5, 0), RawPay(2, 3, 5, 0), RawPay(3, 4, 5, 0),
                                   RawPay(8, 9, 5, 0)};
  auto parts = PartitionByAccount(txns);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(parts[1], (std::vector<uint32_t>{3}));
}

TEST(PartitionTest, SenderReuseStaysOrdered) {
  // Same sender twice: one partition, block order preserved.
  std::vector<Transaction> txns = {RawPay(1, 2, 5, 0), RawPay(1, 3, 5, 1)};
  auto parts = PartitionByAccount(txns);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (std::vector<uint32_t>{0, 1}));
}

TEST(AccountTableTest, MatchesMapReferenceThroughGrowth) {
  // Drive the sharded table and a std::map reference through the same
  // operation stream — enough inserts to force several shard growths — and
  // require identical observable state.
  AccountTable table;
  std::map<PublicKey, Account> ref;
  DeterministicRng rng(99);
  constexpr uint64_t kAccounts = 50'000;
  for (uint64_t i = 0; i < kAccounts; ++i) {
    uint64_t amount = 1 + rng.NextU64() % 1000;
    table.Credit(KeyFromIndex(i), amount);
    Account& a = ref[KeyFromIndex(i)];
    a.balance += amount;
  }
  for (int round = 0; round < 2000; ++round) {
    uint64_t from = rng.NextU64() % kAccounts;
    uint64_t to = rng.NextU64() % kAccounts;
    Transaction tx = RawPay(from, to, rng.NextU64() % 50, ref[KeyFromIndex(from)].next_nonce,
                            rng.NextU64() % 3);
    bool ok_ref = ref[KeyFromIndex(from)].balance >= tx.amount + tx.fee;
    ASSERT_EQ(table.ApplyTransaction(tx), ok_ref) << "round " << round;
    if (ok_ref) {
      ref[tx.from].balance -= tx.amount + tx.fee;
      ref[tx.from].next_nonce++;
      ref[tx.to].balance += tx.amount;
    }
  }
  ASSERT_EQ(table.account_count(), ref.size());
  for (const auto& [pk, acct] : ref) {
    EXPECT_EQ(table.BalanceOf(pk), acct.balance);
    EXPECT_EQ(table.NextNonceOf(pk), acct.next_nonce);
  }
  // SortedEntries must agree with the map's (already sorted) iteration.
  auto entries = table.SortedEntries();
  ASSERT_EQ(entries.size(), ref.size());
  size_t i = 0;
  for (const auto& [pk, acct] : ref) {
    EXPECT_EQ(entries[i].first, pk);
    EXPECT_EQ(entries[i].second, acct);
    ++i;
  }
}

TEST(AccountTableTest, FingerprintIsLayoutIndependent) {
  // Same logical state reached through different insertion orders (and thus
  // different probe layouts) must fingerprint identically.
  AccountTable fwd;
  AccountTable rev;
  fwd.Reserve(1000);  // Different initial capacities → different layouts.
  for (uint64_t i = 0; i < 500; ++i) {
    fwd.Credit(KeyFromIndex(i), i + 1);
  }
  for (uint64_t i = 500; i-- > 0;) {
    rev.Credit(KeyFromIndex(i), i + 1);
  }
  EXPECT_EQ(fwd.StateFingerprint(), rev.StateFingerprint());
  rev.Credit(KeyFromIndex(7), 1);
  EXPECT_NE(fwd.StateFingerprint(), rev.StateFingerprint());
}

// At a 1M-account mint the shards sit near 3/4 load: ~67 bytes of slots per
// account (the power-of-two shards they replaced took ~103), and probes stay
// short. A home slot taken from the hash bits ShardOf already fixed would
// put a shard's keys on 1 home in 64: ~24 slots per lookup on average. The
// longest probe is a tail bound: linear probing with ideal random homes at
// this shape (64 shards of ~15.6k keys in 21,459 slots) gives a longest
// probe of 133-149 slots over six simulated seeds.
TEST(AccountTableTest, MillionAccountsAreDenseWithShortProbes) {
  constexpr size_t kAccounts = 1'000'000;
  AccountTable table;
  table.Reserve(kAccounts);
  std::vector<PublicKey> keys(kAccounts);
  DeterministicRng rng(61);
  for (PublicKey& pk : keys) {
    rng.FillBytes(pk.data(), pk.size());
    table.Credit(pk, 1);
  }
  ASSERT_EQ(table.account_count(), kAccounts);
  EXPECT_LE(table.memory_bytes(), 70 * table.account_count());
  size_t total = 0;
  size_t longest = 0;
  for (const PublicKey& pk : keys) {
    const size_t probe = table.ProbeLength(pk);
    total += probe;
    longest = std::max(longest, probe);
  }
  EXPECT_LT(total, 3 * kAccounts);
  EXPECT_LT(longest, 256u);
}

// Builds a funded table plus a mixed block: long dependent chains, disjoint
// pairs, a self-transfer, and zero-amount transactions.
struct ApplierFixture {
  AccountTable table;
  std::vector<Transaction> block;

  ApplierFixture() {
    for (uint64_t i = 0; i < 400; ++i) {
      table.Credit(KeyFromIndex(i), 10'000);
    }
    DeterministicRng rng(4);
    // Chains: 0→1→2→...  within groups of 8 (same partition).
    for (uint64_t g = 0; g < 10; ++g) {
      for (uint64_t k = 0; k < 7; ++k) {
        block.push_back(RawPay(g * 8 + k, g * 8 + k + 1, 100, 0, 1));
      }
    }
    // Disjoint pairs (singleton partitions).
    for (uint64_t i = 100; i < 200; i += 2) {
      block.push_back(RawPay(i, i + 1, rng.NextU64() % 100, 0, rng.NextU64() % 4));
    }
    block.push_back(RawPay(300, 300, 50, 0, 2));  // Self-transfer: nets −fee.
    block.push_back(RawPay(301, 302, 0, 0, 0));   // Zero amount, zero fee.
  }
};

TEST(BlockApplierTest, ParallelApplyBitIdenticalToSequential) {
  ApplierFixture seq_fx;
  ApplierFixture par_fx;
  VerifyPool pool(4);
  BlockApplier sequential(nullptr);
  BlockApplier parallel(&pool);

  ExecStats seq_stats;
  ExecStats par_stats;
  ASSERT_TRUE(sequential.ApplyBlock(seq_fx.block, &seq_fx.table, &seq_stats));
  ASSERT_TRUE(parallel.ApplyBlock(par_fx.block, &par_fx.table, &par_stats));
  EXPECT_FALSE(seq_stats.parallel);
  EXPECT_TRUE(par_stats.parallel);
  EXPECT_EQ(seq_stats.partitions, par_stats.partitions);
  EXPECT_EQ(seq_fx.table.StateFingerprint(), par_fx.table.StateFingerprint());
  EXPECT_EQ(seq_fx.table.total_weight(), par_fx.table.total_weight());
}

TEST(BlockApplierTest, RejectionIsAtomicOnBothPaths) {
  ApplierFixture seq_fx;
  ApplierFixture par_fx;
  // Poison one transaction deep in the block: nonce that can never match.
  for (ApplierFixture* fx : {&seq_fx, &par_fx}) {
    Transaction& tx = fx->block[fx->block.size() / 2];
    tx = Transaction::Edited(tx, [](auto& f) { f.nonce = 999; });
  }
  Hash256 seq_before = seq_fx.table.StateFingerprint();

  VerifyPool pool(4);
  BlockApplier sequential(nullptr);
  BlockApplier parallel(&pool);
  EXPECT_FALSE(sequential.ApplyBlock(seq_fx.block, &seq_fx.table));
  EXPECT_FALSE(parallel.ApplyBlock(par_fx.block, &par_fx.table));
  // Neither path left a partial application behind.
  EXPECT_EQ(seq_fx.table.StateFingerprint(), seq_before);
  EXPECT_EQ(par_fx.table.StateFingerprint(), seq_before);
}

TEST(BlockApplierTest, CheckBlockMatchesApplyVerdictWithoutMutation) {
  ApplierFixture fx;
  BlockApplier applier(nullptr);
  Hash256 before = fx.table.StateFingerprint();
  EXPECT_TRUE(applier.CheckBlock(fx.block, fx.table));
  EXPECT_EQ(fx.table.StateFingerprint(), before);
  fx.block.push_back(RawPay(390, 391, uint64_t{1} << 40, 0));  // Unaffordable.
  EXPECT_FALSE(applier.CheckBlock(fx.block, fx.table));
  EXPECT_EQ(fx.table.StateFingerprint(), before);
}

TEST(TxVerifierTest, BatchVerdictMatchesSequential) {
  GenesisBundle bundle = MakeTestGenesis(6, 1000, 11);
  std::vector<Transaction> txns;
  for (size_t i = 0; i < 64; ++i) {
    txns.push_back(MakeTransaction(bundle.keys[i % 6], bundle.keys[(i + 1) % 6].public_key, 1,
                                   i / 6, kSigner, 1));
  }
  VerificationCache cache;
  VerifyPool pool(4);
  TxSigVerifier threaded(&kSigner, &cache, &pool);
  TxSigVerifier inline_verifier(&kSigner, nullptr, nullptr);
  EXPECT_TRUE(threaded.VerifyBatch(txns));
  EXPECT_TRUE(inline_verifier.VerifyBatch(txns));

  // One corrupted signature anywhere fails the batch on both paths.
  txns[37] = Transaction::Edited(txns[37], [](auto& f) { f.amount += 1; });
  VerificationCache cache2;
  TxSigVerifier threaded2(&kSigner, &cache2, &pool);
  EXPECT_FALSE(threaded2.VerifyBatch(txns));
  EXPECT_FALSE(inline_verifier.VerifyBatch(txns));
}

// Counts Verify calls; thread-safe because VerifyBatch calls it from pool
// workers.
class CountingSigner : public SignerBackend {
 public:
  Signature Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const override {
    return kSigner.Sign(key, message);
  }
  bool Verify(const PublicKey& pk, std::span<const uint8_t> message,
              const Signature& sig) const override {
    checks.fetch_add(1, std::memory_order_relaxed);
    return kSigner.Verify(pk, message, sig);
  }
  const char* name() const override { return "counting"; }
  mutable std::atomic<uint64_t> checks{0};
};

TEST(TxVerifierTest, RepeatBatchIsAllCacheHits) {
  GenesisBundle bundle = MakeTestGenesis(4, 1000, 12);
  std::vector<Transaction> txns;
  for (size_t i = 0; i < 32; ++i) {
    txns.push_back(MakeTransaction(bundle.keys[i % 4], bundle.keys[(i + 1) % 4].public_key, 1,
                                   i / 4, kSigner));
  }
  CountingSigner signer;
  VerificationCache cache;
  VerifyPool pool(2);
  TxSigVerifier verifier(&signer, &cache, &pool);
  EXPECT_TRUE(verifier.VerifyBatch(txns));
  EXPECT_EQ(signer.checks.load(), txns.size());
  EXPECT_EQ(cache.misses(), txns.size());
  EXPECT_EQ(cache.hits(), 0u);
  // The second batch reads every verdict from the cache.
  EXPECT_TRUE(verifier.VerifyBatch(txns));
  EXPECT_EQ(signer.checks.load(), txns.size());
  EXPECT_EQ(cache.misses(), txns.size());
  EXPECT_EQ(cache.hits(), txns.size());
}

// End-to-end A/B: a full consensus run with synthetic transaction load must
// commit identical chains and identical account state whether blocks are
// applied sequentially (exec_workers=0) or through the worker pool.
struct ExecRunOutcome {
  std::vector<Hash256> tips;
  std::vector<Hash256> fingerprints;
  uint64_t committed = 0;

  bool operator==(const ExecRunOutcome& o) const {
    return tips == o.tips && fingerprints == o.fingerprints && committed == o.committed;
  }
};

// A small payments deployment with inline (deterministic) verification.
HarnessConfig PaymentsConfig(size_t tx_load_per_round, int exec_workers) {
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = 5;
  cfg.use_sim_crypto = true;
  cfg.verify_workers = 0;
  cfg.exec_workers = exec_workers;
  // Consensus stake must stay with the nodes: clients fund fees only, at a
  // negligible weight fraction, or committees go empty and rounds stall.
  cfg.stake_per_user = 100'000;
  cfg.tx_clients = 6;
  cfg.client_stake = 2'000;
  cfg.tx_load_per_round = tx_load_per_round;
  return cfg;
}

ExecRunOutcome RunWithExecWorkers(int exec_workers) {
  SimHarness h(PaymentsConfig(40, exec_workers));
  h.Start();
  EXPECT_TRUE(h.RunRounds(3));
  EXPECT_TRUE(h.CheckSafety().ok);
  ExecRunOutcome out;
  out.committed = h.CommittedTxCount();
  for (size_t i = 0; i < h.node_count(); ++i) {
    out.tips.push_back(h.node(i).ledger().tip_hash());
    out.fingerprints.push_back(h.node(i).ledger().accounts().StateFingerprint());
  }
  return out;
}

TEST(TxPipelineTest, ExecWorkersAreBitIdenticalToSequential) {
  ExecRunOutcome seq = RunWithExecWorkers(0);
  ExecRunOutcome par = RunWithExecWorkers(2);
  EXPECT_GT(seq.committed, 0u);
  EXPECT_TRUE(seq == par);
}

// Each node folds its ledger's slot bytes into its registry at snapshot time.
TEST(TxPipelineTest, TableBytesGaugeReadsEachLedger) {
  SimHarness h(PaymentsConfig(0, 0));
  h.Start();
  ASSERT_TRUE(h.RunRounds(1));
  int64_t sum = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    const size_t bytes = h.node(i).ledger().accounts().memory_bytes();
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(h.node_metrics(i).Snapshot().gauges.at("accounts.table_bytes"),
              static_cast<int64_t>(bytes));
    sum += static_cast<int64_t>(bytes);
  }
  EXPECT_EQ(h.AggregateMetrics().gauges.at("accounts.table_bytes"), sum);
}

// Every verification-cache lookup of a small deterministic payments run.
struct LookupCount {
  uint64_t lookups = 0;     // Hits plus misses.
  uint64_t admissions = 0;  // Mempool Add calls: one signature check each.
  uint64_t committed = 0;
};

LookupCount CountLookups(size_t tx_load_per_round) {
  SimHarness h(PaymentsConfig(tx_load_per_round, 0));
  h.Start();
  EXPECT_TRUE(h.RunRounds(3));
  const MetricsSnapshot m = h.AggregateMetrics();
  LookupCount out;
  out.lookups = m.CounterValue("verify.cache_hits") + m.CounterValue("verify.cache_misses");
  for (const char* outcome : {"added", "duplicates", "stale", "replaced", "underpriced"}) {
    out.admissions += m.CounterValue(std::string("mempool.") + outcome);
  }
  out.committed = h.CommittedTxCount();
  return out;
}

// Exact-count guard for one signature check per payment per node: mempool
// admission is the only payment lookup. Blocks are padded to one wire size,
// so the unloaded run schedules the same consensus traffic, and the loaded
// run's extra lookups are exactly its admissions — block validation adds
// none however many payments the blocks carry.
TEST(TxPipelineTest, BlockValidationAddsNoPaymentLookups) {
  const LookupCount idle = CountLookups(0);
  const LookupCount loaded = CountLookups(40);
  EXPECT_EQ(idle.admissions, 0u);
  EXPECT_EQ(loaded.lookups - idle.lookups, loaded.admissions);
  // Pinned: 10 nodes admit 5 batches of 40 payments; 120 of them commit.
  EXPECT_EQ(loaded.admissions, 2000u);
  EXPECT_EQ(loaded.committed, 120u);
  // One lookup per first-seen vote, priority and block per node. Checking a
  // message for its relay verdict and again to handle it makes this 4,367.
  EXPECT_EQ(loaded.lookups, 4074u);
}

}  // namespace
}  // namespace algorand
