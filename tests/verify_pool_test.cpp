// Verification pipeline tests: the VerifyPool worker pool, the thread-safe
// VerificationCache that VerifyBatch's workers share with the calling thread,
// and the end-to-end property that matters for tier-1 determinism — a
// SimHarness run produces the identical chain and identical cache counts with
// workers off (0) and on (> 0), because the workers only ever run lookups the
// inline path would run, while the caller waits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/verify_pool.h"
#include "src/core/sim_harness.h"
#include "src/core/verification_cache.h"

namespace algorand {
namespace {

Hash256 Key(uint64_t i) {
  Hash256 h;
  for (size_t b = 0; b < 8; ++b) {
    h[b] = static_cast<uint8_t>(i >> (8 * b));
  }
  return h;
}

TEST(VerifyPoolTest, ZeroWorkersIsInert) {
  VerifyPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::atomic<int> ran{0};
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(ran.load(), 0);  // Submit is a no-op; the caller verifies inline.
}

TEST(VerifyPoolTest, RunsAllSubmittedJobs) {
  std::atomic<int> ran{0};
  {
    VerifyPool pool(3);
    EXPECT_EQ(pool.worker_count(), 3u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    pool.Drain();
    EXPECT_EQ(ran.load(), 100);
    // Jobs submitted after a drain still run (destructor drains).
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 110);
}

TEST(VerifyPoolTest, ResolveWorkersPrefersExplicitConfig) {
  unsetenv("ALGORAND_VERIFY_WORKERS");
  EXPECT_EQ(ResolveVerifyWorkers(0), 0u);
  EXPECT_EQ(ResolveVerifyWorkers(4), 4u);
  EXPECT_EQ(ResolveVerifyWorkers(-1), 0u);  // No env, default single-threaded.
  setenv("ALGORAND_VERIFY_WORKERS", "2", 1);
  EXPECT_EQ(ResolveVerifyWorkers(-1), 2u);  // Env fills in the default...
  EXPECT_EQ(ResolveVerifyWorkers(0), 0u);   // ...but never overrides config.
  setenv("ALGORAND_VERIFY_WORKERS", "junk", 1);
  EXPECT_EQ(ResolveVerifyWorkers(-1), 0u);
  unsetenv("ALGORAND_VERIFY_WORKERS");
}

TEST(VerificationCacheTest, ComputesOncePerKey) {
  VerificationCache cache;
  int computes = 0;
  EXPECT_EQ(cache.GetOrCompute(Key(1), [&] {
    ++computes;
    return uint64_t{7};
  }),
            7u);
  EXPECT_EQ(cache.GetOrCompute(Key(1), [&] {
    ++computes;
    return uint64_t{99};
  }),
            7u);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(VerificationCacheTest, NoteRoundPrunesStaleEntries) {
  VerificationCache cache;
  cache.NoteRound(1);
  cache.GetOrCompute(Key(10), [] { return uint64_t{1}; });
  cache.NoteRound(2);
  cache.GetOrCompute(Key(20), [] { return uint64_t{2}; });
  EXPECT_EQ(cache.size(), 2u);
  // kKeepRounds = 2: at round 4 the round-1 entry ages out, round-2 survives.
  cache.NoteRound(4);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Contains(Key(10)));
  EXPECT_TRUE(cache.Contains(Key(20)));
  EXPECT_EQ(cache.pruned(), 1u);
  // Touching an entry refreshes its round stamp.
  cache.GetOrCompute(Key(20), [] { return uint64_t{0}; });
  cache.NoteRound(6);
  EXPECT_TRUE(cache.Contains(Key(20)));
  cache.NoteRound(10);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerificationCacheTest, ConcurrentLookupsComputeOnce) {
  // Hammer the cache from pool workers and the calling thread at once: every
  // key must be computed exactly once, every lookup must see that value, and
  // every lookup but the first of a key counts as a hit.
  VerificationCache cache;
  constexpr int kKeys = 200;
  constexpr int kWorkerLookups = 2;  // Per key, besides the calling thread's.
  std::vector<std::atomic<int>> computes(kKeys);
  auto lookup = [&cache, &computes](int k) {
    return cache.GetOrCompute(Key(static_cast<uint64_t>(k)), [&computes, k] {
      computes[static_cast<size_t>(k)].fetch_add(1);
      // Slow enough that other threads ask for the key while it computes.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      return static_cast<uint64_t>(k) * 3 + 1;
    });
  };
  std::atomic<int> wrong{0};
  {
    VerifyPool pool(4);
    for (int k = 0; k < kKeys; ++k) {
      for (int j = 0; j < kWorkerLookups; ++j) {
        pool.Submit([&lookup, &wrong, k] {
          if (lookup(k) != static_cast<uint64_t>(k) * 3 + 1) {
            wrong.fetch_add(1);
          }
        });
      }
    }
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_EQ(lookup(k), static_cast<uint64_t>(k) * 3 + 1);
    }
    pool.Drain();
  }
  EXPECT_EQ(wrong.load(), 0);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computes[static_cast<size_t>(k)].load(), 1) << "key " << k;
  }
  EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kKeys));
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kKeys * kWorkerLookups));
}

// The pipeline must not change any protocol decision: the same seed with
// workers disabled and enabled yields byte-identical chains. Workers only run
// the checks the inline path would run, and the simulated event sequence
// never depends on wall-clock worker timing.
TEST(VerifyPipelineTest, HarnessChainIsIdenticalWithAndWithoutWorkers) {
  auto run = [](int workers) {
    HarnessConfig cfg;
    cfg.n_nodes = 12;
    cfg.rng_seed = 77;
    cfg.verify_workers = workers;
    cfg.use_sim_crypto = false;  // Exercise the real Ed25519/VRF pipeline.
    SimHarness harness(cfg);
    harness.Start();
    EXPECT_TRUE(harness.RunRounds(2, Seconds(600)));
    std::vector<Hash256> hashes;
    const Ledger& ledger = harness.node(0).ledger();
    for (uint64_t r = 0; r < ledger.chain_length(); ++r) {
      hashes.push_back(ledger.BlockAtRound(r).Hash());
    }
    return hashes;
  };
  std::vector<Hash256> without = run(0);
  std::vector<Hash256> with = run(2);
  ASSERT_GT(without.size(), 2u);
  ASSERT_EQ(without.size(), with.size());
  for (size_t r = 0; r < without.size(); ++r) {
    EXPECT_EQ(without[r], with[r]) << "round " << r;
  }
}

// Cache counts are exact per seed with verify workers: every check reaches the
// cache through GetOrCompute on a thread that waits for it, so no worker can
// win or lose a race for an entry. Nodes with odd ids hold a small mempool,
// so blocks reach them with payments they never admitted and VerifyBatch fans
// those out across the workers.
TEST(VerifyPipelineTest, CacheCountsAreExactWithWorkers) {
  struct Counts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t batch_jobs = 0;
    bool has_prewarms = false;
  };
  auto run = [](int workers) {
    HarnessConfig cfg;
    cfg.n_nodes = 10;
    cfg.rng_seed = 5;
    cfg.use_sim_crypto = true;
    cfg.verify_workers = workers;
    cfg.exec_workers = 0;
    cfg.stake_per_user = 100'000;
    cfg.tx_clients = 6;
    cfg.client_stake = 2'000;
    cfg.tx_load_per_round = 40;
    cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                          const Ed25519KeyPair& key, const GenesisConfig& genesis,
                          ProtocolParams params, CryptoSuite crypto,
                          AdversaryCoordinator*) -> std::unique_ptr<Node> {
      if (id % 2 == 1) {
        params.mempool_capacity = 4;
      }
      return std::make_unique<Node>(id, sim, gossip, key, genesis, params, crypto);
    };
    SimHarness h(cfg);
    h.Start();
    EXPECT_TRUE(h.RunRounds(3));
    EXPECT_GT(h.CommittedTxCount(), 0u);
    const MetricsSnapshot m = h.AggregateMetrics();
    auto counter = [&m](const char* name) {
      auto it = m.counters.find(name);
      return it == m.counters.end() ? uint64_t{0} : it->second;
    };
    return Counts{counter("verify.cache_hits"), counter("verify.cache_misses"),
                  counter("verify.pool_jobs"), m.counters.contains("verify.pool_prewarms")};
  };
  const Counts base = run(0);
  EXPECT_GT(base.hits, 0u);
  EXPECT_GT(base.misses, 0u);
  for (int workers : {0, 2}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Counts c = run(workers);
      EXPECT_EQ(c.hits, base.hits) << "workers " << workers << " run " << rep;
      EXPECT_EQ(c.misses, base.misses) << "workers " << workers << " run " << rep;
      EXPECT_FALSE(c.has_prewarms);
      if (workers > 0) {
        EXPECT_GT(c.batch_jobs, 0u);  // The fan-out ran.
      }
    }
  }
}

}  // namespace
}  // namespace algorand
