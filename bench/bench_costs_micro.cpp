// §10.3 CPU costs: google-benchmark microbenchmarks of the cryptographic
// primitives that dominate Algorand's CPU usage (the paper: "most of it for
// verifying signatures and VRFs").
#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flat_set.h"
#include "src/common/rng.h"
#include "src/common/verify_pool.h"
#include "src/core/messages.h"
#include "src/core/sortition.h"
#include "src/core/tx_verifier.h"
#include "src/core/vote_counter.h"
#include "src/ledger/account_table.h"
#include "src/ledger/ledger.h"
#include "src/ledger/mempool.h"
#include "src/ledger/transaction.h"
#include "src/netsim/simulation.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha512.h"
#include "src/crypto/vrf.h"
#include "src/store/block_store.h"

namespace algorand {
namespace {

Ed25519KeyPair BenchKey() {
  FixedBytes<32> seed;
  DeterministicRng rng(1);
  rng.FillBytes(seed.data(), 32);
  return Ed25519KeyFromSeed(seed);
}

void BM_Sha256_1KB(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

void BM_Sha256_1MB(benchmark::State& state) {
  std::vector<uint8_t> data(1 << 20, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_Sha256_1MB);

// One compression: block hashes, seeds and priorities hash inputs this short.
void BM_Sha256_64B(benchmark::State& state) {
  std::vector<uint8_t> data(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

// A transaction id: encode the 152-byte wire image and hash it (3 blocks),
// which every Transaction constructor does once.
void BM_TransactionId(benchmark::State& state) {
  DeterministicRng rng(5);
  FixedBytes<32> to;
  rng.FillBytes(to.data(), to.size());
  const Transaction tx = MakeTransaction(BenchKey(), to, 100, 7, Ed25519Signer(), 1);
  uint64_t nonce = tx.nonce;
  for (auto _ : state) {
    // A fresh id each iteration, as in a mempool.
    const Transaction next(Transaction::Fields{tx.from, tx.to, tx.amount, tx.fee, ++nonce,
                                               tx.signature});
    benchmark::DoNotOptimize(next.Id());
  }
}
BENCHMARK(BM_TransactionId);

void BM_Sha512_1KB(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha512_1KB);

void BM_Ed25519_Sign(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  auto msg = BytesOfString("a typical 316-byte committee vote message body padded out to size....");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Sign(key, msg));
  }
}
BENCHMARK(BM_Ed25519_Sign);

void BM_Ed25519_Verify(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  auto msg = BytesOfString("a typical 316-byte committee vote message body padded out to size....");
  Signature sig = Ed25519Sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Verify(key.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519_Verify);

void BM_EcVrf_Prove(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  auto alpha = BytesOfString("seed||role||round||step");
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcVrfProve(key, alpha));
  }
}
BENCHMARK(BM_EcVrf_Prove);

void BM_EcVrf_Verify(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  auto alpha = BytesOfString("seed||role||round||step");
  VrfResult res = EcVrfProve(key, alpha);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcVrfVerify(key.public_key, alpha, res.proof));
  }
}
BENCHMARK(BM_EcVrf_Verify);

// Pre-optimization reference paths (the seed's four independent scalar
// multiplications), kept for the before/after numbers in BENCH_crypto.json.
void BM_Ed25519_Verify_Legacy(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  auto msg = BytesOfString("a typical 316-byte committee vote message body padded out to size....");
  Signature sig = Ed25519Sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519VerifyLegacy(key.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519_Verify_Legacy);

void BM_EcVrf_Verify_Legacy(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  auto alpha = BytesOfString("seed||role||round||step");
  VrfResult res = EcVrfProve(key, alpha);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcVrfVerifyLegacy(key.public_key, alpha, res.proof));
  }
}
BENCHMARK(BM_EcVrf_Verify_Legacy);

// Curve-level breakdown of the verify cost: textbook ladder vs w-NAF single
// scalar vs the interleaved double-scalar form verification actually uses.
internal::GePoint BenchPoint() {
  DeterministicRng rng(3);
  uint8_t wide[64], s[32];
  rng.FillBytes(wide, 64);
  internal::ScReduce64(s, wide);
  return internal::GeScalarMultBase(s);
}

void BM_GeScalarMult(benchmark::State& state) {
  internal::GePoint p = BenchPoint();
  uint8_t s[32];
  DeterministicRng rng(4);
  rng.FillBytes(s, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internal::GeScalarMult(s, p));
  }
}
BENCHMARK(BM_GeScalarMult);

void BM_GeScalarMultVartime(benchmark::State& state) {
  internal::GePoint p = BenchPoint();
  uint8_t s[32];
  DeterministicRng rng(5);
  rng.FillBytes(s, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internal::GeScalarMultVartime(s, p));
  }
}
BENCHMARK(BM_GeScalarMultVartime);

void BM_GeDoubleScalarMult(benchmark::State& state) {
  internal::GePoint p = BenchPoint();
  uint8_t a[32], b[32];
  DeterministicRng rng(6);
  rng.FillBytes(a, 32);
  rng.FillBytes(b, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internal::GeDoubleScalarMultVartime(a, p, b));
  }
}
BENCHMARK(BM_GeDoubleScalarMult);

// Batch verification throughput through the VerifyPool: 64 distinct vote-
// sized signatures per batch, verified inline (workers = 0) or fanned out to
// worker threads while the submitting thread waits (VerifyBatch's fork-join
// shape; nodes verify votes inline). Reported per signature.
void BM_BatchVerify_Pool(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  constexpr size_t kBatch = 64;
  DeterministicRng rng(7);
  std::vector<Ed25519KeyPair> keys;
  std::vector<std::vector<uint8_t>> msgs;
  std::vector<Signature> sigs;
  for (size_t i = 0; i < kBatch; ++i) {
    FixedBytes<32> seed;
    rng.FillBytes(seed.data(), 32);
    keys.push_back(Ed25519KeyFromSeed(seed));
    msgs.emplace_back(316);
    rng.FillBytes(msgs.back().data(), msgs.back().size());
    sigs.push_back(Ed25519Sign(keys.back(), msgs.back()));
  }
  VerifyPool pool(workers);
  std::atomic<uint32_t> ok{0};
  for (auto _ : state) {
    ok.store(0, std::memory_order_relaxed);
    if (pool.worker_count() == 0) {
      for (size_t i = 0; i < kBatch; ++i) {
        ok.fetch_add(Ed25519Verify(keys[i].public_key, msgs[i], sigs[i]) ? 1 : 0,
                     std::memory_order_relaxed);
      }
    } else {
      for (size_t i = 0; i < kBatch; ++i) {
        pool.Submit([&, i] {
          ok.fetch_add(Ed25519Verify(keys[i].public_key, msgs[i], sigs[i]) ? 1 : 0,
                       std::memory_order_relaxed);
        });
      }
      pool.Drain();
    }
    if (ok.load(std::memory_order_relaxed) != kBatch) {
      state.SkipWithError("verification failed");
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_BatchVerify_Pool)->Arg(0)->Arg(2)->Arg(4)->UseRealTime();

void BM_Sortition_SelectSubUsers(benchmark::State& state) {
  DeterministicRng rng(2);
  VrfOutput hash;
  rng.FillBytes(hash.data(), hash.size());
  for (auto _ : state) {
    // Paper-scale: weight 1000 of W=50M total, tau=2000.
    benchmark::DoNotOptimize(SelectSubUsers(hash, 1000, 2000.0 / 50e6));
  }
}
BENCHMARK(BM_Sortition_SelectSubUsers);

void BM_Sortition_FullRun(benchmark::State& state) {
  Ed25519KeyPair key = BenchKey();
  SeedBytes seed;
  EcVrf vrf;
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunSortition(vrf, key, seed, 2000, Role::kCommittee, ++round, 1, 1000, 50000000));
  }
}
BENCHMARK(BM_Sortition_FullRun);

void BM_Sortition_CdfCached(benchmark::State& state) {
  DeterministicRng rng(3);
  std::vector<VrfOutput> hashes(256);
  for (auto& h : hashes) {
    rng.FillBytes(h.data(), h.size());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectSubUsers(hashes[i++ % hashes.size()], 1000, 2000.0 / 50e6));
  }
}
BENCHMARK(BM_Sortition_CdfCached);

void BM_Sortition_CdfUncached(benchmark::State& state) {
  DeterministicRng rng(3);
  std::vector<VrfOutput> hashes(256);
  for (auto& h : hashes) {
    rng.FillBytes(h.data(), h.size());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectSubUsersUncached(hashes[i++ % hashes.size()], 1000, 2000.0 / 50e6));
  }
}
BENCHMARK(BM_Sortition_CdfUncached);

// --- Simulation engine ---

void BM_Simulation_ScheduleStep(benchmark::State& state) {
  // Steady-state queue of range(0) pending node-stream events, randomized
  // delays: each iteration schedules one event and runs one window (lookahead
  // 1, so one timestamp), the simulator's hot loop. 4096 stays in cache; 2^19
  // is the deep-heap regime of the 500-node Figure 5 run.
  Simulation sim(/*workers=*/1, /*n_streams=*/1, /*lookahead=*/1);
  sim.SetExternalStream(0);
  DeterministicRng rng(7);
  uint64_t x = 0;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sim.Schedule(static_cast<SimTime>(rng.NextU64() % Seconds(10)), [&x] { ++x; });
  }
  for (auto _ : state) {
    sim.Schedule(static_cast<SimTime>(rng.NextU64() % Seconds(10)), [&x] { ++x; });
    sim.Step();
  }
  benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_Simulation_ScheduleStep)->Arg(4096)->Arg(1 << 19);

void BM_Simulation_Delivery(benchmark::State& state) {
  // BM_Simulation_ScheduleStep's loop with message deliveries instead of
  // callbacks: each iteration schedules one typed delivery (the record
  // Network::Send queues) and runs one window, which pops one and hands it
  // to the sink.
  struct CountingSink : DeliverySink {
    void Deliver(const Delivery&) override { ++delivered; }
    uint64_t delivered = 0;
  } sink;
  Simulation sim(/*workers=*/1, /*n_streams=*/1, /*lookahead=*/1);
  sim.set_delivery_sink(&sink);
  sim.SetExternalStream(0);
  const MessagePtr msg = std::make_shared<VoteMessage>();
  DeterministicRng rng(7);
  auto schedule = [&] {
    sim.ScheduleDelivery(sim.now() + static_cast<SimTime>(rng.NextU64() % Seconds(10)),
                         Delivery{msg, 0, 0});
  };
  for (int64_t i = 0; i < state.range(0); ++i) {
    schedule();
  }
  for (auto _ : state) {
    schedule();
    sim.Step();
  }
  benchmark::DoNotOptimize(sink.delivered);
}
BENCHMARK(BM_Simulation_Delivery)->Arg(4096)->Arg(1 << 19);

void BM_GossipSeenSet(benchmark::State& state) {
  // GossipAgent's two-generation dedup memory under gossip traffic: every
  // message id arrives 6 times, its copies 97 messages apart (the first
  // inserts, the rest are dropped duplicates, as on the Figure 5 run), and
  // every range(0) unique ids the window advances (swap the generations,
  // clear the new current one).
  const size_t window = static_cast<size_t>(state.range(0));
  DeterministicRng rng(11);
  std::vector<Hash256> ids(window * 4);
  for (auto& id : ids) {
    rng.FillBytes(id.data(), id.size());
  }
  FlatSet<Hash256> current;
  FlatSet<Hash256> prev;
  size_t n = 0;
  size_t fresh = 0;
  for (auto _ : state) {
    const Hash256& id = ids[(n / 6 + ids.size() - (n % 6) * 97) % ids.size()];
    ++n;
    if (!prev.contains(id) && current.insert(id) && ++fresh % window == 0) {
      std::swap(prev, current);
      current.clear();
    }
  }
  benchmark::DoNotOptimize(current.size());
}
BENCHMARK(BM_GossipSeenSet)->Arg(4096)->Arg(1 << 16);

void BM_StepTally_AddVote(benchmark::State& state) {
  // One node's tally of one Figure 5 step, on the message path a node takes:
  // 500 voters' shared vote messages, weights 1-8 sub-users, one value with
  // a few votes for a second, the array reserved from the previous round's
  // count as BaStar does. A new tally starts every 500 votes.
  constexpr size_t kVoters = 500;
  DeterministicRng rng(12);
  Hash256 block;
  Hash256 empty;
  block[0] = 1;
  empty[0] = 2;
  std::vector<std::shared_ptr<const VoteMessage>> votes;
  std::vector<uint64_t> weights;
  for (size_t i = 0; i < kVoters; ++i) {
    auto vote = std::make_shared<VoteMessage>();
    rng.FillBytes(vote->pk.data(), vote->pk.size());
    rng.FillBytes(vote->sorthash.data(), vote->sorthash.size());
    vote->value = rng.UniformU64(20) == 0 ? empty : block;
    votes.push_back(std::move(vote));
    weights.push_back(1 + rng.UniformU64(8));
  }
  auto tally = std::make_unique<StepTally>();
  size_t n = 0;
  for (auto _ : state) {
    if (n == kVoters) {
      n = 0;
      tally = std::make_unique<StepTally>();
      tally->reserve(kVoters + kVoters / 8);
    }
    benchmark::DoNotOptimize(tally->AddVote(votes[n], weights[n]));
    ++n;
  }
  benchmark::DoNotOptimize(tally->total_weight());
}
BENCHMARK(BM_StepTally_AddVote);

void BM_DedupId_Cached_vs_Uncached(benchmark::State& state) {
  const bool fresh_each_time = state.range(0) != 0;
  VoteMessage vote;
  vote.round = 12;
  vote.step = 3;
  DeterministicRng rng(9);
  rng.FillBytes(vote.pk.data(), vote.pk.size());
  rng.FillBytes(vote.value.data(), vote.value.size());
  for (auto _ : state) {
    if (fresh_each_time) {
      VoteMessage copy = vote;  // Copying resets the memo: uncached path.
      benchmark::DoNotOptimize(copy.DedupId());
    } else {
      benchmark::DoNotOptimize(vote.DedupId());  // Memoized after first call.
    }
  }
  state.SetLabel(fresh_each_time ? "uncached" : "cached");
}
BENCHMARK(BM_DedupId_Cached_vs_Uncached)->Arg(0)->Arg(1);

// --- Durable block store ---

std::string BenchStoreDir(const char* name) {
  std::string dir = std::string("/tmp/algorand_bench_store_") + name;
  std::filesystem::remove_all(dir);
  return dir;
}

StoredRound BenchStoredRound(uint64_t round, size_t block_bytes) {
  StoredRound r;
  r.round = round;
  r.kind = 1;
  DeterministicRng rng(round);
  rng.FillBytes(r.tip_hash.data(), r.tip_hash.size());
  r.block.resize(block_bytes);
  rng.FillBytes(r.block.data(), r.block.size());
  r.cert.resize(2048);  // A realistic serialized certificate footprint.
  rng.FillBytes(r.cert.data(), r.cert.size());
  return r;
}

// Append throughput per fsync policy (synchronous writer: measures the disk
// path itself, not queue handoff). Arg is the FsyncPolicy enum value.
void BM_BlockStore_AppendRound(benchmark::State& state) {
  const auto policy = static_cast<FsyncPolicy>(state.range(0));
  const size_t kBlockBytes = 32 * 1024;
  std::string dir = BenchStoreDir("append");
  StoreOptions opts;
  opts.dir = dir;
  opts.fsync = policy;
  opts.background_writer = false;
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  uint64_t round = 1;
  for (auto _ : state) {
    store->AppendRound(BenchStoredRound(round++, kBlockBytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBlockBytes));
  state.SetLabel(FsyncPolicyName(policy));
  store.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_BlockStore_AppendRound)->Arg(0)->Arg(1)->Arg(2);

// Open()-time replay: scan + index a 512-round log (the restart cost a
// recovering node pays before it can start catching up).
void BM_BlockStore_Replay512Rounds(benchmark::State& state) {
  const size_t kBlockBytes = 32 * 1024;
  std::string dir = BenchStoreDir("replay");
  StoreOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kOff;
  opts.background_writer = false;
  std::string error;
  {
    auto store = BlockStore::Open(opts, &error);
    for (uint64_t r = 1; r <= 512; ++r) {
      store->AppendRound(BenchStoredRound(r, kBlockBytes));
    }
  }
  for (auto _ : state) {
    auto store = BlockStore::Open(opts, &error);
    benchmark::DoNotOptimize(store->max_round());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 512 *
                          static_cast<int64_t>(kBlockBytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_BlockStore_Replay512Rounds);

// Disk-backed catch-up read path: random committed round -> pread + decode.
void BM_BlockStore_ReadRound(benchmark::State& state) {
  const size_t kBlockBytes = 32 * 1024;
  std::string dir = BenchStoreDir("read");
  StoreOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kOff;
  opts.background_writer = false;
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  for (uint64_t r = 1; r <= 256; ++r) {
    store->AppendRound(BenchStoredRound(r, kBlockBytes));
  }
  uint64_t round = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->ReadRound(1 + (round++ * 97) % 256));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBlockBytes));
  store.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_BlockStore_ReadRound);

// Transaction signature verification, sequential vs batched through the
// VerifyPool (the proposal-validation path of ValidateBlockContents). Arg is
// the worker count; 0 is the inline loop. No cache: this measures raw batch
// verification, not cache hits (those are ~free by construction).
void BM_TxVerify_Batched_vs_Sequential(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  const Ed25519Signer signer;
  DeterministicRng rng(17);
  std::vector<Ed25519KeyPair> keys;
  for (size_t i = 0; i < 8; ++i) {
    FixedBytes<32> seed;
    rng.FillBytes(seed.data(), 32);
    keys.push_back(Ed25519KeyFromSeed(seed));
  }
  std::vector<Transaction> txns;
  for (size_t i = 0; i < 256; ++i) {
    txns.push_back(MakeTransaction(keys[i % keys.size()], keys[(i + 1) % keys.size()].public_key,
                                   1, i / keys.size(), signer, 1));
  }
  VerifyPool pool(workers);
  TxSigVerifier verifier(&signer, nullptr, workers > 0 ? &pool : nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.VerifyBatch(txns));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(txns.size()));
}
BENCHMARK(BM_TxVerify_Batched_vs_Sequential)->Arg(0)->Arg(2)->Arg(4)->UseRealTime();

// Account-table lookup+update at 1M accounts: the retired std::map layout
// (Arg 0) against the sharded open-addressing table (Arg 1). Each iteration
// is one payment's worth of account traffic — debit sender, credit receiver —
// at uniformly random keys, i.e. worst-case cache behaviour for both layouts.
void BM_AccountTable_LookupUpdate_1M(benchmark::State& state) {
  constexpr uint64_t kAccounts = 1'000'000;
  const bool sharded = state.range(0) == 1;
  auto key_of = [](uint64_t i) {
    PublicKey pk{};
    // Spread bits like a hash would: synthetic sequential ids are the
    // patterned-key case the table's mixer must handle.
    for (size_t b = 0; b < 8; ++b) {
      pk.data()[b] = static_cast<uint8_t>((i * 0x9e3779b97f4a7c15ULL) >> (8 * b));
    }
    return pk;
  };
  std::map<PublicKey, Account> map_table;
  AccountTable table;
  table.Reserve(kAccounts);
  for (uint64_t i = 0; i < kAccounts; ++i) {
    if (sharded) {
      table.Credit(key_of(i), 1000);
    } else {
      map_table[key_of(i)].balance += 1000;
    }
  }
  DeterministicRng rng(23);
  for (auto _ : state) {
    const PublicKey from = key_of(rng.NextU64() % kAccounts);
    const PublicKey to = key_of(rng.NextU64() % kAccounts);
    if (sharded) {
      const Account* a = table.Find(from);
      Account updated = *a;
      updated.balance -= 1;
      updated.next_nonce += 1;
      table.Upsert(from, updated);
      Account dst = table.Find(to) != nullptr ? *table.Find(to) : Account{};
      dst.balance += 1;
      table.Upsert(to, dst);
      benchmark::DoNotOptimize(updated.balance);
    } else {
      Account& a = map_table[from];
      a.balance -= 1;
      a.next_nonce += 1;
      map_table[to].balance += 1;
      benchmark::DoNotOptimize(a.balance);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccountTable_LookupUpdate_1M)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// A node's ledger at a 1M-account genesis: the table is minted once, and
// each iteration constructs one Ledger from the config, i.e. copies it. This
// is the per-node share of harness set-up on payments-1m.
void BM_LedgerFromGenesis(benchmark::State& state) {
  std::vector<std::pair<PublicKey, uint64_t>> allocations(1'000'000);
  DeterministicRng rng(29);
  for (auto& [pk, stake] : allocations) {
    rng.FillBytes(pk.data(), pk.size());
    stake = 1;
  }
  GenesisConfig genesis;
  genesis.accounts = MintGenesis(allocations);
  allocations = {};
  for (auto _ : state) {
    Ledger ledger(genesis);
    benchmark::DoNotOptimize(ledger.total_weight());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LedgerFromGenesis)->Unit(benchmark::kMillisecond);

// One node's mempool at payments-1m's shape: 64 senders with per-sender fees,
// a batch of one 1 MB block's worth of payments (1 MB / 152 B = 6,898)
// arriving per round, capacity four batches, three batches resident before
// timing. Each iteration admits one batch, assembles one 1 MB block and
// observes it committed, so the pool cycles between ~20.7k and ~27.6k
// residents and never evicts. Next to perfbench's isolated
// ledger.mempool_add_ns, the per-add cost here shows what a pool of this size
// costs in cache misses.
void BM_MempoolSteadyState(benchmark::State& state) {
  constexpr size_t kSenders = 64;
  constexpr size_t kBlockBytes = size_t{1} << 20;
  constexpr size_t kBatch = kBlockBytes / Transaction::kWireSize;
  Mempool pool(MempoolConfig{4 * kBatch});
  AccountTable accounts;
  std::vector<PublicKey> senders(kSenders);
  DeterministicRng rng(31);
  for (PublicKey& pk : senders) {
    rng.FillBytes(pk.data(), pk.size());
    accounts.Credit(pk, uint64_t{1} << 40);
  }
  std::vector<uint64_t> next_nonce(kSenders, 0);
  size_t sent = 0;
  // Unsigned payments: the pool never checks a signature.
  auto make_batch = [&] {
    std::vector<Transaction> batch;
    batch.reserve(kBatch);
    for (size_t k = 0; k < kBatch; ++k, ++sent) {
      const size_t from = sent % kSenders;
      Transaction::Fields f;
      f.from = senders[from];
      f.to = senders[(from + 1) % kSenders];
      f.amount = 1;
      f.fee = 1 + from % 8;
      f.nonce = next_nonce[from]++;
      batch.emplace_back(f);
    }
    return batch;
  };
  auto admit = [&](const std::vector<Transaction>& batch) {
    for (const Transaction& tx : batch) {
      pool.Add(tx, accounts.NextNonceOf(tx.from));
    }
  };
  for (int i = 0; i < 3; ++i) {
    admit(make_batch());
  }
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<Transaction> batch = make_batch();
    state.ResumeTiming();
    admit(batch);
    const std::vector<Transaction> block = pool.BuildBlock(accounts, kBlockBytes);
    state.PauseTiming();
    if (block.size() != kBatch) {
      state.SkipWithError("block not full");
      break;
    }
    for (const Transaction& tx : block) {
      accounts.ApplyTransaction(tx);
    }
    state.ResumeTiming();
    pool.ObserveCommitted(block, accounts);
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_MempoolSteadyState)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace algorand

BENCHMARK_MAIN();
