// Checkpoint restart and certificate-chain fast-sync tests (DESIGN.md §13).
// The pins here are the PR's acceptance bar: a cold restart from a checkpoint
// and a fast-sync join must land on bit-identical state — same tip hash, same
// final frontier, same layout-independent StateFingerprint — as the full
// WAL-replay / full block-catch-up paths, and a corrupted checkpoint must
// fall back to replay with that same identical state, never load silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/sim_harness.h"
#include "src/crypto/sha256.h"
#include "tests/test_dirs.h"

namespace algorand {
namespace {

namespace fs = std::filesystem;

std::string FreshDataDir(const std::string& name) {
  return FreshTestDir("algorand_fastsync_" + name);
}

HarnessConfig FastSyncConfig(uint64_t seed, const std::string& dir) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 32 * 1024;
  cfg.params.checkpoint_interval = 4;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;  // Link verification is backend-agnostic.
  cfg.data_dir = dir;
  cfg.store_fsync = FsyncPolicy::kOff;
  cfg.store_background_writer = false;  // Deterministic I/O interleaving.
  return cfg;
}

// Requires node `i`'s ledger state to be bit-identical to node `ref`'s over
// every common round: block hashes, consensus kinds above the compacted
// base, and the account-state fingerprint at the compaction base itself —
// node `ref` recomputes it by replaying from genesis, node `i` serves it
// from the installed checkpoint, so equality pins the whole prefix.
void ExpectStateMatches(SimHarness& h, size_t i, size_t ref) {
  const Ledger& a = h.node(i).ledger();
  const Ledger& b = h.node(ref).ledger();
  uint64_t common = std::min<uint64_t>(a.chain_length(), b.chain_length());
  ASSERT_GT(common, a.base_round());
  for (uint64_t r = std::max<uint64_t>(a.base_round(), b.base_round()); r < common; ++r) {
    ASSERT_EQ(a.BlockAtRound(r).Hash(), b.BlockAtRound(r).Hash()) << "round " << r;
  }
  uint64_t pin = std::max<uint64_t>(a.base_round(), b.base_round());
  EXPECT_EQ(a.AccountsAtRound(pin).StateFingerprint(),
            b.AccountsAtRound(pin).StateFingerprint());
  auto fa = a.HighestFinalRound();
  auto fb = b.HighestFinalRound();
  ASSERT_TRUE(fa.has_value());
  ASSERT_TRUE(fb.has_value());
  uint64_t ff = std::min<uint64_t>(*fa, *fb);
  EXPECT_EQ(a.BlockAtRound(ff).Hash(), b.BlockAtRound(ff).Hash());
}

TEST(FastSyncTest, ColdRestartFromCheckpointMatchesFullReplay) {
  std::string dir = FreshDataDir("cold_restart");
  SimHarness h(FastSyncConfig(11, dir));
  h.Start();
  ASSERT_TRUE(h.RunRounds(10, Hours(2)));

  h.KillNode(5);
  h.RestartNode(5, /*keep_disk=*/true);
  // The restart restored from the checkpoint ladder, not by replaying the
  // whole WAL: the ledger runs in compacted-prefix mode.
  uint64_t base = h.node(5).ledger().base_round();
  EXPECT_GT(base, 0u);
  EXPECT_EQ(base % 4, 0u);  // Checkpoints land on interval boundaries.
  ExpectStateMatches(h, 5, 1);

  // And the restarted node keeps up with the network afterwards.
  ASSERT_TRUE(h.RunRounds(16, Hours(2)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  EXPECT_FALSE(h.node(5).hung());
  ExpectStateMatches(h, 5, 1);
}

TEST(FastSyncTest, FreshNodeFastSyncJoinMatchesFullCatchupState) {
  std::string dir = FreshDataDir("fresh_join");
  HarnessConfig cfg = FastSyncConfig(12, dir);
  cfg.params.fastsync_enabled = true;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(8, Hours(2)));

  h.KillNode(5);
  ASSERT_TRUE(h.RunRounds(20, Hours(2)));  // Build a gap worth fast-syncing.
  h.RestartNode(5, /*keep_disk=*/false);  // Disk wiped: genesis-fresh join.
  ASSERT_TRUE(h.RunRounds(28, Hours(2)));

  // The rejoin went through certificate-chain fast-sync, not block replay.
  EXPECT_GE(h.node(5).fastsyncs_completed(), 1u);
  uint64_t base = h.node(5).ledger().base_round();
  EXPECT_GT(base, 0u);
  auto m = h.AggregateMetrics();
  EXPECT_GE(m.counters["catchup.fastsync_sessions"], 1u);
  EXPECT_GE(m.counters["catchup.fastsync_completed"], 1u);
  EXPECT_EQ(m.counters["catchup.fastsync_failed"], 0u);
  // Every pre-checkpoint round was covered by a verified certificate link.
  EXPECT_GE(m.counters["catchup.fastsync_links_verified"], base);
  EXPECT_GE(m.counters["catchup.fastsync_served"], 1u);

  // State equivalence vs a node that held the chain the whole time.
  ExpectStateMatches(h, 5, 1);
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  EXPECT_FALSE(h.node(5).hung());

  // The installed checkpoint was adopted into the local store, so the next
  // restart of this node can start from it.
  ASSERT_NE(h.node_store(5), nullptr);
  EXPECT_FALSE(h.node_store(5)->checkpoints().empty());
  h.KillNode(5);
  h.RestartNode(5, /*keep_disk=*/true);
  EXPECT_GE(h.node(5).ledger().base_round(), base);
  ExpectStateMatches(h, 5, 1);
}

TEST(FastSyncTest, NodeReportsCatchupWhileFastSyncing) {
  std::string dir = FreshDataDir("in_catchup");
  HarnessConfig cfg = FastSyncConfig(12, dir);
  cfg.params.fastsync_enabled = true;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(8, Hours(2)));
  h.KillNode(5);
  ASSERT_TRUE(h.RunRounds(20, Hours(2)));
  h.RestartNode(5, /*keep_disk=*/false);
  // Step until the wiped node opens its fast-sync session: it has left
  // agreement (votes and proposals are dropped) and must say so.
  const Counter& sessions = h.node_metrics(5).GetCounter("catchup.fastsync_sessions");
  const SimTime deadline = h.sim().now() + Minutes(5);
  while (sessions.Value() == 0 && h.sim().now() < deadline) {
    h.sim().RunUntil(h.sim().now() + Millis(5));
  }
  ASSERT_EQ(sessions.Value(), 1u);
  ASSERT_EQ(h.node(5).fastsyncs_completed(), 0u);
  EXPECT_TRUE(h.node(5).in_catchup());
  ASSERT_TRUE(h.RunRounds(28, Hours(2)));
  EXPECT_GE(h.node(5).fastsyncs_completed(), 1u);
  EXPECT_FALSE(h.node(5).in_catchup());
}

// Representative node-level corruption cases (the exhaustive every-offset
// fuzz runs at the store layer in checkpoint_test.cpp, where reopen is
// cheap): each mutation of the checkpoint files must push the restart down
// to full WAL replay with state identical to an always-live node.
TEST(FastSyncTest, CorruptCheckpointFallsBackToWalReplayWithIdenticalState) {
  std::string dir = FreshDataDir("corrupt");
  SimHarness h(FastSyncConfig(13, dir));
  h.Start();
  ASSERT_TRUE(h.RunRounds(10, Hours(2)));

  // Control: with pristine files the restart uses the checkpoint.
  h.KillNode(5);
  h.RestartNode(5, /*keep_disk=*/true);
  ASSERT_GT(h.node(5).ledger().base_round(), 0u);
  ASSERT_TRUE(h.RunRounds(14, Hours(2)));

  auto corrupt_all = [&](int mode) {
    size_t mutated = 0;
    for (const auto& entry : fs::directory_iterator(dir + "/node-5")) {
      if (entry.path().extension() != ".ckpt") {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      in.close();
      ASSERT_GT(bytes.size(), 48u);
      switch (mode) {
        case 0:  // Torn write: file truncated mid-payload.
          bytes.resize(bytes.size() / 2);
          break;
        case 1:  // Bit flip in the header (length/CRC region).
          bytes[16] = static_cast<char>(bytes[16] ^ 0x01);
          break;
        case 2:  // Bit flip deep in the serialized account table.
          bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x80);
          break;
      }
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ++mutated;
    }
    ASSERT_GT(mutated, 0u) << "no checkpoint files to corrupt";
  };

  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE("corruption mode " + std::to_string(mode));
    h.KillNode(5);
    corrupt_all(mode);
    h.RestartNode(5, /*keep_disk=*/true);
    // Fallback: no usable checkpoint, so the ledger was rebuilt by full WAL
    // replay from genesis — and lands on the same state as the live nodes.
    EXPECT_EQ(h.node(5).ledger().base_round(), 0u);
    ExpectStateMatches(h, 5, 1);
    // Let the network advance (and write fresh checkpoints) between modes.
    ASSERT_TRUE(h.RunRounds(h.node(1).ledger().chain_length() + 3, Hours(2)));
  }
  auto m = h.node_metrics(5).Snapshot();
  EXPECT_GE(m.counters["store.checkpoint_load_failures"], 3u);
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
}

// Golden pin of the whole sync path: a restart from disk, a wiped join that
// fast-syncs, and a long-lagging node that block-catches-up over sharded
// certificate storage, in one deterministic run. Every node's tip, every
// catchup.* counter and a digest of the catch-up trace events (node, time,
// fields) are pinned, so any change to request order, timer order or the
// catch-up RNG's draws shows up here.
TEST(FastSyncTest, GoldenRestartJoinAndLaggingCatchupArePinned) {
  std::string dir = FreshDataDir("golden");
  HarnessConfig cfg = FastSyncConfig(17, dir);
  cfg.verify_workers = 0;
  cfg.exec_workers = 0;
  cfg.params.fastsync_enabled = true;
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    auto node = std::make_unique<Node>(id, sim, gossip, key, genesis, params, crypto);
    node->ConfigureCertificateSharding(4);
    return node;
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(6, Hours(2)));
  h.KillNode(7);  // The lagging node: down the longest, restarts from disk.
  ASSERT_TRUE(h.RunRounds(10, Hours(2)));
  h.KillNode(5);
  h.KillNode(6);
  ASSERT_TRUE(h.RunRounds(18, Hours(2)));
  // Lossy links from here on: requests and answers go missing, so timeouts,
  // backoff and peer rotation run too.
  h.SetNetworkAdversary(std::make_unique<LossyAdversary>(0.15, 17, h.node_count()));
  h.RestartNode(5, /*keep_disk=*/true);   // Checkpoint restore, then catch-up.
  h.RestartNode(6, /*keep_disk=*/false);  // Wiped: fast-sync join.
  h.RestartNode(7, /*keep_disk=*/true);
  ASSERT_TRUE(h.RunRounds(30, Hours(2)));
  ASSERT_EQ(h.tracer().dropped(), 0u);

  Sha256 tips;
  for (size_t i = 0; i < h.node_count(); ++i) {
    const Ledger& l = h.node(i).ledger();
    tips.Update(std::to_string(i) + ":" + std::to_string(l.chain_length()) + ":" +
                l.tip_hash().ToHex() + "\n");
  }
  Sha256 trace;
  size_t catchup_events = 0;
  for (const TraceEvent& ev : h.tracer().Events()) {
    if (ev.kind != TraceKind::kCatchupStart && ev.kind != TraceKind::kCatchupBatch &&
        ev.kind != TraceKind::kCatchupDone) {
      continue;
    }
    ++catchup_events;
    trace.Update(std::to_string(ev.node) + " " + std::to_string(ev.at) + " " +
                 std::to_string(ev.round) + " " + std::to_string(static_cast<int>(ev.kind)) +
                 " " + std::to_string(ev.step) + " " + std::to_string(ev.a) + " " +
                 std::to_string(ev.b) + "\n");
  }
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, value] : h.AggregateMetrics().counters) {
    if (name.rfind("catchup.", 0) == 0) {
      counters[name] = value;
    }
  }

  // Recorded from this scenario; any drift is a change in sync behaviour.
  const std::map<std::string, uint64_t> kCounters = {
      {"catchup.aborted", 0},
      {"catchup.bad_batches", 0},
      {"catchup.blocks_applied", 31},
      {"catchup.completed", 4},
      {"catchup.fastsync_bytes", 2037},
      {"catchup.fastsync_completed", 1},
      {"catchup.fastsync_failed", 0},
      {"catchup.fastsync_links_verified", 16},
      {"catchup.fastsync_served", 4},
      {"catchup.fastsync_sessions", 1},
      {"catchup.peer_rotations", 3},
      {"catchup.requests", 7},
      {"catchup.served", 6},
      {"catchup.sessions", 4},
      {"catchup.timeouts", 3},
  };
  EXPECT_EQ(counters, kCounters);
  EXPECT_EQ(catchup_events, 14u);
  EXPECT_EQ(tips.Finish().ToHex(),
            "f6ae57584256084585a03b8d6fb3371d0d9729ec4fae1c4771bdfb07bb29edfa");
  EXPECT_EQ(trace.Finish().ToHex(),
            "769dfd7ba978038096e5b9ee95a200539f591b34f1d165fc5202142533b1f15a");
  EXPECT_GE(h.node(6).fastsyncs_completed(), 1u);
  EXPECT_GE(h.node(5).catchups_completed(), 1u);
  EXPECT_GE(h.node(7).catchups_completed(), 1u);
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(h.ChainsConsistent());
}

}  // namespace
}  // namespace algorand
