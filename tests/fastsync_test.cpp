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
#include <string>
#include <vector>

#include "src/core/sim_harness.h"

namespace algorand {
namespace {

namespace fs = std::filesystem;

std::string FreshDataDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "algorand_fastsync_" + name;
  fs::remove_all(dir);
  return dir;
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

}  // namespace
}  // namespace algorand
