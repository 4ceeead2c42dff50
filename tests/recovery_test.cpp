// Fork-recovery (§8.2) and catch-up (§8.3) tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/catchup.h"
#include "src/core/sim_harness.h"

namespace algorand {
namespace {

// On liveness failures, dump per-node chain state and the catch-up counters;
// sorting out "who wedged where" from the raw assert alone is hopeless.
void DumpCatchupDiagnostics(SimHarness& h) {
  for (size_t i = 0; i < h.node_count(); ++i) {
    fprintf(stderr, "node %zu len=%llu catchup=%d completed=%llu hung=%d recovery=%d\n", i,
            (unsigned long long)h.node(i).ledger().chain_length(), (int)h.node(i).in_catchup(),
            (unsigned long long)h.node(i).catchups_completed(), (int)h.node(i).hung(),
            (int)h.node(i).in_recovery());
  }
  auto m = h.AggregateMetrics();
  for (const char* k : {"catchup.sessions", "catchup.requests", "catchup.served",
                        "catchup.timeouts", "catchup.bad_batches", "catchup.blocks_applied",
                        "catchup.completed", "catchup.peer_rotations", "catchup.aborted"}) {
    fprintf(stderr, "%s=%llu\n", k, (unsigned long long)m.counters[k]);
  }
}

HarnessConfig RecoveryConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 32 * 1024;
  cfg.params.max_steps = 9;  // Hang quickly when stuck.
  cfg.params.recovery_interval = Minutes(10);
  cfg.latency = HarnessConfig::Latency::kUniform;
  // Recovery logic is crypto-agnostic; the Sim backends keep these long
  // partition scenarios fast. Real-crypto paths are covered elsewhere.
  cfg.use_sim_crypto = true;
  return cfg;
}

// Gives `cfg` a wiped per-test data dir with a synchronous store writer
// (deterministic I/O interleaving): restarts that keep their disk replay it.
void UseDataDir(HarnessConfig* cfg, const std::string& name) {
  cfg->data_dir = ::testing::TempDir() + "algorand_recovery_" + name;
  cfg->store_background_writer = false;
  std::filesystem::remove_all(cfg->data_dir);
}

TEST(RecoveryTest, NodesHangDuringLongPartition) {
  SimHarness h(RecoveryConfig(1));
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  // Partition for long enough that BinaryBA* exhausts max_steps (9 steps at
  // 20 s plus reduction ~= 4 minutes).
  h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(group_a, 0, Minutes(9)));
  h.Start();
  h.sim().RunUntil(Minutes(9));
  size_t hung = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    hung += h.node(i).hung() || h.node(i).in_recovery();
  }
  EXPECT_GE(hung, h.node_count() / 2);
  EXPECT_TRUE(h.CheckSafety().ok);
}

TEST(RecoveryTest, RecoversAfterPartitionHealsAndResumesProgress) {
  SimHarness h(RecoveryConfig(2));
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(group_a, 0, Minutes(9)));
  h.Start();
  // Recovery fires at the 10-minute boundary (after the heal); give it time
  // to converge and then make fresh progress.
  h.sim().RunUntil(Minutes(40));

  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;

  size_t recovered = 0;
  uint64_t min_chain = UINT64_MAX;
  for (size_t i = 0; i < h.node_count(); ++i) {
    recovered += h.node(i).recoveries_completed() > 0;
    min_chain = std::min<uint64_t>(min_chain, h.node(i).ledger().chain_length());
    EXPECT_FALSE(h.node(i).hung()) << "node " << i << " still hung";
  }
  EXPECT_GT(recovered, h.node_count() / 2);
  // Progress resumed beyond the recovery block.
  EXPECT_GT(min_chain, 2u);
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(RecoveryTest, NoRecoveryTriggeredOnHealthyNetwork) {
  SimHarness h(RecoveryConfig(3));
  h.Start();
  h.sim().RunUntil(Minutes(25));  // Two recovery checks pass.
  for (size_t i = 0; i < h.node_count(); ++i) {
    EXPECT_EQ(h.node(i).recoveries_completed(), 0u);
    EXPECT_FALSE(h.node(i).in_recovery());
  }
  EXPECT_TRUE(h.CheckSafety().ok);
}

TEST(RecoveryTest, FinalBlocksSurviveRecovery) {
  // Run a few healthy (final) rounds, then partition until both sides hang,
  // heal, recover: the pre-partition final prefix must be untouched on every
  // node afterwards.
  SimHarness h(RecoveryConfig(8));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  Hash256 final_tip = h.node(0).ledger().BlockAtRound(2).Hash();
  ASSERT_EQ(h.node(0).ledger().ConsensusAtRound(2), ConsensusKind::kFinal);

  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  SimTime heal = h.sim().now() + Minutes(9);
  h.SetNetworkAdversary(
      std::make_unique<PartitionAdversary>(group_a, h.sim().now(), heal));
  h.sim().RunUntil(heal + Minutes(25));

  for (size_t i = 0; i < h.node_count(); ++i) {
    const Ledger& ledger = h.node(i).ledger();
    ASSERT_GE(ledger.chain_length(), 3u) << "node " << i;
    EXPECT_EQ(ledger.BlockAtRound(2).Hash(), final_tip) << "node " << i;
  }
  EXPECT_TRUE(h.CheckSafety().ok);
}

TEST(RecoveryTest, RecoveryAnchorsAtHighestFinalRound) {
  // After recovery, every node's chain extends the final prefix; rounds
  // beyond it that were only tentative on a dead fork may be truncated.
  SimHarness h(RecoveryConfig(9));
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  SimTime start = h.sim().now();
  h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(group_a, start, start + Minutes(9)));
  h.sim().RunUntil(start + Minutes(35));
  EXPECT_TRUE(h.ChainsConsistent());
  // Everyone moved past recovery and is making progress again.
  for (size_t i = 0; i < h.node_count(); ++i) {
    EXPECT_FALSE(h.node(i).in_recovery()) << "node " << i;
    EXPECT_FALSE(h.node(i).hung()) << "node " << i;
  }
}

TEST(CatchupTest, NewUserValidatesChainFromCertificates) {
  HarnessConfig cfg = RecoveryConfig(4);
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(2)));

  // Collect blocks + certificates from node 0 as a bootstrap server would.
  const Node& server = h.node(0);
  std::vector<Block> blocks;
  std::vector<Certificate> certs;
  for (uint64_t r = 1; r < server.ledger().chain_length(); ++r) {
    if (!server.certificates().count(r)) {
      break;
    }
    blocks.push_back(server.ledger().BlockAtRound(r));
    certs.push_back(server.certificates().at(r));
  }
  ASSERT_GE(blocks.size(), 3u);

  CatchupResult result = CatchupFromGenesis(h.genesis().config, cfg.params, blocks, certs,
                                            h.vrf(), h.signer());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.verified_rounds, blocks.size());
  EXPECT_EQ(result.ledger->tip_hash(), blocks.back().Hash());
}

TEST(CatchupTest, FinalCertificateMarksChainFinal) {
  HarnessConfig cfg = RecoveryConfig(5);
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  const Node& server = h.node(0);
  std::vector<Block> blocks;
  std::vector<Certificate> certs;
  uint64_t last = 0;
  for (uint64_t r = 1; r < server.ledger().chain_length(); ++r) {
    if (!server.certificates().count(r)) {
      break;
    }
    blocks.push_back(server.ledger().BlockAtRound(r));
    certs.push_back(server.certificates().at(r));
    last = r;
  }
  ASSERT_GE(last, 2u);
  // Find the highest final certificate at or below `last`.
  const Certificate* final_cert = nullptr;
  for (uint64_t r = last; r >= 1; --r) {
    auto it = server.final_certificates().find(r);
    if (it != server.final_certificates().end()) {
      final_cert = &it->second;
      break;
    }
  }
  ASSERT_NE(final_cert, nullptr);
  CatchupResult result = CatchupFromGenesis(h.genesis().config, cfg.params, blocks, certs,
                                            h.vrf(), h.signer(), final_cert);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.ledger->ConsensusAtRound(final_cert->round), ConsensusKind::kFinal);
  for (uint64_t r = 1; r < final_cert->round; ++r) {
    EXPECT_EQ(result.ledger->ConsensusAtRound(r), ConsensusKind::kFinal);
  }
}

TEST(CatchupTest, RejectsTamperedHistory) {
  HarnessConfig cfg = RecoveryConfig(6);
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  const Node& server = h.node(0);
  std::vector<Block> blocks;
  std::vector<Certificate> certs;
  for (uint64_t r = 1; r <= 2; ++r) {
    ASSERT_TRUE(server.certificates().count(r));
    blocks.push_back(server.ledger().BlockAtRound(r));
    certs.push_back(server.certificates().at(r));
  }

  // Tamper with a block: the certificate no longer covers it.
  auto tampered_blocks = blocks;
  tampered_blocks[0].timestamp += 1;
  auto result = CatchupFromGenesis(h.genesis().config, cfg.params, tampered_blocks, certs,
                                   h.vrf(), h.signer());
  EXPECT_FALSE(result.ok);

  // Swap certificates between rounds: context mismatch.
  auto swapped = certs;
  std::swap(swapped[0], swapped[1]);
  result = CatchupFromGenesis(h.genesis().config, cfg.params, blocks, swapped, h.vrf(),
                              h.signer());
  EXPECT_FALSE(result.ok);

  // Truncate certificate votes below the threshold.
  auto weak = certs;
  weak[0].votes.resize(1);
  result = CatchupFromGenesis(h.genesis().config, cfg.params, blocks, weak, h.vrf(), h.signer());
  EXPECT_FALSE(result.ok);
}

TEST(CatchupTest, ShardedStorageKeepsOnlyOwnRounds) {
  HarnessConfig cfg = RecoveryConfig(7);
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
  ASSERT_TRUE(h.RunRounds(4, Hours(3)));
  for (size_t i = 0; i < 4; ++i) {
    for (const auto& [round, cert] : h.node(i).certificates()) {
      EXPECT_EQ(round % 4, i % 4) << "node " << i << " stored round " << round;
    }
  }
  // Together the first four nodes cover every round.
  std::set<uint64_t> covered;
  for (size_t i = 0; i < 4; ++i) {
    for (const auto& [round, cert] : h.node(i).certificates()) {
      covered.insert(round);
    }
  }
  for (uint64_t r = 1; r <= 4; ++r) {
    EXPECT_TRUE(covered.count(r)) << "round " << r;
  }
}

// --- Crash/restart fault injection + live catch-up ---

TEST(CrashRestartTest, CrashedNodeCatchesUpAfterRestartFromDisk) {
  HarnessConfig cfg = RecoveryConfig(10);
  UseDataDir(&cfg, "catchup_after_restart");
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));

  h.KillNode(5);
  EXPECT_FALSE(h.node_alive(5));
  uint64_t len_at_crash = h.node(5).ledger().chain_length();

  // The network keeps agreeing without the crashed node.
  ASSERT_TRUE(h.RunRounds(5, Hours(1)));

  h.RestartNode(5, /*keep_disk=*/true);
  EXPECT_TRUE(h.node_alive(5));
  // Durable state survived: the restarted ledger resumes from the disk log.
  EXPECT_GE(h.node(5).ledger().chain_length(), len_at_crash);

  // RunRounds waits on every live node, so this passing means node 5 caught
  // up to the tip and rejoined live BA*.
  ASSERT_TRUE(h.RunRounds(9, Hours(1)));
  EXPECT_GE(h.node(5).catchups_completed(), 1u);
  EXPECT_FALSE(h.node(5).in_catchup());

  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  uint64_t max_len = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    max_len = std::max<uint64_t>(max_len, h.node(i).ledger().chain_length());
  }
  EXPECT_GE(h.node(5).ledger().chain_length() + 1, max_len);
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(GenesisTest, HarnessMintsOneTableThatEveryLedgerStartsFrom) {
  // Eight users at stake 1000 plus 200 fillers: the genesis whose credit-loop
  // fingerprint ledger_test pins.
  const std::string golden = "97ab367eee09a3dcab18f577b506fcb899a51f055deb9ba5a44bb4f8b5389f74";
  HarnessConfig cfg = RecoveryConfig(42);
  cfg.n_nodes = 8;
  cfg.filler_accounts = 200;
  SimHarness h(cfg);
  const GenesisConfig& genesis = h.genesis().config;
  EXPECT_EQ(genesis.accounts->StateFingerprint().ToHex(), golden);
  for (size_t i = 0; i < h.node_count(); ++i) {
    EXPECT_EQ(&h.node(i).ledger().base_accounts(), genesis.accounts.get());
  }

  CatchupResult catchup = CatchupFromGenesis(genesis, cfg.params, {}, {}, h.vrf(), h.signer());
  ASSERT_TRUE(catchup.ok) << catchup.error;
  EXPECT_EQ(&catchup.ledger->base_accounts(), genesis.accounts.get());
  EXPECT_EQ(catchup.ledger->accounts().StateFingerprint().ToHex(), golden);

  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  h.KillNode(3);
  h.RestartNode(3, /*keep_disk=*/false);
  EXPECT_EQ(&h.node(3).ledger().base_accounts(), genesis.accounts.get());
  EXPECT_EQ(h.node(3).ledger().accounts().StateFingerprint().ToHex(), golden);
  EXPECT_EQ(genesis.accounts->StateFingerprint().ToHex(), golden);
}

TEST(CrashRestartTest, FreshRestartRejoinsFromGenesis) {
  // keep_disk=false models losing the disk: the node rejoins with an empty
  // ledger and must re-fetch the whole chain.
  SimHarness h(RecoveryConfig(11));
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  h.KillNode(7);
  ASSERT_TRUE(h.RunRounds(5, Hours(1)));
  h.RestartNode(7, /*keep_disk=*/false);
  EXPECT_EQ(h.node(7).ledger().chain_length(), 1u);
  ASSERT_TRUE(h.RunRounds(9, Hours(2)));
  EXPECT_GE(h.node(7).catchups_completed(), 1u);
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(CrashRestartTest, RestartKeepsTheDeploymentShape) {
  // A restart changes state, not deployment shape: an equivocator comes back
  // as an equivocator and a seed grinder as a grinder, built by the same
  // code that built them at construction.
  HarnessConfig cfg = RecoveryConfig(17);
  cfg.malicious_fraction = 0.1;  // Nodes 0 and 1 equivocate.
  cfg.grinding_count = 1;        // Node 2 grinds.
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  for (size_t i : {0, 2}) {
    h.KillNode(i);
    h.RestartNode(i);
  }
  EXPECT_NE(dynamic_cast<EquivocatingNode*>(&h.node(0)), nullptr);
  EXPECT_NE(dynamic_cast<GrindingProposerNode*>(&h.node(2)), nullptr);
  ASSERT_TRUE(h.RunRounds(4, Hours(1)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
}

TEST(CrashRestartTest, RollingChurnTwentyPercentConverges) {
  // 4 of 20 nodes (20%) crash on a staggered schedule and restart ~60
  // simulated seconds later — a rolling membership churn. Everyone must end
  // on one chain with zero safety violations.
  HarnessConfig cfg = RecoveryConfig(12);
  UseDataDir(&cfg, "rolling_churn");
  for (size_t i = 0; i < 4; ++i) {
    HarnessConfig::CrashEvent ev;
    ev.node = 4 + i;  // Staggered: one down at a time.
    ev.crash_at = Seconds(40 + 40 * static_cast<double>(i));
    ev.restart_at = Seconds(100 + 40 * static_cast<double>(i));
    ev.keep_disk = (i % 2 == 0);  // Mix disk replays and fresh rejoins.
    cfg.crash_schedule.push_back(ev);
  }
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(14, Hours(2)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  MetricsSnapshot m = h.AggregateMetrics();
  EXPECT_EQ(m.counters["restart.kills"], 4u);
  EXPECT_EQ(m.counters["restart.restarts"], 4u);
  EXPECT_GE(m.counters["catchup.completed"], 4u);
  EXPECT_GE(m.counters["catchup.blocks_applied"], 4u);
  // Byte-identical chains at equal rounds.
  uint64_t common = UINT64_MAX;
  for (size_t i = 0; i < h.node_count(); ++i) {
    common = std::min<uint64_t>(common, h.node(i).ledger().chain_length());
  }
  for (uint64_t r = 1; r < common; ++r) {
    std::vector<uint8_t> expect = h.node(0).ledger().BlockAtRound(r).Serialize();
    for (size_t i = 1; i < h.node_count(); ++i) {
      EXPECT_EQ(h.node(i).ledger().BlockAtRound(r).Serialize(), expect)
          << "node " << i << " round " << r;
    }
  }
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(CrashRestartTest, CatchupFillsGapsAcrossShardedCertificateStorage) {
  // Every node stores only 1-in-4 certificates (shard_count=4). A fresh
  // restart must assemble the full chain from partial batches served by
  // different peers.
  HarnessConfig cfg = RecoveryConfig(13);
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
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  h.KillNode(6);
  ASSERT_TRUE(h.RunRounds(6, Hours(1)));
  h.RestartNode(6, /*keep_disk=*/false);
  bool ok = h.RunRounds(10, Hours(3));
  if (!ok) {
    DumpCatchupDiagnostics(h);
  }
  ASSERT_TRUE(ok);
  EXPECT_GE(h.node(6).catchups_completed(), 1u);
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  // Sharding discipline also holds for certificates learned via catch-up.
  for (const auto& [round, cert] : h.node(6).certificates()) {
    EXPECT_EQ(round % 4, 6u % 4) << "round " << round;
  }
}

TEST(CrashRestartTest, ChaosTwentyNodesCrashesAndLossStillAgree) {
  // The acceptance scenario: 20 nodes, crashes hitting 4 distinct nodes,
  // 20% uniform message loss. The network reaches consensus, restarted
  // nodes converge to within one round of the tip, zero safety violations,
  // byte-identical chains at equal rounds.
  HarnessConfig cfg = RecoveryConfig(14);
  UseDataDir(&cfg, "chaos_twenty");
  for (size_t i = 0; i < 4; ++i) {
    HarnessConfig::CrashEvent ev;
    ev.node = 3 + 4 * i;
    ev.crash_at = Seconds(30 + 35 * static_cast<double>(i));
    ev.restart_at = Seconds(95 + 35 * static_cast<double>(i));
    ev.keep_disk = (i != 1);
    cfg.crash_schedule.push_back(ev);
  }
  SimHarness h(cfg);
  h.SetNetworkAdversary(std::make_unique<LossyAdversary>(0.2, 77, cfg.n_nodes));
  h.Start();
  ASSERT_TRUE(h.RunRounds(12, Hours(4)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  uint64_t max_len = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    max_len = std::max<uint64_t>(max_len, h.node(i).ledger().chain_length());
  }
  for (size_t i = 0; i < h.node_count(); ++i) {
    EXPECT_GE(h.node(i).ledger().chain_length() + 1, max_len) << "node " << i;
  }
  uint64_t common = UINT64_MAX;
  for (size_t i = 0; i < h.node_count(); ++i) {
    common = std::min<uint64_t>(common, h.node(i).ledger().chain_length());
  }
  for (uint64_t r = 1; r < common; ++r) {
    std::vector<uint8_t> expect = h.node(0).ledger().BlockAtRound(r).Serialize();
    for (size_t i = 1; i < h.node_count(); ++i) {
      ASSERT_EQ(h.node(i).ledger().BlockAtRound(r).Serialize(), expect)
          << "node " << i << " round " << r;
    }
  }
  MetricsSnapshot m = h.AggregateMetrics();
  EXPECT_EQ(m.counters["restart.kills"], 4u);
  EXPECT_EQ(m.counters["restart.restarts"], 4u);
  EXPECT_GE(m.counters["catchup.sessions"], 4u);
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(ChurnAdversaryTest, NetworkChurnTriggersLiveCatchup) {
  // ChurnAdversary cuts a rotating group off at the network layer (no
  // crash): returning nodes observe votes rounds ahead and catch up while
  // still holding their own ledgers.
  HarnessConfig cfg = RecoveryConfig(15);
  SimHarness h(cfg);
  // Groups of 4 (20%), offline 45 s out of every 90 s window.
  h.SetNetworkAdversary(
      std::make_unique<ChurnAdversary>(cfg.n_nodes, 4, Seconds(90), Seconds(45)));
  h.Start();
  bool ok = h.RunRounds(10, Hours(4));
  if (!ok) {
    DumpCatchupDiagnostics(h);
  }
  ASSERT_TRUE(ok);
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(CrashRestartTest, RestartFromDiskReplaysLogThenCatchesUp) {
  // KillNode crashes the disk log (SIGKILL semantics) and RestartNode
  // rebuilds the node by replaying it; here under fsync=every_round.
  HarnessConfig cfg = RecoveryConfig(30);
  cfg.data_dir = ::testing::TempDir() + "algorand_recovery_disk";
  cfg.store_fsync = FsyncPolicy::kEveryRound;
  cfg.store_background_writer = false;  // Deterministic I/O interleaving.
  std::filesystem::remove_all(cfg.data_dir);
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  ASSERT_NE(h.node_store(5), nullptr);
  EXPECT_GE(h.node_store(5)->max_round(), 3u);

  h.KillNode(5);
  EXPECT_EQ(h.node_store(5), nullptr);  // Crashed store parks with the node.
  ASSERT_TRUE(h.RunRounds(6, Hours(1)));

  h.RestartNode(5, /*keep_disk=*/true);
  ASSERT_NE(h.node_store(5), nullptr);
  // The ledger was rebuilt from disk before catch-up ran: every round that
  // was durable at kill time is back, certificate-validated.
  EXPECT_GE(h.node_store(5)->replayed_rounds(), 3u);
  EXPECT_GE(h.node(5).ledger().chain_length(), 4u);

  ASSERT_TRUE(h.RunRounds(10, Hours(1)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  // The store kept following the chain after the restart.
  EXPECT_GE(h.node_store(5)->max_round(), 10u);
  MetricsSnapshot m = h.AggregateMetrics();
  EXPECT_GT(m.counters["store.replay_rounds"], 0u);
  EXPECT_GT(m.counters["store.records_written"], 0u);
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(CrashRestartTest, FreshDiskRestartWipesLogAndRejoins) {
  HarnessConfig cfg = RecoveryConfig(31);
  cfg.data_dir = ::testing::TempDir() + "algorand_recovery_disk_fresh";
  cfg.store_background_writer = false;
  std::filesystem::remove_all(cfg.data_dir);
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  h.KillNode(7);
  ASSERT_TRUE(h.RunRounds(5, Hours(1)));
  // keep_disk=false models losing the disk: the log is wiped and the
  // node rejoins from genesis, re-fetching the chain via catch-up.
  h.RestartNode(7, /*keep_disk=*/false);
  EXPECT_EQ(h.node(7).ledger().chain_length(), 1u);
  ASSERT_TRUE(h.RunRounds(9, Hours(2)));
  EXPECT_GE(h.node(7).catchups_completed(), 1u);
  EXPECT_TRUE(h.ChainsConsistent());
  // Catch-up results streamed back to the fresh log as they were applied.
  EXPECT_GE(h.node_store(7)->max_round(), 9u);
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(CrashRestartTest, DiskChaosScheduleConvergesWithRealCertValidation) {
  // The rolling-churn scenario on disk-backed nodes: staggered crashes with
  // mixed replay/fresh restarts, every restart certificate-validating its
  // replayed log. Background writer on — the nondeterminism is confined to
  // I/O timing, never protocol decisions.
  HarnessConfig cfg = RecoveryConfig(32);
  cfg.data_dir = ::testing::TempDir() + "algorand_recovery_disk_chaos";
  std::filesystem::remove_all(cfg.data_dir);
  for (size_t i = 0; i < 4; ++i) {
    HarnessConfig::CrashEvent ev;
    ev.node = 4 + i;
    ev.crash_at = Seconds(40 + 40 * static_cast<double>(i));
    ev.restart_at = Seconds(100 + 40 * static_cast<double>(i));
    ev.keep_disk = (i % 2 == 0);  // Mix disk replays and fresh rejoins.
    cfg.crash_schedule.push_back(ev);
  }
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(14, Hours(2)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  MetricsSnapshot m = h.AggregateMetrics();
  EXPECT_EQ(m.counters["restart.kills"], 4u);
  EXPECT_EQ(m.counters["restart.restarts"], 4u);
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(RecoveryTest, DiskLogFollowsForkRecoveryAndReplaysAfterRestart) {
  // Partition long enough to force §8.2 fork recovery (ReplaceSuffix), which
  // mirrors to disk as a truncate record + replacement suffix. A node killed
  // and restarted afterwards must replay the post-fork chain.
  HarnessConfig cfg = RecoveryConfig(33);
  cfg.data_dir = ::testing::TempDir() + "algorand_recovery_disk_fork";
  cfg.store_background_writer = false;
  std::filesystem::remove_all(cfg.data_dir);
  SimHarness h(cfg);
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(group_a, 0, Minutes(9)));
  h.Start();
  h.sim().RunUntil(Minutes(40));
  auto safety = h.CheckSafety();
  ASSERT_TRUE(safety.ok) << safety.violation;

  uint64_t tip = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    tip = std::max<uint64_t>(tip, h.node(i).ledger().chain_length());
  }
  h.KillNode(3);
  ASSERT_TRUE(h.RunRounds(tip + 1, Hours(1)));
  h.RestartNode(3, /*keep_disk=*/true);
  EXPECT_GT(h.node_store(3)->replayed_rounds(), 0u);
  ASSERT_TRUE(h.RunRounds(tip + 4, Hours(1)));
  EXPECT_TRUE(h.ChainsConsistent());
  auto safety2 = h.CheckSafety();
  EXPECT_TRUE(safety2.ok) << safety2.violation;
  std::filesystem::remove_all(cfg.data_dir);
}

}  // namespace
}  // namespace algorand
