// End-to-end integration tests: whole Algorand deployments inside the
// discrete-event simulator — happy path, payments, adversaries, partitions.
#include <gtest/gtest.h>

#include "src/core/sim_harness.h"

namespace algorand {
namespace {

HarnessConfig SmallConfig(uint64_t seed = 1) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);  // tau_step 40, tau_final 200.
  cfg.params.block_size_bytes = 64 * 1024;              // Keep gossip cheap in tests.
  cfg.latency = HarnessConfig::Latency::kUniform;
  return cfg;
}

TEST(ConsensusIntegrationTest, ReachesFinalConsensusEveryRound) {
  SimHarness h(SmallConfig());
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(2)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
  for (size_t i = 0; i < h.node_count(); ++i) {
    const auto& recs = h.node(i).round_records();
    ASSERT_GE(recs.size(), 3u);
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_TRUE(recs[r].final) << "node " << i << " round " << r + 1;
      EXPECT_FALSE(recs[r].empty) << "node " << i << " round " << r + 1;
      EXPECT_FALSE(recs[r].hung);
    }
  }
}

TEST(ConsensusIntegrationTest, RoundLatencyIsUnderAMinute) {
  SimHarness h(SmallConfig(2));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  for (uint64_t r = 1; r <= 2; ++r) {
    auto latencies = h.RoundLatencies(r);
    ASSERT_FALSE(latencies.empty());
    for (double s : latencies) {
      EXPECT_LT(s, 60.0);
      EXPECT_GT(s, 5.0);  // The priority window alone is 10 s.
    }
  }
}

TEST(ConsensusIntegrationTest, PaymentsConfirmOnAllNodes) {
  SimHarness h(SmallConfig(3));
  Transaction tx = h.SubmitPayment(2, 3, 250, 0);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  for (size_t i = 0; i < h.node_count(); ++i) {
    const Ledger& ledger = h.node(i).ledger();
    EXPECT_TRUE(ledger.IsConfirmed(tx.Id())) << "node " << i;
    EXPECT_EQ(ledger.accounts().BalanceOf(h.genesis().keys[2].public_key), 750u);
    EXPECT_EQ(ledger.accounts().BalanceOf(h.genesis().keys[3].public_key), 1250u);
  }
}

TEST(ConsensusIntegrationTest, DoubleSpendOnlyOneConfirms) {
  SimHarness h(SmallConfig(4));
  // Node 2 signs two conflicting payments with the same nonce.
  Transaction tx_a = h.SubmitPayment(2, 3, 900, 0);
  Transaction tx_b = h.SubmitPayment(2, 4, 900, 0);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  for (size_t i = 0; i < h.node_count(); ++i) {
    const Ledger& ledger = h.node(i).ledger();
    bool a = ledger.IsConfirmed(tx_a.Id());
    bool b = ledger.IsConfirmed(tx_b.Id());
    EXPECT_NE(a, b) << "node " << i << ": exactly one of the double-spends confirms";
    // Every node agrees on which one.
    EXPECT_EQ(a, h.node(0).ledger().IsConfirmed(tx_a.Id()));
  }
}

TEST(ConsensusIntegrationTest, CertificatesValidateForOutsiders) {
  SimHarness h(SmallConfig(5));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  // Validate node 0's certificate for round 1 the way a catching-up client
  // would: from the (publicly known) context of round 1.
  const Node& node = h.node(0);
  ASSERT_TRUE(node.certificates().count(1));
  const Certificate& cert = node.certificates().at(1);
  EXPECT_EQ(cert.block_hash, node.ledger().BlockAtRound(1).Hash());

  RoundContext ctx;
  ctx.round = 1;
  ctx.seed = node.ledger().SortitionSeed(1, node.params().seed_refresh_interval);
  ctx.prev_hash = node.ledger().genesis().Hash();
  ctx.total_weight = h.genesis().config.accounts->account_count() * 1000;
  ctx.weight_of = [](const PublicKey&) { return 1000u; };
  EXPECT_TRUE(ValidateCertificate(cert, ctx, node.params(), h.vrf(), h.signer()));

  // Tampered certificates must fail.
  Certificate bad = cert;
  bad.block_hash[0] ^= 1;
  EXPECT_FALSE(ValidateCertificate(bad, ctx, node.params(), h.vrf(), h.signer()));
  bad = cert;
  ASSERT_FALSE(bad.votes.empty());
  bad.votes.pop_back();
  // Removing a vote may or may not drop below threshold; removing all must.
  bad.votes.clear();
  EXPECT_FALSE(ValidateCertificate(bad, ctx, node.params(), h.vrf(), h.signer()));
}

TEST(ConsensusIntegrationTest, SurvivesEquivocatingProposers) {
  HarnessConfig cfg = SmallConfig(6);
  cfg.n_nodes = 25;
  cfg.malicious_fraction = 0.2;  // 5 equivocating nodes, 20% of stake.
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(3)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(ConsensusIntegrationTest, SurvivesSilentCommitteeMembers) {
  HarnessConfig cfg = SmallConfig(7);
  cfg.n_nodes = 25;
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    if (id < 3) {  // 12% of stake is fail-stopped.
      return std::make_unique<SilentNode>(id, sim, gossip, key, genesis, params, crypto);
    }
    return nullptr;
  };
  // Treat silent nodes as malicious for the harness's accounting.
  cfg.malicious_fraction = 3.0 / 25.0;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(3)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
}

TEST(ConsensusIntegrationTest, SurvivesPacketLoss) {
  HarnessConfig cfg = SmallConfig(8);
  SimHarness h(cfg);
  h.SetNetworkAdversary(std::make_unique<LossyAdversary>(0.05, 99, cfg.n_nodes));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(3)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
}

TEST(ConsensusIntegrationTest, PartitionPreservesSafety) {
  HarnessConfig cfg = SmallConfig(9);
  cfg.n_nodes = 20;
  cfg.params.max_steps = 12;  // Keep the stuck period short in sim time.
  SimHarness h(cfg);
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  // Partition during the whole first round's agreement, then heal.
  h.SetNetworkAdversary(
      std::make_unique<PartitionAdversary>(group_a, Seconds(0), Seconds(300)));
  h.Start();
  h.sim().RunUntil(Seconds(900));
  // Safety must hold no matter what liveness did: no conflicting finals.
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
}

TEST(ConsensusIntegrationTest, PartitionThenHealEventuallyProgresses) {
  HarnessConfig cfg = SmallConfig(10);
  cfg.n_nodes = 20;
  SimHarness h(cfg);
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < 10; ++i) {
    group_a.insert(i);
  }
  // Short partition that delays but does not exhaust MaxSteps.
  h.SetNetworkAdversary(
      std::make_unique<PartitionAdversary>(group_a, Seconds(0), Seconds(120)));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(4)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(ConsensusIntegrationTest, TargetedDosOnSomeUsersDoesNotStopOthers) {
  HarnessConfig cfg = SmallConfig(11);
  cfg.n_nodes = 25;
  SimHarness h(cfg);
  // DoS 3 users for the whole run (their stake is effectively offline).
  h.SetNetworkAdversary(std::make_unique<TargetedDosAdversary>(
      std::set<NodeId>{5, 6, 7}, Seconds(0), Hours(10)));
  h.Start();
  // The other nodes keep confirming rounds.
  auto still_running = [&] {
    size_t done = 0;
    for (size_t i = 0; i < h.node_count(); ++i) {
      if (i >= 5 && i <= 7) {
        continue;
      }
      if (h.node(i).ledger().chain_length() > 2) {
        ++done;
      }
    }
    return done;
  };
  h.sim().RunUntil(Minutes(10));
  EXPECT_GE(still_running(), h.node_count() - 3 - 2);
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
}

TEST(ConsensusIntegrationTest, VerificationCacheIsEffective) {
  SimHarness h(SmallConfig(12));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  // Every vote is verified once and reused by ~all other nodes.
  EXPECT_GT(h.cache().hits(), h.cache().misses());
}

TEST(ConsensusIntegrationTest, SimCryptoBackendAgrees) {
  HarnessConfig cfg = SmallConfig(13);
  cfg.use_sim_crypto = true;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(2)));
  auto safety = h.CheckSafety();
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(ConsensusIntegrationTest, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    SimHarness h(SmallConfig(seed));
    h.Start();
    h.RunRounds(2, Hours(2));
    return h.node(0).ledger().tip_hash();
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

TEST(ConsensusIntegrationTest, CityLatencyModelAlsoConverges) {
  HarnessConfig cfg = SmallConfig(14);
  cfg.latency = HarnessConfig::Latency::kCity;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  EXPECT_TRUE(h.CheckSafety().ok);
}

TEST(ConsensusIntegrationTest, EmptyVoterMinorityCannotStarveBlocks) {
  HarnessConfig cfg = SmallConfig(15);
  cfg.n_nodes = 25;
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    if (id < 4) {
      return std::make_unique<EmptyVoterNode>(id, sim, gossip, key, genesis, params, crypto);
    }
    return nullptr;
  };
  cfg.malicious_fraction = 4.0 / 25.0;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(3)));
  // Honest majority still commits non-empty blocks.
  size_t non_empty = 0;
  for (const auto& rec : h.node(10).round_records()) {
    if (rec.end_time > 0 && !rec.empty) {
      ++non_empty;
    }
  }
  EXPECT_GE(non_empty, 1u);
  EXPECT_TRUE(h.CheckSafety().ok);
}

}  // namespace
}  // namespace algorand
