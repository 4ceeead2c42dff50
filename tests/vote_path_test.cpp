// Receive-path pins. Certificates built from the votes a node counted keep
// their exact bytes, the gossip relay counters read the same names and values
// at every snapshot (mid-run, after a kill, after a restart, over the
// simulator and over real sockets), and each first-seen current-round vote,
// priority, block or payment costs one verification-cache probe.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sim_harness.h"
#include "src/crypto/sha256.h"
#include "src/tcp/local_cluster.h"
#include "tests/test_dirs.h"

namespace algorand {
namespace {

// Every byte of a vote is resident memory while any node counts it or any
// certificate names it (certificates share the counted messages).
static_assert(sizeof(VoteMessage) == 416);

// Signs two different votes for every step it is selected in: first one for
// a value nobody proposed, then the honest one. Direct neighbours see both;
// which one a receiver counts depends on arrival order.
class DoubleVoterNode : public Node {
 public:
  using Node::Node;

 protected:
  void EmitVotes(uint32_t step_code, const SortitionResult& sort, const Hash256& value) override {
    Node::EmitVotes(step_code, sort, Sha256::Hash(value.span()));
    Node::EmitVotes(step_code, sort, value);
  }
};

class NonProposingNode : public Node {
 public:
  using Node::Node;

 protected:
  void MaybePropose() override {}
};

// Proposes nothing itself; the test builds this round's proposal messages
// the way MaybePropose would and hands messages to the node's gossip agent as
// if a peer had sent them.
class ProposalProbeNode : public Node {
 public:
  using Node::Node;

  // This round's priority and block messages; null if proposer sortition
  // does not select this node.
  std::pair<std::shared_ptr<PriorityMessage>, std::shared_ptr<BlockMessage>> Proposal() {
    SortitionResult sort =
        RunSortition(*crypto().vrf, key(), MakeContext().seed, params().tau_proposer,
                     Role::kProposer, current_round(), 0, SelfWeight(), ledger().total_weight());
    if (sort.votes == 0) {
      return {};
    }
    auto block = std::make_shared<BlockMessage>();
    block->block = BuildBlockProposal();
    block->block.proposer_vrf = sort.hash;
    block->block.proposer_proof = sort.proof;
    return {std::make_shared<PriorityMessage>(MakePriorityMessage(key(), current_round(), sort.hash,
                                                                  sort.proof, sort.votes,
                                                                  *crypto().signer)),
            block};
  }

  void Receive(NodeId from, const MessagePtr& msg) { gossip()->OnReceive(from, msg); }

 protected:
  void MaybePropose() override {}
};

HarnessConfig SmallConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 8 * 1024;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  return cfg;
}

void Append(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// SHA-256 of every deciding and final certificate every node holds, recorded
// before counted votes were held by pointer.
constexpr char kGoldenCertificateDigest[] =
    "bcba45643557a683e0f8959df2d4d13002a9e16088bad3565a618380db98b896";

TEST(VotePathTest, CertificatesTakeTheFirstCountedVoteByteForByte) {
  constexpr NodeId kDoubleVoter = 3;
  HarnessConfig cfg = SmallConfig(31);
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    if (id == kDoubleVoter) {
      return std::make_unique<DoubleVoterNode>(id, sim, gossip, key, genesis, params, crypto);
    }
    return nullptr;
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(4, Hours(1)));
  ASSERT_TRUE(h.ChainsConsistent());

  const PublicKey& double_voter = h.genesis().keys[kDoubleVoter].public_key;
  std::vector<uint8_t> all;
  size_t certificates = 0;
  size_t with_double_voter = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    for (const auto* certs : {&h.node(i).certificates(), &h.node(i).final_certificates()}) {
      for (const auto& [round, cert] : *certs) {
        Append(&all, i);
        Append(&all, round);
        const std::vector<uint8_t> bytes = cert.Serialize();
        Append(&all, bytes.size());
        all.insert(all.end(), bytes.begin(), bytes.end());
        ++certificates;
        for (const auto& vote : cert.votes) {
          EXPECT_EQ(vote->value, cert.block_hash);
          if (vote->pk == double_voter) {
            ++with_double_voter;
          }
        }
      }
    }
  }
  EXPECT_GT(certificates, 0u);
  EXPECT_GT(with_double_voter, 0u);
  EXPECT_EQ(Sha256::Hash(all).ToHex(), kGoldenCertificateDigest);
}

// Every gossip.* counter and gauge of a snapshot, one "name value" line each.
std::string GossipLines(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with("gossip.")) {
      out += name + " " + std::to_string(value) + "\n";
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.starts_with("gossip.")) {
      out += name + " " + std::to_string(value) + "\n";
    }
  }
  return out;
}

std::string Digest(const std::string& lines) {
  return Sha256::Hash(std::string_view(lines)).ToHex();
}

// Digests of GossipLines at each snapshot below, recorded while the relay
// counters were still atomic registry instruments; the two end digests were
// re-recorded when certificates began to count their vote count and length
// prefixes (catch-up bytes only).
struct GossipGolden {
  const char* label;
  const char* digest;
};
const GossipGolden kGoldenGossipSnapshots[] = {
    {"mid-run", "2e2da88f2af1ccfb18e044c085b317109c6bf1ec2c108c37b98f598f7f100db0"},
    {"mid-run node 7", "7bfeb12e7d1a0f2cc68d4919ddc1c75444017c02c844eb8dd8bff8a09bff2943"},
    {"after kill", "c45b70b04779fd68c69eaf9bca24f5b96174e8d7be74f3e80d6fedb436108cdc"},
    {"after restart", "c45b70b04779fd68c69eaf9bca24f5b96174e8d7be74f3e80d6fedb436108cdc"},
    {"end", "4bd1cea62b758e67a212491d1188c067fbe735e090b9ec9b92bcc7c97b2b43d4"},
    {"end node 7", "cbc18035b90e4045328289678784608e46a5d3eb304f06f78daaa2f0ef0a76ee"},
};

TEST(VotePathTest, GossipCountersReadTheSameAtEverySimSnapshot) {
  HarnessConfig cfg = SmallConfig(29);
  cfg.tx_load_per_round = 4;
  cfg.data_dir = FreshTestDir("algorand_vote_path_counters");
  cfg.store_fsync = FsyncPolicy::kOff;
  cfg.store_background_writer = false;
  SimHarness h(cfg);
  h.Start();
  std::vector<std::string> snapshots;
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  snapshots.push_back(GossipLines(h.AggregateMetrics()));
  snapshots.push_back(GossipLines(h.node_metrics(7).Snapshot()));
  h.KillNode(7);
  ASSERT_TRUE(h.RunRounds(5, Hours(1)));
  snapshots.push_back(GossipLines(h.AggregateMetrics()));
  h.RestartNode(7, /*keep_disk=*/true);
  snapshots.push_back(GossipLines(h.AggregateMetrics()));
  ASSERT_TRUE(h.RunRounds(8, Hours(1)));
  snapshots.push_back(GossipLines(h.AggregateMetrics()));
  snapshots.push_back(GossipLines(h.node_metrics(7).Snapshot()));

  ASSERT_EQ(snapshots.size(), std::size(kGoldenGossipSnapshots));
  for (size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(Digest(snapshots[i]), kGoldenGossipSnapshots[i].digest)
        << kGoldenGossipSnapshots[i].label << ":\n"
        << snapshots[i];
  }
}

// Over real sockets the counts depend on wall-clock timing, so they are
// checked against the transport's own count instead: every decoded frame is
// handed to the node's gossip agent, so per node `tcp.frames_in` equals the
// sum of `gossip.msgs_in.*`, across the agent a restart replaces too.
void ExpectGossipMatchesTransport(LocalCluster* cluster, const char* when,
                                  std::vector<MetricsSnapshot>* previous) {
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    SCOPED_TRACE(std::string(when) + ", node " + std::to_string(i));
    const MetricsSnapshot snap = cluster->node_metrics(i).Snapshot();
    const uint64_t in = snap.CounterSumByPrefix("gossip.msgs_in.");
    EXPECT_GT(in, 0u);
    EXPECT_EQ(in, snap.CounterValue("tcp.frames_in"));
    EXPECT_EQ(in, snap.CounterValue("gossip.delivered") + snap.CounterValue("gossip.dup_dropped") +
                      snap.CounterValue("gossip.rejected"));
    if (previous->size() > i) {
      for (const auto& [name, value] : (*previous)[i].counters) {
        EXPECT_GE(snap.CounterValue(name), value) << name;
      }
      (*previous)[i] = snap;
    } else {
      previous->push_back(snap);
    }
  }
}

TEST(VotePathTest, GossipCountersSurviveAgentReplacementOverTcp) {
  LocalClusterConfig cfg;
  cfg.n_nodes = 5;
  cfg.rng_seed = 81;
  cfg.use_sim_crypto = true;
  cfg.enable_reconnect = true;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 4096;
  cfg.params.lambda_priority = Millis(100);
  cfg.params.lambda_stepvar = Millis(100);
  cfg.params.lambda_step = Millis(400);
  cfg.params.lambda_block = Millis(1500);
  cfg.params.recovery_interval = Minutes(5);
  cfg.params.catchup_timeout = Seconds(2);
  cfg.params.catchup_backoff_base = Millis(200);
  cfg.params.catchup_backoff_max = Seconds(2);

  LocalCluster cluster(cfg);
  cluster.Start();
  std::vector<MetricsSnapshot> previous;
  ASSERT_TRUE(cluster.RunRounds(2, Seconds(30)));
  ExpectGossipMatchesTransport(&cluster, "mid-run", &previous);
  cluster.KillNode(2);
  ExpectGossipMatchesTransport(&cluster, "after kill", &previous);
  ASSERT_TRUE(cluster.RunRounds(3, Seconds(60)));
  cluster.RestartNode(2, /*keep_disk=*/false);
  ExpectGossipMatchesTransport(&cluster, "after restart", &previous);
  ASSERT_TRUE(cluster.RunRounds(5, Seconds(90)));
  ExpectGossipMatchesTransport(&cluster, "end", &previous);
  const MetricsSnapshot all = cluster.AggregateMetrics();
  EXPECT_EQ(all.CounterSumByPrefix("gossip.msgs_in."), all.CounterValue("tcp.frames_in"));
}

// Without proposers every verification-cache probe is a vote check, and each
// counted vote is a first-seen current-round vote (no forks, no catch-up).
TEST(VotePathTest, OneCacheProbePerFirstSeenVote) {
  HarnessConfig cfg = SmallConfig(37);
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    return std::make_unique<NonProposingNode>(id, sim, gossip, key, genesis, params, crypto);
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  const MetricsSnapshot m = h.AggregateMetrics();
  const uint64_t probes =
      m.CounterValue("verify.cache_hits") + m.CounterValue("verify.cache_misses");
  const uint64_t counted = m.CounterValue("node.votes.counted");
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(m.CounterValue("node.rounds.empty"), m.CounterValue("node.rounds.completed"));
  EXPECT_EQ(probes, counted);
  // Checking a gossiped vote twice, to decide its relay and to count it,
  // makes this run's probes 3,895.
  EXPECT_EQ(counted, 2050u);
}

// A first-seen priority, block or payment is checked once in its receive
// pass: one probe each (checking for the relay verdict and again to handle
// the message makes that 2, 3 and 2).
TEST(VotePathTest, OneCacheProbePerFirstSeenProposalAndPayment) {
  HarnessConfig cfg = SmallConfig(37);
  cfg.params.tau_proposer = 2000;  // Every node is selected.
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    return std::make_unique<ProposalProbeNode>(id, sim, gossip, key, genesis, params, crypto);
  };
  SimHarness h(cfg);
  h.Start();
  auto node = [&](NodeId i) -> ProposalProbeNode& {
    return static_cast<ProposalProbeNode&>(h.node(i));
  };
  NodeId proposer = 0;
  std::pair<std::shared_ptr<PriorityMessage>, std::shared_ptr<BlockMessage>> proposal;
  for (; proposer < h.node_count() && proposal.first == nullptr; ++proposer) {
    proposal = node(proposer).Proposal();
  }
  ASSERT_NE(proposal.first, nullptr);
  --proposer;
  const NodeId receiver = proposer == 0 ? 1 : 0;
  auto probes = [&] { return h.cache().hits() + h.cache().misses(); };
  auto delivered = [&] {
    return h.node_metrics(receiver).GetCounter("gossip.delivered").Value();
  };
  auto payment = std::make_shared<TransactionMessage>();
  payment->tx =
      MakeTransaction(h.genesis().keys[2], h.genesis().keys[3].public_key, 10, 0, h.signer());
  const std::vector<std::pair<const char*, MessagePtr>> messages = {
      {"priority", proposal.first}, {"block", proposal.second}, {"payment", payment}};
  for (const auto& [kind, msg] : messages) {
    const uint64_t before = probes();
    const uint64_t delivered_before = delivered();
    node(receiver).Receive(proposer, msg);
    EXPECT_EQ(delivered(), delivered_before + 1) << kind;
    EXPECT_EQ(probes(), before + 1) << kind;
  }
}

}  // namespace
}  // namespace algorand
