// Node-level behaviour tests: proposal building, block validation (§8.1),
// relay rate limiting (§8.4), the block-fetch path, and ablation switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/messages.h"
#include "src/core/sim_harness.h"

namespace algorand {
namespace {

HarnessConfig BaseConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 64 * 1024;
  cfg.latency = HarnessConfig::Latency::kUniform;
  return cfg;
}

TEST(NodeTest, ProposedBlocksCarryPendingTransactionsAndPadding) {
  SimHarness h(BaseConfig(31));
  for (int i = 0; i < 5; ++i) {
    h.SubmitPayment(static_cast<size_t>(i), static_cast<size_t>(i + 5), 10, 0);
  }
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  const Block& block = h.node(0).ledger().BlockAtRound(1);
  EXPECT_EQ(block.txns.size(), 5u);
  // Padding fills the block to the configured size.
  EXPECT_EQ(block.padding_bytes + block.txns.size() * Transaction::kWireSize, 64u * 1024);
  // Included transactions leave the pool.
  EXPECT_EQ(h.node(0).pending_txn_count(), 0u);
}

TEST(NodeTest, InvalidTransactionsAreNotProposed) {
  SimHarness h(BaseConfig(32));
  // Overdraft: stake is 1000 per user.
  h.SubmitPayment(1, 2, 50000, 0);
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_TRUE(h.node(0).ledger().BlockAtRound(1).txns.empty());
}

TEST(NodeTest, DoubleVotesAreRelayedAtMostOnce) {
  // Equivocating committee members send two votes per step; the §8.4 relay
  // rule means honest nodes forward at most one vote per (pk, round, step).
  HarnessConfig cfg = BaseConfig(33);
  cfg.n_nodes = 25;
  // 20% malicious stake with committees large enough that the honest margin
  // over the vote threshold stays comfortable (see DESIGN.md on scaling).
  cfg.params = ProtocolParams::ScaledCommittees(0.1);
  cfg.malicious_fraction = 0.20;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(h.ChainsConsistent());
  // Counting dedups per public key, so double votes never double-count: all
  // rounds still complete, mostly final.
  size_t final_rounds = 0, total_rounds = 0;
  for (const RoundRecord& rec : h.node(10).round_records()) {
    if (rec.end_time > 0) {
      ++total_rounds;
      final_rounds += rec.final;
    }
  }
  EXPECT_GE(total_rounds, 2u);
  EXPECT_GE(final_rounds, 1u);
}

// Delivers everything and records, per (sender, round, step, voter), the
// distinct vote messages each node put on the wire.
class VoteRelayObserver : public NetworkAdversary {
 public:
  AdversaryAction OnTransmit(NodeId from, NodeId, const MessagePtr& msg, SimTime) override {
    if (auto vote = std::dynamic_pointer_cast<const VoteMessage>(msg)) {
      sent_[{from, vote->round, vote->step, vote->pk}].insert(vote->DedupId());
      by_voter_[{vote->round, vote->step, vote->pk}].insert(vote->DedupId());
    }
    return AdversaryAction::Deliver();
  }
  std::map<std::tuple<NodeId, uint64_t, uint32_t, PublicKey>, std::set<Hash256>> sent_;
  std::map<std::tuple<uint64_t, uint32_t, PublicKey>, std::set<Hash256>> by_voter_;
};

TEST(NodeTest, VotesRelayOncePerRoundStepAndKeyAndTheTableIsPruned) {
  // Equivocators put two votes per (round, step, pk) on the wire; an honest
  // node forwards at most one of them (§8.4), and its relay table holds only
  // the round it is in: StartRound drops the finished rounds.
  HarnessConfig cfg = BaseConfig(33);  // A seed whose rounds include equivocation.
  cfg.n_nodes = 25;
  cfg.params = ProtocolParams::ScaledCommittees(0.1);
  cfg.malicious_fraction = 0.20;
  SimHarness h(cfg);
  auto observer = std::make_unique<VoteRelayObserver>();
  VoteRelayObserver* seen = observer.get();
  h.SetNetworkAdversary(std::move(observer));
  h.Start();
  for (uint64_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(h.RunRounds(round, Hours(round)));
    for (size_t i = h.malicious_count(); i < h.node_count(); ++i) {
      EXPECT_LE(h.node(i).relay_table_rounds(), 1u) << "node " << i << " round " << round;
    }
  }
  size_t equivocations = 0;
  for (const auto& [voter, ids] : seen->by_voter_) {
    equivocations += ids.size() > 1;
  }
  ASSERT_GT(equivocations, 0u);  // The rule was exercised.
  size_t honest_relays = 0;
  for (const auto& [key, ids] : seen->sent_) {
    if (!h.is_malicious(std::get<0>(key))) {
      ++honest_relays;
      EXPECT_EQ(ids.size(), 1u) << "node " << std::get<0>(key) << " round " << std::get<1>(key)
                                << " step " << std::get<2>(key);
    }
  }
  EXPECT_GT(honest_relays, 0u);
}

// An adversary that drops every full block destined for one victim, while
// letting votes and priority messages through: the victim must agree on the
// block hash via BA* and then fetch the block from peers (BlockOfHash).
class BlockStarver : public NetworkAdversary {
 public:
  explicit BlockStarver(NodeId victim) : victim_(victim) {}
  AdversaryAction OnTransmit(NodeId, NodeId to, const MessagePtr& msg, SimTime) override {
    if (to == victim_ && KindOf(*msg) == MessageKind::kBlock) {
      if (++dropped_ > 0 && allow_after_ > 0 && dropped_ > allow_after_) {
        return AdversaryAction::Deliver();
      }
      return AdversaryAction::Drop();
    }
    return AdversaryAction::Deliver();
  }
  void set_allow_after(uint64_t n) { allow_after_ = n; }
  uint64_t dropped() const { return dropped_; }

 private:
  NodeId victim_;
  uint64_t dropped_ = 0;
  uint64_t allow_after_ = 0;
};

TEST(NodeTest, ParkedMachineHoldsNoTallies) {
  // When round r+1 starts, round r's machine is parked and its tallies are
  // freed; the new machine has counted nothing yet, so the node holds no
  // tally bytes at that instant. Within a round they are non-zero, and the
  // "ba.tally_bytes" gauge reads the node's total.
  SimHarness h(BaseConfig(34));
  size_t checked_starts = 0;
  size_t max_at_round_end = 0;
  h.tracer().SetObserver([&](const TraceEvent& ev) {
    const Node& node = h.node(ev.node);
    if (ev.kind == TraceKind::kRoundStart && ev.round >= 2) {
      EXPECT_EQ(node.TallyBytes(), 0u) << "node " << ev.node << " round " << ev.round;
      ++checked_starts;
    } else if (ev.kind == TraceKind::kRoundEnd) {
      max_at_round_end = std::max(max_at_round_end, node.TallyBytes());
    }
  });
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  h.tracer().SetObserver(nullptr);
  EXPECT_GE(checked_starts, 2 * h.node_count());
  EXPECT_GT(max_at_round_end, 0u);
  for (size_t i = 0; i < h.node_count(); ++i) {
    EXPECT_EQ(h.node_metrics(i).Snapshot().gauges.at("ba.tally_bytes"),
              static_cast<int64_t>(h.node(i).TallyBytes()));
  }
}

TEST(NodeTest, FetchesAgreedBlockItNeverReceived) {
  HarnessConfig cfg = BaseConfig(34);
  SimHarness h(cfg);
  auto starver = std::make_unique<BlockStarver>(3);
  BlockStarver* starver_ptr = starver.get();
  // Block proposals are dropped; after BA* agrees, the victim requests the
  // block, and the point-to-point reply (also type "block") must get
  // through: allow deliveries after the proposal wave (first few drops).
  starver_ptr->set_allow_after(8);
  h.SetNetworkAdversary(std::move(starver));
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_GT(starver_ptr->dropped(), 0u);
  // The victim ends with the same chain as everyone else.
  EXPECT_EQ(h.node(3).ledger().tip_hash(), h.node(0).ledger().tip_hash());
  EXPECT_FALSE(h.node(3).ledger().BlockAtRound(1).is_empty);
}

// Proposes in round 1 like an honest node, then, once its peers are in
// agreement on that block, gossips a second block for the same round.
class LateEquivocatorNode : public Node {
 public:
  using Node::Node;
  const Hash256& first_block() const { return first_block_; }

 protected:
  void MaybePropose() override {
    if (current_round() != 1) {
      Node::MaybePropose();
      return;
    }
    SortitionResult sort =
        RunSortition(*crypto().vrf, key(), MakeContext().seed, params().tau_proposer,
                     Role::kProposer, current_round(), 0, SelfWeight(), ledger().total_weight());
    if (sort.votes == 0) {
      return;
    }
    auto a = std::make_shared<BlockMessage>();
    a->block = BuildBlockProposal();
    a->block.proposer_vrf = sort.hash;
    a->block.proposer_proof = sort.proof;
    auto b = std::make_shared<BlockMessage>();
    b->block = a->block;
    b->block.timestamp += 1;
    first_block_ = a->block.Hash();
    GossipMessage(std::make_shared<PriorityMessage>(MakePriorityMessage(
        key(), current_round(), sort.hash, sort.proof, sort.votes, *crypto().signer)));
    GossipMessage(a);
    // Peers start agreement when their priority window closes.
    ScheduleAfter(params().lambda_priority + params().lambda_stepvar + Millis(1),
                  [this, b] { GossipMessage(b); });
  }

 private:
  Hash256 first_block_;
};

class NonProposingNode : public Node {
 public:
  using Node::Node;

 protected:
  void MaybePropose() override {}
};

TEST(NodeTest, LateEquivocationKeepsTheAgreedBlockFetchable) {
  // Node 0 is round 1's only proposer (a large tau_proposer makes its
  // selection certain). Its second block reaches every node during
  // agreement: each bans node 0 from candidacy, but BA* still agrees on the
  // first block, which every node must still hold and append.
  HarnessConfig cfg = BaseConfig(35);
  cfg.params.tau_proposer = 2000;
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    if (id == 0) {
      return std::make_unique<LateEquivocatorNode>(id, sim, gossip, key, genesis, params, crypto);
    }
    return std::make_unique<NonProposingNode>(id, sim, gossip, key, genesis, params, crypto);
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  const auto& equivocator = dynamic_cast<const LateEquivocatorNode&>(h.node(0));
  ASSERT_NE(equivocator.first_block(), Hash256{});
  for (size_t i = 0; i < h.node_count(); ++i) {
    EXPECT_EQ(h.node(i).ledger().BlockAtRound(1).Hash(), equivocator.first_block())
        << "node " << i;
  }
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(NodeTest, PriorityGossipDisabledStillConverges) {
  HarnessConfig cfg = BaseConfig(35);
  cfg.params.priority_gossip_enabled = false;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(h.ChainsConsistent());
  // No priority messages were sent at all.
  EXPECT_EQ(h.AggregateMetrics().counters.count("net.msgs.priority"), 0u);
}

TEST(NodeTest, FinalStepDisabledYieldsTentativeOnly) {
  HarnessConfig cfg = BaseConfig(36);
  cfg.params.final_step_enabled = false;
  SimHarness h(cfg);
  Transaction tx = h.SubmitPayment(1, 2, 10, 0);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  for (const RoundRecord& rec : h.node(0).round_records()) {
    if (rec.end_time > 0) {
      EXPECT_FALSE(rec.final);
    }
  }
  // Never confirmed without finality.
  EXPECT_FALSE(h.node(0).ledger().IsConfirmed(tx.Id()));
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(NodeTest, GossipedTransactionReachesEveryPoolAndConfirms) {
  SimHarness h(BaseConfig(40));
  h.Start();
  // Submit through ONE node only; gossip must carry it to whoever proposes.
  Transaction tx = MakeTransaction(h.genesis().keys[4], h.genesis().keys[6].public_key, 123, 0,
                                   h.signer());
  h.node(4).GossipTransaction(tx);
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  EXPECT_TRUE(h.node(0).ledger().IsConfirmed(tx.Id()));
  EXPECT_EQ(h.node(11).ledger().accounts().BalanceOf(h.genesis().keys[6].public_key), 1123u);
}

TEST(NodeTest, InvalidGossipedTransactionsAreNotRelayed) {
  SimHarness h(BaseConfig(41));
  h.Start();
  // Break the signature after signing.
  const Transaction bad = Transaction::Edited(
      MakeTransaction(h.genesis().keys[4], h.genesis().keys[6].public_key, 1, 0, h.signer()),
      [](auto& f) { f.amount = 999; });
  h.node(4).GossipTransaction(bad);
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_FALSE(h.node(0).ledger().IsConfirmed(bad.Id()));
  // Balance unchanged anywhere.
  EXPECT_EQ(h.node(8).ledger().accounts().BalanceOf(h.genesis().keys[6].public_key), 1000u);
}

TEST(NodeTest, RoundRecordsCaptureTimingBreakdown) {
  SimHarness h(BaseConfig(37));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  for (size_t i = 0; i < 3; ++i) {
    for (const RoundRecord& rec : h.node(i).round_records()) {
      if (rec.end_time == 0) {
        continue;
      }
      EXPECT_GE(rec.proposal_done_at, rec.start_time);
      EXPECT_GE(rec.reduction_done_at, rec.proposal_done_at);
      EXPECT_GE(rec.binary_done_at, rec.reduction_done_at);
      EXPECT_GE(rec.end_time, rec.binary_done_at);
      // The winning block was seen before agreement started.
      if (!rec.empty && rec.candidate_block_at > 0) {
        EXPECT_LE(rec.candidate_block_at, rec.proposal_done_at);
      }
    }
  }
}

TEST(NodeTest, CertificatesCoverEveryCompletedRound) {
  SimHarness h(BaseConfig(38));
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  const Node& node = h.node(0);
  for (uint64_t r = 1; r <= 3; ++r) {
    ASSERT_TRUE(node.certificates().count(r)) << "round " << r;
    const Certificate& cert = node.certificates().at(r);
    EXPECT_EQ(cert.block_hash, node.ledger().BlockAtRound(r).Hash());
    // The certificate's weighted votes exceed the step threshold.
    double total = 0;
    for (const auto& v : cert.votes) {
      (void)v;
      total += 1;  // At least one sub-vote each; exact weight checked by ValidateCertificate.
    }
    EXPECT_GT(total, 0);
  }
}

TEST(NodeTest, EmptyVotersAloneProduceEmptyButConsistentRounds) {
  // All nodes vote empty: rounds commit empty blocks yet stay consistent.
  HarnessConfig cfg = BaseConfig(39);
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    return std::make_unique<EmptyVoterNode>(id, sim, gossip, key, genesis, params, crypto);
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_TRUE(h.node(5).ledger().BlockAtRound(1).is_empty);
  EXPECT_TRUE(h.ChainsConsistent());
}

// A node whose block proposal and gossip endpoint a test drives by hand.
class ProbeNode : public Node {
 public:
  using Node::Node;

  // This round's block, built as MaybePropose builds it; null if proposer
  // sortition does not select this node.
  std::shared_ptr<BlockMessage> Proposal() {
    SortitionResult sort =
        RunSortition(*crypto().vrf, key(), MakeContext().seed, params().tau_proposer,
                     Role::kProposer, current_round(), 0, SelfWeight(), ledger().total_weight());
    if (sort.votes == 0) {
      return nullptr;
    }
    auto msg = std::make_shared<BlockMessage>();
    msg->block = BuildBlockProposal();
    msg->block.proposer_vrf = sort.hash;
    msg->block.proposer_proof = sort.proof;
    return msg;
  }

  // This round's priority message, as MaybePropose gossips it; null if
  // proposer sortition does not select this node.
  std::shared_ptr<PriorityMessage> PriorityProposal() {
    SortitionResult sort =
        RunSortition(*crypto().vrf, key(), MakeContext().seed, params().tau_proposer,
                     Role::kProposer, current_round(), 0, SelfWeight(), ledger().total_weight());
    if (sort.votes == 0) {
      return nullptr;
    }
    return std::make_shared<PriorityMessage>(MakePriorityMessage(
        key(), current_round(), sort.hash, sort.proof, sort.votes, *crypto().signer));
  }

  // Hands `msg` to this node's gossip agent as if `from` had sent it: one
  // receive pass checks it, decides its relay and handles it.
  void Receive(NodeId from, const MessagePtr& msg) { gossip()->OnReceive(from, msg); }
  // Gossips `msg` as its originator: its own receive pass ignores the verdict.
  void Originate(const MessagePtr& msg) { GossipMessage(msg); }
};

// Logs every message it verifies, so a test can count how often one node
// checked one payment's signature.
class CountingSigner : public SignerBackend {
 public:
  Signature Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const override {
    return inner->Sign(key, message);
  }
  bool Verify(const PublicKey& pk, std::span<const uint8_t> message,
              const Signature& sig) const override {
    // A payment's signed body followed by its signature is its wire image.
    verified.emplace_back(message.begin(), message.end());
    verified.back().insert(verified.back().end(), sig.data(), sig.data() + sig.size());
    return inner->Verify(pk, message, sig);
  }
  const char* name() const override { return "counting"; }

  size_t Checks(const Transaction& tx) const {
    return static_cast<size_t>(std::count(verified.begin(), verified.end(), tx.Serialize()));
  }
  size_t Checks(const PriorityMessage& msg) const {
    return static_cast<size_t>(std::count(verified.begin(), verified.end(), Image(msg)));
  }
  // A priority's signed body followed by its signature.
  static std::vector<uint8_t> Image(const PriorityMessage& msg) {
    std::vector<uint8_t> image = msg.SignedBody();
    image.insert(image.end(), msg.signature.data(), msg.signature.data() + msg.signature.size());
    return image;
  }

  const SignerBackend* inner = nullptr;
  mutable std::vector<std::vector<uint8_t>> verified;
};

// Every node is a ProbeNode. Node kCounted verifies through `signer` and has
// no verification cache, so each signature check it makes is logged.
struct ProbeNet {
  static constexpr NodeId kCounted = 1;

  explicit ProbeNet(uint64_t seed) {
    HarnessConfig cfg = BaseConfig(seed);
    cfg.verify_workers = 0;
    cfg.node_factory = [this](NodeId id, Simulation* sim, GossipAgent* gossip,
                              const Ed25519KeyPair& key, const GenesisConfig& genesis,
                              const ProtocolParams& params, CryptoSuite crypto,
                              AdversaryCoordinator*) -> std::unique_ptr<Node> {
      if (id == kCounted) {
        signer.inner = crypto.signer;
        crypto.signer = &signer;
        crypto.cache = nullptr;
      }
      return std::make_unique<ProbeNode>(id, sim, gossip, key, genesis, params, crypto);
    };
    h = std::make_unique<SimHarness>(cfg);
  }

  ProbeNode& node(size_t i) { return static_cast<ProbeNode&>(h->node(i)); }

  // This round's proposals of every selected node but kCounted.
  std::vector<std::pair<NodeId, std::shared_ptr<BlockMessage>>> Proposals() {
    std::vector<std::pair<NodeId, std::shared_ptr<BlockMessage>>> out;
    for (NodeId i = 0; i < h->node_count(); ++i) {
      if (i == kCounted) {
        continue;
      }
      if (auto msg = node(i).Proposal()) {
        out.emplace_back(i, msg);
      }
    }
    return out;
  }

  // A copy of `msg`'s block in a new message, with `edit` applied.
  template <typename Edit>
  static std::shared_ptr<BlockMessage> Variant(const BlockMessage& msg, Edit edit) {
    auto out = std::make_shared<BlockMessage>();
    out->block = msg.block;
    edit(out->block);
    return out;
  }

  // A valid payment from genesis user `from` that no mempool holds.
  Transaction FreshPayment(size_t from) const {
    return MakeTransaction(h->genesis().keys[from], h->genesis().keys[0].public_key, 10, 0,
                           h->signer());
  }

  uint64_t Counter(size_t i, const char* name) { return h->node_metrics(i).GetCounter(name).Value(); }
  uint64_t Validated(size_t i) { return Counter(i, "node.blocks.validated"); }

  CountingSigner signer;
  std::unique_ptr<SimHarness> h;
};

std::vector<Transaction> SubmitPayments(SimHarness* h, size_t count) {
  std::vector<Transaction> paid;
  for (size_t i = 0; i < count; ++i) {
    paid.push_back(h->SubmitPayment(2 + i, 10 + i, 10, 0));
  }
  return paid;
}

TEST(BlockValidationTest, ResidentPaymentsAreAcceptedWithoutSignatureLookups) {
  ProbeNet net(51);
  const std::vector<Transaction> paid = SubmitPayments(net.h.get(), 5);
  net.h->Start();
  const auto proposals = net.Proposals();
  ASSERT_FALSE(proposals.empty());
  const auto& [proposer, msg] = proposals.front();
  ASSERT_EQ(msg->block.txns.size(), paid.size());
  for (const Transaction& tx : paid) {
    EXPECT_EQ(net.signer.Checks(tx), 1u);  // Mempool admission.
  }

  const uint64_t before = net.Validated(ProbeNet::kCounted);
  net.node(ProbeNet::kCounted).Receive(proposer, msg);
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), before + 1);
  for (const Transaction& tx : paid) {
    EXPECT_EQ(net.signer.Checks(tx), 1u);  // Not checked again.
  }

  // A node on the shared cache accepts it without looking a payment up (a
  // lookup would re-create the cleared entry).
  const NodeId other = proposer == 0 ? 2 : 0;
  net.h->cache().Clear();
  const uint64_t other_before = net.Validated(other);
  net.node(other).Receive(proposer, msg);
  EXPECT_EQ(net.Validated(other), other_before + 1);
  for (const Transaction& tx : paid) {
    EXPECT_FALSE(net.h->cache().Contains(tx.Id()));
  }
}

TEST(BlockValidationTest, PaymentDifferingFromResidentOneIsVerifiedAndRejected) {
  ProbeNet net(52);
  const std::vector<Transaction> paid = SubmitPayments(net.h.get(), 3);
  net.h->Start();
  const auto proposals = net.Proposals();
  ASSERT_FALSE(proposals.empty());
  const auto& [proposer, msg] = proposals.front();
  ASSERT_EQ(msg->block.txns.size(), paid.size());

  // Same (sender, nonce) as a resident payment, different bytes.
  const Transaction resident = msg->block.txns[1];
  const std::vector<Transaction> forged = {
      Transaction::Edited(resident, [](auto& f) { f.amount += 1; }),
      Transaction::Edited(resident, [](auto& f) { f.signature[0] ^= 1; }),
  };
  ProbeNode& counted = net.node(ProbeNet::kCounted);
  for (const Transaction& tx : forged) {
    const uint64_t rejected = net.Counter(ProbeNet::kCounted, "gossip.rejected");
    counted.Receive(proposer, ProbeNet::Variant(*msg, [&](Block& b) { b.txns[1] = tx; }));
    EXPECT_EQ(net.Counter(ProbeNet::kCounted, "gossip.rejected"), rejected + 1);
    EXPECT_EQ(net.signer.Checks(tx), 1u);
  }
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), 0u);
  // The untouched block is still accepted.
  counted.Receive(proposer, msg);
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), 1u);
}

TEST(BlockValidationTest, GossipedBlockIsValidatedOncePerNode) {
  ProbeNet net(53);
  net.h->Start();
  const auto proposals = net.Proposals();
  ASSERT_GE(proposals.size(), 2u);
  ProbeNode& counted = net.node(ProbeNet::kCounted);

  // The receive pass checks the unknown payment once, for relay and delivery.
  const Transaction fresh = net.FreshPayment(15);
  auto add_fresh = [&](Block& b) { b.txns.push_back(fresh); };
  counted.Receive(proposals[0].first, ProbeNet::Variant(*proposals[0].second, add_fresh));
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), 1u);
  EXPECT_EQ(net.signer.Checks(fresh), 1u);

  // A different message carrying the same payment is validated again.
  counted.Receive(proposals[1].first, ProbeNet::Variant(*proposals[1].second, add_fresh));
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), 2u);
  EXPECT_EQ(net.signer.Checks(fresh), 2u);

  // A block this node originates is validated in full too, not waved
  // through on an earlier message's verdict.
  const Transaction forged = Transaction::Edited(fresh, [](auto& f) { f.amount += 1; });
  counted.Originate(ProbeNet::Variant(*proposals[0].second,
                                      [&](Block& b) { b.txns.push_back(forged); }));
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), 2u);
  EXPECT_EQ(net.signer.Checks(forged), 1u);

  // After the tip moves, a new round's block is validated in full again.
  ASSERT_TRUE(net.h->RunRounds(1, Hours(1)));
  ASSERT_EQ(counted.current_round(), 2u);
  const Transaction later = net.FreshPayment(16);
  const uint64_t validated = net.Validated(ProbeNet::kCounted);
  bool delivered = false;
  for (const auto& [id, msg] : net.Proposals()) {
    if (net.node(id).current_round() != 2) {
      continue;
    }
    counted.Receive(id, ProbeNet::Variant(*msg, [&](Block& b) { b.txns.push_back(later); }));
    delivered = true;
    break;
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(net.Validated(ProbeNet::kCounted), validated + 1);
  EXPECT_EQ(net.signer.Checks(later), 1u);
}

TEST(PriorityValidationTest, RelayedPriorityIsSignatureCheckedOncePerNode) {
  ProbeNet net(54);
  net.h->Start();
  ASSERT_TRUE(net.h->RunRounds(2, Hours(1)));
  // Every signature check of a priority message the counted node made, by
  // image: no other message this run signs has a priority image's length
  // (no payments, no recovery).
  const size_t image_size = CountingSigner::Image(PriorityMessage{}).size();
  std::map<std::vector<uint8_t>, size_t> checks;
  for (const std::vector<uint8_t>& image : net.signer.verified) {
    if (image.size() == image_size) {
      ++checks[image];
    }
  }
  // A first-seen priority is checked once in its receive pass, the node's
  // own priority included.
  ASSERT_GT(checks.size(), 2u);
  for (const auto& [image, count] : checks) {
    EXPECT_EQ(count, 1u);
  }
}

TEST(PriorityValidationTest, PriorityWithoutHandOffIsCheckedAndForgeryRejected) {
  ProbeNet net(55);
  net.h->Start();
  ProbeNode& counted = net.node(ProbeNet::kCounted);
  ASSERT_EQ(counted.PriorityProposal(), nullptr);  // No own priority to compete with.
  std::shared_ptr<PriorityMessage> genuine;
  NodeId proposer = 0;
  for (NodeId i = 0; i < net.h->node_count() && genuine == nullptr; ++i) {
    if (i != ProbeNet::kCounted) {
      genuine = net.node(i).PriorityProposal();
      proposer = i;
    }
  }
  ASSERT_NE(genuine, nullptr);

  // A forged copy this node originates is checked and rejected, not waved
  // through on an earlier message's verdict.
  auto forged = std::make_shared<PriorityMessage>(*genuine);
  forged->signature[0] ^= 1;
  counted.Originate(forged);
  EXPECT_EQ(net.signer.Checks(*forged), 1u);

  // Had the forgery become the best priority, the genuine message (same
  // priority) would be delivered without relay. It is relayed, and checked
  // once, in its receive pass.
  const uint64_t relayed = net.Counter(ProbeNet::kCounted, "gossip.relayed");
  counted.Receive(proposer, genuine);
  EXPECT_EQ(net.Counter(ProbeNet::kCounted, "gossip.relayed"), relayed + 1);
  EXPECT_EQ(net.signer.Checks(*genuine), 1u);
}

}  // namespace
}  // namespace algorand
