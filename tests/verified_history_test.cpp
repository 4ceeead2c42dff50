// The verified-history path (§8.3, DESIGN.md §7 and §13): the one
// certified-round check that live catch-up, disk restore and
// CatchupFromGenesis share (AppendCertifiedRound, MarkCertifiedFinal), the
// one checkpoint check that restore and fast-sync share (VerifyCheckpoint,
// SeedsMatchLinks, VerifyChainLink), and the restore parity they buy: a node
// restarted from disk holds exactly the certificates and consensus kinds it
// held before the kill.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/core/catchup.h"
#include "src/core/fastsync.h"
#include "src/core/sim_harness.h"
#include "tests/certificate_edit.h"
#include "tests/test_dirs.h"

namespace algorand {
namespace {

HarnessConfig HistoryConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 8 * 1024;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  return cfg;
}

// A certified chain as node 0 of a finished run holds it: blocks and
// deciding certificates for rounds 1..n, plus its final certificates.
struct HarnessChain {
  std::unique_ptr<SimHarness> h;
  std::vector<Block> blocks;      // blocks[i] is round i+1.
  std::vector<Certificate> certs;  // certs[i] certifies blocks[i].
  std::map<uint64_t, Certificate> finals;

  const ProtocolParams& params() const { return h->node(0).params(); }
  Ledger FreshLedger() const { return Ledger(h->genesis().config); }
  RoundCheck Append(Ledger* l, size_t i, const Certificate* cert,
                    const Certificate* final_cert = nullptr,
                    const CertifiedRoundRules& rules = {}) const {
    return AppendCertifiedRound(l, params(), h->vrf(), h->signer(), blocks[i], cert, final_cert,
                                rules);
  }
  RoundCheck MarkFinal(Ledger* l, const Certificate& fc) const {
    return MarkCertifiedFinal(l, params(), h->vrf(), h->signer(), fc);
  }
};

HarnessChain RunChain(uint64_t seed, uint64_t rounds) {
  HarnessChain c;
  c.h = std::make_unique<SimHarness>(HistoryConfig(seed));
  c.h->Start();
  EXPECT_TRUE(c.h->RunRounds(rounds, Hours(1)));
  const Node& server = c.h->node(0);
  for (uint64_t r = 1; r <= rounds; ++r) {
    c.blocks.push_back(server.ledger().BlockAtRound(r));
    c.certs.push_back(server.certificates().at(r));
  }
  c.finals = server.final_certificates();
  return c;
}

TEST(CertifiedRoundTest, AppendsCertifiedRoundsAndRejectsForgeries) {
  HarnessChain c = RunChain(1, 3);
  Ledger l = c.FreshLedger();

  // Wrong round: round 2's block on a genesis ledger.
  EXPECT_EQ(c.Append(&l, 1, &c.certs[1]), RoundCheck::kWrongRound);
  // Wrong hash: the certificate no longer covers an edited block.
  Block edited = c.blocks[0];
  edited.timestamp += 1;
  EXPECT_EQ(AppendCertifiedRound(&l, c.params(), c.h->vrf(), c.h->signer(), edited, &c.certs[0],
                                 nullptr, {}),
            RoundCheck::kCertMismatch);
  // Another round's certificate.
  EXPECT_EQ(c.Append(&l, 0, &c.certs[1]), RoundCheck::kCertMismatch);
  // A forged vote: one signature byte flipped.
  Certificate forged = c.certs[0];
  ForgeVote(&forged, 0);
  EXPECT_EQ(c.Append(&l, 0, &forged), RoundCheck::kInvalidCert);
  // Below quorum.
  Certificate weak = c.certs[0];
  weak.votes.resize(1);
  EXPECT_EQ(c.Append(&l, 0, &weak), RoundCheck::kInvalidCert);
  EXPECT_EQ(l.chain_length(), 1u);  // Nothing above was appended.

  for (size_t i = 0; i < c.blocks.size(); ++i) {
    ASSERT_EQ(c.Append(&l, i, &c.certs[i]), RoundCheck::kOk) << "round " << i + 1;
  }
  EXPECT_EQ(l.tip_hash(), c.blocks.back().Hash());
}

TEST(CertifiedRoundTest, UncertifiedRoundNeedsTheCallersLeave) {
  HarnessChain c = RunChain(2, 2);
  Ledger l = c.FreshLedger();
  // Catch-up and CatchupFromGenesis require a certificate...
  EXPECT_EQ(c.Append(&l, 0, nullptr), RoundCheck::kUncertified);
  EXPECT_EQ(l.chain_length(), 1u);
  // ...restore accepts a fork-recovery suffix on chain structure alone, with
  // the logged kind.
  const CertifiedRoundRules restore{.kind = ConsensusKind::kTentative, .allow_uncertified = true};
  ASSERT_EQ(c.Append(&l, 0, nullptr, nullptr, restore), RoundCheck::kOk);
  EXPECT_EQ(l.ConsensusAtRound(1), ConsensusKind::kTentative);
  // Chain structure still binds: round 2 cannot be skipped.
  Ledger other = c.FreshLedger();
  EXPECT_EQ(c.Append(&other, 1, nullptr, nullptr, restore), RoundCheck::kWrongRound);
}

TEST(CertifiedRoundTest, KindRulesOfTheThreeCallers) {
  HarnessChain c = RunChain(3, 3);
  ASSERT_FALSE(c.finals.empty());
  const auto& [f, fc] = *c.finals.begin();
  const size_t i = f - 1;
  // The final certificate stands in as the deciding one to tell the rules
  // apart: catch-up derives the kind from its step...
  Ledger catchup = c.FreshLedger();
  for (size_t k = 0; k < i; ++k) {
    ASSERT_EQ(c.Append(&catchup, k, &c.certs[k]), RoundCheck::kOk);
    EXPECT_EQ(catchup.ConsensusAtRound(k + 1), ConsensusKind::kTentative);
  }
  ASSERT_EQ(c.Append(&catchup, i, &fc), RoundCheck::kOk);
  for (uint64_t r = 1; r <= f; ++r) {
    EXPECT_EQ(catchup.ConsensusAtRound(r), ConsensusKind::kFinal) << "round " << r;
  }
  // ...CatchupFromGenesis appends tentative whatever the step...
  Ledger genesis_replay = c.FreshLedger();
  const CertifiedRoundRules tentative{.kind = ConsensusKind::kTentative};
  for (size_t k = 0; k < i; ++k) {
    ASSERT_EQ(c.Append(&genesis_replay, k, &c.certs[k], nullptr, tentative), RoundCheck::kOk);
  }
  ASSERT_EQ(c.Append(&genesis_replay, i, &fc, nullptr, tentative), RoundCheck::kOk);
  EXPECT_EQ(genesis_replay.ConsensusAtRound(f), ConsensusKind::kTentative);
  // ...and restore keeps the logged kind, upgraded by a logged final
  // certificate, which must be a final-step one for this round.
  Ledger restore = c.FreshLedger();
  const CertifiedRoundRules logged{.kind = ConsensusKind::kTentative, .allow_uncertified = true};
  for (size_t k = 0; k < i; ++k) {
    ASSERT_EQ(c.Append(&restore, k, &c.certs[k], nullptr, logged), RoundCheck::kOk);
  }
  EXPECT_EQ(c.Append(&restore, i, &c.certs[i], &c.certs[i], logged), RoundCheck::kCertMismatch);
  ASSERT_EQ(c.Append(&restore, i, &c.certs[i], &fc, logged), RoundCheck::kOk);
  for (uint64_t r = 1; r <= f; ++r) {
    EXPECT_EQ(restore.ConsensusAtRound(r), ConsensusKind::kFinal) << "round " << r;
  }
}

TEST(CertifiedRoundTest, PastFinalCertificateMarksThePrefixAndBeyondTipIsIgnored) {
  HarnessChain c = RunChain(4, 4);
  ASSERT_FALSE(c.finals.empty());
  const CertifiedRoundRules tentative{.kind = ConsensusKind::kTentative};
  // The highest final round below the last one, so a tentative round stays
  // above it.
  auto it = c.finals.lower_bound(c.blocks.size());
  ASSERT_NE(it, c.finals.begin());
  const Certificate& fc = std::prev(it)->second;

  Ledger short_chain = c.FreshLedger();
  for (size_t k = 0; k + 1 < fc.round; ++k) {
    ASSERT_EQ(c.Append(&short_chain, k, &c.certs[k], nullptr, tentative), RoundCheck::kOk);
  }
  // Beyond the tip: ignored, nothing changes.
  EXPECT_EQ(c.MarkFinal(&short_chain, fc), RoundCheck::kOutsideChain);
  for (uint64_t r = 1; r < short_chain.chain_length(); ++r) {
    EXPECT_EQ(short_chain.ConsensusAtRound(r), ConsensusKind::kTentative);
  }

  Ledger l = c.FreshLedger();
  for (size_t k = 0; k < c.blocks.size(); ++k) {
    ASSERT_EQ(c.Append(&l, k, &c.certs[k], nullptr, tentative), RoundCheck::kOk);
  }
  // A deciding certificate is no final certificate.
  EXPECT_EQ(c.MarkFinal(&l, c.certs[fc.round - 1]), RoundCheck::kCertMismatch);
  Certificate forged = fc;
  ForgeVote(&forged, 0);
  EXPECT_EQ(c.MarkFinal(&l, forged), RoundCheck::kInvalidCert);
  ASSERT_EQ(c.MarkFinal(&l, fc), RoundCheck::kOk);
  for (uint64_t r = 0; r < l.chain_length(); ++r) {
    EXPECT_EQ(l.ConsensusAtRound(r),
              r <= fc.round ? ConsensusKind::kFinal : ConsensusKind::kTentative)
        << "round " << r;
  }
}

TEST(CertifiedRoundTest, ContextAtMatchesTheLiveNodesContext) {
  HarnessChain c = RunChain(5, 3);
  const Ledger& l = c.h->node(0).ledger();
  const uint64_t next = l.next_round();
  RoundContext live = ContextAt(l, c.params(), next);
  EXPECT_EQ(live.prev_hash, l.tip_hash());
  for (uint64_t r = 1; r < next; ++r) {
    RoundContext past = ContextAt(l, c.params(), r);
    EXPECT_EQ(past.round, r);
    EXPECT_EQ(past.prev_hash, l.BlockAtRound(r - 1).Hash());
    EXPECT_EQ(past.seed, l.SortitionSeed(r, c.params().seed_refresh_interval));
  }
}

// --- Checkpoints ---

HarnessConfig CheckpointConfig(uint64_t seed, const std::string& dir) {
  HarnessConfig cfg = HistoryConfig(seed);
  cfg.params.checkpoint_interval = 4;
  cfg.data_dir = dir;
  cfg.store_fsync = FsyncPolicy::kOff;
  cfg.store_background_writer = false;
  return cfg;
}

// Node 1's newest checkpoint with the verified links below it.
struct CheckpointFixture {
  std::unique_ptr<SimHarness> h;
  uint64_t round = 0;
  std::vector<uint8_t> payload;
  std::vector<ChainLink> links;  // links[j] is round j+1.
  Hash256 genesis_hash;

  std::optional<VerifiedCheckpoint> Verify(const std::vector<uint8_t>& bytes,
                                           const CheckpointManifest* head = nullptr) const {
    return VerifyCheckpoint(bytes, round, genesis_hash, head);
  }
  bool SeedsMatch(const VerifiedCheckpoint& cp, const std::vector<ChainLink>& l) const {
    return SeedsMatchLinks(cp, l, Ledger(h->genesis().config));
  }
};

CheckpointFixture MakeCheckpointFixture(uint64_t seed) {
  CheckpointFixture f;
  f.h = std::make_unique<SimHarness>(
      CheckpointConfig(seed, FreshTestDir("algorand_history_ckpt_" + std::to_string(seed))));
  f.h->Start();
  EXPECT_TRUE(f.h->RunRounds(10, Hours(2)));
  const BlockStore* store = f.h->node_store(1);
  auto ckpts = store->checkpoints();
  EXPECT_FALSE(ckpts.empty());
  f.round = ckpts.back().round;
  f.payload = *store->ReadCheckpointPayload(f.round);
  for (uint64_t r = 1; r <= f.round; ++r) {
    f.links.push_back(*store->ChainLinkAt(r));
  }
  f.genesis_hash = Ledger(f.h->genesis().config).genesis().Hash();
  return f;
}

TEST(CheckpointVerifierTest, VerifiesAnHonestCheckpointAndItsLinks) {
  CheckpointFixture f = MakeCheckpointFixture(21);
  ASSERT_GT(f.round, 0u);
  std::optional<VerifiedCheckpoint> cp = f.Verify(f.payload);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->manifest.round, f.round);
  EXPECT_EQ(cp->tip.Hash(), f.h->node(1).ledger().BlockAtRound(f.round).Hash());
  EXPECT_EQ(cp->accounts.StateFingerprint(), cp->manifest.fingerprint);
  EXPECT_TRUE(f.SeedsMatch(*cp, f.links));
  const CheckpointManifest head = cp->manifest;
  EXPECT_TRUE(f.Verify(f.payload, &head).has_value());

  Hash256 prev = f.genesis_hash;
  for (const ChainLink& link : f.links) {
    ASSERT_TRUE(VerifyChainLink(link, link.round, prev, f.h->signer())) << link.round;
    prev = link.hash;
  }
  EXPECT_EQ(prev, head.tip_hash);
  // A link must extend the verified prefix, at the expected round.
  EXPECT_FALSE(VerifyChainLink(f.links[1], 2, f.links[1].hash, f.h->signer()));
  EXPECT_FALSE(VerifyChainLink(f.links[1], 3, f.links[0].hash, f.h->signer()));
}

TEST(CheckpointVerifierTest, RejectsAFlippedAccountByte) {
  CheckpointFixture f = MakeCheckpointFixture(22);
  std::optional<CheckpointData> data = CheckpointData::Deserialize(f.payload);
  ASSERT_TRUE(data.has_value());
  data->accounts.back() ^= 1;  // The last account's nonce: still parses.
  AccountTable parsed;
  Reader rd(data->accounts);
  ASSERT_TRUE(parsed.DeserializeFrom(&rd));
  EXPECT_FALSE(f.Verify(data->Serialize()).has_value());
}

TEST(CheckpointVerifierTest, RejectsSeedsTheLinksDoNotVouchFor) {
  CheckpointFixture f = MakeCheckpointFixture(23);
  // A wrong seed in the window: the payload itself verifies, the links
  // expose it.
  std::optional<CheckpointData> data = CheckpointData::Deserialize(f.payload);
  ASSERT_TRUE(data.has_value());
  data->seeds[data->seeds.size() / 2][0] ^= 1;
  std::optional<VerifiedCheckpoint> cp = f.Verify(data->Serialize());
  ASSERT_TRUE(cp.has_value());
  EXPECT_FALSE(f.SeedsMatch(*cp, f.links));

  // A tip block whose next_seed disagrees with the last link.
  std::optional<VerifiedCheckpoint> honest = f.Verify(f.payload);
  ASSERT_TRUE(honest.has_value());
  std::vector<ChainLink> links = f.links;
  links.back().next_seed[0] ^= 1;
  EXPECT_FALSE(f.SeedsMatch(*honest, links));
  // Too few links to reach the checkpoint round.
  links = f.links;
  links.pop_back();
  EXPECT_FALSE(f.SeedsMatch(*honest, links));
}

TEST(CheckpointVerifierTest, RejectsAForeignHeadOrGenesis) {
  CheckpointFixture f = MakeCheckpointFixture(24);
  std::optional<VerifiedCheckpoint> cp = f.Verify(f.payload);
  ASSERT_TRUE(cp.has_value());
  // A manifest head that disagrees with the payload.
  CheckpointManifest head = cp->manifest;
  head.highest_final += 1;
  EXPECT_FALSE(f.Verify(f.payload, &head).has_value());
  head = cp->manifest;
  head.fingerprint[0] ^= 1;
  EXPECT_FALSE(f.Verify(f.payload, &head).has_value());
  // A foreign genesis hash, or another round than the file claims.
  Hash256 foreign = f.genesis_hash;
  foreign[0] ^= 1;
  EXPECT_FALSE(VerifyCheckpoint(f.payload, f.round, foreign).has_value());
  EXPECT_FALSE(VerifyCheckpoint(f.payload, f.round + 1, f.genesis_hash).has_value());
  // A tip block that is not the one the manifest names.
  std::optional<CheckpointData> data = CheckpointData::Deserialize(f.payload);
  ASSERT_TRUE(data.has_value());
  data->manifest.tip_hash[0] ^= 1;
  EXPECT_FALSE(f.Verify(data->Serialize()).has_value());
}

// --- Restore parity ---

// Every certificate and consensus kind node `i` holds, by round.
struct HistoryView {
  std::map<uint64_t, Hash256> certs;
  std::map<uint64_t, Hash256> finals;
  std::vector<ConsensusKind> kinds;
  Hash256 tip;

  explicit HistoryView(const Node& node) : tip(node.ledger().tip_hash()) {
    for (const auto& [r, cert] : node.certificates()) {
      certs[r] = cert.block_hash;
    }
    for (const auto& [r, cert] : node.final_certificates()) {
      finals[r] = cert.block_hash;
    }
    for (uint64_t r = 0; r < node.ledger().chain_length(); ++r) {
      kinds.push_back(node.ledger().ConsensusAtRound(r));
    }
  }
  bool operator==(const HistoryView&) const = default;
};

void ExpectRestoreParity(uint32_t shard_count, uint64_t seed) {
  HarnessConfig cfg = HistoryConfig(seed);
  cfg.data_dir = FreshTestDir("algorand_history_parity_" + std::to_string(shard_count));
  cfg.store_fsync = FsyncPolicy::kOff;
  cfg.store_background_writer = false;
  cfg.node_factory = [shard_count](NodeId id, Simulation* sim, GossipAgent* gossip,
                                   const Ed25519KeyPair& key, const GenesisConfig& genesis,
                                   const ProtocolParams& params, CryptoSuite crypto,
                                   AdversaryCoordinator*) -> std::unique_ptr<Node> {
    auto node = std::make_unique<Node>(id, sim, gossip, key, genesis, params, crypto);
    node->ConfigureCertificateSharding(shard_count);
    return node;
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  // Node 6 misses rounds, then writes them to its log through catch-up.
  h.KillNode(6);
  ASSERT_TRUE(h.RunRounds(8, Hours(1)));
  h.RestartNode(6, /*keep_disk=*/true);
  ASSERT_TRUE(h.RunRounds(12, Hours(2)));
  ASSERT_GE(h.node(6).catchups_completed(), 1u);

  const HistoryView before(h.node(6));
  ASSERT_FALSE(before.finals.empty());
  for (const auto& [r, hash] : before.certs) {
    EXPECT_TRUE(shard_count <= 1 || r % shard_count == 6 % shard_count) << "round " << r;
  }
  h.KillNode(6);
  h.RestartNode(6, /*keep_disk=*/true);
  const HistoryView after(h.node(6));
  EXPECT_EQ(after.tip, before.tip);
  EXPECT_EQ(after.certs, before.certs);
  EXPECT_EQ(after.finals, before.finals);
  EXPECT_EQ(after.kinds, before.kinds);
}

TEST(RestoreParityTest, RestartFromDiskKeepsCertificatesAndKinds) {
  ExpectRestoreParity(/*shard_count=*/1, 31);
}

TEST(RestoreParityTest, RestartFromDiskKeepsShardedCertificatesAndKinds) {
  ExpectRestoreParity(/*shard_count=*/4, 32);
}

}  // namespace
}  // namespace algorand
