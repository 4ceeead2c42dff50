// SyncSession against a fake host: no network, no simulator. The host
// records what the session sends and schedules; the tests answer requests by
// hand and fire timers in time order, so every rule of the session — who may
// answer, what moves the target, when it gives up, how fast-sync hands over
// to block catch-up — is checked in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/catchup.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/signer.h"
#include "src/crypto/vrf.h"

namespace algorand {
namespace {

class FakeHost : public SyncHost {
 public:
  struct Timer {
    SimTime at = 0;
    SimTime delay = 0;
    std::function<void()> fn;
  };

  void SendTo(NodeId peer, const MessagePtr& msg) override { sent.push_back({peer, msg}); }
  size_t NetworkSize() const override { return network_size; }
  const std::vector<NodeId>& Neighbors() const override { return neighbors; }
  SimTime Now() const override { return now; }
  void ScheduleSyncTimer(SimTime delay, std::function<void()> fn) override {
    timers.push_back({now + delay, delay, std::move(fn)});
    delays.push_back(delay);
  }
  void LeaveRound() override { ++rounds_left; }
  void Synced() override { ++synced; }
  void StartRound(uint64_t round) override { resumed_at.push_back(round); }
  void CommitSyncedRound(const Block&, const Certificate&) override {}
  void CommitFinalCertificate(const Certificate&) override {}
  void MaybeCheckpoint() override {}
  bool InstallCheckpoint(VerifiedCheckpoint, std::vector<uint8_t>,
                         const std::vector<ChainLink>&) override {
    return false;
  }
  std::shared_ptr<CatchupResponseMessage> BuildCatchupResponse(
      const CatchupRequestMessage&) const override {
    return nullptr;
  }
  void TraceSync(TraceKind, uint32_t, uint64_t, uint64_t) override {}

  // Fires the earliest pending timer (ties in schedule order); false if none.
  bool FireNext() {
    if (timers.empty()) {
      return false;
    }
    auto it = std::min_element(timers.begin(), timers.end(),
                               [](const Timer& a, const Timer& b) { return a.at < b.at; });
    Timer t = std::move(*it);
    timers.erase(it);
    now = std::max(now, t.at);
    t.fn();
    return true;
  }

  template <typename T>
  std::shared_ptr<const T> Last() const {
    return std::dynamic_pointer_cast<const T>(sent.back().second);
  }
  NodeId last_peer() const { return sent.back().first; }

  size_t network_size = 8;
  std::vector<NodeId> neighbors = {1, 2};
  SimTime now = 0;
  std::vector<std::pair<NodeId, MessagePtr>> sent;
  std::vector<Timer> timers;
  std::vector<SimTime> delays;
  int rounds_left = 0;
  int synced = 0;
  std::vector<uint64_t> resumed_at;
};

class SyncSessionTest : public ::testing::Test {
 protected:
  SyncSessionTest() {
    key_ = Ed25519KeyFromSeed(FixedBytes<32>::FromSpan(Sha256::Hash("voter").span()));
    GenesisConfig genesis;
    genesis.accounts = MintGenesis({{key_.public_key, 1000}});
    ledger_ = std::make_unique<Ledger>(genesis);
    params_ = ProtocolParams::ScaledCommittees(0.02);
    params_.catchup_timeout = Seconds(10) + 1;  // Odd, so timeouts are recognizable.
    params_.catchup_backoff_base = Seconds(2);
    params_.catchup_backoff_max = Seconds(16);
  }

  SyncSession& Session() {
    if (session_ == nullptr) {
      session_ = std::make_unique<SyncSession>(/*self=*/0, &host_, ledger_.get(), params_, vrf_,
                                               signer_, store_);
      session_->AttachMetrics(&metrics_);
    }
    return *session_;
  }
  uint64_t Counter(const char* name) { return metrics_.GetCounter(name).Value(); }

  // The answer the last catch-up request's peer would give with no rounds.
  std::shared_ptr<CatchupResponseMessage> EmptyAnswer() const {
    auto req = host_.Last<CatchupRequestMessage>();
    auto resp = std::make_shared<CatchupResponseMessage>();
    resp->responder = host_.last_peer();
    resp->seq = req->seq;
    resp->from_round = req->from_round;
    return resp;
  }

  std::shared_ptr<FastSyncManifestResponse> ManifestAnswer(const CheckpointManifest& m) const {
    auto req = host_.Last<FastSyncManifestRequest>();
    auto resp = std::make_shared<FastSyncManifestResponse>();
    resp->responder = host_.last_peer();
    resp->seq = req->seq;
    if (m.round != 0) {
      CheckpointData data;
      data.manifest = m;
      resp->manifest = data.Serialize();
      resp->payload_bytes = 4096;
    }
    return resp;
  }

  // A link for round 1 carrying block hash `hash`, certified by a vote
  // validly signed over the genesis block.
  std::vector<uint8_t> LinkPayload(const Hash256& hash) const {
    Certificate cert;
    cert.round = 1;
    cert.step = 1;
    cert.block_hash = hash;
    cert.votes.push_back(std::make_shared<const VoteMessage>(
        MakeVote(key_, 1, 1, VrfOutput{}, VrfProof{}, ledger_->tip_hash(), hash, signer_)));
    ChainLink link;
    link.round = 1;
    link.hash = hash;
    link.cert = cert.Serialize();
    return link.SerializePayload();
  }

  CheckpointManifest Manifest(const Hash256& tip_hash) const {
    CheckpointManifest m;
    m.round = 1;
    m.tip_hash = tip_hash;
    m.highest_final = 1;
    m.genesis_hash = ledger_->tip_hash();
    return m;
  }

  Ed25519KeyPair key_;
  std::unique_ptr<Ledger> ledger_;
  ProtocolParams params_;
  SimVrf vrf_;
  SimSigner signer_;
  BlockStore* store_ = nullptr;
  MetricsRegistry metrics_;
  FakeHost host_;
  std::unique_ptr<SyncSession> session_;
};

TEST_F(SyncSessionTest, IgnoresAnswersFromUnaskedPeersStaleSeqsAndWrongStages) {
  SyncSession& s = Session();
  s.NoteEvidence(10, 1);
  ASSERT_EQ(s.stage(), SyncSession::Stage::kBlocks);
  ASSERT_EQ(host_.sent.size(), 1u);  // One request covers rounds 1..16.

  auto spoofed = EmptyAnswer();
  spoofed->responder = (spoofed->responder + 1) % host_.network_size;
  auto stale = EmptyAnswer();
  stale->seq += 1;
  s.HandleMessage(spoofed);
  s.HandleMessage(stale);
  EXPECT_EQ(host_.sent.size(), 1u);
  EXPECT_EQ(Counter("catchup.peer_rotations"), 0u);
  // The asked peer's answer counts (empty: rotate and ask the next peer).
  s.HandleMessage(EmptyAnswer());
  EXPECT_EQ(host_.sent.size(), 2u);
  EXPECT_EQ(Counter("catchup.peer_rotations"), 1u);
  // A fast-sync answer is for another stage.
  auto manifest = std::make_shared<FastSyncManifestResponse>();
  manifest->responder = host_.last_peer();
  s.HandleMessage(manifest);
  EXPECT_EQ(host_.sent.size(), 2u);
}

TEST_F(SyncSessionTest, FastSyncAnswersMustMatchStagePeerAndSeq) {
  params_.fastsync_enabled = true;
  SyncSession& s = Session();
  s.NoteEvidence(10, 1);
  ASSERT_EQ(s.stage(), SyncSession::Stage::kManifest);
  auto req = host_.Last<FastSyncManifestRequest>();
  ASSERT_NE(req, nullptr);
  const NodeId peer = host_.last_peer();

  auto links = std::make_shared<FastSyncLinksResponse>();  // Wrong stage.
  links->responder = peer;
  links->seq = req->seq;
  links->from_round = 1;
  s.HandleMessage(links);
  auto other_peer = ManifestAnswer({});
  other_peer->responder = (peer + 1) % host_.network_size;
  s.HandleMessage(other_peer);
  auto stale = ManifestAnswer({});
  stale->seq = req->seq + 1;
  s.HandleMessage(stale);
  auto block_answer = std::make_shared<CatchupResponseMessage>();
  block_answer->responder = peer;
  block_answer->seq = req->seq;
  block_answer->from_round = 1;
  s.HandleMessage(block_answer);
  EXPECT_EQ(host_.sent.size(), 1u);
  EXPECT_EQ(s.stage(), SyncSession::Stage::kManifest);

  // The asked peer holds no checkpoint: the attempt fails, another begins.
  s.HandleMessage(ManifestAnswer({}));
  ASSERT_EQ(host_.sent.size(), 2u);
  EXPECT_NE(host_.Last<FastSyncManifestRequest>(), nullptr);
  EXPECT_GT(host_.Last<FastSyncManifestRequest>()->seq, req->seq);
}

TEST_F(SyncSessionTest, EvidenceOnlyWidensTheTargetAndResponderTipsNeverMoveIt) {
  SyncSession& s = Session();
  s.NoteEvidence(3, 1);  // Within catchup_trigger_lead: no session.
  EXPECT_FALSE(s.active());
  s.NoteEvidence(10, 1);
  EXPECT_EQ(s.target_round(), 9u);
  s.NoteEvidence(5, 1);
  EXPECT_EQ(s.target_round(), 9u);
  s.NoteEvidence(20, 1);
  EXPECT_EQ(s.target_round(), 19u);
  auto resp = EmptyAnswer();
  resp->tip_round = 1000;  // A responder's claim is informational only.
  s.HandleMessage(resp);
  EXPECT_EQ(s.target_round(), 19u);
  EXPECT_EQ(host_.rounds_left, 1);
}

TEST_F(SyncSessionTest, AllEmptyAnswersAbortAfterThirtyTwoPlusPeersTries) {
  SyncSession& s = Session();
  s.NoteEvidence(10, 1);
  const size_t peers = host_.network_size - 1;
  for (size_t i = 0; i < 32 + peers; ++i) {
    s.HandleMessage(EmptyAnswer());
    ASSERT_TRUE(s.active()) << "aborted after " << i + 1 << " empty answers";
  }
  s.HandleMessage(EmptyAnswer());
  EXPECT_FALSE(s.active());
  EXPECT_EQ(Counter("catchup.aborted"), 1u);
  EXPECT_EQ(Counter("catchup.completed"), 0u);
  EXPECT_EQ(host_.synced, 0);  // Aborting is not syncing: a hung node stays hung.
  EXPECT_EQ(host_.resumed_at, std::vector<uint64_t>{1});
}

TEST_F(SyncSessionTest, RepeatedTimeoutsAbortAfterTenAttemptsWithCappedBackoff) {
  SyncSession& s = Session();
  s.NoteEvidence(10, 1);
  while (s.active() && host_.FireNext()) {
  }
  EXPECT_FALSE(s.active());
  EXPECT_EQ(Counter("catchup.timeouts"), 11u);  // The 11th failure aborts.
  EXPECT_EQ(Counter("catchup.aborted"), 1u);
  EXPECT_EQ(host_.resumed_at, std::vector<uint64_t>{1});
  std::vector<SimTime> backoffs;
  for (SimTime d : host_.delays) {
    if (d != params_.catchup_timeout) {
      backoffs.push_back(d);
    }
  }
  ASSERT_EQ(backoffs.size(), 10u);  // Attempts 1..10 back off; the 11th aborts.
  SimTime expected = params_.catchup_backoff_base;
  for (SimTime d : backoffs) {
    // Doubling from the base, capped at the max, plus jitter below the base.
    EXPECT_GE(d, expected);
    EXPECT_LT(d, expected + params_.catchup_backoff_base);
    expected = std::min(expected * 2, params_.catchup_backoff_max);
  }
  EXPECT_EQ(expected, params_.catchup_backoff_max);
}

TEST_F(SyncSessionTest, ForeignManifestOrLinkChainEndingElsewhereFailsTheAttempt) {
  params_.fastsync_enabled = true;
  SyncSession& s = Session();
  s.NoteEvidence(10, 1);
  const Hash256 tip = Sha256::Hash("checkpointed block");

  CheckpointManifest foreign = Manifest(tip);
  foreign.genesis_hash = Sha256::Hash("another chain");
  s.HandleMessage(ManifestAnswer(foreign));
  ASSERT_EQ(host_.sent.size(), 2u);
  ASSERT_NE(host_.Last<FastSyncManifestRequest>(), nullptr);  // A fresh attempt.

  // A link chain that verifies but ends on another block than the manifest's.
  s.HandleMessage(ManifestAnswer(Manifest(tip)));
  ASSERT_EQ(s.stage(), SyncSession::Stage::kLinks);
  auto links = std::make_shared<FastSyncLinksResponse>();
  links->responder = host_.last_peer();
  links->seq = host_.Last<FastSyncLinksRequest>()->seq;
  links->from_round = 1;
  links->links.push_back(LinkPayload(Sha256::Hash("some other block")));
  s.HandleMessage(links);
  EXPECT_EQ(s.stage(), SyncSession::Stage::kManifest);
  ASSERT_NE(host_.Last<FastSyncManifestRequest>(), nullptr);

  // Control: the same chain ending on the manifest's tip moves on to chunks.
  s.HandleMessage(ManifestAnswer(Manifest(tip)));
  links->responder = host_.last_peer();
  links->seq = host_.Last<FastSyncLinksRequest>()->seq;
  links->links = {LinkPayload(tip)};
  s.HandleMessage(links);
  EXPECT_EQ(s.stage(), SyncSession::Stage::kChunks);
  EXPECT_NE(host_.Last<FastSyncChunkRequest>(), nullptr);
  EXPECT_EQ(Counter("catchup.fastsync_links_verified"), 2u);
  EXPECT_EQ(Counter("catchup.fastsync_failed"), 0u);
}

TEST_F(SyncSessionTest, FiveFailedFastSyncAttemptsFallBackToBlockCatchupWithTheSameTarget) {
  params_.fastsync_enabled = true;
  SyncSession& s = Session();
  s.NoteEvidence(30, 1);
  s.NoteEvidence(40, 1);  // Evidence during fast-sync widens the shared target.
  for (int attempt = 1; attempt <= 5; ++attempt) {
    s.HandleMessage(ManifestAnswer({}));
    ASSERT_EQ(s.stage(), SyncSession::Stage::kManifest) << "attempt " << attempt;
  }
  s.HandleMessage(ManifestAnswer({}));
  EXPECT_EQ(s.stage(), SyncSession::Stage::kBlocks);
  EXPECT_EQ(s.target_round(), 39u);
  EXPECT_EQ(Counter("catchup.fastsync_failed"), 1u);
  EXPECT_EQ(Counter("catchup.sessions"), 1u);
  // Block catch-up from genesis fills its request window: rounds 1.. then 17..
  ASSERT_NE(host_.Last<CatchupRequestMessage>(), nullptr);
  EXPECT_EQ(host_.Last<CatchupRequestMessage>()->from_round, 1u + params_.catchup_batch_limit);
  EXPECT_EQ(Counter("catchup.requests"), params_.catchup_max_inflight);
  EXPECT_TRUE(host_.resumed_at.empty());  // Still syncing, never resumed.
}

}  // namespace
}  // namespace algorand
