// Message-kind pins. Every protocol message kind round-trips through the wire
// codec with its kind tag and label intact, and encodes to bytes whose hash is
// pinned, so the TCP byte stream cannot change unnoticed. A fixed small
// deployment (a few rounds, one restart from disk) sends and receives exactly
// the pinned number of messages of each kind.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sim_harness.h"
#include "src/core/wire_codec.h"
#include "src/crypto/sha256.h"
#include "tests/test_dirs.h"

namespace algorand {
namespace {

// N bytes counting up from `first`: every field of every message differs.
template <size_t N>
FixedBytes<N> Pattern(uint8_t first) {
  FixedBytes<N> out;
  for (size_t i = 0; i < N; ++i) {
    out[i] = static_cast<uint8_t>(first + i);
  }
  return out;
}

std::vector<uint8_t> PatternBytes(size_t n, uint8_t first) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(first + i);
  }
  return out;
}

Transaction FixedTransaction() {
  Ed25519KeyPair key = Ed25519KeyFromSeed(Pattern<32>(0x11));
  Ed25519Signer signer;
  return MakeTransaction(key, Pattern<32>(0x22), /*amount=*/42, /*nonce=*/3, signer, /*fee=*/2);
}

Block FixedBlock(uint64_t round) {
  Block b;
  b.round = round;
  b.prev_hash = Pattern<32>(0x30);
  b.timestamp = Seconds(7);
  b.proposer = Pattern<32>(0x40);
  b.proposer_vrf = Pattern<64>(0x50);
  b.proposer_proof = Pattern<80>(0x60);
  b.next_seed = Pattern<32>(0x70);
  b.next_seed_proof = Pattern<80>(0x80);
  b.txns.push_back(FixedTransaction());
  b.padding_bytes = 1000;
  b.padding_digest = Pattern<32>(0x90);
  return b;
}

VoteMessage FixedVote(uint64_t round) {
  VoteMessage v;
  v.pk = Pattern<32>(0xa0);
  v.round = round;
  v.step = kStepReduction2;
  v.sorthash = Pattern<64>(0xb0);
  v.sort_proof = Pattern<80>(0xc0);
  v.prev_hash = Pattern<32>(0xd0);
  v.value = Pattern<32>(0xe0);
  v.signature = Pattern<64>(0xf0);
  return v;
}

Certificate FixedCertificate(uint64_t round) {
  Certificate c;
  c.round = round;
  c.step = kStepFinal;
  c.block_hash = Pattern<32>(0xe0);
  c.votes = {std::make_shared<const VoteMessage>(FixedVote(round)),
             std::make_shared<const VoteMessage>(FixedVote(round + 1))};
  return c;
}

// One fixed message of each kind, in tag order, with its label. Half of them
// carry a trace stamp so both envelope forms are pinned.
std::vector<std::pair<std::string, MessagePtr>> FixedMessages() {
  std::vector<std::pair<std::string, MessagePtr>> out;
  auto add = [&out](std::string name, std::shared_ptr<SimMessage> msg) {
    if (out.size() % 2 == 0) {
      msg->StampTraceContext(static_cast<uint32_t>(out.size() + 3), 1000 + out.size());
    }
    out.emplace_back(std::move(name), std::move(msg));
  };

  add("vote", std::make_shared<VoteMessage>(FixedVote(5)));

  auto pri = std::make_shared<PriorityMessage>();
  pri->pk = Pattern<32>(0x01);
  pri->round = 6;
  pri->sorthash = Pattern<64>(0x02);
  pri->sort_proof = Pattern<80>(0x03);
  pri->sub_users = 4;
  pri->signature = Pattern<64>(0x04);
  add("priority", pri);

  auto blk = std::make_shared<BlockMessage>();
  blk->block = FixedBlock(7);
  add("block", blk);

  auto req = std::make_shared<BlockRequestMessage>();
  req->round = 8;
  req->block_hash = Pattern<32>(0x05);
  req->requester = 9;
  add("block_req", req);

  auto rec = std::make_shared<RecoveryProposalMessage>();
  rec->pk = Pattern<32>(0x06);
  rec->code = kRecoveryRoundBit | 2;
  rec->sorthash = Pattern<64>(0x07);
  rec->sort_proof = Pattern<80>(0x08);
  rec->block = Block::MakeEmpty(4, Pattern<32>(0x09), Pattern<32>(0x0a));
  rec->suffix = {FixedBlock(2), FixedBlock(3)};
  rec->signature = Pattern<64>(0x0b);
  add("recovery", rec);

  auto txn = std::make_shared<TransactionMessage>();
  txn->tx = FixedTransaction();
  add("txn", txn);

  auto creq = std::make_shared<CatchupRequestMessage>();
  creq->requester = 10;
  creq->seq = 11;
  creq->from_round = 12;
  creq->limit = 13;
  add("catchup_req", creq);

  auto cresp = std::make_shared<CatchupResponseMessage>();
  cresp->responder = 14;
  cresp->seq = 15;
  cresp->from_round = 2;
  cresp->tip_round = 9;
  cresp->entries = {{FixedBlock(2), FixedCertificate(2)}, {FixedBlock(3), FixedCertificate(3)}};
  cresp->final_cert = FixedCertificate(3);
  add("catchup_resp", cresp);

  auto fmq = std::make_shared<FastSyncManifestRequest>();
  fmq->requester = 16;
  fmq->seq = 17;
  add("fastsync_manifest_req", fmq);

  auto fmr = std::make_shared<FastSyncManifestResponse>();
  fmr->responder = 18;
  fmr->seq = 19;
  fmr->manifest = PatternBytes(120, 0x0c);
  fmr->payload_bytes = 5000;
  add("fastsync_manifest_resp", fmr);

  auto flq = std::make_shared<FastSyncLinksRequest>();
  flq->requester = 20;
  flq->seq = 21;
  flq->from_round = 22;
  flq->limit = 23;
  add("fastsync_links_req", flq);

  auto flr = std::make_shared<FastSyncLinksResponse>();
  flr->responder = 24;
  flr->seq = 25;
  flr->from_round = 26;
  flr->links = {PatternBytes(40, 0x0d), PatternBytes(7, 0x0e), {}};
  add("fastsync_links_resp", flr);

  auto fcq = std::make_shared<FastSyncChunkRequest>();
  fcq->requester = 27;
  fcq->seq = 28;
  fcq->round = 29;
  fcq->offset = 30;
  fcq->limit = 31;
  add("fastsync_chunk_req", fcq);

  auto fcr = std::make_shared<FastSyncChunkResponse>();
  fcr->responder = 32;
  fcr->seq = 33;
  fcr->round = 34;
  fcr->offset = 35;
  fcr->total_bytes = 36;
  fcr->data = PatternBytes(300, 0x0f);
  add("fastsync_chunk_resp", fcr);
  return out;
}

// SHA-256 of each fixed message's encoding, in tag order (tags 1..14),
// recorded before the kind tag replaced type probing in the codec.
const char* const kGoldenWireHashes[] = {
    "37efe6a724db46e23bfb2fbbefb0c7349c598902ae7e77bb5b93e09ab00fb111",  // vote
    "4bdf447f9d622984111748d138207c4523a8b4d7e7ab522b3b3e23e0a457ebc3",  // priority
    "412c336c12867244c29c27a94b8f49a13e9db10cdc6bb4cb4a39a76bf295ff83",  // block
    "5d645cd2fcedd8a0f66520a420b8b30dc23b5d2e7e686ac86ba648b2d9c98b93",  // block_req
    "d744084b3ea6e50f8f51987ef1d65743e7f996077b539fc74b18877c4938df1f",  // recovery
    "db8b8e177c3d016e3085415044f3d61fb7a05075f043a585d48f2b73db8ea0eb",  // txn
    "1a8d7a2c37287bacaf6c395a714e523d99bedc602e1f60a7412bc483f853384c",  // catchup_req
    "513352b9beef8caa0e095c2aeeb24d40ef156d27470f989c19574c1b2100f5a8",  // catchup_resp
    "541a9ba9f31406d3c3c991b270dbd5c88b6171eeaf36cc6e57c24e6f809e78ae",  // fastsync_manifest_req
    "1809a36f47f7ab28288ac3432a444771037463ac198748d9d2b25f2a428be0fb",  // fastsync_manifest_resp
    "d9e37e771e3a349430a6c380ef9b46f7961dc27ad738ef49f758930c9f63b116",  // fastsync_links_req
    "c7076032217df259486198a59421084bb9f6d65d25e77e3e55eac1d4fef8c689",  // fastsync_links_resp
    "f4a5073a00a9be13d938c2f9f3abe1dc142fb937dcad0ff8143bbad17ae4f949",  // fastsync_chunk_req
    "6db7a76ce87e9ff8938d22891d79b5908e91db04d779f1c9d68d735caa773d26",  // fastsync_chunk_resp
};

TEST(MessageKindTest, EveryKindRoundTripsToPinnedBytes) {
  const auto messages = FixedMessages();
  ASSERT_EQ(messages.size(), std::size(kGoldenWireHashes));
  for (size_t i = 0; i < messages.size(); ++i) {
    const auto& [name, msg] = messages[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(msg->kind(), i + 1);
    EXPECT_EQ(std::string(msg->TypeName()), name);
    const std::vector<uint8_t> bytes = EncodeMessage(msg);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], i + 1);
    EXPECT_EQ(Sha256::Hash(bytes).ToHex(), kGoldenWireHashes[i]);

    MessagePtr back = DecodeMessage(bytes);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->kind(), msg->kind());
    EXPECT_EQ(std::string(back->TypeName()), name);
    EXPECT_EQ(back->DedupId(), msg->DedupId());
    EXPECT_EQ(back->WireSize(), msg->WireSize());
    EXPECT_EQ(back->trace_context().origin, msg->trace_context().origin);
    EXPECT_EQ(back->trace_context().emitted_at, msg->trace_context().emitted_at);
    EXPECT_EQ(EncodeMessage(back), bytes);
  }
}

TEST(MessageKindTest, UnknownTagsAndTruncatedEnvelopesDecodeToNull) {
  const std::vector<uint8_t> vote = EncodeMessage(FixedMessages()[0].second);
  for (uint8_t tag : {0, 15, 255}) {
    std::vector<uint8_t> bytes = vote;
    bytes[0] = tag;
    EXPECT_EQ(DecodeMessage(bytes), nullptr) << "tag " << int{tag};
  }
  // Shorter than the 13-byte envelope, and a complete envelope whose vote
  // body is cut short.
  EXPECT_EQ(DecodeMessage(std::span<const uint8_t>(vote.data(), 12)), nullptr);
  EXPECT_EQ(DecodeMessage(std::span<const uint8_t>(vote.data(), vote.size() - 1)), nullptr);
}

// The per-kind message counters of a fixed deployment, recorded before the
// kind tag replaced type-name lookups: 10 nodes with payments (one of them
// gossiped), node 7 killed after round 3 and restarted from its block store
// two rounds later, then catching up.
const std::map<std::string, uint64_t> kGoldenKindCounts = {
    {"gossip.msgs_in.block", 839},
    {"gossip.msgs_in.catchup_req", 1},
    {"gossip.msgs_in.catchup_resp", 1},
    {"gossip.msgs_in.priority", 805},
    {"gossip.msgs_in.txn", 53},
    {"gossip.msgs_in.vote", 24328},
    {"gossip.msgs_out.block", 868},
    {"gossip.msgs_out.catchup_req", 1},
    {"gossip.msgs_out.catchup_resp", 1},
    {"gossip.msgs_out.priority", 835},
    {"gossip.msgs_out.txn", 53},
    {"gossip.msgs_out.vote", 25486},
    {"net.msgs.block", 868},
    {"net.msgs.catchup_req", 1},
    {"net.msgs.catchup_resp", 1},
    {"net.msgs.priority", 835},
    {"net.msgs.txn", 53},
    {"net.msgs.vote", 25486},
};

TEST(MessageKindTest, PerKindCountsArePinned) {
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = 23;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 8 * 1024;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  cfg.tx_load_per_round = 4;
  cfg.data_dir = FreshTestDir("algorand_message_kind_counts");
  cfg.store_fsync = FsyncPolicy::kOff;
  cfg.store_background_writer = false;
  SimHarness h(cfg);
  h.Start();
  h.node(4).GossipTransaction(MakeTransaction(
      h.genesis().keys[4], h.genesis().keys[6].public_key, /*amount=*/5, /*nonce=*/0, h.signer()));
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  h.KillNode(7);
  ASSERT_TRUE(h.RunRounds(5, Hours(1)));
  h.RestartNode(7, /*keep_disk=*/true);
  ASSERT_TRUE(h.RunRounds(8, Hours(1)));

  std::map<std::string, uint64_t> counts;
  for (const auto& [name, value] : h.AggregateMetrics().counters) {
    if (name.starts_with("net.msgs.") || name.starts_with("gossip.msgs_in.") ||
        name.starts_with("gossip.msgs_out.")) {
      counts[name] = value;
    }
  }
  EXPECT_EQ(counts, kGoldenKindCounts);
}

}  // namespace
}  // namespace algorand
