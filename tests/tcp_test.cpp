// Real-TCP runtime tests: event loop, framing, wire codec, endpoint pairs,
// and a small live consensus network over localhost sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "src/core/wire_codec.h"
#include "src/tcp/local_cluster.h"

namespace algorand {
namespace {

TEST(EventLoopTest, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(30), [&] { order.push_back(3); });
  loop.Schedule(Millis(10), [&] { order.push_back(1); });
  loop.Schedule(Millis(20), [&] { order.push_back(2); });
  loop.RunFor(Millis(80));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, ScheduleRelocatesACallbackAtMostTwice) {
  // A move-counting callable: each move is one relocation of its
  // UniqueCallback.
  struct MoveCounter {
    MoveCounter(int* moves, int* at_run) : moves(moves), at_run(at_run) {}
    MoveCounter(MoveCounter&& other) noexcept : moves(other.moves), at_run(other.at_run) {
      ++*moves;
    }
    void operator()() const { *at_run = *moves; }
    int* moves;
    int* at_run;
  };
  EventLoop loop;
  Executor& executor = loop;
  int moves = 0;
  int at_run = -1;
  Executor::Callback fn(MoveCounter(&moves, &at_run));
  moves = 0;
  executor.Schedule(Millis(1), std::move(fn));
  loop.RunFor(Millis(20));
  EXPECT_GE(at_run, 0);
  EXPECT_LE(at_run, 2);
}

TEST(EventLoopTest, NowAdvancesMonotonically) {
  EventLoop loop;
  SimTime a = loop.now();
  loop.RunFor(Millis(5));
  EXPECT_GE(loop.now(), a + Millis(4));
}

TEST(EventLoopTest, StopPredicateEndsRun) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(5), [&] { ++fired; });
  loop.Schedule(Millis(500), [&] { ++fired; });
  loop.Run([&] { return fired >= 1; });
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(5), [&] {
    ++fired;
    loop.Schedule(Millis(5), [&] { ++fired; });
  });
  loop.RunFor(Millis(50));
  EXPECT_EQ(fired, 2);
}

TEST(FramingTest, RoundTrip) {
  auto payload = BytesOfString("hello frame");
  auto framed = EncodeFrame(payload);
  FrameReader reader;
  reader.Append(framed);
  auto out = reader.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(FramingTest, ReassemblesAcrossChunks) {
  auto payload = BytesOfString("split into tiny chunks");
  auto framed = EncodeFrame(payload);
  FrameReader reader;
  for (uint8_t b : framed) {
    EXPECT_FALSE(reader.corrupted());
    reader.Append(std::span<const uint8_t>(&b, 1));
  }
  auto out = reader.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST(FramingTest, MultipleFramesInOneChunk) {
  auto f1 = EncodeFrame(BytesOfString("one"));
  auto f2 = EncodeFrame(BytesOfString("two"));
  std::vector<uint8_t> both = f1;
  both.insert(both.end(), f2.begin(), f2.end());
  FrameReader reader;
  reader.Append(both);
  EXPECT_EQ(*reader.Next(), BytesOfString("one"));
  EXPECT_EQ(*reader.Next(), BytesOfString("two"));
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(FramingTest, EmptyPayloadFrame) {
  FrameReader reader;
  reader.Append(EncodeFrame({}));
  auto out = reader.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(FramingTest, OversizedFrameMarksCorrupted) {
  FrameReader reader;
  std::vector<uint8_t> evil = {0xff, 0xff, 0xff, 0xff};  // ~4 GB declared.
  reader.Append(evil);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.corrupted());
}

TEST(WireCodecTest, VoteRoundTrip) {
  DeterministicRng rng(1);
  FixedBytes<32> seed;
  rng.FillBytes(seed.data(), 32);
  Ed25519KeyPair key = Ed25519KeyFromSeed(seed);
  Ed25519Signer signer;
  VrfOutput sorthash;
  VrfProof proof;
  Hash256 prev, value;
  value[0] = 7;
  auto vote = std::make_shared<VoteMessage>(
      MakeVote(key, 3, kStepReduction1, sorthash, proof, prev, value, signer));
  auto bytes = EncodeMessage(vote);
  MessagePtr back = DecodeMessage(bytes);
  ASSERT_NE(back, nullptr);
  auto typed = std::dynamic_pointer_cast<const VoteMessage>(back);
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->DedupId(), vote->DedupId());
  EXPECT_EQ(typed->value, value);
}

TEST(WireCodecTest, BlockRoundTrip) {
  auto msg = std::make_shared<BlockMessage>();
  msg->block.round = 9;
  msg->block.padding_bytes = 1234;
  auto bytes = EncodeMessage(msg);
  MessagePtr back = DecodeMessage(bytes);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->DedupId(), msg->block.Hash());
}

TEST(WireCodecTest, BlockRequestRoundTrip) {
  auto msg = std::make_shared<BlockRequestMessage>();
  msg->round = 4;
  msg->requester = 17;
  msg->block_hash[0] = 0xcd;
  MessagePtr back = DecodeMessage(EncodeMessage(msg));
  ASSERT_NE(back, nullptr);
  auto typed = std::dynamic_pointer_cast<const BlockRequestMessage>(back);
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->requester, 17u);
  EXPECT_EQ(typed->block_hash, msg->block_hash);
}

TEST(WireCodecTest, TransactionRoundTrip) {
  DeterministicRng rng(2);
  FixedBytes<32> seed;
  rng.FillBytes(seed.data(), 32);
  Ed25519KeyPair key = Ed25519KeyFromSeed(seed);
  Ed25519Signer signer;
  auto msg = std::make_shared<TransactionMessage>();
  msg->tx = MakeTransaction(key, key.public_key, 42, 0, signer);
  MessagePtr back = DecodeMessage(EncodeMessage(msg));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->DedupId(), msg->tx.Id());
}

TEST(WireCodecTest, RecoveryProposalRoundTrip) {
  auto msg = std::make_shared<RecoveryProposalMessage>();
  msg->code = kRecoveryRoundBit | 5;
  msg->block.round = 3;
  msg->block.is_empty = true;
  Block suffix_block;
  suffix_block.round = 2;
  msg->suffix.push_back(suffix_block);
  MessagePtr back = DecodeMessage(EncodeMessage(msg));
  ASSERT_NE(back, nullptr);
  auto typed = std::dynamic_pointer_cast<const RecoveryProposalMessage>(back);
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->code, msg->code);
  ASSERT_EQ(typed->suffix.size(), 1u);
  EXPECT_EQ(typed->suffix[0].Hash(), suffix_block.Hash());
  EXPECT_EQ(typed->DedupId(), msg->DedupId());
}

TEST(WireCodecTest, RejectsGarbage) {
  EXPECT_EQ(DecodeMessage(std::vector<uint8_t>{}), nullptr);
  EXPECT_EQ(DecodeMessage(std::vector<uint8_t>{0x7f, 1, 2, 3}), nullptr);
  EXPECT_EQ(DecodeMessage(std::vector<uint8_t>{1, 2, 3}), nullptr);  // Truncated vote.
}

TEST(TcpEndpointTest, PairExchangesMessages) {
  EventLoop loop;
  TcpEndpoint a(&loop, 0, 0);
  TcpEndpoint b(&loop, 1, 0);
  ASSERT_TRUE(a.listening());
  ASSERT_TRUE(b.listening());
  std::map<NodeId, uint16_t> book = {{0, a.port()}, {1, b.port()}};
  a.SetAddressBook(book);
  b.SetAddressBook(book);

  std::vector<std::pair<NodeId, Hash256>> received_at_b;
  b.set_receiver([&](NodeId from, const MessagePtr& msg) {
    received_at_b.emplace_back(from, msg->DedupId());
  });
  std::vector<std::pair<NodeId, Hash256>> received_at_a;
  a.set_receiver([&](NodeId from, const MessagePtr& msg) {
    received_at_a.emplace_back(from, msg->DedupId());
  });

  auto req = std::make_shared<BlockRequestMessage>();
  req->round = 1;
  req->requester = 0;
  a.Send(0, 1, req);
  loop.Run([&] { return !received_at_b.empty(); });
  ASSERT_EQ(received_at_b.size(), 1u);
  EXPECT_EQ(received_at_b[0].first, 0u);
  EXPECT_EQ(received_at_b[0].second, req->DedupId());

  // Reply over the same (or reverse) connection.
  auto reply = std::make_shared<BlockRequestMessage>();
  reply->round = 2;
  reply->requester = 1;
  b.Send(1, 0, reply);
  loop.Run([&] { return !received_at_a.empty(); });
  ASSERT_EQ(received_at_a.size(), 1u);
  EXPECT_EQ(received_at_a[0].first, 1u);
}

TEST(TcpEndpointTest, LargeMessageCrossesIntact) {
  EventLoop loop;
  TcpEndpoint a(&loop, 0, 0);
  TcpEndpoint b(&loop, 1, 0);
  std::map<NodeId, uint16_t> book = {{0, a.port()}, {1, b.port()}};
  a.SetAddressBook(book);
  b.SetAddressBook(book);

  // A block with thousands of real transactions: several hundred KB that
  // must survive framing across many TCP segments.
  DeterministicRng rng(5);
  FixedBytes<32> seed;
  rng.FillBytes(seed.data(), 32);
  Ed25519KeyPair key = Ed25519KeyFromSeed(seed);
  SimSigner signer;
  auto msg = std::make_shared<BlockMessage>();
  msg->block.round = 1;
  for (int i = 0; i < 3000; ++i) {
    msg->block.txns.push_back(
        MakeTransaction(key, key.public_key, static_cast<uint64_t>(i), 0, signer));
  }
  Hash256 want = msg->block.Hash();

  Hash256 got;
  bool received = false;
  b.set_receiver([&](NodeId, const MessagePtr& m) {
    got = m->DedupId();
    received = true;
  });
  a.Send(0, 1, msg);
  loop.Run([&] { return received; });
  EXPECT_EQ(got, want);
}

TEST(TcpEndpointTest, ReconnectsAfterPeerRestart) {
  EventLoop loop;
  TcpEndpoint a(&loop, 0, 0);
  auto b = std::make_unique<TcpEndpoint>(&loop, 1, 0);
  uint16_t b_port = b->port();
  std::map<NodeId, uint16_t> book = {{0, a.port()}, {1, b_port}};
  a.SetAddressBook(book);
  b->SetAddressBook(book);
  a.EnableReconnect({1}, Millis(10), Millis(100));

  int received_at_b = 0;
  auto receiver = [&](NodeId, const MessagePtr&) { ++received_at_b; };
  b->set_receiver(receiver);

  auto req = std::make_shared<BlockRequestMessage>();
  req->round = 1;
  req->requester = 0;
  a.Send(0, 1, req);
  loop.Run([&] { return received_at_b >= 1; });
  ASSERT_EQ(received_at_b, 1);

  // Peer 1 "crashes": listener and every connection vanish, then the
  // endpoint comes back on the same port. The persistent peering on `a`
  // must observe the EOF and redial with backoff.
  b.reset();
  b = std::make_unique<TcpEndpoint>(&loop, 1, b_port);
  ASSERT_TRUE(b->listening());
  b->SetAddressBook(book);
  b->set_receiver(receiver);

  loop.Run([&] { return a.stats().reconnects >= 1 && a.connection_count() > 0; });
  EXPECT_GE(a.stats().reconnects, 1u);

  // Delivery resumes over the redialed connection.
  auto req2 = std::make_shared<BlockRequestMessage>();
  req2->round = 2;
  req2->requester = 0;
  a.Send(0, 1, req2);
  loop.Run([&] { return received_at_b >= 2; });
  EXPECT_EQ(received_at_b, 2);
}

TEST(TcpClusterTest, LiveConsensusOverLocalhost) {
  LocalClusterConfig cfg;
  cfg.n_nodes = 6;
  cfg.rng_seed = 77;
  cfg.use_sim_crypto = true;  // Keep the wall-clock budget small.
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 4096;
  // Wall-clock-friendly timeouts.
  cfg.params.lambda_priority = Millis(100);
  cfg.params.lambda_stepvar = Millis(100);
  cfg.params.lambda_step = Millis(400);
  cfg.params.lambda_block = Millis(1500);
  cfg.params.recovery_interval = Minutes(5);

  LocalCluster cluster(cfg);
  Transaction tx = MakeTransaction(cluster.genesis().keys[0],
                                   cluster.genesis().keys[1].public_key, 25, 0,
                                   cluster.signer());
  cluster.node(0).GossipTransaction(tx);
  cluster.Start();
  ASSERT_TRUE(cluster.RunRounds(2, Seconds(30)));
  EXPECT_TRUE(cluster.ChainsConsistent());
  // The gossiped payment landed in a block.
  EXPECT_TRUE(cluster.node(3).ledger().IsConfirmed(tx.Id()) ||
              cluster.node(3).ledger().accounts().BalanceOf(
                  cluster.genesis().keys[1].public_key) == 1025);
  // Real bytes moved through real sockets.
  EXPECT_GT(cluster.endpoint(0).stats().bytes_sent, 1000u);
  EXPECT_GT(cluster.endpoint(0).stats().messages_received, 10u);
}

TEST(TcpClusterTest, KilledNodeRejoinsViaCatchupOverTcp) {
  LocalClusterConfig cfg;
  cfg.n_nodes = 6;
  cfg.rng_seed = 78;
  cfg.use_sim_crypto = true;
  cfg.enable_reconnect = true;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 4096;
  cfg.params.lambda_priority = Millis(100);
  cfg.params.lambda_stepvar = Millis(100);
  cfg.params.lambda_step = Millis(400);
  cfg.params.lambda_block = Millis(1500);
  cfg.params.recovery_interval = Minutes(5);
  // Wall-clock-friendly catch-up pacing.
  cfg.params.catchup_timeout = Seconds(2);
  cfg.params.catchup_backoff_base = Millis(200);
  cfg.params.catchup_backoff_max = Seconds(2);
  cfg.data_dir = ::testing::TempDir() + "algorand_tcp_rejoin";
  cfg.store_background_writer = false;
  std::filesystem::remove_all(cfg.data_dir);

  LocalCluster cluster(cfg);
  cluster.Start();
  ASSERT_TRUE(cluster.RunRounds(2, Seconds(30)));
  cluster.KillNode(2);
  EXPECT_FALSE(cluster.node_alive(2));
  // Survivors keep agreeing while node 2's port is dark (peers redial it
  // with backoff the whole time).
  ASSERT_TRUE(cluster.RunRounds(6, Seconds(60)));
  cluster.RestartNode(2, /*keep_disk=*/true);
  EXPECT_TRUE(cluster.node_alive(2));
  // RunRounds counts node 2 again, so success implies it caught up.
  ASSERT_TRUE(cluster.RunRounds(8, Seconds(90)));
  EXPECT_TRUE(cluster.ChainsConsistent());

  uint64_t max_len = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    max_len = std::max<uint64_t>(max_len, cluster.node(i).ledger().chain_length());
  }
  EXPECT_GE(cluster.node(2).ledger().chain_length() + 1, max_len);
  EXPECT_GE(cluster.node(2).catchups_completed(), 1u);

  auto m = cluster.AggregateMetrics();
  EXPECT_EQ(m.counters["restart.kills"], 1u);
  EXPECT_EQ(m.counters["restart.restarts"], 1u);
  EXPECT_GE(m.counters["catchup.completed"], 1u);
  EXPECT_GE(m.counters["catchup.blocks_applied"], 1u);
  std::filesystem::remove_all(cfg.data_dir);
}

TEST(TcpClusterTest, KilledNodeRestartsFromDiskLog) {
  LocalClusterConfig cfg;
  cfg.n_nodes = 6;
  cfg.rng_seed = 79;
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
  cfg.data_dir = ::testing::TempDir() + "algorand_tcp_disk";
  cfg.store_fsync = FsyncPolicy::kEveryRound;
  std::filesystem::remove_all(cfg.data_dir);

  LocalCluster cluster(cfg);
  cluster.Start();
  ASSERT_TRUE(cluster.RunRounds(2, Seconds(30)));
  ASSERT_NE(cluster.node_store(2), nullptr);
  // Barrier the background writer: RunRounds returns on round completion,
  // which can beat the writer thread to the log (a kill in that window
  // legitimately drops the queued tail, like a real SIGKILL).
  cluster.node_store(2)->Flush();
  EXPECT_GE(cluster.node_store(2)->max_round(), 2u);
  cluster.KillNode(2);
  EXPECT_EQ(cluster.node_store(2), nullptr);  // Parked with the dead node.
  ASSERT_TRUE(cluster.RunRounds(5, Seconds(60)));
  cluster.RestartNode(2, /*keep_disk=*/true);
  // The restart replayed the disk log: the rebuilt ledger already holds the
  // pre-crash rounds before catch-up runs.
  ASSERT_NE(cluster.node_store(2), nullptr);
  EXPECT_GE(cluster.node_store(2)->replayed_rounds(), 2u);
  EXPECT_GE(cluster.node(2).ledger().chain_length(), 3u);
  ASSERT_TRUE(cluster.RunRounds(7, Seconds(90)));
  EXPECT_TRUE(cluster.ChainsConsistent());
  // The store follows the live chain after the restart.
  cluster.node_store(2)->Flush();
  EXPECT_GE(cluster.node_store(2)->max_round(), 7u);

  auto m = cluster.AggregateMetrics();
  EXPECT_GT(m.counters["store.replay_rounds"], 0u);
  EXPECT_GT(m.counters["store.records_written"], 0u);
  std::filesystem::remove_all(cfg.data_dir);
}

}  // namespace
}  // namespace algorand
