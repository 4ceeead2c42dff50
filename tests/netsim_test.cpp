// Discrete-event simulator, latency/bandwidth models, gossip overlay, and
// adversary tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/serialize.h"
#include "src/crypto/sha256.h"
#include "src/netsim/adversary.h"
#include "src/netsim/gossip.h"
#include "src/netsim/latency.h"
#include "src/netsim/network.h"
#include "src/netsim/simulation.h"

namespace algorand {
namespace {

// A trivial message carrying a numbered payload of a declared size.
class TestMessage : public SimMessage {
 public:
  // Kind 0: no protocol kind, so the wire codec would refuse it.
  TestMessage(uint64_t id, uint64_t size) : SimMessage(0), id_(id), size_(size) {}
  const char* TypeName() const override { return "test"; }
  std::vector<uint8_t> Serialize() const override { return {}; }
  uint64_t id() const { return id_; }

 protected:
  uint64_t ComputeWireSize() const override { return size_; }
  Hash256 ComputeDedupId() const override {
    Writer w;
    w.U64(id_);
    return Sha256::Hash(w.buffer());
  }

 private:
  uint64_t id_;
  uint64_t size_;
};

MessagePtr Msg(uint64_t id, uint64_t size = 100) {
  return std::make_shared<TestMessage>(id, size);
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Seconds(3), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Seconds(3));
}

TEST(SimulationTest, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Seconds(1), [&, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Reference queue for the engine's ordering contract, kept here as test code:
// a std::map keyed by (when, global?, key_stream, key_seq) with the engine's
// clamping and per-stream counters. Node-stream events are keyed by the
// stream that scheduled them; global-stream events (scheduled from outside
// any node) run after every node-stream event at their timestamp. A
// one-worker Simulation must execute exactly this total order.
class MapOracle {
 public:
  SimTime now() const { return now_; }
  void SetExternalStream(uint32_t stream) { external_ = stream; }
  void Schedule(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }
  void ScheduleAt(SimTime when, std::function<void()> fn) {
    ScheduleAtForStream(when, running_ ? current_ : external_, std::move(fn));
  }
  void ScheduleAtForStream(SimTime when, uint32_t stream, std::function<void()> fn) {
    const uint32_t src = running_ ? current_ : external_;
    const bool global = stream == Simulation::kGlobalStream;
    const uint64_t seq = global || src == Simulation::kGlobalStream ? global_seq_++
                                                                    : stream_seq_[src]++;
    queue_.emplace(Key{std::max(when, now_), global, global ? stream : src, seq},
                   Item{stream, std::move(fn)});
  }
  void RunUntil(SimTime deadline) {
    while (!queue_.empty() && std::get<0>(queue_.begin()->first) <= deadline) {
      auto node = queue_.extract(queue_.begin());
      now_ = std::get<0>(node.key());
      running_ = node.mapped().stream != Simulation::kGlobalStream;
      current_ = node.mapped().stream;
      node.mapped().fn();
      running_ = false;
    }
    now_ = std::max(now_, deadline);
  }
  void Run() { RunUntil(std::numeric_limits<SimTime>::max() - 1); }

 private:
  using Key = std::tuple<SimTime, bool, uint32_t, uint64_t>;
  struct Item {
    uint32_t stream;
    std::function<void()> fn;
  };
  SimTime now_ = 0;
  bool running_ = false;  // Inside a node-stream event.
  uint32_t current_ = 0;
  uint32_t external_ = Simulation::kGlobalStream;
  std::map<uint32_t, uint64_t> stream_seq_;
  uint64_t global_seq_ = 0;
  std::map<Key, Item> queue_;
};

// Runs a randomized schedule on `sim` — duplicate timestamps, three node
// streams plus global events, nested timers, cross-stream sends, a mid-run
// RunUntil boundary — and records the execution order. Top-level events land
// in [0, horizon), nested ones 0-3 `child_step`s after their parent.
template <typename Sim>
std::vector<int> RunMixedScheduleOn(Sim& sim, SimTime horizon = Seconds(5),
                                    SimTime child_step = Millis(250)) {
  std::vector<int> order;
  DeterministicRng rng(17);
  for (int i = 0; i < 300; ++i) {
    SimTime t = static_cast<SimTime>(rng.NextU64() % static_cast<uint64_t>(horizon));
    const uint32_t stream = i % 4 == 3 ? Simulation::kGlobalStream : static_cast<uint32_t>(i % 4);
    sim.SetExternalStream(stream);
    sim.ScheduleAt(t, [&sim, &order, &rng, i, child_step] {
      order.push_back(i);
      // Children land on coarse times so many collide, exercising key ties.
      SimTime d = static_cast<SimTime>(rng.NextU64() % 4) * child_step;
      if (i % 3 == 0) {
        sim.Schedule(d, [&order, i] { order.push_back(1000 + i); });
      }
      if (i % 5 == 0) {
        sim.ScheduleAtForStream(sim.now() + d, static_cast<uint32_t>(i % 3),
                                [&order, i] { order.push_back(2000 + i); });
      }
    });
  }
  sim.SetExternalStream(Simulation::kGlobalStream);
  sim.RunUntil(Seconds(2));
  sim.Run();
  return order;
}

TEST(SimulationTest, ExecutesInReferenceMapKeyOrder) {
  // The shard key calendars, the window barriers and the global-event map
  // must together preserve the exact total order the reference std::map
  // defines — this is what keeps replays bit-identical.
  Simulation sim(/*workers=*/1, /*n_streams=*/3, /*lookahead=*/Millis(300));
  MapOracle oracle;
  std::vector<int> engine_order = RunMixedScheduleOn(sim);
  std::vector<int> oracle_order = RunMixedScheduleOn(oracle);
  ASSERT_EQ(engine_order.size(), oracle_order.size());
  EXPECT_EQ(engine_order, oracle_order);
}

// Sparse timers with minutes-long gaps, ties and nested far timers: the
// calendar must jump over empty stretches straight to its far heap.
template <typename Sim>
std::vector<int> RunSparseScheduleOn(Sim& sim) {
  std::vector<int> order;
  const SimTime times[] = {Seconds(300), 0, Millis(1), Seconds(30), Seconds(30), Seconds(90),
                           Seconds(90) + 1, Seconds(30) + 1, Seconds(700)};
  for (int i = 0; i < 9; ++i) {
    sim.SetExternalStream(static_cast<uint32_t>(i % 3));
    sim.ScheduleAt(times[i], [&sim, &order, i] {
      order.push_back(i);
      sim.Schedule(Seconds(45) * (i % 3), [&order, i] { order.push_back(100 + i); });
    });
  }
  sim.SetExternalStream(Simulation::kGlobalStream);
  sim.Run();
  return order;
}

TEST(SimulationTest, CalendarKeepsReferenceOrderAcrossFarTimers) {
  // The mixed schedule stretched over two minutes, with nested timers up to
  // 27 s out (beyond the calendar's ~17 s ring, so they wait in its far
  // heap), and a sparse one whose gaps leave the ring empty.
  Simulation sim(/*workers=*/1, /*n_streams=*/3, /*lookahead=*/Millis(300));
  MapOracle oracle;
  std::vector<int> engine_order = RunMixedScheduleOn(sim, Seconds(120), Seconds(9));
  std::vector<int> oracle_order = RunMixedScheduleOn(oracle, Seconds(120), Seconds(9));
  ASSERT_EQ(engine_order.size(), oracle_order.size());
  EXPECT_EQ(engine_order, oracle_order);
  Simulation sparse(/*workers=*/1, /*n_streams=*/3, /*lookahead=*/Millis(300));
  MapOracle sparse_oracle;
  EXPECT_EQ(RunSparseScheduleOn(sparse), RunSparseScheduleOn(sparse_oracle));
  EXPECT_EQ(sparse.executed_events(), 18u);
}

// Counts destructions of live (not moved-from) instances, so a callback
// destroyed twice or never shows up in the count.
struct DestroyProbe {
  explicit DestroyProbe(int* destroyed) : destroyed(destroyed) {}
  DestroyProbe(DestroyProbe&& other) noexcept : destroyed(other.destroyed) {
    other.destroyed = nullptr;
  }
  DestroyProbe(const DestroyProbe&) = delete;
  ~DestroyProbe() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
  int* destroyed;
};

TEST(SimulationTest, DestroysPendingCallbacksExactlyOnce) {
  // Inline callbacks and heap-spilled ones (captures above the 48-byte inline
  // buffer), some run and some still pending, with freed slab slots reused:
  // every callback is destroyed exactly once, by the run or by ~Simulation.
  int destroyed = 0;
  int ran = 0;
  const int kEach = 64;
  {
    Simulation sim;
    sim.SetExternalStream(0);
    for (int i = 0; i < kEach; ++i) {
      sim.Schedule(Millis(i), [p = DestroyProbe(&destroyed), &ran] { ++ran; });
      std::array<uint64_t, 8> spill{};
      sim.Schedule(Millis(i), [p = DestroyProbe(&destroyed), spill, &ran] {
        ran += 1 + static_cast<int>(spill[0]);
      });
    }
    sim.RunUntil(Millis(kEach / 2));
    const int ran_first = ran;
    EXPECT_GT(ran_first, 0);
    EXPECT_EQ(destroyed, ran_first);  // Run callbacks are gone already.
    // Reuse the freed slots for new pending events, then drop the engine.
    sim.SetExternalStream(0);
    for (int i = 0; i < kEach / 2; ++i) {
      sim.Schedule(Seconds(1), [p = DestroyProbe(&destroyed), &ran] { ++ran; });
    }
    EXPECT_EQ(sim.pending_events(), static_cast<size_t>(2 * kEach - ran_first + kEach / 2));
  }
  EXPECT_EQ(destroyed, 2 * kEach + kEach / 2);
  EXPECT_LT(ran, 2 * kEach);
}

// Counts its own move constructions: each is one relocation of the
// UniqueCallback holding it. `at_run` records the count when it runs.
struct MoveCounter {
  MoveCounter(int* moves, int* at_run) : moves(moves), at_run(at_run) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves), at_run(other.at_run) {
    ++*moves;
  }
  void operator()() const { *at_run = *moves; }
  int* moves;
  int* at_run;
};

TEST(SimulationTest, ScheduleRelocatesACallbackAtMostTwice) {
  // Executor::Schedule takes the callback by rvalue reference down to the
  // event slot: one relocation into the slot, one out of it before it runs.
  // The second round reuses the freed slot.
  Simulation sim;
  Executor& executor = sim;
  for (int round = 0; round < 2; ++round) {
    int moves = 0;
    int at_run = -1;
    Executor::Callback fn(MoveCounter(&moves, &at_run));
    moves = 0;
    executor.Schedule(Millis(5), std::move(fn));
    sim.Run();
    EXPECT_GE(at_run, 0) << "round " << round;
    EXPECT_LE(at_run, 2) << "round " << round;
    at_run = -1;
    moves = 0;
    Executor::Callback at(MoveCounter(&moves, &at_run));
    moves = 0;
    executor.ScheduleAt(sim.now() + Millis(5), std::move(at));
    sim.Run();
    EXPECT_GE(at_run, 0) << "round " << round;
    EXPECT_LE(at_run, 2) << "round " << round;
  }
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    sim.Schedule(Seconds(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Seconds(2));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(5), [&] { ++fired; });
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Seconds(3));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Seconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, PastSchedulingClampsToNow) {
  Simulation sim;
  sim.Schedule(Seconds(2), [] {});
  sim.Run();
  bool ran = false;
  sim.ScheduleAt(Seconds(1), [&] { ran = true; });  // In the past.
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), Seconds(2));
}

TEST(UniformLatencyTest, WithinBounds) {
  UniformLatencyModel model(Millis(50), Millis(10), 1, /*n_senders=*/1);
  for (int i = 0; i < 100; ++i) {
    SimTime s = model.Sample(0, 1);
    EXPECT_GE(s, Millis(50));
    EXPECT_LT(s, Millis(60));
  }
}

TEST(CityLatencyTest, IntraCityIsFast) {
  CityLatencyModel model(40, 7);
  // Nodes 0 and 20 are both in city 0 (round-robin assignment).
  EXPECT_EQ(model.city_of(0), model.city_of(20));
  EXPECT_LT(model.BaseLatency(0, 0), Millis(2));
}

TEST(CityLatencyTest, CrossOceanIsSlow) {
  CityLatencyModel model(40, 7);
  // New York (0) <-> Tokyo (14): tens of milliseconds one-way.
  SimTime base = model.BaseLatency(0, 14);
  EXPECT_GT(base, Millis(60));
  EXPECT_LT(base, Millis(200));
}

TEST(CityLatencyTest, SymmetricBase) {
  CityLatencyModel model(40, 7);
  for (int a = 0; a < 20; ++a) {
    for (int b = 0; b < 20; ++b) {
      EXPECT_EQ(model.BaseLatency(a, b), model.BaseLatency(b, a));
    }
  }
}

TEST(CityLatencyTest, JitterIsNonNegative) {
  CityLatencyModel model(40, 7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(model.Sample(0, 14), model.BaseLatency(0, 14));
  }
}

struct NetFixture {
  NetFixture(size_t n, NetworkConfig cfg = {})
      : latency(Millis(10), 0, 1, n), network(&sim, &latency, cfg, n) {
    network.set_delivery_handler([this](NodeId to, NodeId from, const MessagePtr& msg) {
      deliveries.push_back({to, from, std::static_pointer_cast<const TestMessage>(msg)->id(),
                            sim.now()});
    });
  }
  struct Delivery {
    NodeId to;
    NodeId from;
    uint64_t id;
    SimTime at;
  };
  Simulation sim;
  UniformLatencyModel latency;
  Network network;
  std::vector<Delivery> deliveries;
};

TEST(NetworkTest, DeliversWithLatency) {
  NetFixture f(2);
  f.network.Send(0, 1, Msg(7, 1000));
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].to, 1u);
  EXPECT_EQ(f.deliveries[0].id, 7u);
  // 1000 bytes at 2.5 MB/s = 0.4 ms tx + 10 ms latency + 50 us overhead.
  EXPECT_GT(f.deliveries[0].at, Millis(10));
  EXPECT_LT(f.deliveries[0].at, Millis(12));
}

TEST(NetworkTest, UplinkSerializesConcurrentSends) {
  // Two 1 MB messages sent back-to-back: the second waits for the first's
  // transmission to finish, so it arrives ~0.42 s later.
  NetFixture f(3);
  f.network.Send(0, 1, Msg(1, 1 << 20));
  f.network.Send(0, 2, Msg(2, 1 << 20));
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  SimTime gap = f.deliveries[1].at - f.deliveries[0].at;
  SimTime expected_tx = static_cast<SimTime>((1 << 20) / (20e6 / 8) * kSecond);
  EXPECT_NEAR(static_cast<double>(gap), static_cast<double>(expected_tx),
              static_cast<double>(Millis(1)));
}

TEST(NetworkTest, TracksTraffic) {
  NetFixture f(2);
  f.network.Send(0, 1, Msg(1, 500));
  f.network.Send(0, 1, Msg(2, 300));
  f.sim.Run();
  EXPECT_EQ(f.network.traffic(0).bytes_sent, 800u);
  EXPECT_EQ(f.network.traffic(0).messages_sent, 2u);
  EXPECT_EQ(f.network.traffic(1).bytes_received, 800u);
  EXPECT_EQ(f.network.traffic(1).messages_received, 2u);
  EXPECT_EQ(f.network.total_bytes_sent(), 800u);
}

TEST(NetworkTest, PerNodeUplinkOverride) {
  NetFixture f(2);
  f.network.set_uplink(0, 1000.0);  // 1 KB/s: 1000 bytes takes a second.
  f.network.Send(0, 1, Msg(1, 1000));
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_GT(f.deliveries[0].at, Seconds(1));
}

TEST(AdversaryTest, PartitionBlocksCrossGroupTraffic) {
  NetFixture f(4);
  PartitionAdversary adversary({0, 1}, 0, Seconds(100));
  f.network.set_adversary(&adversary);
  f.network.Send(0, 1, Msg(1));  // Same group: delivered.
  f.network.Send(0, 2, Msg(2));  // Cross group: dropped.
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].id, 1u);
}

TEST(AdversaryTest, PartitionHealsAfterEnd) {
  NetFixture f(4);
  PartitionAdversary adversary({0, 1}, 0, Seconds(5));
  f.network.set_adversary(&adversary);
  f.sim.Schedule(Seconds(10), [&] { f.network.Send(0, 2, Msg(3)); });
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].id, 3u);
}

TEST(AdversaryTest, TargetedDosSilencesVictim) {
  NetFixture f(3);
  TargetedDosAdversary adversary({1}, 0, Seconds(100));
  f.network.set_adversary(&adversary);
  f.network.Send(0, 1, Msg(1));  // To victim: dropped.
  f.network.Send(1, 2, Msg(2));  // From victim: dropped.
  f.network.Send(0, 2, Msg(3));  // Unrelated: delivered.
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].id, 3u);
}

TEST(AdversaryTest, LossyDropsApproximatelyAtRate) {
  NetFixture f(2);
  LossyAdversary adversary(0.3, 99, /*n_senders=*/2);
  f.network.set_adversary(&adversary);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    f.network.Send(0, 1, Msg(static_cast<uint64_t>(i), 10));
  }
  f.sim.Run();
  double rate = 1.0 - static_cast<double>(f.deliveries.size()) / n;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(AdversaryTest, DelayedDeliveryArrivesLater) {
  NetFixture f(2);
  class DelayAll : public NetworkAdversary {
   public:
    AdversaryAction OnTransmit(NodeId, NodeId, const MessagePtr&, SimTime) override {
      return AdversaryAction::Delay(Seconds(30));
    }
  } adversary;
  f.network.set_adversary(&adversary);
  f.network.Send(0, 1, Msg(1));
  f.sim.Run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_GT(f.deliveries[0].at, Seconds(30));
}

TEST(TopologyTest, DegreeAveragesTwiceOutDegree) {
  DeterministicRng rng(5);
  GossipTopology topo(200, 4, &rng);
  EXPECT_NEAR(topo.average_degree(), 8.0, 1.0);
}

TEST(TopologyTest, NeighborsAreSymmetric) {
  DeterministicRng rng(6);
  GossipTopology topo(50, 4, &rng);
  for (NodeId n = 0; n < 50; ++n) {
    for (NodeId peer : topo.neighbors(n)) {
      const auto& back = topo.neighbors(peer);
      EXPECT_NE(std::find(back.begin(), back.end(), n), back.end());
    }
  }
}

TEST(TopologyTest, NoSelfLoops) {
  DeterministicRng rng(7);
  GossipTopology topo(50, 4, &rng);
  for (NodeId n = 0; n < 50; ++n) {
    const auto& nbrs = topo.neighbors(n);
    EXPECT_EQ(std::find(nbrs.begin(), nbrs.end(), n), nbrs.end());
  }
}

TEST(TopologyTest, GiantComponentCoversAlmostEveryone) {
  DeterministicRng rng(8);
  GossipTopology topo(500, 4, &rng);
  EXPECT_GE(topo.LargestComponentLowerBound(), 495u);
}

TEST(TopologyTest, TinyNetworks) {
  DeterministicRng rng(9);
  GossipTopology one(1, 4, &rng);
  EXPECT_TRUE(one.neighbors(0).empty());
  GossipTopology two(2, 4, &rng);
  EXPECT_EQ(two.neighbors(0).size(), 1u);
}

struct GossipFixture {
  explicit GossipFixture(size_t n, uint64_t seed = 11)
      : rng(seed), latency(Millis(10), Millis(2), seed, n), network(&sim, &latency, {}, n),
        topology(n, 4, &rng) {
    agents.reserve(n);
    received.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<GossipAgent>(i, &network, &topology));
      // One shared registry: same-named counters aggregate across agents.
      agents.back()->AttachMetrics(&metrics);
      agents.back()->set_receiver([this, i](NodeId, const MessagePtr& msg) {
        if (verdict != GossipVerdict::kReject) {
          received[i].insert(std::static_pointer_cast<const TestMessage>(msg)->id());
        }
        return verdict;
      });
    }
    network.set_delivery_handler([this](NodeId to, NodeId from, const MessagePtr& msg) {
      agents[to]->OnReceive(from, msg);
    });
  }
  DeterministicRng rng;
  Simulation sim;
  UniformLatencyModel latency;
  Network network;
  GossipTopology topology;
  MetricsRegistry metrics;
  std::vector<std::unique_ptr<GossipAgent>> agents;
  std::vector<std::set<uint64_t>> received;
  // Every agent's receiver returns this verdict (and records the message
  // unless it rejects it).
  GossipVerdict verdict = GossipVerdict::kRelay;
};

TEST(GossipTest, SeenWindowPrunesAfterTwoGenerations) {
  GossipFixture f(20);
  f.agents[0]->Gossip(Msg(1));
  f.sim.Run();
  ASSERT_GT(f.agents[5]->seen_size(), 0u);

  // Window w+1: ids from window w survive one more generation.
  for (auto& agent : f.agents) {
    agent->AdvanceSeenWindow(1);
  }
  EXPECT_GT(f.agents[5]->seen_size(), 0u);

  // Window w+2: the old generation is forgotten.
  for (auto& agent : f.agents) {
    agent->AdvanceSeenWindow(2);
  }
  EXPECT_EQ(f.agents[5]->seen_size(), 0u);
  EXPECT_EQ(f.agents[5]->seen_window(), 2u);

  // The registry gauge tracks the same pruning (shared registry: the last
  // writer's size, which is 0 for every agent now).
  MetricsSnapshot snap = f.metrics.Snapshot();
  auto it = snap.gauges.find("gossip.seen_size");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 0);
}

TEST(GossipTest, SeenWindowJumpClearsBothGenerations) {
  GossipFixture f(10);
  f.agents[0]->Gossip(Msg(2));
  f.sim.Run();
  ASSERT_GT(f.agents[3]->seen_size(), 0u);
  // A multi-window jump (catch-up) clears everything at once.
  f.agents[3]->AdvanceSeenWindow(7);
  EXPECT_EQ(f.agents[3]->seen_size(), 0u);
  // Moving backwards is a no-op.
  f.agents[3]->AdvanceSeenWindow(3);
  EXPECT_EQ(f.agents[3]->seen_window(), 7u);
}

TEST(GossipTest, SeenWindowJumpForgetsIdsOfBothGenerations) {
  GossipFixture f(10);
  f.verdict = GossipVerdict::kDeliverOnly;
  f.agents[1]->SendTo(2, Msg(4));  // Window 0: lands in the previous generation.
  f.sim.Run();
  f.agents[2]->AdvanceSeenWindow(1);
  f.agents[1]->SendTo(2, Msg(5));  // Window 1: the current generation.
  f.sim.Run();
  const uint64_t dupes = f.agents[2]->duplicates_dropped();
  ASSERT_EQ(f.received[2].size(), 2u);
  // A two-window jump forgets both generations: each id is first-seen again.
  f.agents[2]->AdvanceSeenWindow(3);
  EXPECT_EQ(f.agents[2]->seen_size(), 0u);
  f.received[2].clear();
  f.agents[1]->SendTo(2, Msg(4));
  f.agents[1]->SendTo(2, Msg(5));
  f.sim.Run();
  EXPECT_EQ(f.received[2], (std::set<uint64_t>{4, 5}));
  EXPECT_EQ(f.agents[2]->duplicates_dropped(), dupes);
  EXPECT_EQ(f.agents[2]->seen_size(), 2u);
}

TEST(GossipTest, PrunedIdsAreFirstSeenAgain) {
  // After pruning, a replayed duplicate counts as first-seen; in the real
  // node Receive rejects the stale replay, which is what makes the
  // two-generation window safe. kDeliverOnly keeps the check deterministic
  // (no relay fan-out).
  GossipFixture f(10);
  f.verdict = GossipVerdict::kDeliverOnly;
  f.agents[1]->SendTo(2, Msg(3));
  f.sim.Run();
  uint64_t dupes_before = f.agents[0]->duplicates_dropped();
  // Same id again without pruning: dropped as duplicate.
  f.agents[1]->SendTo(2, Msg(3));
  f.sim.Run();
  EXPECT_EQ(f.agents[0]->duplicates_dropped(), dupes_before + 1);
  // Prune both generations, then replay: treated as new, not a duplicate.
  for (auto& agent : f.agents) {
    agent->AdvanceSeenWindow(2);
  }
  f.agents[1]->SendTo(2, Msg(3));
  f.sim.Run();
  EXPECT_EQ(f.agents[0]->duplicates_dropped(), dupes_before + 1);
  EXPECT_GT(f.agents[2]->seen_size(), 0u);  // Re-marked seen on re-delivery.
}

// The agent marks a message seen before its receiver runs. A receiver that
// ends the round advances the seen window while it handles the message, and
// the message's id must stay in the generation it arrived in: two windows
// after its arrival it is forgotten, and a re-delivery is judged again.
TEST(GossipTest, IdMarkedBeforeAReceiverThatAdvancesTheWindow) {
  GossipFixture f(4);
  MetricsRegistry solo;
  GossipAgent agent(0, &f.network, &f.topology);
  agent.AttachMetrics(&solo);
  int calls = 0;
  agent.set_receiver([&](NodeId, const MessagePtr&) {
    if (++calls == 1) {
      agent.AdvanceSeenWindow(1);  // The message ends window 0.
      return GossipVerdict::kDeliverOnly;
    }
    return GossipVerdict::kReject;  // A stale replay.
  });
  agent.OnReceive(1, Msg(6));
  agent.AdvanceSeenWindow(2);
  agent.OnReceive(2, Msg(6));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(agent.rejected(), 1u);
  EXPECT_EQ(agent.duplicates_dropped(), 0u);
  EXPECT_EQ(agent.seen_size(), 0u);
}

// A rejected message is left unseen, so a valid copy arriving later is
// delivered.
TEST(GossipTest, RejectedIdIsLeftUnseen) {
  GossipFixture f(4);
  MetricsRegistry solo;
  GossipAgent agent(0, &f.network, &f.topology);
  agent.AttachMetrics(&solo);
  GossipVerdict next = GossipVerdict::kReject;
  agent.set_receiver([&](NodeId, const MessagePtr&) { return next; });
  agent.OnReceive(1, Msg(8));
  EXPECT_EQ(agent.seen_size(), 0u);
  next = GossipVerdict::kDeliverOnly;
  agent.OnReceive(2, Msg(8));
  agent.OnReceive(3, Msg(8));
  MetricsSnapshot snap = solo.Snapshot();
  EXPECT_EQ(snap.CounterValue("gossip.rejected"), 1u);
  EXPECT_EQ(snap.CounterValue("gossip.delivered"), 1u);
  EXPECT_EQ(snap.CounterValue("gossip.dup_dropped"), 1u);
  EXPECT_EQ(snap.gauges.at("gossip.seen_size"), 1);
}

TEST(GossipTest, BroadcastReachesEveryone) {
  GossipFixture f(100);
  f.agents[0]->Gossip(Msg(42));
  f.sim.Run();
  size_t got = 0;
  for (const auto& r : f.received) {
    got += r.count(42);
  }
  EXPECT_GE(got, 99u);  // Tiny disconnected components are tolerated.
}

TEST(GossipTest, DuplicatesAreDropped) {
  GossipFixture f(50);
  f.agents[0]->Gossip(Msg(1));
  f.sim.Run();
  // The fixture attaches every agent to one shared registry, so any agent's
  // accessor reads the network-wide total — one observability path.
  uint64_t dupes = f.agents[0]->duplicates_dropped();
  // With ~8 average degree, every node receives the message several times.
  EXPECT_GT(dupes, 50u);
  MetricsSnapshot snap = f.metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("gossip.dup_dropped"), dupes);
  // But each node delivered it exactly once.
  for (const auto& r : f.received) {
    EXPECT_LE(r.size(), 1u);
  }
}

TEST(GossipTest, RegistryCountersBalance) {
  GossipFixture f(50);
  f.agents[0]->Gossip(Msg(7));
  f.agents[1]->Gossip(Msg(8));
  f.sim.Run();
  MetricsSnapshot snap = f.metrics.Snapshot();
  uint64_t in = snap.CounterSumByPrefix("gossip.msgs_in.");
  uint64_t out = snap.CounterSumByPrefix("gossip.msgs_out.");
  // The simulated network loses nothing: every sent copy arrives.
  EXPECT_EQ(in, out);
  EXPECT_GT(in, 0u);
  // Every arrival is classified exactly once: new (delivered) or duplicate.
  EXPECT_EQ(in, snap.CounterValue("gossip.delivered") + snap.CounterValue("gossip.dup_dropped") +
                    snap.CounterValue("gossip.rejected"));
  // Bytes flow matches message flow.
  EXPECT_EQ(snap.CounterValue("gossip.bytes_in"), snap.CounterValue("gossip.bytes_out"));
  EXPECT_GT(snap.CounterValue("gossip.bytes_in"), 0u);
}

TEST(GossipTest, DestroyedAgentFoldsItsLastCounts) {
  // Nothing snapshots the registry while the agent lives, so every count
  // below reaches it through the fold in the agent's destructor.
  GossipFixture f(4);
  MetricsRegistry solo;
  {
    GossipAgent agent(0, &f.network, &f.topology);
    agent.AttachMetrics(&solo);
    agent.set_receiver([](NodeId, const MessagePtr&) { return GossipVerdict::kDeliverOnly; });
    agent.OnReceive(1, Msg(9));
    agent.OnReceive(2, Msg(9));
  }
  MetricsSnapshot snap = solo.Snapshot();
  EXPECT_EQ(snap.CounterSumByPrefix("gossip.msgs_in."), 2u);
  EXPECT_EQ(snap.CounterValue("gossip.bytes_in"), 200u);
  EXPECT_EQ(snap.CounterValue("gossip.delivered"), 1u);
  EXPECT_EQ(snap.CounterValue("gossip.dup_dropped"), 1u);
  EXPECT_EQ(snap.gauges.at("gossip.seen_size"), 1);
}

TEST(GossipTest, RejectedMessagesAreNotRelayedOrDelivered) {
  GossipFixture f(30);
  f.verdict = GossipVerdict::kReject;
  // The originator's own verdict is ignored (it built the message).
  f.agents[0]->Gossip(Msg(5));
  f.sim.Run();
  size_t got = 0;
  for (NodeId i = 1; i < 30; ++i) {
    got += f.received[i].size();
  }
  EXPECT_EQ(got, 0u);
  // Only the originator's direct neighbours saw it at all. The registry is
  // shared, so one agent's accessor is the network-wide rejection count.
  EXPECT_EQ(f.agents[0]->rejected(), f.topology.neighbors(0).size());
}

TEST(GossipTest, DeliverOnlyStopsPropagation) {
  GossipFixture f(100);
  f.verdict = GossipVerdict::kDeliverOnly;
  f.agents[0]->Gossip(Msg(9));
  f.sim.Run();
  // Only direct neighbours of the originator receive it.
  size_t got = 0;
  for (NodeId i = 1; i < 100; ++i) {
    got += f.received[i].size();
  }
  EXPECT_EQ(got, f.topology.neighbors(0).size());
}

TEST(GossipTest, PropagationTimeGrowsLogarithmically) {
  // Gossip dissemination time should grow slowly with network size (§8.4).
  auto measure = [](size_t n) {
    GossipFixture f(n, 13);
    SimTime done = 0;
    size_t target = n - n / 50;  // 98% coverage.
    f.agents[0]->Gossip(Msg(1, 200));
    // Track the time the target-th node first receives.
    size_t got = 0;
    for (NodeId i = 0; i < n; ++i) {
      f.agents[i]->set_receiver([&, i](NodeId, const MessagePtr&) {
        f.received[i].insert(1);
        if (++got == target) {
          done = f.sim.now();
        }
        return GossipVerdict::kRelay;
      });
    }
    f.sim.Run();
    return done;
  };
  SimTime t100 = measure(100);
  SimTime t400 = measure(400);
  EXPECT_GT(t100, 0);
  EXPECT_GT(t400, 0);
  // 4x nodes should cost far less than 4x time (log diameter).
  EXPECT_LT(t400, t100 * 3);
}

TEST(GossipTest, EquivocationViaDirectSends) {
  // A malicious origin can send different payloads to different neighbours
  // using SendTo; honest relays then spread both versions.
  GossipFixture f(60);
  const auto& nbrs = f.topology.neighbors(0);
  ASSERT_GE(nbrs.size(), 2u);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    f.agents[0]->SendTo(nbrs[i], Msg(i % 2 == 0 ? 100 : 200));
  }
  f.sim.Run();
  size_t saw_100 = 0, saw_200 = 0;
  for (const auto& r : f.received) {
    saw_100 += r.count(100);
    saw_200 += r.count(200);
  }
  EXPECT_GT(saw_100, 10u);
  EXPECT_GT(saw_200, 10u);
}

}  // namespace
}  // namespace algorand
