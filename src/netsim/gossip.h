// Gossip overlay (§4 "Gossip protocol", §8.4).
//
// Topology: every node opens connections to a small number of random peers
// (4 in the paper's prototype) and also accepts incoming connections, for ~8
// neighbours on average. GossipAgent handles per-node relay behaviour:
// drop duplicates, hand each first-seen message to one receiver (supplied by
// the consensus layer, which checks the message, handles it and returns the
// relay verdict in the same call; it can accept-without-relay, e.g. for
// non-best block proposals), and forward to all neighbours except the one the
// message came from.
#ifndef ALGORAND_SRC_NETSIM_GOSSIP_H_
#define ALGORAND_SRC_NETSIM_GOSSIP_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/flat_set.h"
#include "src/common/rng.h"
#include "src/netsim/network.h"
#include "src/obs/metrics.h"

namespace algorand {

// Undirected neighbour lists built from random out-peer selection.
class GossipTopology {
 public:
  GossipTopology(size_t n_nodes, size_t out_degree, DeterministicRng* rng);

  const std::vector<NodeId>& neighbors(NodeId n) const { return adj_[n]; }
  size_t node_count() const { return adj_.size(); }

  // Average neighbour count (~2x out_degree).
  double average_degree() const;

  // Size of the connected component containing node 0 (the paper argues
  // almost all nodes land in one giant component).
  size_t LargestComponentLowerBound() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
};

// What the consensus layer's receiver tells the gossip agent to do with a
// first-seen message.
enum class GossipVerdict : uint8_t {
  kRelay = 0,        // Valid: deliver locally and forward to neighbours.
  kDeliverOnly = 1,  // Valid but don't forward (e.g. superseded proposal).
  kReject = 2,       // Invalid: drop silently.
};

class GossipAgent {
 public:
  // Checks and handles one message from `from` (this agent's own node for
  // a message it originates) and returns its relay verdict.
  using Receiver = std::function<GossipVerdict(NodeId from, const MessagePtr&)>;

  GossipAgent(NodeId self, Transport* network, const GossipTopology* topology);
  // Folds the last counts into the attached registry, which must outlive
  // the agent.
  ~GossipAgent();
  GossipAgent(const GossipAgent&) = delete;
  GossipAgent& operator=(const GossipAgent&) = delete;

  // A first-seen message is marked seen before the receiver runs (a receiver
  // that advances the seen window leaves it in the generation it arrived in)
  // and unmarked on kReject. Own messages (Gossip) arrive with from == self;
  // their verdict is ignored.
  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  // Reports this agent's relay counters in `registry` ("gossip.*" namespace,
  // per-message-kind ins/outs plus byte totals and the seen-set size). What
  // every delivery or send touches — the per-kind counts, the byte totals,
  // duplicates and the seen-set size — is counted in plain integers and
  // folded into the registry whenever it snapshots (see
  // MetricsRegistry::AddCollector), so a delivery costs no atomic operation.
  // The once-per-new-message outcomes (delivered, relayed, rejected) go to
  // the registry directly. Without a registry the agent still counts, so the
  // accessors below always work. Call before traffic flows.
  void AttachMetrics(MetricsRegistry* registry);

  // With a clock, every message this agent *originates* (Gossip,
  // SendToNeighbors, SendTo) is stamped with a trace context (self, now)
  // before its first send; relayed messages keep the originator's stamp
  // (StampTraceContext no-ops once set). Without a clock nothing is stamped.
  void set_clock(const Executor* clock) { clock_ = clock; }

  // Originates a message: delivers locally and forwards to all neighbours.
  void Gossip(const MessagePtr& msg);

  // Sends to neighbours without local delivery (used by adversarial nodes to
  // send conflicting payloads to disjoint peer subsets).
  void SendToNeighbors(const MessagePtr& msg);
  void SendTo(NodeId peer, const MessagePtr& msg);

  // Network delivery entry point.
  void OnReceive(NodeId from, const MessagePtr& msg);

  const std::vector<NodeId>& neighbors() const { return topology_->neighbors(self_); }
  // Every node the transport can address (the paper's §9 address book spans
  // all users, not just gossip neighbours).
  size_t network_size() const { return topology_->node_count(); }
  // With a registry these read its totals, which are network-wide when
  // several agents share one registry.
  uint64_t duplicates_dropped() const;
  uint64_t rejected() const { return rejected_->Value(); }

  // Round-windowed pruning of the dedup memory. The consensus layer calls
  // this when its round advances; ids inserted during window w survive
  // through window w+1 and are forgotten when w+2 begins (two generations).
  // That is enough for correctness because the receiver rejects
  // stale-round traffic anyway — a long-forgotten duplicate re-validates and
  // drops without relaying — while without pruning a chaos run leaks one
  // Hash256 per unique message per node forever. Jumping multiple windows at
  // once (catch-up) clears both generations.
  void AdvanceSeenWindow(uint64_t window);
  uint64_t seen_window() const { return seen_window_; }
  size_t seen_size() const { return seen_current_.size() + seen_prev_.size(); }

 private:
  void Forward(const MessagePtr& msg, NodeId except);
  void CountSend(const MessagePtr& msg, size_t copies);
  // Per-kind counts indexed by SimMessage::kind(), grown to the largest kind
  // seen. A kind is named after the TypeName() of its first message; its
  // registry counter is created at the first fold with a count to add, so a
  // snapshot lists exactly the kinds that passed.
  struct KindCount {
    const char* name = nullptr;
    uint64_t count = 0;
  };
  static void CountKind(std::vector<KindCount>* counts, const SimMessage& msg, uint64_t n);
  // Adds the counts gathered since the last fold into the registry and
  // zeroes them. The registry's collector.
  void FoldMetrics();
  void FoldKinds(std::vector<KindCount>* counts, const char* prefix);

  // Returns false if `id` was already known.
  bool MarkSeen(const Hash256& id);

  // Stamps outgoing originations when set (see set_clock).
  void StampOrigination(const MessagePtr& msg) const {
    if (clock_ != nullptr) {
      msg->StampTraceContext(self_, static_cast<uint64_t>(clock_->now()));
    }
  }

  NodeId self_;
  Transport* network_;
  const GossipTopology* topology_;
  const Executor* clock_ = nullptr;
  Receiver receiver_;
  // Two-generation dedup memory (see AdvanceSeenWindow).
  uint64_t seen_window_ = 0;
  FlatSet<Hash256> seen_current_;
  FlatSet<Hash256> seen_prev_;

  // Per-delivery and per-send counts since the last fold (all of them when
  // no registry is attached).
  struct Counts {
    uint64_t dup_dropped = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    bool seen_size_changed = false;
  };
  Counts counts_;
  std::vector<KindCount> msgs_in_by_kind_;
  std::vector<KindCount> msgs_out_by_kind_;

  // The attached registry's instruments, resolved at AttachMetrics. Without
  // a registry, rejections count into a private fallback counter and the
  // other outcomes are not counted.
  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry::CollectorId collector_ = 0;
  Counter fallback_rejected_;
  Counter* rejected_ = &fallback_rejected_;
  Counter* delivered_ = nullptr;
  Counter* relayed_ = nullptr;
  Counter* duplicates_dropped_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Gauge* seen_size_gauge_ = nullptr;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_GOSSIP_H_
