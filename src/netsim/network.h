// Point-to-point transport with bandwidth serialization and latency.
//
// Each node has an uplink of fixed capacity (20 Mbit/s per process in the
// paper's testbed). Sending a message occupies the uplink for
// size/bandwidth; concurrent sends queue behind each other, which is what
// makes large blocks slow to gossip (Figure 7) and what starves the
// 500-users-per-VM configuration (Figure 6). Propagation delay then comes
// from the latency model, and the adversary can drop or delay any
// transmission.
#ifndef ALGORAND_SRC_NETSIM_NETWORK_H_
#define ALGORAND_SRC_NETSIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/netsim/adversary.h"
#include "src/netsim/latency.h"
#include "src/netsim/message.h"
#include "src/netsim/simulation.h"
#include "src/netsim/transport.h"

namespace algorand {

struct NetworkConfig {
  // Uplink capacity per node, bytes per second. 20 Mbit/s default.
  double uplink_bytes_per_sec = 20e6 / 8;
  // Fixed per-message processing overhead at the sender.
  SimTime send_overhead = Micros(50);
  // Messages at or below this size ride a priority channel and do not queue
  // behind bulk transfers (blocks). This models TCP packet interleaving
  // across a node's peer connections: a 300-byte vote slips out between
  // block segments instead of waiting for megabytes to drain. Control
  // traffic is <1% of bytes, so the capacity it "borrows" is negligible.
  uint64_t control_cutoff_bytes = 4096;
};

struct NodeTraffic {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
};

class Network final : public Transport, private DeliverySink {
 public:
  using DeliveryHandler = std::function<void(NodeId to, NodeId from, const MessagePtr&)>;

  // Registers itself as `sim`'s delivery sink, so it must outlive every
  // delivery it schedules there.
  Network(Simulation* sim, LatencyModel* latency, NetworkConfig config, size_t n_nodes);

  // Delivery callback invoked when a message arrives at a node.
  void set_delivery_handler(DeliveryHandler handler) { deliver_ = std::move(handler); }
  // Optional adversary inspecting every transmission.
  void set_adversary(NetworkAdversary* adversary) { adversary_ = adversary; }

  // Sends `msg` from -> to. Charges the sender's uplink and schedules
  // delivery.
  void Send(NodeId from, NodeId to, const MessagePtr& msg) override;

  size_t node_count() const { return traffic_.size(); }
  const NodeTraffic& traffic(NodeId n) const { return traffic_[n]; }
  uint64_t total_bytes_sent() const;

  // Overrides one node's uplink capacity (heterogeneous experiments).
  void set_uplink(NodeId n, double bytes_per_sec) { uplink_rate_[n] = bytes_per_sec; }

 private:
  // A scheduled delivery arrives: receive accounting, then the handler.
  void Deliver(const Delivery& delivery) override;

  Simulation* sim_;
  LatencyModel* latency_;
  NetworkConfig config_;
  NetworkAdversary* adversary_ = nullptr;
  DeliveryHandler deliver_;

  std::vector<SimTime> uplink_free_at_;   // Bulk channel: next idle instant.
  std::vector<SimTime> control_free_at_;  // Priority channel for small messages.
  std::vector<double> uplink_rate_;
  std::vector<NodeTraffic> traffic_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_NETWORK_H_
