#include "src/netsim/network.h"

namespace algorand {

Network::Network(Simulation* sim, LatencyModel* latency, NetworkConfig config, size_t n_nodes)
    : sim_(sim),
      latency_(latency),
      config_(config),
      uplink_free_at_(n_nodes, 0),
      control_free_at_(n_nodes, 0),
      uplink_rate_(n_nodes, config.uplink_bytes_per_sec),
      traffic_(n_nodes) {
  sim_->set_delivery_sink(this);
}

uint64_t Network::total_bytes_sent() const {
  uint64_t total = 0;
  for (const NodeTraffic& t : traffic_) {
    total += t.bytes_sent;
  }
  return total;
}

void Network::Send(NodeId from, NodeId to, const MessagePtr& msg) {
  const uint64_t size = msg->WireSize();
  traffic_[from].bytes_sent += size;
  traffic_[from].messages_sent += 1;

  // Uplink serialization: bulk messages queue on the uplink; small control
  // messages (votes, priorities) interleave on the priority channel.
  SimTime tx_time =
      static_cast<SimTime>(static_cast<double>(size) / uplink_rate_[from] *
                           static_cast<double>(kSecond));
  SimTime done;
  if (size <= config_.control_cutoff_bytes) {
    SimTime start = std::max(sim_->now(), control_free_at_[from]) + config_.send_overhead;
    done = start + tx_time;
    control_free_at_[from] = done;
  } else {
    SimTime start = std::max(sim_->now(), uplink_free_at_[from]) + config_.send_overhead;
    done = start + tx_time;
    uplink_free_at_[from] = done;
  }

  AdversaryAction action = AdversaryAction::Deliver();
  if (adversary_ != nullptr) {
    action = adversary_->OnTransmit(from, to, msg, sim_->now());
  }
  if (action.kind == AdversaryAction::kDrop) {
    return;  // Uplink time is still consumed (the bytes left the host).
  }

  // The delivery mutates the receiver's state, so it runs on `to`'s stream:
  // the engine routes it to to's shard (cross-shard sends ride the exchange
  // queues and land at a window barrier).
  SimTime arrival = done + latency_->Sample(from, to) + action.extra_delay;
  sim_->ScheduleDelivery(arrival, Delivery{msg, from, to});
}

void Network::Deliver(const Delivery& delivery) {
  NodeTraffic& traffic = traffic_[delivery.to];
  traffic.bytes_received += delivery.msg->WireSize();
  traffic.messages_received += 1;
  if (deliver_) {
    deliver_(delivery.to, delivery.from, delivery.msg);
  }
}

}  // namespace algorand
