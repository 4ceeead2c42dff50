#include "src/netsim/gossip.h"

#include <algorithm>
#include <queue>
#include <string>
#include <unordered_set>

namespace algorand {

GossipTopology::GossipTopology(size_t n_nodes, size_t out_degree, DeterministicRng* rng) {
  adj_.assign(n_nodes, {});
  if (n_nodes <= 1) {
    return;
  }
  // Each node dials `out_degree` distinct random peers; a connection is
  // bidirectional (TCP), so the expected total degree is about twice that
  // (out-peers plus whoever dialed us).
  std::vector<std::unordered_set<NodeId>> sets(n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    std::unordered_set<NodeId> dialed;
    size_t want = std::min(out_degree, n_nodes - 1);
    while (dialed.size() < want) {
      NodeId peer = static_cast<NodeId>(rng->UniformU64(n_nodes));
      if (peer == n) {
        continue;
      }
      if (dialed.insert(peer).second) {
        sets[n].insert(peer);
        sets[peer].insert(static_cast<NodeId>(n));
      }
    }
  }
  for (NodeId n = 0; n < n_nodes; ++n) {
    adj_[n].assign(sets[n].begin(), sets[n].end());
    std::sort(adj_[n].begin(), adj_[n].end());  // Determinism.
  }
}

double GossipTopology::average_degree() const {
  if (adj_.empty()) {
    return 0;
  }
  size_t total = 0;
  for (const auto& nbrs : adj_) {
    total += nbrs.size();
  }
  return static_cast<double>(total) / static_cast<double>(adj_.size());
}

size_t GossipTopology::LargestComponentLowerBound() const {
  if (adj_.empty()) {
    return 0;
  }
  std::vector<bool> visited(adj_.size(), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  visited[0] = true;
  size_t count = 0;
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop();
    ++count;
    for (NodeId peer : adj_[n]) {
      if (!visited[peer]) {
        visited[peer] = true;
        frontier.push(peer);
      }
    }
  }
  return count;
}

GossipAgent::GossipAgent(NodeId self, Transport* network, const GossipTopology* topology)
    : self_(self), network_(network), topology_(topology) {}

GossipAgent::~GossipAgent() { AttachMetrics(nullptr); }

void GossipAgent::AttachMetrics(MetricsRegistry* registry) {
  if (metrics_ != nullptr) {
    FoldMetrics();
    metrics_->RemoveCollector(collector_);
  }
  metrics_ = registry;
  counts_ = Counts{};
  msgs_in_by_kind_.clear();
  msgs_out_by_kind_.clear();
  if (registry == nullptr) {
    rejected_ = &fallback_rejected_;
    delivered_ = relayed_ = duplicates_dropped_ = bytes_in_ = bytes_out_ = nullptr;
    seen_size_gauge_ = nullptr;
    return;
  }
  duplicates_dropped_ = &registry->GetCounter("gossip.dup_dropped");
  rejected_ = &registry->GetCounter("gossip.rejected");
  seen_size_gauge_ = &registry->GetGauge("gossip.seen_size");
  delivered_ = &registry->GetCounter("gossip.delivered");
  relayed_ = &registry->GetCounter("gossip.relayed");
  bytes_in_ = &registry->GetCounter("gossip.bytes_in");
  bytes_out_ = &registry->GetCounter("gossip.bytes_out");
  collector_ = registry->AddCollector([this] { FoldMetrics(); });
}

uint64_t GossipAgent::duplicates_dropped() const {
  if (metrics_ == nullptr) {
    return counts_.dup_dropped;
  }
  metrics_->Collect();
  return duplicates_dropped_->Value();
}

void GossipAgent::CountKind(std::vector<KindCount>* counts, const SimMessage& msg, uint64_t n) {
  if (msg.kind() >= counts->size()) {
    counts->resize(msg.kind() + 1);
  }
  KindCount& slot = (*counts)[msg.kind()];
  if (slot.name == nullptr) {
    slot.name = msg.TypeName();
  }
  slot.count += n;
}

void GossipAgent::FoldKinds(std::vector<KindCount>* counts, const char* prefix) {
  for (KindCount& slot : *counts) {
    if (slot.count > 0) {
      metrics_->GetCounter(std::string(prefix) + slot.name).Increment(slot.count);
      slot.count = 0;
    }
  }
}

void GossipAgent::FoldMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  auto fold = [](uint64_t* count, Counter* counter) {
    if (*count > 0) {
      counter->Increment(*count);
      *count = 0;
    }
  };
  fold(&counts_.dup_dropped, duplicates_dropped_);
  fold(&counts_.bytes_in, bytes_in_);
  fold(&counts_.bytes_out, bytes_out_);
  FoldKinds(&msgs_in_by_kind_, "gossip.msgs_in.");
  FoldKinds(&msgs_out_by_kind_, "gossip.msgs_out.");
  // The gauge's last write was always the seen-set size at that moment, and
  // only those writes change the size, so setting the current size replays it.
  if (counts_.seen_size_changed) {
    seen_size_gauge_->Set(static_cast<int64_t>(seen_size()));
    counts_.seen_size_changed = false;
  }
}

void GossipAgent::CountSend(const MessagePtr& msg, size_t copies) {
  if (copies == 0) {
    return;
  }
  CountKind(&msgs_out_by_kind_, *msg, copies);
  counts_.bytes_out += msg->WireSize() * copies;
}

bool GossipAgent::MarkSeen(const Hash256& id) {
  if (seen_prev_.contains(id)) {
    return false;
  }
  bool inserted = seen_current_.insert(id);
  counts_.seen_size_changed |= inserted;
  return inserted;
}

void GossipAgent::AdvanceSeenWindow(uint64_t window) {
  if (window <= seen_window_) {
    return;
  }
  if (window == seen_window_ + 1) {
    std::swap(seen_prev_, seen_current_);
    seen_current_.clear();
  } else {
    seen_prev_.clear();
    seen_current_.clear();
  }
  seen_window_ = window;
  counts_.seen_size_changed = true;
}

void GossipAgent::Gossip(const MessagePtr& msg) {
  if (!MarkSeen(msg->DedupId())) {
    return;  // Already originated/relayed.
  }
  StampOrigination(msg);
  if (receiver_) {
    receiver_(self_, msg);  // Own message: delivered, its verdict unused.
  }
  Forward(msg, self_);
}

void GossipAgent::SendToNeighbors(const MessagePtr& msg) {
  MarkSeen(msg->DedupId());
  StampOrigination(msg);
  Forward(msg, self_);
}

void GossipAgent::SendTo(NodeId peer, const MessagePtr& msg) {
  MarkSeen(msg->DedupId());
  StampOrigination(msg);
  CountSend(msg, 1);
  network_->Send(self_, peer, msg);
}

void GossipAgent::OnReceive(NodeId from, const MessagePtr& msg) {
  CountKind(&msgs_in_by_kind_, *msg, 1);
  counts_.bytes_in += msg->WireSize();
  const Hash256& id = msg->DedupId();
  if (!MarkSeen(id)) {
    ++counts_.dup_dropped;
    return;
  }
  GossipVerdict verdict = receiver_ ? receiver_(from, msg) : GossipVerdict::kRelay;
  if (verdict == GossipVerdict::kReject) {
    // Unmarked (in whichever generation now holds it): a valid copy arriving
    // later is still usable.
    if (!seen_current_.erase(id)) {
      seen_prev_.erase(id);
    }
    rejected_->Increment();
    return;
  }
  if (delivered_ != nullptr) {
    delivered_->Increment();
  }
  if (verdict == GossipVerdict::kRelay) {
    if (relayed_ != nullptr) {
      relayed_->Increment();
    }
    Forward(msg, from);
  }
}

void GossipAgent::Forward(const MessagePtr& msg, NodeId except) {
  size_t copies = 0;
  for (NodeId peer : topology_->neighbors(self_)) {
    if (peer != except) {
      network_->Send(self_, peer, msg);
      ++copies;
    }
  }
  CountSend(msg, copies);
}

}  // namespace algorand
