// Network adversary hooks (§3's threat model).
//
// The adversary inspects every point-to-point transmission and can drop or
// delay it. Implementations model partitions ("the adversary may temporarily
// fully control the network"), targeted DoS of specific nodes, and plain
// packet loss.
#ifndef ALGORAND_SRC_NETSIM_ADVERSARY_H_
#define ALGORAND_SRC_NETSIM_ADVERSARY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time_units.h"
#include "src/netsim/latency.h"
#include "src/netsim/message.h"

namespace algorand {

struct AdversaryAction {
  enum Kind { kDeliver, kDrop, kDelay } kind = kDeliver;
  SimTime extra_delay = 0;

  static AdversaryAction Deliver() { return {kDeliver, 0}; }
  static AdversaryAction Drop() { return {kDrop, 0}; }
  static AdversaryAction Delay(SimTime d) { return {kDelay, d}; }
};

// OnTransmit is called from the sending node's execution context. With more
// than one engine worker different senders call concurrently, so
// implementations must be race-free; those whose *decisions* depend on
// cross-sender mutable state (src/core's VoterDosAdversary) are additionally
// order-sensitive and only give reproducible drop patterns with workers=1.
// Adversaries that sample randomness keep one stream per sender
// (ForkPerSender) so concurrent transmissions stay deterministic.
class NetworkAdversary {
 public:
  virtual ~NetworkAdversary() = default;
  virtual AdversaryAction OnTransmit(NodeId from, NodeId to, const MessagePtr& msg,
                                     SimTime now) = 0;
};

// Delegates every per-transmission decision to an external decider — the
// model checker's adversary choice point. The decider sees (from, to, msg,
// now) and returns deliver/drop/delay; one-worker engine use only (deciders
// are stateful strategy callbacks and not thread-safe).
class HookedAdversary : public NetworkAdversary {
 public:
  using Decider =
      std::function<AdversaryAction(NodeId from, NodeId to, const MessagePtr& msg, SimTime now)>;

  explicit HookedAdversary(Decider decider) : decider_(std::move(decider)) {}

  AdversaryAction OnTransmit(NodeId from, NodeId to, const MessagePtr& msg,
                             SimTime now) override {
    if (!decider_) {
      return AdversaryAction::Deliver();
    }
    AdversaryAction act = decider_(from, to, msg, now);
    if (act.kind == AdversaryAction::kDrop) {
      ++dropped_;
    }
    return act;
  }

  uint64_t dropped() const { return dropped_; }

 private:
  Decider decider_;
  uint64_t dropped_ = 0;
};

// Splits nodes into two groups and blocks cross-group traffic during
// [start, end). Models the weak-synchrony asynchronous period.
class PartitionAdversary : public NetworkAdversary {
 public:
  PartitionAdversary(std::set<NodeId> group_a, SimTime start, SimTime end)
      : group_a_(std::move(group_a)), start_(start), end_(end) {}

  AdversaryAction OnTransmit(NodeId from, NodeId to, const MessagePtr&, SimTime now) override {
    if (now >= start_ && now < end_ && (group_a_.count(from) != group_a_.count(to))) {
      return AdversaryAction::Drop();
    }
    return AdversaryAction::Deliver();
  }

 private:
  std::set<NodeId> group_a_;
  SimTime start_;
  SimTime end_;
};

// Drops every packet to/from a set of victims during [start, end): a targeted
// DoS on (for example) revealed committee members.
class TargetedDosAdversary : public NetworkAdversary {
 public:
  TargetedDosAdversary(std::set<NodeId> victims, SimTime start, SimTime end)
      : victims_(std::move(victims)), start_(start), end_(end) {}

  void AddVictim(NodeId v) { victims_.insert(v); }

  AdversaryAction OnTransmit(NodeId from, NodeId to, const MessagePtr&, SimTime now) override {
    if (now >= start_ && now < end_ && (victims_.count(from) || victims_.count(to))) {
      return AdversaryAction::Drop();
    }
    return AdversaryAction::Deliver();
  }

 private:
  std::set<NodeId> victims_;
  SimTime start_;
  SimTime end_;
};

// Rolling churn: in every `period`-long window a different contiguous group
// of `group_size` node ids is offline (all its traffic dropped) for the first
// `offline_for` of the window, cycling through the whole population. Models
// continuous membership churn — each group misses rounds, then must catch up
// while the next group is down.
class ChurnAdversary : public NetworkAdversary {
 public:
  ChurnAdversary(size_t n_nodes, size_t group_size, SimTime period, SimTime offline_for)
      : n_nodes_(n_nodes == 0 ? 1 : n_nodes),
        group_size_(group_size),
        period_(period <= 0 ? Seconds(1) : period),
        offline_for_(offline_for) {}

  bool Offline(NodeId node, SimTime now) const {
    if (group_size_ == 0 || (now % period_) >= offline_for_) {
      return false;
    }
    uint64_t window = static_cast<uint64_t>(now / period_);
    size_t base = static_cast<size_t>((window * group_size_) % n_nodes_);
    size_t offset = (static_cast<size_t>(node) + n_nodes_ - base) % n_nodes_;
    return offset < group_size_;
  }

  AdversaryAction OnTransmit(NodeId from, NodeId to, const MessagePtr&, SimTime now) override {
    if (Offline(from, now) || Offline(to, now)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return AdversaryAction::Drop();
    }
    return AdversaryAction::Deliver();
  }

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  size_t n_nodes_;
  size_t group_size_;
  SimTime period_;
  SimTime offline_for_;
  // The decision is a pure function of (from, to, now); only the counter is
  // shared, so a relaxed atomic keeps parallel runs deterministic.
  std::atomic<uint64_t> dropped_{0};
};

// Drops each transmission independently with fixed probability. Senders are
// node ids below `n_senders`.
class LossyAdversary : public NetworkAdversary {
 public:
  LossyAdversary(double drop_probability, uint64_t rng_seed, size_t n_senders)
      : drop_probability_(drop_probability) {
    DeterministicRng rng(rng_seed, "lossy-adversary");
    per_sender_ = ForkPerSender(&rng, n_senders);
  }

  AdversaryAction OnTransmit(NodeId from, NodeId, const MessagePtr&, SimTime) override {
    return per_sender_[from].UniformDouble() < drop_probability_ ? AdversaryAction::Drop()
                                                                 : AdversaryAction::Deliver();
  }

 private:
  double drop_probability_;
  std::vector<DeterministicRng> per_sender_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_ADVERSARY_H_
