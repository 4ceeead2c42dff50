// Network latency models.
//
// The paper's testbed assigns each VM to one of 20 major cities and applies
// measured inter-city latencies with jitter (§10). CityLatencyModel embeds a
// one-way latency matrix built from geographic distance between those cities
// (great-circle distance over fibre plus a routing overhead factor), which
// matches the magnitude of the WonderNetwork measurements the paper used.
#ifndef ALGORAND_SRC_NETSIM_LATENCY_H_
#define ALGORAND_SRC_NETSIM_LATENCY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time_units.h"

namespace algorand {

using NodeId = uint32_t;

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  // One-way propagation delay for a message sent from -> to, including jitter
  // (may be sampled; models may hold mutable rng state).
  virtual SimTime Sample(NodeId from, NodeId to) = 0;
  // A strictly positive lower bound on Sample() over all (from, to) pairs.
  // The engine's conservative lookahead is derived from this floor:
  // no delivery can land earlier than send time + Floor().
  virtual SimTime Floor() const = 0;
};

// One jitter stream per sender, forked from a model's seeded rng, so
// concurrent senders on different workers sample without sharing state: each
// sender's draws depend only on its own deterministic send sequence.
std::vector<DeterministicRng> ForkPerSender(DeterministicRng* rng, size_t n_senders);

// Constant latency plus uniform jitter: handy for unit tests. Senders are
// node ids below `n_senders`.
class UniformLatencyModel : public LatencyModel {
 public:
  UniformLatencyModel(SimTime base, SimTime jitter, uint64_t rng_seed, size_t n_senders);

  SimTime Sample(NodeId from, NodeId) override {
    if (jitter_ <= 0) {
      return base_;
    }
    return base_ +
           static_cast<SimTime>(per_sender_[from].UniformU64(static_cast<uint64_t>(jitter_)));
  }

  SimTime Floor() const override { return base_ > 0 ? base_ : 1; }

 private:
  SimTime base_;
  SimTime jitter_;
  std::vector<DeterministicRng> per_sender_;
};

// Twenty world cities; nodes are assigned round-robin (matching the paper's
// equal spread of VMs across cities). Latency between cities is derived from
// great-circle distance at 2/3 c with a 1.6x routing factor plus a 4 ms
// last-mile floor; intra-city latency is ~1 ms. Jitter is lognormal-ish:
// base * (1 + |N(0, 0.1)|).
class CityLatencyModel : public LatencyModel {
 public:
  CityLatencyModel(size_t n_nodes, uint64_t rng_seed);

  SimTime Sample(NodeId from, NodeId to) override;
  SimTime Floor() const override { return floor_; }

  int city_of(NodeId n) const { return city_of_[n]; }
  static const std::vector<std::string>& CityNames();
  // Base one-way latency between two cities (no jitter), for tests.
  SimTime BaseLatency(int city_a, int city_b) const;

 private:
  std::vector<int> city_of_;
  std::vector<std::vector<SimTime>> base_;  // [city][city] one-way latency.
  SimTime floor_ = 0;  // min over the base matrix (jitter is non-negative).
  std::vector<DeterministicRng> per_sender_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_LATENCY_H_
