// Adversarial node behaviours for the misbehaving-user experiments (§10.4)
// and for safety/liveness tests.
//
// The paper's attack: the highest-priority block proposer equivocates —
// gossiping one version of its block to half its peers and a different
// version to the rest — while malicious committee members vote for both
// versions. AdversaryCoordinator is the malicious users' out-of-band channel
// (colluding attackers share state by assumption).
#ifndef ALGORAND_SRC_CORE_ADVERSARY_NODES_H_
#define ALGORAND_SRC_CORE_ADVERSARY_NODES_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "src/core/node.h"

namespace algorand {

// Shared state among colluding malicious nodes. Mutations race with several
// engine workers (colluders live on different shards), so the channel is
// mutex-guarded and the winner of concurrent registrations for one round is
// chosen by lowest proposer id — an order-independent rule, which keeps
// parallel runs deterministic across worker counts.
class AdversaryCoordinator {
 public:
  void RegisterEquivocation(NodeId proposer, uint64_t round, const Hash256& a, const Hash256& b) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = equivocations_.try_emplace(round, proposer, std::make_pair(a, b));
    if (!inserted && proposer < it->second.first) {
      it->second = {proposer, std::make_pair(a, b)};
    }
  }
  std::optional<std::pair<Hash256, Hash256>> PairFor(uint64_t round) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = equivocations_.find(round);
    if (it == equivocations_.end()) {
      return std::nullopt;
    }
    return it->second.second;
  }

 private:
  mutable std::mutex mu_;
  // round -> (registering proposer, the two equivocated block hashes).
  std::map<uint64_t, std::pair<NodeId, std::pair<Hash256, Hash256>>> equivocations_;
};

// Implements the §10.4 attack when selected as proposer (equivocate) and as
// committee member (vote for both equivocated blocks).
class EquivocatingNode : public Node {
 public:
  EquivocatingNode(NodeId id, Executor* sim, GossipAgent* gossip, const Ed25519KeyPair& key,
                   const GenesisConfig& genesis, const ProtocolParams& params, CryptoSuite crypto,
                   AdversaryCoordinator* coordinator)
      : Node(id, sim, gossip, key, genesis, params, crypto), coordinator_(coordinator) {}

 protected:
  void MaybePropose() override;
  void EmitVotes(uint32_t step_code, const SortitionResult& sort, const Hash256& value) override;

 private:
  AdversaryCoordinator* coordinator_;
};

// §5.2 seed-grinding attacker. When selected as proposer it grinds many
// payload variants of its block, looking for one whose induced next-round
// seed favours its own future sortition. The paper's seed-refresh rule makes
// this futile: seed_{r+1} = VRF_sk(seed_r || r+1) depends only on the current
// seed and the round number, never on the block payload, so every variant
// yields the identical seed (tests pin distinct seeds == 1 per ground round).
// The attacker's only residual lever is the 1-bit propose-vs-withhold choice
// — withholding lets the round fall back to the empty block, whose seed is
// H(seed_r || r+1) (§5.2's no-proof fallback). With `withhold_when_worse` the
// node plays that bit greedily; GrindStats quantifies how little it buys.
class GrindingProposerNode : public Node {
 public:
  struct GrindStats {
    uint64_t rounds_selected = 0;      // Rounds where proposer sortition hit.
    uint64_t candidates_tried = 0;     // Payload variants ground, total.
    uint64_t distinct_next_seeds = 0;  // Sum over ground rounds of |{next_seed}|.
    uint64_t fallback_preferred = 0;   // Rounds where the empty-block seed scored better.
    uint64_t withheld = 0;             // Rounds where the proposal was withheld.
  };

  GrindingProposerNode(NodeId id, Executor* sim, GossipAgent* gossip, const Ed25519KeyPair& key,
                       const GenesisConfig& genesis, const ProtocolParams& params,
                       CryptoSuite crypto, size_t grind_candidates, bool withhold_when_worse)
      : Node(id, sim, gossip, key, genesis, params, crypto),
        grind_candidates_(grind_candidates == 0 ? 1 : grind_candidates),
        withhold_when_worse_(withhold_when_worse) {}

  const GrindStats& grind_stats() const { return stats_; }

 protected:
  void MaybePropose() override;

 private:
  // The attacker's payoff for a candidate next-round seed: its own proposer
  // sortition weight in round r+1 under that seed.
  uint64_t ScoreSeed(const SeedBytes& seed) const;

  size_t grind_candidates_;
  bool withhold_when_worse_;
  GrindStats stats_;
};

// Selected committee members stay silent (fail-stop behaviour / vote
// withholding).
class SilentNode : public Node {
 public:
  using Node::Node;

 protected:
  void MaybePropose() override {}
  void EmitVotes(uint32_t, const SortitionResult&, const Hash256&) override {}
};

// Always votes for the empty block, trying to starve real transactions.
class EmptyVoterNode : public Node {
 public:
  using Node::Node;

 protected:
  void EmitVotes(uint32_t step_code, const SortitionResult& sort, const Hash256&) override {
    Node::EmitVotes(step_code, sort, empty_hash());
  }
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_ADVERSARY_NODES_H_
