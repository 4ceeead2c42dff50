// Adversarial node behaviours for the misbehaving-user experiments (§10.4)
// and for safety/liveness tests, plus the vote-aware network adversary.
//
// The paper's attack: the highest-priority block proposer equivocates —
// gossiping one version of its block to half its peers and a different
// version to the rest — while malicious committee members vote for both
// versions. AdversaryCoordinator is the malicious users' out-of-band channel
// (colluding attackers share state by assumption).
#ifndef ALGORAND_SRC_CORE_ADVERSARY_NODES_H_
#define ALGORAND_SRC_CORE_ADVERSARY_NODES_H_

#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
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

// The fully adaptive attacker of §2: watches the wire and, the moment a node
// reveals itself by originating a vote, cuts that node off (drops all its
// traffic) for `dos_duration`. Participant replacement is exactly the defence
// against this adversary — by the time a committee member is identified, its
// role is already over.
class VoterDosAdversary : public NetworkAdversary {
 public:
  // `reaction_delay` models §8.4's practical bound: the attack lands only
  // after the victim's current send burst has left its uplink (the paper
  // argues a quicker adversary could stop all communication anyway).
  VoterDosAdversary(SimTime dos_duration, size_t max_concurrent_victims,
                    SimTime reaction_delay = Seconds(1))
      : dos_duration_(dos_duration),
        max_victims_(max_concurrent_victims),
        reaction_delay_(reaction_delay) {}

  AdversaryAction OnTransmit(NodeId from, NodeId to, const MessagePtr& msg,
                             SimTime now) override {
    std::lock_guard<std::mutex> lock(mu_);
    // Expire stale victims.
    for (auto it = blocked_until_.begin(); it != blocked_until_.end();) {
      it = it->second <= now ? blocked_until_.erase(it) : std::next(it);
    }
    auto blocked = [&](NodeId n) {
      auto it = blocked_until_.find(n);
      return it != blocked_until_.end() && now >= it->second - dos_duration_;
    };
    if (blocked(from) || blocked(to)) {
      ++dropped_;
      return AdversaryAction::Drop();
    }
    // The first transmission of a vote comes from its originator — the
    // committee member revealing itself. Relays by others don't mark anyone.
    if (KindOf(*msg) == MessageKind::kVote &&
        seen_votes_.insert(msg->DedupId()).second && blocked_until_.size() < max_victims_ &&
        !blocked_until_.count(from)) {
      // Blocking begins after the reaction delay and lasts dos_duration.
      blocked_until_[from] = now + reaction_delay_ + dos_duration_;
      ++victims_targeted_;
    }
    return AdversaryAction::Deliver();
  }

  uint64_t victims_targeted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return victims_targeted_;
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  SimTime dos_duration_;
  size_t max_victims_;
  SimTime reaction_delay_;
  // Victim selection inspects every sender's traffic, so the state is shared
  // and mutex-guarded; see the class-level note on order sensitivity.
  mutable std::mutex mu_;
  std::map<NodeId, SimTime> blocked_until_;
  std::unordered_set<Hash256, FixedBytesHasher> seen_votes_;
  uint64_t victims_targeted_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_ADVERSARY_NODES_H_
