// RecoverySession against a fake host: no network, no simulator. The host
// records what the session gossips, which agreements it begins and starts,
// and what it reports; the tests hand it proposals and BA* outcomes, so each
// rule of §8.2 recovery — when a node enters, whose session it joins, which
// proposal it backs, when it retries and what it adopts — is checked alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/recovery.h"
#include "src/core/sortition.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signer.h"
#include "src/crypto/vrf.h"

namespace algorand {
namespace {

class FakeHost : public RecoveryHost {
 public:
  struct Entry {
    uint64_t attempt = 0;
    uint64_t cause = 0;
    bool operator==(const Entry&) const = default;
  };

  SimTime Now() const override { return now; }
  void ScheduleRecoveryCheck(SimTime at, std::function<void()> fn) override {
    check_at = at;
    check = std::move(fn);
  }
  void ScheduleAfter(SimTime, std::function<void()> fn) override {
    timers.push_back({epoch, std::move(fn)});
  }
  bool NeedsRecovery() const override { return needs_recovery; }
  bool Syncing() const override { return syncing; }
  void Gossip(const MessagePtr& msg) override { gossiped.push_back(msg); }
  void BeginAgreement(const RoundContext& ctx, BaStar::CompletionHandler done) override {
    ++epoch;  // Like the node: the previous machine's timers die.
    agreement_round = ctx.round;
    done_ = std::move(done);
  }
  void StartAgreement(const Hash256& candidate, const Hash256& empty) override {
    started.push_back({candidate, empty});
  }
  void Recovered(uint64_t first_replaced_round) override {
    recovered.push_back(first_replaced_round);
  }
  void TraceRecovery(TraceKind kind, uint64_t a, uint64_t b) override {
    EXPECT_EQ(kind, TraceKind::kRecoveryEnter);
    entries.push_back({a, b});
  }

  // Runs the periodic check at its scheduled time.
  void FireCheck() {
    now = check_at;
    std::function<void()> fn = std::move(check);
    fn();
  }
  // Runs the timers still alive in the current epoch.
  void FireTimers() {
    std::vector<std::pair<uint64_t, std::function<void()>>> due = std::move(timers);
    timers.clear();
    for (auto& [at_epoch, fn] : due) {
      if (at_epoch == epoch) {
        fn();
      }
    }
  }
  // The active agreement completes with `result`.
  void Complete(const BaResult& result) {
    BaStar::CompletionHandler done = done_;  // A retry replaces done_.
    done(result);
  }

  SimTime now = 0;
  bool needs_recovery = false;
  bool syncing = false;
  SimTime check_at = 0;
  std::function<void()> check;
  uint64_t epoch = 0;
  std::vector<std::pair<uint64_t, std::function<void()>>> timers;
  uint64_t agreement_round = 0;
  std::vector<MessagePtr> gossiped;
  std::vector<std::pair<Hash256, Hash256>> started;
  std::vector<uint64_t> recovered;
  std::vector<Entry> entries;

 private:
  BaStar::CompletionHandler done_;
};

uint64_t Code(uint64_t window, uint32_t attempt) {
  return kRecoveryRoundBit | (window << 8) | attempt;
}

BaResult Agreed(const Hash256& value) {
  BaResult result;
  result.value = value;
  return result;
}

BaResult Hung() {
  BaResult result;
  result.hung = true;
  return result;
}

// An empty block extending `ledger`'s tip; `stamp` tells forks apart.
Block NextEmpty(const Ledger& ledger, SimTime stamp = 0) {
  Block b = Block::MakeEmpty(ledger.next_round(), ledger.tip_hash(),
                             ledger.SeedForRound(ledger.next_round()));
  b.timestamp = stamp;
  return b;
}

class RecoverySessionTest : public ::testing::Test {
 protected:
  RecoverySessionTest() {
    std::vector<std::pair<PublicKey, uint64_t>> stake;
    for (int i = 0; i < 4; ++i) {
      keys_.push_back(Ed25519KeyFromSeed(
          FixedBytes<32>::FromSpan(Sha256::Hash("recovery" + std::to_string(i)).span())));
      stake.push_back({keys_.back().public_key, 100});
    }
    genesis_.accounts = MintGenesis(stake);
    params_ = ProtocolParams::ScaledCommittees(0.02);
    params_.recovery_interval = Minutes(10);
    params_.tau_proposer = 1e6;  // Above the total stake: everyone proposes.
    // This node's chain: round 1 final, rounds 2 and 3 tentative.
    ledger_ = std::make_unique<Ledger>(genesis_);
    EXPECT_TRUE(ledger_->Append(NextEmpty(*ledger_), ConsensusKind::kFinal));
    EXPECT_TRUE(ledger_->Append(NextEmpty(*ledger_), ConsensusKind::kTentative));
    EXPECT_TRUE(ledger_->Append(NextEmpty(*ledger_), ConsensusKind::kTentative));
    session_ = std::make_unique<RecoverySession>(&host_, ledger_.get(), keys_[0], params_, vrf_,
                                                 signer_);
  }

  // A hung node's clock check at 30 min: window 3, attempt 0.
  void EnterSession() {
    host_.now = Minutes(25);
    host_.needs_recovery = true;
    session_->ScheduleCheck();
    host_.FireCheck();
    ASSERT_TRUE(session_->active());
  }

  // A fork sharing this node's final round 1, with `length` rounds after it.
  std::unique_ptr<Ledger> Fork(size_t length, SimTime stamp) {
    auto fork = std::make_unique<Ledger>(genesis_);
    EXPECT_TRUE(fork->Append(ledger_->BlockAtRound(1), ConsensusKind::kFinal));
    for (size_t i = 0; i < length; ++i) {
      EXPECT_TRUE(fork->Append(NextEmpty(*fork, stamp), ConsensusKind::kTentative));
    }
    return fork;
  }

  // Proposer `who`'s signed proposal of `suffix` plus an empty block on top,
  // in the active session.
  std::shared_ptr<RecoveryProposalMessage> Proposal(size_t who, std::vector<Block> suffix,
                                                    Block block) {
    const RoundContext& ctx = session_->context();
    SortitionResult sort = RunSortition(vrf_, keys_[who], ctx.seed, params_.tau_proposer,
                                        Role::kRecovery, ctx.round, 0, 100, ctx.total_weight);
    auto msg = std::make_shared<RecoveryProposalMessage>();
    msg->pk = keys_[who].public_key;
    msg->code = ctx.round;
    msg->sorthash = sort.hash;
    msg->sort_proof = sort.proof;
    msg->suffix = std::move(suffix);
    msg->block = std::move(block);
    msg->signature = signer_.Sign(keys_[who], msg->SignedBody());
    return msg;
  }
  // Proposer `who`'s proposal of the whole of `chain` past the anchor round 1.
  std::shared_ptr<RecoveryProposalMessage> ProposalOf(size_t who, const Ledger& chain) {
    std::vector<Block> suffix;
    for (uint64_t r = 2; r < chain.chain_length(); ++r) {
      suffix.push_back(chain.BlockAtRound(r));
    }
    return Proposal(who, std::move(suffix), NextEmpty(chain));
  }

  // The active session's code.
  uint64_t Session() const { return session_->context().round; }

  GossipVerdict Receive(const std::shared_ptr<const RecoveryProposalMessage>& msg) {
    return session_->Receive(msg);
  }

  // `msg`'s priority in the active session.
  Hash256 Priority(const RecoveryProposalMessage& msg) const {
    const RoundContext& ctx = session_->context();
    uint64_t votes =
        VerifySortition(vrf_, msg.pk, msg.sorthash, msg.sort_proof, ctx.seed,
                        params_.tau_proposer, Role::kRecovery, ctx.round, 0, 100, ctx.total_weight);
    EXPECT_GT(votes, 0u);
    return ProposalPriority(msg.sorthash, votes);
  }

  std::vector<Ed25519KeyPair> keys_;
  GenesisConfig genesis_;
  ProtocolParams params_;
  std::unique_ptr<Ledger> ledger_;
  SimVrf vrf_;
  SimSigner signer_;
  FakeHost host_;
  std::unique_ptr<RecoverySession> session_;
};

TEST_F(RecoverySessionTest, ClockCheckEntersOnlyWhenNeededAndNotSyncing) {
  host_.now = Minutes(25);
  session_->ScheduleCheck();
  EXPECT_EQ(host_.check_at, Minutes(30));  // Aligned to the interval.
  host_.FireCheck();                       // Healthy.
  EXPECT_FALSE(session_->active());
  EXPECT_EQ(host_.check_at, Minutes(40));  // One check per interval.
  host_.needs_recovery = true;
  host_.syncing = true;
  host_.FireCheck();
  EXPECT_FALSE(session_->active());
  host_.syncing = false;
  host_.FireCheck();
  EXPECT_TRUE(session_->active());
  EXPECT_EQ(Session(), Code(5, 0));
  EXPECT_EQ(host_.agreement_round, Code(5, 0));
  EXPECT_EQ(host_.entries, std::vector<FakeHost::Entry>({{0, kTraceRecoveryClockCheck}}));
}

TEST_F(RecoverySessionTest, WindowIsPinnedAtEntryAndRetriesKeepIt) {
  EnterSession();
  EXPECT_EQ(Session(), Code(3, 0));
  // A check while the session runs starts nothing.
  host_.FireCheck();
  EXPECT_EQ(host_.entries.size(), 1u);
  // The retry comes after that boundary: the window stays where it was.
  host_.now = Minutes(41);
  host_.Complete(Hung());
  EXPECT_EQ(Session(), Code(3, 1));
  EXPECT_EQ(host_.agreement_round, Code(3, 1));
  EXPECT_EQ(host_.entries.size(), 2u);
}

TEST_F(RecoverySessionTest, JoinNeedsANewerCodeWithinAWindowOfTheClock) {
  host_.now = Minutes(35);  // Window 3.
  session_->MaybeJoin(Code(3, 2));
  EXPECT_FALSE(session_->active()) << "a healthy node ignores recovery chatter";
  host_.needs_recovery = true;
  host_.syncing = true;
  session_->MaybeJoin(Code(3, 2));
  EXPECT_FALSE(session_->active()) << "catch-up owns a syncing node";
  host_.syncing = false;
  session_->MaybeJoin(Code(5, 0));
  session_->MaybeJoin(Code(1, 0));
  EXPECT_FALSE(session_->active()) << "windows two away from the clock are refused";
  session_->MaybeJoin(Code(4, 2));
  ASSERT_TRUE(session_->active());
  EXPECT_EQ(Session(), Code(4, 2));
  EXPECT_EQ(host_.entries.back(), (FakeHost::Entry{2, kTraceRecoveryJoined}));
  // A node in a session moves only to a strictly newer code, hung or not.
  host_.needs_recovery = false;
  session_->MaybeJoin(Code(4, 2));
  session_->MaybeJoin(Code(4, 1));
  session_->MaybeJoin(Code(3, 9));
  EXPECT_EQ(Session(), Code(4, 2));
  session_->MaybeJoin(Code(4, 3));
  EXPECT_EQ(Session(), Code(4, 3));
  EXPECT_EQ(host_.entries.size(), 2u);
}

TEST_F(RecoverySessionTest, ProposesItsOwnChainOnEntry) {
  EnterSession();
  ASSERT_EQ(host_.gossiped.size(), 1u);
  const auto own = std::static_pointer_cast<const RecoveryProposalMessage>(host_.gossiped[0]);
  EXPECT_EQ(own->code, Session());
  ASSERT_EQ(own->suffix.size(), 2u);  // Rounds 2 and 3, past the final anchor.
  EXPECT_EQ(own->suffix[0].Hash(), ledger_->BlockAtRound(2).Hash());
  EXPECT_EQ(own->block.round, 4u);
  EXPECT_TRUE(own->block.is_empty);
  EXPECT_EQ(Receive(own), GossipVerdict::kRelay);
}

TEST_F(RecoverySessionTest, ProposalsNeedALinkedChainEndingEmptyNoShorterThanOurs) {
  EnterSession();
  std::vector<Block> broken = {ledger_->BlockAtRound(2), ledger_->BlockAtRound(3)};
  broken[1].prev_hash = Hash256{};  // Does not extend round 2.
  Block top = Block::MakeEmpty(4, broken[1].Hash(), SeedBytes{});
  EXPECT_EQ(Receive(Proposal(1, broken, top)), GossipVerdict::kReject);

  auto full_tip = ProposalOf(1, *ledger_);
  full_tip->block.is_empty = false;
  full_tip->signature = signer_.Sign(keys_[1], full_tip->SignedBody());
  EXPECT_EQ(Receive(full_tip), GossipVerdict::kReject);

  auto forged = ProposalOf(1, *ledger_);
  forged->signature = signer_.Sign(keys_[2], forged->SignedBody());
  EXPECT_EQ(Receive(forged), GossipVerdict::kReject);

  // A shorter fork is valid but not for this node: passed on, never backed.
  EXPECT_EQ(Receive(ProposalOf(1, *Fork(1, 7))), GossipVerdict::kDeliverOnly);
  // An older session's proposal cannot be judged here (a newer one's makes
  // the node join, below).
  auto other = ProposalOf(1, *ledger_);
  other->code = Code(2, 1);
  EXPECT_EQ(Receive(other), GossipVerdict::kDeliverOnly);
  EXPECT_EQ(Session(), Code(3, 0));
  host_.FireTimers();
  ASSERT_EQ(host_.started.size(), 1u);
  EXPECT_EQ(host_.started[0].first, host_.started[0].second) << "only the empty fallback";

  EXPECT_EQ(Receive(ProposalOf(1, *ledger_)), GossipVerdict::kRelay);
}

TEST_F(RecoverySessionTest, ANewerSessionsProposalIsJudgedInTheSessionItJoins) {
  EnterSession();
  // A peer already in attempt 1 proposes there.
  FakeHost peer_host;
  peer_host.now = host_.now;
  peer_host.needs_recovery = true;
  RecoverySession peer(&peer_host, ledger_.get(), keys_[1], params_, vrf_, signer_);
  peer.MaybeJoin(Code(3, 1));
  ASSERT_EQ(peer_host.gossiped.size(), 1u);
  const auto proposal =
      std::static_pointer_cast<const RecoveryProposalMessage>(peer_host.gossiped[0]);
  // Attempt 0 cannot judge it, so it is not relayed; the node joins attempt
  // 1 and takes it as a candidate there.
  EXPECT_EQ(Receive(proposal), GossipVerdict::kDeliverOnly);
  EXPECT_EQ(Session(), Code(3, 1));
  EXPECT_EQ(host_.entries.back(), (FakeHost::Entry{1, kTraceRecoveryJoined}));
  host_.FireTimers();
  ASSERT_EQ(host_.started.size(), 1u);
  EXPECT_EQ(host_.started[0].first, proposal->block.Hash());
}

TEST_F(RecoverySessionTest, TheBestPriorityProposalIsBacked) {
  EnterSession();
  std::vector<std::shared_ptr<RecoveryProposalMessage>> proposals = {
      ProposalOf(1, *ledger_), ProposalOf(2, *Fork(3, 11)), ProposalOf(3, *Fork(2, 13))};
  Hash256 best_hash;
  Hash256 best_priority;
  for (size_t i = 0; i < proposals.size(); ++i) {
    Hash256 priority = Priority(*proposals[i]);
    if (i == 0 || PriorityBeats(priority, best_priority)) {
      best_priority = priority;
      best_hash = proposals[i]->block.Hash();
    }
    ASSERT_EQ(Receive(proposals[i]), GossipVerdict::kRelay);
  }
  host_.FireTimers();
  ASSERT_EQ(host_.started.size(), 1u);
  EXPECT_EQ(host_.started[0].first, best_hash);
}

TEST_F(RecoverySessionTest, EachRetryCauseBumpsTheAttempt) {
  EnterSession();
  const Hash256 tip = ledger_->tip_hash();
  host_.Complete(Hung());
  EXPECT_EQ(Session(), Code(3, 1));
  host_.Complete(Agreed(Sha256::Hash("a fork nobody proposed")));
  EXPECT_EQ(Session(), Code(3, 2));

  // A linked fork whose first block spends money its payer never had.
  Ed25519KeyPair broke =
      Ed25519KeyFromSeed(FixedBytes<32>::FromSpan(Sha256::Hash("broke").span()));
  Block bad = Block::MakeEmpty(2, ledger_->BlockAtRound(1).Hash(), SeedBytes{});
  bad.is_empty = false;
  bad.txns.push_back(MakeTransaction(broke, keys_[0].public_key, 50, 0, signer_));
  Block next = Block::MakeEmpty(3, bad.Hash(), SeedBytes{});
  auto proposal = Proposal(1, {bad, next}, Block::MakeEmpty(4, next.Hash(), SeedBytes{}));
  Receive(proposal);
  host_.Complete(Agreed(proposal->block.Hash()));
  EXPECT_EQ(Session(), Code(3, 3));
  EXPECT_EQ(ledger_->tip_hash(), tip) << "a failed switch leaves the chain alone";

  const std::vector<FakeHost::Entry> kEntries = {{0, kTraceRecoveryClockCheck},
                                                 {1, kTraceRecoveryRetryHung},
                                                 {2, kTraceRecoveryRetryUnknownFork},
                                                 {3, kTraceRecoveryRetryReplaceFailed}};
  EXPECT_EQ(host_.entries, kEntries);
  EXPECT_EQ(Session(), Code(3, 3));
  EXPECT_TRUE(host_.recovered.empty());
  EXPECT_TRUE(session_->active());
}

TEST_F(RecoverySessionTest, AdoptingAForkReportsTheFirstReplacedRound) {
  EnterSession();
  auto fork = Fork(3, 17);
  auto proposal = ProposalOf(2, *fork);
  Receive(proposal);
  host_.Complete(Agreed(proposal->block.Hash()));
  EXPECT_EQ(host_.recovered, std::vector<uint64_t>({2}));
  EXPECT_FALSE(session_->active());
  EXPECT_EQ(session_->recoveries_completed(), 1u);
  EXPECT_EQ(ledger_->tip_hash(), proposal->block.Hash());
  EXPECT_EQ(ledger_->BlockAtRound(4).Hash(), fork->BlockAtRound(4).Hash());
  EXPECT_EQ(ledger_->ConsensusAtRound(1), ConsensusKind::kFinal);
}

TEST_F(RecoverySessionTest, AgreeingOnTheEmptyFallbackTruncatesToTheAnchor) {
  EnterSession();
  host_.FireTimers();
  ASSERT_EQ(host_.started.size(), 1u);
  const Hash256 empty = host_.started[0].second;
  host_.Complete(Agreed(empty));
  EXPECT_EQ(host_.recovered, std::vector<uint64_t>({2}));
  EXPECT_EQ(ledger_->next_round(), 3u);
  EXPECT_EQ(ledger_->tip_hash(), empty);
}

TEST_F(RecoverySessionTest, StopLeavesTheSessionAndItsPendingStart) {
  EnterSession();
  Receive(ProposalOf(1, *Fork(3, 19)));
  // Catch-up preempts the session.
  host_.syncing = true;
  session_->Stop();
  EXPECT_FALSE(session_->active());
  host_.FireTimers();  // A host that kept the timer alive starts nothing.
  EXPECT_TRUE(host_.started.empty());
  EXPECT_EQ(Receive(ProposalOf(1, *ledger_)), GossipVerdict::kDeliverOnly);
  EXPECT_FALSE(session_->active());
  host_.syncing = false;
  // The periodic check still runs and enters a fresh session.
  host_.FireCheck();
  EXPECT_TRUE(session_->active());
  EXPECT_EQ(Session(), Code(4, 0));
}

// The backed candidate is the best priority over every proposal seen, so it
// does not depend on the order proposals arrive in. Two proposers offer the
// same chain: the best and the third-best priority. A fork sits between them,
// so a book that kept the first proposer's priority for the shared chain
// backs that fork whenever the third-best copy comes first.
TEST_F(RecoverySessionTest, TheBackedCandidateDoesNotDependOnArrivalOrder) {
  EnterSession();
  // The four proposers by priority, best first.
  std::vector<size_t> rank = {0, 1, 2, 3};
  std::vector<Hash256> priority;
  for (size_t who : rank) {
    priority.push_back(Priority(*ProposalOf(who, *ledger_)));
  }
  std::sort(rank.begin(), rank.end(),
            [&](size_t a, size_t b) { return PriorityBeats(priority[a], priority[b]); });
  const std::vector<std::shared_ptr<RecoveryProposalMessage>> proposals = {
      ProposalOf(rank[0], *ledger_), ProposalOf(rank[2], *ledger_),
      ProposalOf(rank[1], *Fork(3, 11)), ProposalOf(rank[3], *Fork(2, 13))};
  const Hash256 shared = proposals[0]->block.Hash();
  ASSERT_EQ(proposals[1]->block.Hash(), shared);
  ASSERT_NE(proposals[2]->block.Hash(), shared);
  ASSERT_NE(proposals[3]->block.Hash(), shared);

  std::vector<size_t> order = {0, 1, 2, 3};
  size_t permutations = 0;
  do {
    FakeHost host;
    host.now = Minutes(25);
    host.needs_recovery = true;
    RecoverySession session(&host, ledger_.get(), keys_[0], params_, vrf_, signer_);
    session.ScheduleCheck();
    host.FireCheck();
    ASSERT_EQ(session.context().round, Session());
    for (size_t i : order) {
      EXPECT_EQ(session.Receive(proposals[i]), GossipVerdict::kRelay);
    }
    host.FireTimers();
    ASSERT_EQ(host.started.size(), 1u);
    EXPECT_EQ(host.started[0].first, shared)
        << "order " << order[0] << order[1] << order[2] << order[3];
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 24u);
}

// A recovery proposer that offers two different chains in one session is
// banned, as a chain-round proposer is: it is no longer a candidate and its
// later chains are ignored, but the first chain it offered stays adoptable.
TEST_F(RecoverySessionTest, AProposerOfferingTwoChainsIsBanned) {
  EnterSession();
  const auto first = ProposalOf(1, *Fork(3, 11));
  const auto second = ProposalOf(1, *Fork(2, 13));
  const auto third = ProposalOf(1, *ledger_);
  EXPECT_EQ(Receive(first), GossipVerdict::kRelay);
  EXPECT_EQ(Receive(second), GossipVerdict::kRelay);
  EXPECT_EQ(Receive(third), GossipVerdict::kRelay);
  host_.FireTimers();
  ASSERT_EQ(host_.started.size(), 1u);
  EXPECT_EQ(host_.started[0].first, host_.started[0].second) << "only the empty fallback";
  host_.Complete(Agreed(first->block.Hash()));
  EXPECT_EQ(host_.recovered, std::vector<uint64_t>({2}));
  EXPECT_EQ(ledger_->tip_hash(), first->block.Hash());
}

}  // namespace
}  // namespace algorand
