#include "src/core/recovery.h"

#include "src/common/serialize.h"
#include "src/core/sortition.h"
#include "src/crypto/sha256.h"

namespace algorand {

RecoverySession::RecoverySession(RecoveryHost* host, Ledger* ledger, const Ed25519KeyPair& key,
                                 const ProtocolParams& params, const VrfBackend& vrf,
                                 const SignerBackend& signer)
    : host_(*host), ledger_(*ledger), key_(key), params_(params), vrf_(vrf), signer_(signer) {}

void RecoverySession::ScheduleCheck() {
  // Loosely synchronized clocks: every node wakes at the same boundaries, so
  // nodes stuck together enter the same window's session.
  const SimTime interval = params_.recovery_interval;
  host_.ScheduleRecoveryCheck((host_.Now() / interval + 1) * interval, [this, interval] {
    if (!active_ && !host_.Syncing() && host_.NeedsRecovery()) {
      window_ = static_cast<uint64_t>(host_.Now() / interval);
      attempt_ = 0;
      Enter(kTraceRecoveryClockCheck);
    }
    ScheduleCheck();
  });
}

void RecoverySession::MaybeJoin(uint64_t code) {
  if (host_.Syncing()) {
    return;  // Catch-up owns the node until it finishes or aborts.
  }
  if (!active_ && !host_.NeedsRecovery()) {
    return;  // Healthy nodes ignore recovery chatter.
  }
  if (active_ && code <= ctx_.round) {
    return;  // Already in this session or a newer one.
  }
  // Sanity: the claimed window must be near our clock (loose synchrony).
  const uint64_t window = (code & ~kRecoveryRoundBit) >> 8;
  const uint64_t my_window = static_cast<uint64_t>(host_.Now() / params_.recovery_interval);
  if (window > my_window + 1 || window + 1 < my_window) {
    return;
  }
  window_ = window;
  attempt_ = static_cast<uint32_t>(code & 0xff);
  Enter(kTraceRecoveryJoined);
}

void RecoverySession::Enter(uint64_t cause) {
  active_ = true;
  const uint64_t code = kRecoveryRoundBit | (window_ << 8) | attempt_;

  // Anchor at the last common final round: finals are totally ordered, so
  // every honest node shares this prefix (and its seed and weights).
  anchor_round_ = ledger_.HighestFinalRound().value_or(0);
  const Hash256 anchor = ledger_.BlockAtRound(anchor_round_).Hash();
  accounts_ = ledger_.AccountsAtRound(anchor_round_);

  // A fresh seed per attempt: H(seed_f || code), "applying a hash function to
  // the seed each time to produce a different set of proposers and committee
  // members".
  Writer w;
  w.Fixed(ledger_.SeedForRound(anchor_round_));
  w.U64(code);
  ctx_ = RoundContext{};
  ctx_.round = code;
  ctx_.seed = SeedBytes::FromSpan(Sha256::Hash(w.buffer()).span());
  ctx_.prev_hash = anchor;
  ctx_.total_weight = accounts_.total_weight();
  ctx_.weight_of = [this](const PublicKey& pk) { return accounts_.WeightOf(pk); };

  // Fallback value: an empty block directly extending the final prefix
  // (agreeing on it truncates every fork back to the common ancestor).
  empty_ = Block::MakeEmpty(anchor_round_ + 1, anchor, ledger_.SeedForRound(anchor_round_ + 1));
  empty_hash_ = empty_.Hash();

  book_.Clear();
  host_.BeginAgreement(ctx_, [this](const BaResult& result) { OnAgreed(result); });
  host_.TraceRecovery(TraceKind::kRecoveryEnter, attempt_, cause);

  MaybePropose();

  host_.ScheduleAfter(params_.lambda_priority + params_.lambda_stepvar, [this] {
    if (active_) {
      const Hash256* leader = book_.LeaderBody();
      host_.StartAgreement(leader != nullptr ? *leader : empty_hash_, empty_hash_);
    }
  });
}

void RecoverySession::Retry(uint64_t cause) {
  ++attempt_;
  Enter(cause);
}

void RecoverySession::MaybePropose() {
  SortitionResult sort = RunSortition(vrf_, key_, ctx_.seed, params_.tau_proposer,
                                      Role::kRecovery, ctx_.round, 0,
                                      accounts_.WeightOf(key_.public_key), ctx_.total_weight);
  if (sort.votes == 0) {
    return;
  }
  // Propose an empty block extending the longest fork this node has seen —
  // its own chain (which includes all final blocks).
  auto msg = std::make_shared<RecoveryProposalMessage>();
  msg->pk = key_.public_key;
  msg->code = ctx_.round;
  msg->sorthash = sort.hash;
  msg->sort_proof = sort.proof;
  for (uint64_t r = anchor_round_ + 1; r < ledger_.chain_length(); ++r) {
    msg->suffix.push_back(ledger_.BlockAtRound(r));
  }
  msg->block = Block::MakeEmpty(ledger_.next_round(), ledger_.tip_hash(),
                                ledger_.SeedForRound(ledger_.next_round()));
  msg->signature = signer_.Sign(key_, msg->SignedBody());
  host_.Gossip(msg);
}

GossipVerdict RecoverySession::Judge(const RecoveryProposalMessage& msg, uint64_t* votes) const {
  *votes = 0;
  if (ContextFor(msg.code) == nullptr) {
    return GossipVerdict::kDeliverOnly;  // Can't judge it; let it pass once.
  }
  if (!signer_.Verify(msg.pk, msg.SignedBody(), msg.signature)) {
    return GossipVerdict::kReject;
  }
  *votes = VerifySortition(vrf_, msg.pk, msg.sorthash, msg.sort_proof, ctx_.seed,
                           params_.tau_proposer, Role::kRecovery, ctx_.round, 0,
                           ctx_.weight_of(msg.pk), ctx_.total_weight);
  if (*votes == 0) {
    return GossipVerdict::kReject;
  }
  // The proposed chain must link from our final prefix and be at least as
  // long as the chain we already have.
  Hash256 prev = ctx_.prev_hash;
  uint64_t round = anchor_round_;
  for (const Block& b : msg.suffix) {
    if (b.prev_hash != prev || b.round != round + 1) {
      return GossipVerdict::kReject;
    }
    prev = b.Hash();
    round = b.round;
  }
  if (msg.block.prev_hash != prev || msg.block.round != round + 1 || !msg.block.is_empty) {
    return GossipVerdict::kReject;
  }
  if (msg.block.round < ledger_.next_round()) {
    return GossipVerdict::kDeliverOnly;  // Shorter than our chain: not for us.
  }
  return GossipVerdict::kRelay;
}

GossipVerdict RecoverySession::Receive(const std::shared_ptr<const RecoveryProposalMessage>& msg) {
  uint64_t votes = 0;
  const GossipVerdict verdict = Judge(*msg, &votes);
  GossipVerdict here = verdict;
  if (verdict == GossipVerdict::kDeliverOnly && votes == 0) {  // No session could judge it.
    MaybeJoin(msg->code);
    here = Judge(*msg, &votes);
  }
  if (here == GossipVerdict::kRelay) {  // Valid and no shorter than our chain.
    book_.OfferBody(msg->pk, msg->block.Hash(), msg, ProposalPriority(msg->sorthash, votes),
                    host_.Now());
  }
  return verdict;
}

void RecoverySession::OnAgreed(const BaResult& result) {
  if (result.hung) {
    Retry(kTraceRecoveryRetryHung);
    return;
  }
  std::vector<Block> replacement;
  if (result.value == empty_hash_) {
    replacement.push_back(empty_);
  } else {
    const auto* agreed = book_.Find<RecoveryProposalMessage>(result.value);
    if (agreed == nullptr) {
      // Agreed on a fork we never received; the next attempt's proposers
      // include holders of that fork.
      Retry(kTraceRecoveryRetryUnknownFork);
      return;
    }
    replacement = agreed->suffix;
    replacement.push_back(agreed->block);
  }
  const uint64_t first = anchor_round_ + 1;
  if (!ledger_.ReplaceSuffix(first, replacement)) {
    Retry(kTraceRecoveryRetryReplaceFailed);
    return;
  }
  active_ = false;
  ++completed_;
  host_.Recovered(first);
}

}  // namespace algorand
