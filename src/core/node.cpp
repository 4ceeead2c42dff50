#include "src/core/node.h"

#include <cstring>

#include "src/common/serialize.h"
#include "src/crypto/sha256.h"
#include "src/store/block_store.h"
#include "src/store/checkpoint.h"

namespace algorand {
namespace {

// SHA-256 of Writer's image of Fixed(a), Fixed(b), U64(n), built on the stack:
// the cache keys below are hashed on every vote and proposal lookup.
template <size_t A, size_t B>
Hash256 HashImage(const FixedBytes<A>& a, const FixedBytes<B>& b, uint64_t n) {
  uint8_t image[A + B + 8];
  std::memcpy(image, a.data(), A);
  std::memcpy(image + A, b.data(), B);
  for (size_t i = 0; i < 8; ++i) {
    image[A + B + i] = static_cast<uint8_t>(n >> (8 * i));
  }
  return Sha256::Hash(image);
}

// Verification-cache key: the message id salted with the verification
// context, so nodes on different forks (different seed/weights) never share
// a cache entry that would not be identical anyway.
Hash256 ContextKey(const Hash256& dedup_id, const SeedBytes& seed, uint64_t total_weight) {
  return HashImage(dedup_id, seed, total_weight);
}

// The typed message behind a MessagePtr whose kind() was just switched on.
template <typename T>
std::shared_ptr<const T> As(const MessagePtr& msg) {
  return std::static_pointer_cast<const T>(msg);
}

constexpr double kMsPerSecond = 1e3;

double ToMillis(SimTime t) { return ToSeconds(t) * kMsPerSecond; }

}  // namespace

Node::Node(NodeId id, Executor* sim, GossipAgent* gossip, const Ed25519KeyPair& key,
           const GenesisConfig& genesis, const ProtocolParams& params, CryptoSuite crypto)
    : id_(id),
      sim_(sim),
      gossip_(gossip),
      key_(key),
      params_(params),
      crypto_(crypto),
      ledger_(genesis),
      mempool_(MempoolConfig{static_cast<size_t>(params.mempool_capacity)}),
      tx_verifier_(crypto.signer, crypto.cache, crypto.pool),
      applier_(crypto.exec_pool),
      sync_(id, this, &ledger_, params_, *crypto.vrf, *crypto.signer, store_),
      recovery_(this, &ledger_, key_, params_, *crypto.vrf, *crypto.signer) {
  genesis_hash_ = ledger_.tip_hash();  // The ledger is genesis-fresh here.
  ledger_.SetApplier(&applier_);
  gossip_->set_receiver([this](NodeId from, const MessagePtr& msg) { return Receive(from, msg); });
}

void Node::Start() {
  StartRound(ledger_.next_round());
  recovery_.ScheduleCheck();
}

Node::~Node() {
  if (metrics_ != nullptr) {
    metrics_->RemoveCollector(collector_);
  }
}

void Node::AttachObservability(MetricsRegistry* metrics, RoundTracer* tracer) {
  if (metrics_ != nullptr) {
    metrics_->RemoveCollector(collector_);
  }
  metrics_ = metrics;
  tracer_ = tracer;
  mempool_.AttachMetrics(metrics);
  applier_.AttachMetrics(metrics);
  sync_.AttachMetrics(metrics);
  if (metrics == nullptr) {
    obs_ = Instruments{};
    return;
  }
  obs_.blocks_proposed = &metrics->GetCounter("node.blocks.proposed");
  obs_.blocks_validated = &metrics->GetCounter("node.blocks.validated");
  obs_.votes_cast = &metrics->GetCounter("node.votes.cast");
  obs_.votes_counted = &metrics->GetCounter("node.votes.counted");
  obs_.rounds_completed = &metrics->GetCounter("node.rounds.completed");
  obs_.rounds_final = &metrics->GetCounter("node.rounds.final");
  obs_.rounds_empty = &metrics->GetCounter("node.rounds.empty");
  obs_.rounds_hung = &metrics->GetCounter("node.rounds.hung");
  obs_.recoveries = &metrics->GetCounter("node.recoveries");
  obs_.checkpoints_requested = &metrics->GetCounter("node.checkpoints_requested");
  obs_.step_time_ms = &metrics->GetHistogram("ba.step_time_ms");
  obs_.proposal_time_ms = &metrics->GetHistogram("ba.proposal_time_ms");
  obs_.reduction_time_ms = &metrics->GetHistogram("ba.reduction_time_ms");
  obs_.binary_time_ms = &metrics->GetHistogram("ba.binary_time_ms");
  obs_.final_time_ms = &metrics->GetHistogram("ba.final_time_ms");
  obs_.round_time_ms = &metrics->GetHistogram("ba.round_time_ms");
  obs_.binary_steps =
      &metrics->GetHistogram("ba.binary_steps", MetricsRegistry::DefaultCountBuckets());
  // Read at snapshot time, so the apply and vote paths never touch a gauge.
  Gauge* table_bytes = &metrics->GetGauge("accounts.table_bytes");
  Gauge* tally_bytes = &metrics->GetGauge("ba.tally_bytes");
  collector_ = metrics->AddCollector([this, table_bytes, tally_bytes] {
    table_bytes->Set(static_cast<int64_t>(ledger_.accounts().memory_bytes()));
    tally_bytes->Set(static_cast<int64_t>(TallyBytes()));
  });
}

void Node::Trace(TraceKind kind, uint32_t step, uint64_t a, uint64_t b, uint64_t value_prefix,
                 uint8_t flag) {
  if (tracer_ == nullptr) {
    return;
  }
  TraceEvent ev;
  ev.at = sim_->now();
  ev.node = id_;
  ev.round = vote_ctx_->round;
  ev.kind = kind;
  ev.step = step;
  ev.a = a;
  ev.b = b;
  ev.value_prefix = value_prefix;
  ev.flag = flag;
  tracer_->Record(ev);
}

void Node::ObserveBaStep(const BaStepEvent& event) {
  switch (event.kind) {
    case BaStepEvent::Kind::kStepEnter:
      Trace(TraceKind::kStepEnter, event.step);
      break;
    case BaStepEvent::Kind::kStepExit:
      if (obs_.step_time_ms != nullptr) {
        obs_.step_time_ms->Observe(ToMillis(event.at - event.entered_at));
      }
      Trace(TraceKind::kStepExit, event.step, event.votes, 0, event.value.prefix_u64(),
            event.timed_out ? 1 : 0);
      break;
    case BaStepEvent::Kind::kReductionDone:
      Trace(TraceKind::kReductionDone, 0, 0, 0, event.value.prefix_u64());
      break;
    case BaStepEvent::Kind::kCoinFlip:
      Trace(TraceKind::kCoinFlip, event.step, static_cast<uint64_t>(event.coin));
      break;
    case BaStepEvent::Kind::kBinaryDecided:
      Trace(TraceKind::kBinaryDecided, event.step, static_cast<uint64_t>(event.binary_steps), 0,
            event.value.prefix_u64());
      break;
  }
}

void Node::RecordRoundMetrics(const RoundRecord& rec) {
  if (metrics_ == nullptr) {
    return;
  }
  obs_.rounds_completed->Increment();
  if (rec.final) {
    obs_.rounds_final->Increment();
  }
  if (rec.empty) {
    obs_.rounds_empty->Increment();
  }
  obs_.round_time_ms->Observe(ToMillis(rec.end_time - rec.start_time));
  obs_.proposal_time_ms->Observe(ToMillis(rec.proposal_done_at - rec.start_time));
  if (rec.reduction_done_at >= rec.proposal_done_at) {
    obs_.reduction_time_ms->Observe(ToMillis(rec.reduction_done_at - rec.proposal_done_at));
  }
  if (rec.binary_done_at >= rec.reduction_done_at) {
    obs_.binary_time_ms->Observe(ToMillis(rec.binary_done_at - rec.reduction_done_at));
  }
  if (rec.end_time >= rec.binary_done_at) {
    obs_.final_time_ms->Observe(ToMillis(rec.end_time - rec.binary_done_at));
  }
  obs_.binary_steps->Observe(static_cast<double>(rec.binary_steps));
}

void Node::SubmitTransaction(const Transaction& tx) {
  if (tx_verifier_.VerifyOne(tx)) {
    mempool_.Add(tx, ledger_.accounts().NextNonceOf(tx.from));
  }
}

void Node::GossipTransaction(const Transaction& tx) {
  auto msg = std::make_shared<TransactionMessage>();
  msg->tx = tx;
  GossipMessage(msg);
}

void Node::ConfigureCertificateSharding(uint32_t shard_count) {
  shard_count_ = shard_count == 0 ? 1 : shard_count;
}

SimTime Node::Now() const { return sim_->now(); }

void Node::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  // BaStar instances are per round and per recovery attempt; their timers
  // must not fire into a parked machine after the node moved on. The epoch
  // bumps whenever the BA* slot gets a new machine.
  uint64_t epoch = sched_epoch_;
  sim_->Schedule(delay, [this, epoch, fn = std::move(fn)] {
    if (sched_epoch_ == epoch) {
      fn();
    }
  });
}

// ---------------------------------------------------------------------------
// Round lifecycle
// ---------------------------------------------------------------------------

void Node::StartRound(uint64_t round) {
  current_round_ = round;
  ctx_ = MakeContext();
  if (crypto_.cache != nullptr) {
    crypto_.cache->NoteRound(round);  // Prunes entries from finished rounds.
  }
  empty_block_ = Block::MakeEmpty(round, ledger_.tip_hash(), ledger_.SeedForRound(round));
  empty_hash_ = empty_block_.Hash();
  book_.Clear();
  // Prune relay bookkeeping for finished rounds.
  relayed_votes_.erase(relayed_votes_.begin(), relayed_votes_.lower_bound(round));
  if (gossip_ != nullptr) {
    gossip_->AdvanceSeenWindow(round);  // Round-windowed dedup pruning.
  }
  BeginAgreement(ctx_, [this](const BaResult& result) { OnBaComplete(result); });
  phase_ = Phase::kWaitPriority;

  records_.push_back(RoundRecord{});
  records_.back().round = round;
  records_.back().start_time = sim_->now();
  Trace(TraceKind::kRoundStart, 0, ledger_.chain_length());

  MaybePropose();

  // Replay buffered traffic for this round (it may immediately give us the
  // best priority, blocks, and early votes).
  ReplayBufferedMessages(round);

  // Wait lambda_priority + lambda_stepvar to learn the highest priority (§6).
  uint64_t round_at_schedule = round;
  sim_->Schedule(params_.lambda_priority + params_.lambda_stepvar, [this, round_at_schedule] {
    if (current_round_ == round_at_schedule && phase_ == Phase::kWaitPriority) {
      OnPriorityWindowClosed();
    }
  });
}

void Node::BeginAgreement(const RoundContext& ctx, BaStar::CompletionHandler done) {
  ++sched_epoch_;  // The parked machine's timers die with its epoch.
  vote_ctx_ = &ctx;
  phase_ = Phase::kAgreement;
  prev_ba_ = std::move(ba_);  // Defer destruction past the caller's frames.
  ba_ = std::make_unique<BaStar>(params_, this, std::move(done));
  ba_->set_observer([this](const BaStepEvent& event) { ObserveBaStep(event); });
  if (prev_ba_ != nullptr) {
    // Its round's certificates are built: the parked machine keeps no votes.
    ba_->ReserveTallies(prev_ba_->ReleaseTallies());
  }
}

void Node::OnPriorityWindowClosed() {
  phase_ = Phase::kWaitBlock;
  // If the best-priority proposer's block is already here, go; otherwise wait
  // up to lambda_block for it.
  if (const Hash256* leader = book_.LeaderBody()) {
    StartAgreement(Hash256(*leader));
    return;
  }
  uint64_t round = current_round_;
  sim_->Schedule(params_.lambda_block, [this, round] {
    if (current_round_ == round && phase_ == Phase::kWaitBlock) {
      OnBlockWindowClosed(round);
    }
  });
}

void Node::OnBlockWindowClosed(uint64_t round) {
  if (current_round_ != round || phase_ != Phase::kWaitBlock) {
    return;
  }
  // No block from the best proposer in time: fall back to the empty block.
  StartAgreement(empty_hash_);
}

void Node::StartAgreement(const Hash256& candidate) {
  phase_ = Phase::kAgreement;
  RoundRecord& rec = records_.back();
  rec.proposal_done_at = sim_->now();
  rec.best_priority_at = book_.best_at();
  rec.candidate_block_at = book_.ReceivedAt(candidate);
  StartAgreement(candidate, empty_hash_);
}

void Node::OnBaComplete(const BaResult& result) {
  ba_result_ = result;
  RoundRecord& rec = records_.back();
  rec.reduction_done_at = result.reduction_done_at;
  rec.binary_done_at = result.binary_done_at;
  rec.binary_steps = result.binary_steps;
  if (result.hung) {
    rec.hung = true;
    rec.end_time = sim_->now();
    hung_ = true;
    if (obs_.rounds_hung != nullptr) {
      obs_.rounds_hung->Increment();
    }
    Trace(TraceKind::kRoundEnd, 0, 0, 0, 0, kTraceHung);
    phase_ = Phase::kIdle;  // Recovery (§8.2) is the only way forward.
    return;
  }
  ba_result_.final = FinalVerdict(result);
  rec.final = ba_result_.final;
  TryFinishRound();
}

void Node::TryFinishRound() {
  // Locate the agreed block: the empty block, a stored proposal, or fetch it
  // from peers (BlockOfHash in Algorithm 3).
  const Hash256& value = ba_result_.value;
  if (value == empty_hash_) {
    AppendAgreedBlock(empty_block_);
    return;
  }
  if (const auto* body = book_.Find<BlockMessage>(value)) {
    AppendAgreedBlock(body->block);
    return;
  }
  // Not here yet: ask neighbours, retry while it is missing.
  phase_ = Phase::kFetchBlock;
  auto req = std::make_shared<BlockRequestMessage>();
  req->round = current_round_;
  req->block_hash = value;
  req->requester = id_;
  for (NodeId peer : gossip_->neighbors()) {
    gossip_->SendTo(peer, req);
  }
  uint64_t round = current_round_;
  sim_->Schedule(params_.lambda_step, [this, round] {
    if (current_round_ == round && phase_ == Phase::kFetchBlock) {
      TryFinishRound();
    }
  });
}

void Node::AppendAgreedBlock(const Block& block) {
  ConsensusKind kind = ba_result_.final ? ConsensusKind::kFinal : ConsensusKind::kTentative;
  if (!ledger_.Append(block, kind)) {
    // Should not happen for validated blocks; treat as empty to preserve
    // progress (§8.1's "pass an empty block" rule).
    ledger_.Append(empty_block_, kind);
  }
  // Drop committed ids, then any transaction the new account state makes
  // unappliable (a competing block may have spent the same nonces).
  mempool_.ObserveCommitted(block.txns, ledger_.accounts());
  RoundRecord& rec = records_.back();
  rec.end_time = sim_->now();
  rec.empty = block.is_empty;
  RecordRoundMetrics(rec);
  Trace(TraceKind::kRoundEnd, ba_result_.deciding_step, 0, 0, ba_result_.value.prefix_u64(),
        static_cast<uint8_t>((rec.final ? kTraceFinal : 0) | (rec.empty ? kTraceEmpty : 0)));

  // Certificate: votes of the deciding step (§8.3), sharded if configured.
  Certificate cert = BuildCertificateForStep(ba_result_.deciding_step, params_.StepThreshold());
  std::optional<Certificate> final_cert;
  if (ba_result_.final) {
    final_cert = BuildCertificateForStep(kStepFinal, params_.FinalThreshold());
    // Finality supersedes fork suspicions up to this round.
    fork_monitor_.Prune(ledger_.HighestFinalRound().value_or(0));
  }
  // Disk gets the certificate unconditionally (no shard filter): the log is
  // this node's history of record, and catch-up serves from it beyond the
  // in-memory shard window.
  const uint64_t round = cert.round;
  StreamRoundToStore(round, &cert, final_cert ? &*final_cert : nullptr);
  if (KeepsCertificate(round)) {
    certificates_[round] = std::move(cert);
    if (final_cert) {
      final_certificates_[round] = std::move(*final_cert);
    }
  }
  MaybeCheckpoint();

  StartRound(current_round_ + 1);
}

void Node::StreamRoundToStore(uint64_t round, const Certificate* cert,
                              const Certificate* final_cert) {
  if (store_ == nullptr) {
    return;
  }
  StoredRound sr;
  sr.round = round;
  sr.kind = static_cast<uint8_t>(ledger_.ConsensusAtRound(round));
  // Serialize the ledger's copy, not the caller's candidate: Append may have
  // fallen back to the empty block.
  const Block& block = ledger_.BlockAtRound(round);
  sr.block = block.Serialize();
  sr.next_seed = block.next_seed;
  // The chain tip as of this round; equals the live tip except when
  // re-streaming a replacement suffix round by round after a fork switch.
  sr.tip_hash = round + 1 == ledger_.next_round() ? ledger_.tip_hash() : block.Hash();
  if (cert != nullptr && !cert->votes.empty()) {
    sr.cert = cert->Serialize();
  }
  if (final_cert != nullptr && !final_cert->votes.empty()) {
    sr.final_cert = final_cert->Serialize();
  }
  store_->AppendRound(std::move(sr));
}

Certificate Node::BuildCertificateForStep(uint32_t step, double needed) const {
  Certificate cert;
  cert.round = current_round_;
  cert.step = step;
  cert.block_hash = ba_result_.value;
  const StepTally* tally = ba_->TallyFor(step);
  if (tally == nullptr) {
    return cert;
  }
  // The tally's entries are the messages it counted, in arrival order.
  double total = 0;
  for (const StepTally::Entry& e : tally->entries()) {
    if (e.value() != cert.block_hash) {
      continue;
    }
    cert.votes.push_back(e.vote);
    total += static_cast<double>(e.weight);
    if (total > needed) {
      break;
    }
  }
  return cert;
}

// ---------------------------------------------------------------------------
// Block proposal (§6)
// ---------------------------------------------------------------------------

Block Node::BuildBlockProposal() {
  Block block;
  block.round = current_round_;
  block.prev_hash = ledger_.tip_hash();
  block.timestamp = sim_->now();
  block.proposer = key_.public_key;

  // Proposed seed for the next round: VRF(seed_r || r+1) (§5.2).
  Writer alpha;
  alpha.Fixed(ledger_.SeedForRound(current_round_));
  alpha.U64(current_round_ + 1);
  VrfResult seed_res = crypto_.vrf->Prove(key_, alpha.buffer());
  block.next_seed = SeedBytes::FromSpan(std::span<const uint8_t>(seed_res.output.data(), 32));
  block.next_seed_proof = seed_res.proof;

  // Fill with applicable transactions — the mempool's fee-priority,
  // nonce-sequenced draw against an overlay of current accounts — then pad
  // to the configured size.
  block.txns = mempool_.BuildBlock(ledger_.accounts(), params_.block_size_bytes);
  uint64_t used = static_cast<uint64_t>(block.txns.size()) * Transaction::kWireSize;
  if (used < params_.block_size_bytes) {
    block.padding_bytes = params_.block_size_bytes - used;
    Writer digest;
    digest.U64(current_round_);
    digest.Fixed(key_.public_key);
    block.padding_digest = Sha256::Hash(digest.buffer());
  }
  return block;
}

void Node::MaybePropose() {
  SortitionResult sort =
      RunSortition(*crypto_.vrf, key_, ctx_.seed, params_.tau_proposer, Role::kProposer,
                   current_round_, 0, SelfWeight(), ctx_.total_weight);
  Trace(TraceKind::kSortition, 0, sort.votes, kTraceRoleProposer);
  if (sort.votes == 0) {
    return;
  }
  if (obs_.blocks_proposed != nullptr) {
    obs_.blocks_proposed->Increment();
  }
  Block block = BuildBlockProposal();
  block.proposer_vrf = sort.hash;
  block.proposer_proof = sort.proof;

  auto priority_msg = std::make_shared<PriorityMessage>(
      MakePriorityMessage(key_, current_round_, sort.hash, sort.proof, sort.votes,
                          *crypto_.signer));
  auto block_msg = std::make_shared<BlockMessage>();
  block_msg->block = block;

  // Small priority message first so the network can discard lower-priority
  // blocks early, then the block itself. (The ablation skips the priority
  // message entirely.)
  if (params_.priority_gossip_enabled) {
    GossipMessage(priority_msg);
  }
  GossipMessage(block_msg);
  Trace(TraceKind::kProposalGossiped, 0, sort.votes, 0, block_msg->DedupId().prefix_u64());
}

// ---------------------------------------------------------------------------
// Voting (BaEnvironment)
// ---------------------------------------------------------------------------

void Node::CastVote(uint32_t step_code, double tau, const Hash256& value) {
  // The active machine votes in its own context: round (or session code),
  // seed and weights.
  const RoundContext& ctx = *vote_ctx_;
  // Participant replacement (ablation): sortition normally draws a fresh
  // committee per (round, step); with replacement off, one step-0 draw
  // serves the whole round.
  const uint32_t sort_step = params_.participant_replacement_enabled ? step_code : 0;
  SortitionResult sort =
      RunSortition(*crypto_.vrf, key_, ctx.seed, tau, Role::kCommittee, ctx.round, sort_step,
                   ctx.weight_of(key_.public_key), ctx.total_weight);
  if (sort.votes == 0) {
    return;  // Not on this step's committee.
  }
  if (obs_.votes_cast != nullptr) {
    obs_.votes_cast->Increment();
  }
  Trace(TraceKind::kSortition, step_code, sort.votes, kTraceRoleCommittee);
  EmitVotes(step_code, sort, value);
}

void Node::EmitVotes(uint32_t step_code, const SortitionResult& sort, const Hash256& value) {
  const RoundContext& ctx = *vote_ctx_;
  VoteMessage vote = MakeVote(key_, ctx.round, step_code, sort.hash, sort.proof, ctx.prev_hash,
                              value, *crypto_.signer);
  GossipMessage(std::make_shared<VoteMessage>(vote));
}

// ---------------------------------------------------------------------------
// Message verification
// ---------------------------------------------------------------------------

// Both checks memoize under ContextKey: the same message verified against
// another seed or stake total is a different check.
uint64_t Node::VerifyVote(const VoteMessage& vote, const RoundContext& ctx) const {
  auto compute = [&]() -> uint64_t {
    if (!crypto_.signer->Verify(vote.pk, vote.SignedBody(), vote.signature)) {
      return 0;
    }
    // Participant replacement (ablation): with replacement off, one step-0
    // committee serves the whole round.
    const uint32_t step = params_.participant_replacement_enabled ? vote.step : 0;
    const double tau = vote.step == kStepFinal ? params_.tau_final : params_.tau_step;
    return VerifySortition(*crypto_.vrf, vote.pk, vote.sorthash, vote.sort_proof, ctx.seed, tau,
                           Role::kCommittee, vote.round, step, ctx.weight_of(vote.pk),
                           ctx.total_weight);
  };
  if (crypto_.cache == nullptr) {
    return compute();
  }
  return crypto_.cache->GetOrCompute(ContextKey(vote.DedupId(), ctx.seed, ctx.total_weight),
                                     compute);
}

uint64_t Node::VerifyProposerSortition(const PublicKey& pk, const VrfOutput& sorthash,
                                       const VrfProof& proof, const RoundContext& ctx) const {
  auto compute = [&] {
    return VerifySortition(*crypto_.vrf, pk, sorthash, proof, ctx.seed, params_.tau_proposer,
                           Role::kProposer, ctx.round, 0, ctx.weight_of(pk), ctx.total_weight);
  };
  if (crypto_.cache == nullptr) {
    return compute();
  }
  return crypto_.cache->GetOrCompute(
      ContextKey(HashImage(pk, sorthash, ctx.round), ctx.seed, ctx.total_weight), compute);
}

uint64_t Node::ValidateBlockContents(const Block& block) const {
  if (block.round != current_round_ || block.prev_hash != ledger_.tip_hash()) {
    return 0;
  }
  // Timestamp: greater than the previous block's and approximately current
  // (within an hour), §8.1.
  if ((block.round > 1 && block.timestamp <= ledger_.Tip().timestamp) ||
      block.timestamp > sim_->now() + Hours(1) || block.timestamp + Hours(1) < sim_->now()) {
    return 0;
  }
  // Proposer credentials.
  const uint64_t votes =
      VerifyProposerSortition(block.proposer, block.proposer_vrf, block.proposer_proof, ctx_);
  if (votes == 0) {
    return 0;
  }
  // Seed: VRF(seed_r || r+1) under the proposer's key (§5.2).
  Writer alpha;
  alpha.Fixed(ledger_.SeedForRound(current_round_));
  alpha.U64(current_round_ + 1);
  auto seed_out = crypto_.vrf->Verify(block.proposer, alpha.buffer(), block.next_seed_proof);
  if (!seed_out ||
      SeedBytes::FromSpan(std::span<const uint8_t>(seed_out->data(), 32)) != block.next_seed) {
    return 0;
  }
  // Transactions: batch signature verification of the payments this node's
  // mempool does not hold (admission verified those bytes), plus
  // applicability via the conflict-partitioned checker. Both verdicts are
  // worker-count independent.
  if (!tx_verifier_.VerifyBatch(mempool_.NotResident(block.txns))) {
    return 0;
  }
  if (!applier_.CheckBlock(block.txns, ledger_.accounts())) {
    return 0;
  }
  return votes;
}

// ---------------------------------------------------------------------------
// Gossip plumbing
// ---------------------------------------------------------------------------

GossipVerdict Node::Receive(NodeId from, const MessagePtr& msg) {
  if (halted_) {
    return GossipVerdict::kDeliverOnly;  // A crashed node processes nothing.
  }
  switch (KindOf(*msg)) {
    case MessageKind::kRecoveryProposal:
      return recovery_.Receive(As<RecoveryProposalMessage>(msg));
    case MessageKind::kVote:
      return ReceiveVote(from, As<VoteMessage>(msg));
    case MessageKind::kPriority:
      return ReceivePriority(As<PriorityMessage>(msg));
    case MessageKind::kBlock:
      return ReceiveBlock(As<BlockMessage>(msg));
    case MessageKind::kTransaction: {
      // Relay payments with a valid signature and a nonce that is not already
      // spent; full applicability is checked at proposal time.
      const Transaction& tx = static_cast<const TransactionMessage&>(*msg).tx;
      const uint64_t next_nonce = ledger_.accounts().NextNonceOf(tx.from);
      if (!tx_verifier_.VerifyOne(tx) || tx.nonce < next_nonce) {
        return GossipVerdict::kReject;
      }
      mempool_.Add(tx, next_nonce);
      return GossipVerdict::kRelay;
    }
    case MessageKind::kBlockRequest:
      HandleBlockRequest(static_cast<const BlockRequestMessage&>(*msg));
      return GossipVerdict::kDeliverOnly;
    default:
      // Catch-up and fast-sync traffic is point-to-point.
      sync_.HandleMessage(msg);
      return GossipVerdict::kDeliverOnly;
  }
}

GossipVerdict Node::NotCurrent(uint64_t round, const MessagePtr& msg) {
  if (round < current_round_) {
    return GossipVerdict::kReject;  // Stale.
  }
  // Its sortition cannot be verified yet (unknown future seed): hold it
  // without relaying, which bounds adversarial amplification.
  RememberFutureMessage(round, msg);
  sync_.NoteEvidence(round, current_round_);
  return GossipVerdict::kDeliverOnly;
}

GossipVerdict Node::ReceiveVote(NodeId from, const std::shared_ptr<const VoteMessage>& vote) {
  // A vote is judged in its own round's context: the chain round's (also
  // while a recovery session runs, so relay verdicts do not depend on it), or
  // the matching recovery session's as it stands before the vote can make
  // this node join one.
  const bool chain_round = (vote->round & kRecoveryRoundBit) == 0;
  const RoundContext* judged = &ctx_;
  if (!chain_round) {
    judged = recovery_.ContextFor(vote->round);
  } else if (vote->round != current_round_) {
    return NotCurrent(vote->round, vote);
  }
  GossipVerdict verdict = GossipVerdict::kDeliverOnly;
  uint64_t weight = 0;
  if (judged != nullptr) {
    weight = VerifyVote(*vote, *judged);
    if (weight == 0) {
      return GossipVerdict::kReject;
    }
    // Relay at most one message per (round, step, pk) (§8.4); this node's
    // own and replayed votes do not count against a voter.
    if (from != id_ && relayed_votes_[vote->round].insert({vote->pk, vote->step})) {
      verdict = GossipVerdict::kRelay;
    }
  }
  if (!chain_round) {
    recovery_.MaybeJoin(vote->round);
  }
  if (sync_.active()) {
    return verdict;  // A stale BA* must not complete mid-catch-up.
  }
  // Votes binding to another chain are fork evidence, not countable votes.
  if (chain_round && vote->prev_hash != ctx_.prev_hash) {
    fork_monitor_.RecordAlienVote(vote->round, vote->prev_hash);
    return verdict;
  }
  // Only the active machine tallies: a chain round's votes are not counted
  // while a recovery session holds the slot, nor a session's outside it.
  const RoundContext& active = *vote_ctx_;
  if (vote->round != active.round || vote->prev_hash != active.prev_hash) {
    return verdict;
  }
  // A vote that made this node join its session is judged once, there.
  if (judged == nullptr && (weight = VerifyVote(*vote, active)) == 0) {
    return verdict;
  }
  if (chain_round && obs_.votes_counted != nullptr) {
    obs_.votes_counted->Increment();
  }
  ba_->OnVote(vote, weight);
  return verdict;
}

GossipVerdict Node::ReceivePriority(const std::shared_ptr<const PriorityMessage>& msg) {
  if (msg->round != current_round_) {
    return NotCurrent(msg->round, msg);
  }
  if (!crypto_.signer->Verify(msg->pk, msg->SignedBody(), msg->signature)) {
    return GossipVerdict::kReject;
  }
  const uint64_t votes = VerifyProposerSortition(msg->pk, msg->sorthash, msg->sort_proof, ctx_);
  if (votes == 0) {
    return GossipVerdict::kReject;
  }
  // Relay only if this is the best priority seen so far (§6).
  const Hash256 priority = ProposalPriority(msg->sorthash, votes);
  const GossipVerdict verdict =
      book_.Leads(priority) ? GossipVerdict::kRelay : GossipVerdict::kDeliverOnly;
  if (!sync_.active()) {
    book_.OfferPriority(msg->pk, priority, sim_->now());
  }
  return verdict;
}

GossipVerdict Node::ReceiveBlock(const std::shared_ptr<const BlockMessage>& msg) {
  const Block& block = msg->block;
  if (block.round != current_round_) {
    return NotCurrent(block.round, msg);
  }
  const uint64_t votes = ValidateBlockContents(block);
  if (votes == 0) {
    return GossipVerdict::kReject;
  }
  // Delivered but not relayed if a better proposer is already known (§6).
  const Hash256 priority = ProposalPriority(block.proposer_vrf, votes);
  const GossipVerdict verdict = params_.priority_gossip_enabled && book_.Outranked(priority)
                                    ? GossipVerdict::kDeliverOnly
                                    : GossipVerdict::kRelay;
  if (sync_.active()) {
    return verdict;
  }
  if (obs_.blocks_validated != nullptr) {
    obs_.blocks_validated->Increment();
  }
  const Hash256& hash = msg->DedupId();
  switch (book_.OfferBody(block.proposer, hash, msg, priority, sim_->now())) {
    case ProposalBook::Offer::kBanned:
      // A known equivocator is never a candidate, but BA* may already have
      // agreed on this body (Algorithm 3's BlockOfHash), so the one being
      // fetched is kept. Other bodies are dropped: memory stays at one body
      // per proposer plus the fetch target.
      if (phase_ == Phase::kFetchBlock && hash == ba_result_.value) {
        book_.Keep(hash, msg, sim_->now());
        TryFinishRound();
      }
      return verdict;
    case ProposalBook::Offer::kLeaderBanned:
      // The best proposer sent two different blocks: before agreement starts,
      // proceed with the empty block right away rather than waiting out
      // lambda_block (§10.4's optimization).
      if (phase_ == Phase::kWaitBlock) {
        StartAgreement(empty_hash_);
      }
      return verdict;
    case ProposalBook::Offer::kEquivocated:
      return verdict;
    case ProposalBook::Offer::kStored:
      break;
  }
  {
    // First valid receipt of this proposal: join against the originator's
    // gossip stamp (carried in-process on the shared message, over TCP in the
    // codec envelope) for true propagation latency.
    const TraceContext& tc = msg->trace_context();
    Trace(TraceKind::kBlockReceived, 0, tc.stamped() ? tc.origin : kTraceNoOrigin,
          tc.emitted_at, hash.prefix_u64());
  }
  const Hash256* leader = book_.LeaderBody();
  if (phase_ == Phase::kWaitBlock && leader != nullptr && *leader == hash) {
    StartAgreement(hash);
  } else if (phase_ == Phase::kFetchBlock && hash == ba_result_.value) {
    TryFinishRound();
  }
  return verdict;
}

void Node::HandleBlockRequest(const BlockRequestMessage& msg) {
  // Serve from this round's proposals or from the chain, in a reply of this
  // node's own.
  auto reply = std::make_shared<BlockMessage>();
  if (const auto* body = book_.Find<BlockMessage>(msg.block_hash)) {
    reply->block = body->block;
  } else if (std::optional<Block> block = ledger_.BlockByHash(msg.block_hash)) {
    reply->block = std::move(*block);
  } else {
    return;
  }
  gossip_->SendTo(msg.requester, reply);
}

// ---------------------------------------------------------------------------
// SyncHost: the node side of live catch-up and fast-sync (catchup.h)
// ---------------------------------------------------------------------------

void Node::LeaveRound() {
  ++sched_epoch_;  // Kill BA*/proposal timers for the round we are leaving.
  // Catch-up preempts an in-progress recovery session: certificate-backed
  // evidence of rounds ahead means the network moved on without us, so
  // fetching that chain beats re-agreeing on a stale suffix — and a stalled
  // recovery (stragglers hung at different rounds never form a committee)
  // must not lock the node out of catch-up forever.
  recovery_.Stop();
  vote_ctx_ = &ctx_;
  phase_ = Phase::kCatchup;
}

void Node::Synced() {
  hung_ = false;
  fork_monitor_.Prune(ledger_.HighestFinalRound().value_or(0));
}

void Node::CommitSyncedRound(const Block& block, const Certificate& cert) {
  if (KeepsCertificate(block.round)) {
    certificates_[block.round] = cert;
  }
  StreamRoundToStore(block.round, &cert, nullptr);
  mempool_.ObserveCommitted(block.txns, ledger_.accounts());
}

void Node::CommitFinalCertificate(const Certificate& final_cert) {
  if (KeepsCertificate(final_cert.round)) {
    final_certificates_[final_cert.round] = final_cert;
  }
  if (store_ != nullptr) {
    store_->AppendFinalUpgrade(final_cert.round, final_cert.Serialize());
  }
}

bool Node::InstallCheckpoint(VerifiedCheckpoint cp, std::vector<uint8_t> payload,
                             const std::vector<ChainLink>& links) {
  if (!ledger_.InstallCheckpoint(cp.tip, std::move(cp.accounts), cp.seed_base,
                                 std::move(cp.seeds))) {
    return false;
  }
  const uint64_t b = cp.manifest.round;
  last_checkpoint_round_ = b;
  if (store_ != nullptr) {
    // Persist what we verified: the checkpoint payload (so a restart resumes
    // from here, and we can serve fast-sync in turn), the primed log, and
    // the cert chain below b.
    store_->AdoptCheckpoint(b, std::move(payload));
    store_->PrimeAt(b + 1, cp.manifest.tip_hash);
    std::vector<std::vector<uint8_t>> payloads;
    payloads.reserve(links.size());
    for (const ChainLink& l : links) {
      payloads.push_back(l.SerializePayload());
    }
    store_->AppendChainLinks(std::move(payloads));
  }
  fork_monitor_.Prune(b);
  return true;
}

std::shared_ptr<CatchupResponseMessage> Node::BuildCatchupResponse(
    const CatchupRequestMessage& req) const {
  return ServeCatchup(ledger_, certificates_, final_certificates_, store_, req, id_);
}

// ---------------------------------------------------------------------------
// Crash/restart support
// ---------------------------------------------------------------------------

bool Node::RestoreFromStore(BlockStore* store) {
  if (store == nullptr || ledger_.chain_length() != 1) {
    return false;  // Restore only into a genesis-fresh node.
  }
  store_ = store;
  // Checkpoint ladder: restoring from the newest intact checkpoint skips the
  // replay of everything below it. A corrupt or mismatched checkpoint file is
  // never loaded silently — each candidate is fully verified (tip hash,
  // fingerprint, genesis binding), and on failure we step down to the next
  // older one, bottoming out at plain WAL replay from genesis.
  uint64_t start = 1;
  if (ledger_.lookback_rounds() == 0) {
    auto ckpts = store->checkpoints();  // Oldest first.
    for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
      auto payload = store->ReadCheckpointPayload(it->round);
      if (payload == nullptr) {
        continue;
      }
      std::optional<VerifiedCheckpoint> cp = VerifyCheckpoint(*payload, it->round, genesis_hash_);
      if (!cp.has_value() || !ledger_.InstallCheckpoint(cp->tip, std::move(cp->accounts),
                                                        cp->seed_base, std::move(cp->seeds))) {
        continue;
      }
      start = it->round + 1;
      last_checkpoint_round_ = it->round;
      break;
    }
  }
  if (start == 1 && store->first_retained_round() > 1) {
    // The log was compacted below some checkpoint but no checkpoint loaded:
    // the prefix is unreconstructible. Refuse rather than restore a chain
    // with a hole in it.
    return false;
  }
  uint64_t stop = 0;  // First round that failed validation (0 = none).
  for (uint64_t r = start; r < store->next_round(); ++r) {
    // The log is not trusted blindly: a record only counts if its
    // certificates prove the round the way a catch-up batch would (§8.3).
    // Its logged kind stands, and rounds logged without a certificate
    // (fork-recovery suffixes) are accepted on chain structure alone.
    std::optional<StoredRound> stored = store->ReadRound(r);
    if (!stored.has_value()) {
      stop = r;
      break;
    }
    // An empty section means "none recorded"; a non-empty one must decode.
    auto decode = [](const std::vector<uint8_t>& bytes, std::optional<Certificate>* out) {
      return bytes.empty() || (*out = Certificate::Deserialize(bytes)).has_value();
    };
    std::optional<Block> block = Block::Deserialize(stored->block);
    std::optional<Certificate> cert;
    std::optional<Certificate> final_cert;
    const CertifiedRoundRules rules{.kind = static_cast<ConsensusKind>(stored->kind),
                                    .allow_uncertified = true};
    if (!block.has_value() || !decode(stored->cert, &cert) ||
        !decode(stored->final_cert, &final_cert) ||
        AppendCertifiedRound(&ledger_, params_, *crypto_.vrf, *crypto_.signer, *block,
                             cert.has_value() ? &*cert : nullptr,
                             final_cert.has_value() ? &*final_cert : nullptr,
                             rules) != RoundCheck::kOk) {
      stop = r;
      break;
    }
    if (cert.has_value() && KeepsCertificate(r)) {
      certificates_[r] = std::move(*cert);
    }
    if (final_cert.has_value() && KeepsCertificate(r)) {
      final_certificates_[r] = std::move(*final_cert);
    }
  }
  if (stop != 0) {
    // Disk and memory must agree after restore: cut the log back to the
    // prefix that validated, so the next AppendRound lines up.
    store->TruncateSuffix(stop);
  }
  fork_monitor_.Prune(ledger_.HighestFinalRound().value_or(0));
  return true;
}

void Node::Halt() {
  halted_ = true;
  ++sched_epoch_;  // Dead: every pending lambda must find a changed epoch...
  sync_.Stop();    // ...or sync epoch, and the halted_ flag backstops both.
  recovery_.Stop();
  phase_ = Phase::kIdle;
}

// ---------------------------------------------------------------------------
// RecoveryHost: the node side of fork recovery (recovery.h)
// ---------------------------------------------------------------------------

void Node::Recovered(uint64_t first) {
  // The adopted fork may have spent different nonces than the abandoned one;
  // drop anything the new account state makes unappliable.
  mempool_.DropStale(ledger_.accounts());
  // Deciding certificates of replaced rounds certify blocks that are no
  // longer on the chain, and catch-up would serve them with the adopted
  // blocks. Final certificates are at or below the anchor and stay.
  certificates_.erase(certificates_.lower_bound(first), certificates_.end());
  if (store_ != nullptr) {
    // Mirror the fork switch on disk: one truncate record (fsync'd before
    // any segment GC), then the adopted suffix. Recovery-adopted blocks
    // carry no per-round certificate — the recovery session itself vouched
    // for them — so they are logged cert-less.
    store_->TruncateSuffix(first);
    for (uint64_t r = first; r < ledger_.next_round(); ++r) {
      StreamRoundToStore(r, nullptr, nullptr);
    }
  }
  hung_ = false;
  if (obs_.recoveries != nullptr) {
    obs_.recoveries->Increment();
  }
  fork_monitor_.Clear();
  StartRound(ledger_.next_round());
}

// ---------------------------------------------------------------------------
// Checkpoints (DESIGN.md §13)
// ---------------------------------------------------------------------------

void Node::MaybeCheckpoint() {
  if (store_ == nullptr || params_.checkpoint_interval == 0 ||
      ledger_.lookback_rounds() > 0) {
    // Look-back sortition needs the snapshot window a checkpoint cannot
    // capture; checkpointing is simply off in that configuration.
    return;
  }
  std::optional<uint64_t> hf = ledger_.HighestFinalRound();
  if (!hf.has_value()) {
    return;  // Only final history is checkpointable (never forked off).
  }
  uint64_t b = *hf - *hf % params_.checkpoint_interval;
  if (b == 0 || b <= last_checkpoint_round_ || b < ledger_.base_round()) {
    return;
  }
  const Block& tip = ledger_.BlockAtRound(b);
  CheckpointData data;
  data.manifest.round = b;
  data.manifest.tip_hash = tip.Hash();
  data.manifest.highest_final = *hf;
  data.manifest.genesis_hash = genesis_hash_;
  AccountTable accounts = ledger_.AccountsAtRound(b);
  data.manifest.fingerprint = accounts.StateFingerprint();
  // Seed window: from any round r > b the refresh rule reaches back at most
  // R + 1 rounds (seed_{r-1-(r mod R)}), so [b - R - 64, b] covers every
  // future lookup with margin — clamped to what this ledger can still answer
  // (it may itself run on a compacted prefix).
  uint64_t refresh = params_.seed_refresh_interval == 0 ? 1 : params_.seed_refresh_interval;
  uint64_t seed_base = b > refresh + 64 ? b - refresh - 64 : 0;
  if (seed_base < ledger_.seed_base()) {
    seed_base = ledger_.seed_base();
  }
  data.seed_base = seed_base;
  data.seeds.reserve(b - seed_base + 1);
  for (uint64_t r = seed_base; r <= b; ++r) {
    data.seeds.push_back(ledger_.SeedForRound(r));
  }
  data.tip_block = tip.Serialize();
  last_checkpoint_round_ = b;
  if (obs_.checkpoints_requested != nullptr) {
    obs_.checkpoints_requested->Increment();
  }
  // The account section can be tens of MB; serialize it on the store's
  // writer thread, off the protocol path. The table travels by value — the
  // ledger mutates on while the checkpoint is in flight.
  store_->AppendCheckpoint(
      b, [data = std::move(data), accounts = std::move(accounts)]() mutable {
        Writer w;
        accounts.SerializeTo(&w);
        data.accounts = w.Take();
        return data.Serialize();
      });
}

void Node::RememberFutureMessage(uint64_t round, const MessagePtr& msg) {
  // Bounded buffer: a Byzantine flood of far-future messages must not grow
  // memory without limit.
  constexpr size_t kMaxPerRound = 100000;
  auto& bucket = future_messages_[round];
  if (bucket.size() < kMaxPerRound) {
    bucket.push_back(msg);
  }
}

void Node::ReplayBufferedMessages(uint64_t round) {
  auto it = future_messages_.find(round);
  if (it == future_messages_.end()) {
    // Also drop buffers for rounds we skipped past.
    future_messages_.erase(future_messages_.begin(), future_messages_.lower_bound(round));
    return;
  }
  std::vector<MessagePtr> msgs = std::move(it->second);
  future_messages_.erase(future_messages_.begin(), ++it);
  for (const MessagePtr& msg : msgs) {
    Receive(id_, msg);
  }
}

}  // namespace algorand
