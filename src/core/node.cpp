#include "src/core/node.h"

#include <cstring>

#include "src/common/serialize.h"
#include "src/common/verify_pool.h"
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

// First 8 bytes of a hash, big-endian — enough identity for a trace line.
uint64_t HashPrefix(const Hash256& h) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v = (v << 8) | h[i];
  }
  return v;
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
      catchup_rng_(id, "catchup") {
  genesis_hash_ = ledger_.tip_hash();  // The ledger is genesis-fresh here.
  ledger_.SetApplier(&applier_);
  gossip_->set_validator([this](const MessagePtr& msg) { return ValidateForRelay(msg); });
  gossip_->set_handler([this](const MessagePtr& msg) { HandleMessage(msg); });
}

void Node::Start() {
  StartRound(ledger_.next_round());
  ScheduleRecoveryCheck();
}

void Node::AttachObservability(MetricsRegistry* metrics, RoundTracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  mempool_.AttachMetrics(metrics);
  applier_.AttachMetrics(metrics);
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
  obs_.catchup_sessions = &metrics->GetCounter("catchup.sessions");
  obs_.catchup_requests = &metrics->GetCounter("catchup.requests");
  obs_.catchup_served = &metrics->GetCounter("catchup.served");
  obs_.catchup_timeouts = &metrics->GetCounter("catchup.timeouts");
  obs_.catchup_bad_batches = &metrics->GetCounter("catchup.bad_batches");
  obs_.catchup_blocks = &metrics->GetCounter("catchup.blocks_applied");
  obs_.catchup_completed = &metrics->GetCounter("catchup.completed");
  obs_.catchup_rotations = &metrics->GetCounter("catchup.peer_rotations");
  obs_.catchup_aborted = &metrics->GetCounter("catchup.aborted");
  obs_.fastsync_sessions = &metrics->GetCounter("catchup.fastsync_sessions");
  obs_.fastsync_completed = &metrics->GetCounter("catchup.fastsync_completed");
  obs_.fastsync_failed = &metrics->GetCounter("catchup.fastsync_failed");
  obs_.fastsync_links = &metrics->GetCounter("catchup.fastsync_links_verified");
  obs_.fastsync_bytes = &metrics->GetCounter("catchup.fastsync_bytes");
  obs_.fastsync_served = &metrics->GetCounter("catchup.fastsync_served");
  obs_.checkpoints_requested = &metrics->GetCounter("node.checkpoints_requested");
  obs_.step_time_ms = &metrics->GetHistogram("ba.step_time_ms");
  obs_.proposal_time_ms = &metrics->GetHistogram("ba.proposal_time_ms");
  obs_.reduction_time_ms = &metrics->GetHistogram("ba.reduction_time_ms");
  obs_.binary_time_ms = &metrics->GetHistogram("ba.binary_time_ms");
  obs_.final_time_ms = &metrics->GetHistogram("ba.final_time_ms");
  obs_.round_time_ms = &metrics->GetHistogram("ba.round_time_ms");
  obs_.binary_steps =
      &metrics->GetHistogram("ba.binary_steps", MetricsRegistry::DefaultCountBuckets());
}

void Node::Trace(TraceKind kind, uint32_t step, uint64_t a, uint64_t b, uint64_t value_prefix,
                 uint8_t flag) {
  if (tracer_ == nullptr) {
    return;
  }
  TraceEvent ev;
  ev.at = sim_->now();
  ev.node = id_;
  ev.round = in_recovery_ ? recovery_code_ : current_round_;
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
      Trace(TraceKind::kStepExit, event.step, event.votes, 0, HashPrefix(event.value),
            event.timed_out ? 1 : 0);
      break;
    case BaStepEvent::Kind::kReductionDone:
      Trace(TraceKind::kReductionDone, 0, 0, 0, HashPrefix(event.value));
      break;
    case BaStepEvent::Kind::kCoinFlip:
      Trace(TraceKind::kCoinFlip, event.step, static_cast<uint64_t>(event.coin));
      break;
    case BaStepEvent::Kind::kBinaryDecided:
      Trace(TraceKind::kBinaryDecided, event.step, static_cast<uint64_t>(event.binary_steps), 0,
            HashPrefix(event.value));
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
  SubmitTransaction(tx);
  auto msg = std::make_shared<TransactionMessage>();
  msg->tx = tx;
  GossipMessage(msg);
}

void Node::ConfigureCertificateSharding(uint32_t shard_count) {
  shard_count_ = shard_count == 0 ? 1 : shard_count;
}

SimTime Node::Now() const { return sim_->now(); }

void Node::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  // BaStar instances are per-round (and per recovery session); their timers
  // must not fire into a destroyed machine after the node moved on. The
  // epoch bumps on every round change and recovery transition.
  uint64_t epoch = sched_epoch_;
  sim_->Schedule(delay, [this, epoch, fn = std::move(fn)] {
    if (sched_epoch_ == epoch) {
      fn();
    }
  });
}

RoundContext Node::MakeContext() const {
  RoundContext ctx;
  ctx.round = current_round_;
  ctx.seed = ledger_.SortitionSeed(current_round_, params_.seed_refresh_interval);
  ctx.prev_hash = ledger_.tip_hash();
  ctx.total_weight = ledger_.total_weight();
  const Ledger* ledger = &ledger_;
  ctx.weight_of = [ledger](const PublicKey& pk) { return ledger->WeightOf(pk); };
  return ctx;
}

// ---------------------------------------------------------------------------
// Round lifecycle
// ---------------------------------------------------------------------------

void Node::StartRound(uint64_t round) {
  current_round_ = round;
  ++sched_epoch_;
  ctx_ = MakeContext();
  if (crypto_.cache != nullptr) {
    crypto_.cache->NoteRound(round);  // Prunes entries from finished rounds.
  }
  empty_block_ = Block::MakeEmpty(round, ledger_.tip_hash(), ledger_.SeedForRound(round));
  empty_hash_ = empty_block_.Hash();
  proposal_ = ProposalState{};
  round_votes_.clear();
  // Prune relay bookkeeping for finished rounds.
  relayed_votes_.erase(relayed_votes_.begin(), relayed_votes_.lower_bound(round));
  if (gossip_ != nullptr) {
    gossip_->AdvanceSeenWindow(round);  // Round-windowed dedup pruning.
  }
  prev_ba_ = std::move(ba_);  // Defer destruction past the caller's frames.
  ba_ = std::make_unique<BaStar>(params_, this,
                                 [this](const BaResult& result) { OnBaComplete(result); });
  ba_->set_observer([this](const BaStepEvent& event) { ObserveBaStep(event); });
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

void Node::OnPriorityWindowClosed() {
  phase_ = Phase::kWaitBlock;
  // If the best-priority proposer's block is already here, go; otherwise wait
  // up to lambda_block for it.
  if (proposal_.have_best) {
    auto it = proposal_.block_hash_by_proposer.find(proposal_.best_pk);
    if (it != proposal_.block_hash_by_proposer.end()) {
      StartAgreement(it->second);
      return;
    }
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
  rec.best_priority_at = proposal_.best_priority_at;
  auto seen = proposal_.block_seen_at.find(candidate);
  rec.candidate_block_at = seen == proposal_.block_seen_at.end() ? 0 : seen->second;
  ba_->Start(candidate, empty_hash_);
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
  auto it = proposal_.blocks_by_hash.find(value);
  if (it != proposal_.blocks_by_hash.end()) {
    AppendAgreedBlock(it->second);
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
  Trace(TraceKind::kRoundEnd, ba_result_.deciding_step, 0, 0, HashPrefix(ba_result_.value),
        static_cast<uint8_t>((rec.final ? kTraceFinal : 0) | (rec.empty ? kTraceEmpty : 0)));

  // Certificate: votes of the deciding step (§8.3), sharded if configured.
  Certificate cert = BuildCertificateForStep(ba_result_.deciding_step, params_.StepThreshold());
  if (shard_count_ <= 1 || (cert.round % shard_count_) == (id_ % shard_count_)) {
    certificates_[cert.round] = cert;
  }
  std::optional<Certificate> final_cert;
  if (ba_result_.final) {
    final_cert = BuildCertificateForStep(kStepFinal, params_.FinalThreshold());
    final_certificates_[cert.round] = *final_cert;
    // Finality supersedes fork suspicions up to this round.
    fork_monitor_.Prune(ledger_.HighestFinalRound().value_or(0));
  }
  // Disk gets the certificate unconditionally (no shard filter): the log is
  // this node's history of record, and catch-up serves from it beyond the
  // in-memory shard window.
  StreamRoundToStore(cert.round, kind, &cert, final_cert ? &*final_cert : nullptr);
  MaybeCheckpoint();

  StartRound(current_round_ + 1);
}

void Node::StreamRoundToStore(uint64_t round, ConsensusKind kind, const Certificate* cert,
                              const Certificate* final_cert) {
  if (store_ == nullptr) {
    return;
  }
  StoredRound sr;
  sr.round = round;
  sr.kind = static_cast<uint8_t>(kind);
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
  double total = 0;
  for (const StepTally::Entry& e : tally->entries()) {
    if (e.value != cert.block_hash) {
      continue;
    }
    auto it = round_votes_.find({step, e.pk});
    if (it == round_votes_.end()) {
      continue;  // Own vote stored at emission; should always be present.
    }
    cert.votes.push_back(it->second);
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
  Trace(TraceKind::kProposalGossiped, 0, sort.votes, 0, HashPrefix(block_msg->DedupId()));
}

void Node::GossipMessage(const MessagePtr& msg) {
  // Start verifying our own outbound message on a worker before the gossip
  // agent's local delivery asks for the verdict; the inline lookup then joins
  // the in-flight computation instead of running it on the protocol thread.
  if (crypto_.pool != nullptr) {
    PrewarmMessage(msg, crypto_.pool);
  }
  gossip_->Gossip(msg);
}

// ---------------------------------------------------------------------------
// Voting (BaEnvironment)
// ---------------------------------------------------------------------------

void Node::CastVote(uint32_t step_code, double tau, const Hash256& value) {
  const RoundContext& ctx = in_recovery_ ? recovery_ctx_ : ctx_;
  const uint64_t vote_round = in_recovery_ ? recovery_code_ : current_round_;
  const uint64_t weight =
      in_recovery_ ? recovery_accounts_.WeightOf(key_.public_key) : SelfWeight();
  // Participant replacement (ablation): sortition normally draws a fresh
  // committee per (round, step); with replacement off, one step-0 draw
  // serves the whole round.
  const uint32_t sort_step = params_.participant_replacement_enabled ? step_code : 0;
  SortitionResult sort = RunSortition(*crypto_.vrf, key_, ctx.seed, tau, Role::kCommittee,
                                      vote_round, sort_step, weight, ctx.total_weight);
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
  const RoundContext& ctx = in_recovery_ ? recovery_ctx_ : ctx_;
  const uint64_t vote_round = in_recovery_ ? recovery_code_ : current_round_;
  VoteMessage vote = MakeVote(key_, vote_round, step_code, sort.hash, sort.proof, ctx.prev_hash,
                              value, *crypto_.signer);
  GossipMessage(std::make_shared<VoteMessage>(vote));
}

// ---------------------------------------------------------------------------
// Message verification
// ---------------------------------------------------------------------------

uint64_t Node::VerifyVote(const VoteMessage& vote, const RoundContext& ctx) const {
  const bool final_step = vote.step == kStepFinal;
  const double tau = final_step ? params_.tau_final : params_.tau_step;
  const uint32_t sort_step = params_.participant_replacement_enabled ? vote.step : 0;
  auto compute = [&]() -> uint64_t {
    if (!crypto_.signer->Verify(vote.pk, vote.SignedBody(), vote.signature)) {
      return 0;
    }
    return VerifySortition(*crypto_.vrf, vote.pk, vote.sorthash, vote.sort_proof, ctx.seed, tau,
                           Role::kCommittee, vote.round, sort_step, ctx.weight_of(vote.pk),
                           ctx.total_weight);
  };
  if (crypto_.cache != nullptr) {
    return crypto_.cache->GetOrCompute(ContextKey(vote.DedupId(), ctx.seed, ctx.total_weight),
                                       compute);
  }
  return compute();
}

uint64_t Node::VerifyProposerSortition(const PublicKey& pk, const VrfOutput& sorthash,
                                       const VrfProof& proof, const RoundContext& ctx) const {
  auto compute = [&]() -> uint64_t {
    return VerifySortition(*crypto_.vrf, pk, sorthash, proof, ctx.seed, params_.tau_proposer,
                           Role::kProposer, ctx.round, 0, ctx.weight_of(pk), ctx.total_weight);
  };
  if (crypto_.cache != nullptr) {
    return crypto_.cache->GetOrCompute(
        ContextKey(HashImage(pk, sorthash, ctx.round), ctx.seed, ctx.total_weight), compute);
  }
  return compute();
}

void Node::PrewarmMessage(const MessagePtr& msg, VerifyPool* pool) {
  if (pool == nullptr || pool->worker_count() == 0 || crypto_.cache == nullptr) {
    return;
  }
  VerificationCache* cache = crypto_.cache;
  const VrfBackend* vrf = crypto_.vrf;
  const SignerBackend* signer = crypto_.signer;

  if (auto txn = std::dynamic_pointer_cast<const TransactionMessage>(msg)) {
    // Payment signatures are context-free, so they can always be prewarmed;
    // the relay validator then hits the cache instead of verifying inline.
    tx_verifier_.Prewarm({txn->tx});
    return;
  }

  if (auto vote = std::dynamic_pointer_cast<const VoteMessage>(msg)) {
    // Recovery votes need session context and future/stale votes are not
    // verifiable yet (unknown seed) — both are skipped, exactly the cases the
    // inline path also cannot cache usefully.
    if ((vote->round & kRecoveryRoundBit) != 0 || vote->round != current_round_) {
      return;
    }
    const bool final_step = vote->step == kStepFinal;
    const double tau = final_step ? params_.tau_final : params_.tau_step;
    const uint32_t sort_step = params_.participant_replacement_enabled ? vote->step : 0;
    // Resolved on the protocol thread: the job must not touch the ledger.
    const uint64_t weight = ctx_.weight_of(vote->pk);
    const SeedBytes seed = ctx_.seed;
    const uint64_t total = ctx_.total_weight;
    const Hash256 key = ContextKey(vote->DedupId(), seed, total);
    if (cache->Contains(key)) {
      return;
    }
    pool->Submit([cache, key, vote, vrf, signer, seed, tau, sort_step, weight, total] {
      cache->Prewarm(key, [&]() -> uint64_t {
        if (!signer->Verify(vote->pk, vote->SignedBody(), vote->signature)) {
          return 0;
        }
        return VerifySortition(*vrf, vote->pk, vote->sorthash, vote->sort_proof, seed, tau,
                               Role::kCommittee, vote->round, sort_step, weight, total);
      });
    });
    return;
  }

  // Priority and block messages share the cached proposer-sortition check;
  // the rest of block validation (contents, seed VRF) stays on the protocol
  // thread, which is fine — the sortition proof is the expensive part.
  PublicKey pk;
  VrfOutput sorthash;
  VrfProof proof;
  uint64_t msg_round = 0;
  if (auto pri = std::dynamic_pointer_cast<const PriorityMessage>(msg)) {
    pk = pri->pk;
    sorthash = pri->sorthash;
    proof = pri->sort_proof;
    msg_round = pri->round;
  } else if (auto blk = std::dynamic_pointer_cast<const BlockMessage>(msg)) {
    pk = blk->block.proposer;
    sorthash = blk->block.proposer_vrf;
    proof = blk->block.proposer_proof;
    msg_round = blk->block.round;
    // Transaction signatures are context-free: start them regardless of the
    // round check below so ValidateBlockContents' batch verify hits the cache.
    // Payments this node's mempool holds were verified at admission.
    tx_verifier_.Prewarm(mempool_.NotResident(blk->block.txns));
  } else {
    return;
  }
  if (msg_round != current_round_) {
    return;
  }
  const uint64_t weight = ctx_.weight_of(pk);
  const SeedBytes seed = ctx_.seed;
  const uint64_t total = ctx_.total_weight;
  const uint64_t round = ctx_.round;
  const double tau = params_.tau_proposer;
  const Hash256 key = ContextKey(HashImage(pk, sorthash, round), seed, total);
  if (cache->Contains(key)) {
    return;
  }
  pool->Submit([cache, key, vrf, pk, sorthash, proof, seed, tau, round, weight, total] {
    cache->Prewarm(key, [&]() -> uint64_t {
      return VerifySortition(*vrf, pk, sorthash, proof, seed, tau, Role::kProposer, round, 0,
                             weight, total);
    });
  });
}

bool Node::ValidateBlockContents(const Block& block) const {
  if (block.round != current_round_ || block.prev_hash != ledger_.tip_hash()) {
    return false;
  }
  // Timestamp: greater than the previous block's and approximately current
  // (within an hour), §8.1.
  if (block.round > 1) {
    if (block.timestamp <= ledger_.Tip().timestamp) {
      return false;
    }
  }
  if (block.timestamp > sim_->now() + Hours(1) || block.timestamp + Hours(1) < sim_->now()) {
    return false;
  }
  // Proposer credentials.
  if (VerifyProposerSortition(block.proposer, block.proposer_vrf, block.proposer_proof, ctx_) ==
      0) {
    return false;
  }
  // Seed: VRF(seed_r || r+1) under the proposer's key (§5.2).
  Writer alpha;
  alpha.Fixed(ledger_.SeedForRound(current_round_));
  alpha.U64(current_round_ + 1);
  auto seed_out = crypto_.vrf->Verify(block.proposer, alpha.buffer(), block.next_seed_proof);
  if (!seed_out ||
      SeedBytes::FromSpan(std::span<const uint8_t>(seed_out->data(), 32)) != block.next_seed) {
    return false;
  }
  // Transactions: batch signature verification of the payments this node's
  // mempool does not hold (admission verified those bytes), plus
  // applicability via the conflict-partitioned checker. Both verdicts are
  // worker-count independent.
  if (!tx_verifier_.VerifyBatch(mempool_.NotResident(block.txns))) {
    return false;
  }
  if (!applier_.CheckBlock(block.txns, ledger_.accounts())) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Gossip plumbing
// ---------------------------------------------------------------------------

GossipVerdict Node::ValidateForRelay(const MessagePtr& msg) {
  if (auto rec = std::dynamic_pointer_cast<const RecoveryProposalMessage>(msg)) {
    return ValidateRecoveryProposal(*rec);
  }
  if (auto vote = std::dynamic_pointer_cast<const VoteMessage>(msg)) {
    if (vote->round & kRecoveryRoundBit) {
      if (!in_recovery_ || vote->round != recovery_code_) {
        // Cannot validate a recovery vote outside the matching session.
        return GossipVerdict::kDeliverOnly;
      }
      if (VerifyVote(*vote, recovery_ctx_) == 0) {
        return GossipVerdict::kReject;
      }
      if (!relayed_votes_[vote->round].insert({vote->pk, vote->step})) {
        return GossipVerdict::kDeliverOnly;
      }
      return GossipVerdict::kRelay;
    }
    if (vote->round < current_round_) {
      return GossipVerdict::kReject;  // Stale.
    }
    if (vote->round > current_round_) {
      // Cannot verify sortition yet (unknown future seed); hold without
      // relaying to bound adversarial amplification.
      return GossipVerdict::kDeliverOnly;
    }
    uint64_t weight = VerifyVote(*vote, ctx_);
    if (weight == 0) {
      return GossipVerdict::kReject;
    }
    // Relay at most one message per (round, step, pk) (§8.4).
    if (!relayed_votes_[vote->round].insert({vote->pk, vote->step})) {
      return GossipVerdict::kDeliverOnly;
    }
    return GossipVerdict::kRelay;
  }
  if (auto pri = std::dynamic_pointer_cast<const PriorityMessage>(msg)) {
    if (pri->round != current_round_) {
      return pri->round > current_round_ ? GossipVerdict::kDeliverOnly : GossipVerdict::kReject;
    }
    if (!crypto_.signer->Verify(pri->pk, pri->SignedBody(), pri->signature)) {
      return GossipVerdict::kReject;
    }
    uint64_t votes = VerifyProposerSortition(pri->pk, pri->sorthash, pri->sort_proof, ctx_);
    if (votes == 0) {
      return GossipVerdict::kReject;
    }
    // Relay only if this is the best priority seen so far (§6).
    Hash256 priority = ProposalPriority(pri->sorthash, votes);
    if (proposal_.have_best && !PriorityBeats(priority, proposal_.best_priority)) {
      return GossipVerdict::kDeliverOnly;
    }
    return GossipVerdict::kRelay;
  }
  if (auto blk = std::dynamic_pointer_cast<const BlockMessage>(msg)) {
    if (blk->block.round != current_round_) {
      return blk->block.round > current_round_ ? GossipVerdict::kDeliverOnly
                                               : GossipVerdict::kReject;
    }
    if (!ValidateBlockContents(blk->block)) {
      return GossipVerdict::kReject;
    }
    relay_validated_ = {blk->DedupId(), current_round_, ledger_.tip_hash()};
    uint64_t votes =
        VerifyProposerSortition(blk->block.proposer, blk->block.proposer_vrf,
                                blk->block.proposer_proof, ctx_);
    if (votes == 0) {
      return GossipVerdict::kReject;
    }
    Hash256 priority = ProposalPriority(blk->block.proposer_vrf, votes);
    if (params_.priority_gossip_enabled && proposal_.have_best &&
        PriorityBeats(proposal_.best_priority, priority)) {
      return GossipVerdict::kDeliverOnly;  // A better proposer is known.
    }
    return GossipVerdict::kRelay;
  }
  if (auto txn = std::dynamic_pointer_cast<const TransactionMessage>(msg)) {
    // Relay payments with a valid signature and a nonce that is not already
    // spent; full applicability is checked at proposal time. The cached
    // verifier makes relay copies a lookup, not a signature check.
    if (!tx_verifier_.VerifyOne(txn->tx)) {
      return GossipVerdict::kReject;
    }
    if (txn->tx.nonce < ledger_.accounts().NextNonceOf(txn->tx.from)) {
      return GossipVerdict::kReject;  // Stale or replayed.
    }
    return GossipVerdict::kRelay;
  }
  // Block requests are point-to-point.
  return GossipVerdict::kDeliverOnly;
}

void Node::HandleMessage(const MessagePtr& msg) {
  if (halted_) {
    return;  // A crashed node processes nothing.
  }
  if (auto rec = std::dynamic_pointer_cast<const RecoveryProposalMessage>(msg)) {
    HandleRecoveryProposal(rec);
    return;
  }
  if (auto vote = std::dynamic_pointer_cast<const VoteMessage>(msg)) {
    if (vote->round & kRecoveryRoundBit) {
      MaybeJoinRecoverySession(vote->round);
      HandleVote(vote);
      return;
    }
    if (vote->round > current_round_) {
      RememberFutureMessage(vote->round, msg);
      NoteCatchupEvidence(vote->round);
      return;
    }
    if (vote->round == current_round_) {
      HandleVote(vote);
    }
    return;
  }
  if (auto pri = std::dynamic_pointer_cast<const PriorityMessage>(msg)) {
    if (pri->round > current_round_) {
      RememberFutureMessage(pri->round, msg);
      NoteCatchupEvidence(pri->round);
      return;
    }
    if (pri->round == current_round_) {
      HandlePriority(pri);
    }
    return;
  }
  if (auto blk = std::dynamic_pointer_cast<const BlockMessage>(msg)) {
    if (blk->block.round > current_round_) {
      RememberFutureMessage(blk->block.round, msg);
      NoteCatchupEvidence(blk->block.round);
      return;
    }
    if (blk->block.round == current_round_) {
      HandleBlock(blk);
    }
    return;
  }
  if (auto req = std::dynamic_pointer_cast<const BlockRequestMessage>(msg)) {
    HandleBlockRequest(req);
    return;
  }
  if (auto creq = std::dynamic_pointer_cast<const CatchupRequestMessage>(msg)) {
    HandleCatchupRequest(creq);
    return;
  }
  if (auto cresp = std::dynamic_pointer_cast<const CatchupResponseMessage>(msg)) {
    HandleCatchupResponse(cresp);
    return;
  }
  if (auto fmq = std::dynamic_pointer_cast<const FastSyncManifestRequest>(msg)) {
    HandleFastSyncManifestRequest(fmq);
    return;
  }
  if (auto fmr = std::dynamic_pointer_cast<const FastSyncManifestResponse>(msg)) {
    HandleFastSyncManifestResponse(fmr);
    return;
  }
  if (auto flq = std::dynamic_pointer_cast<const FastSyncLinksRequest>(msg)) {
    HandleFastSyncLinksRequest(flq);
    return;
  }
  if (auto flr = std::dynamic_pointer_cast<const FastSyncLinksResponse>(msg)) {
    HandleFastSyncLinksResponse(flr);
    return;
  }
  if (auto fcq = std::dynamic_pointer_cast<const FastSyncChunkRequest>(msg)) {
    HandleFastSyncChunkRequest(fcq);
    return;
  }
  if (auto fcr = std::dynamic_pointer_cast<const FastSyncChunkResponse>(msg)) {
    HandleFastSyncChunkResponse(fcr);
    return;
  }
  if (auto txn = std::dynamic_pointer_cast<const TransactionMessage>(msg)) {
    SubmitTransaction(txn->tx);
    return;
  }
}

void Node::HandleVote(const std::shared_ptr<const VoteMessage>& vote) {
  if (catchup_.active || fastsync_.active) {
    return;  // A stale BA* must not complete mid-catch-up.
  }
  if (vote->round & kRecoveryRoundBit) {
    if (!in_recovery_ || vote->round != recovery_code_ ||
        vote->prev_hash != recovery_ctx_.prev_hash) {
      return;
    }
    uint64_t weight = VerifyVote(*vote, recovery_ctx_);
    if (weight > 0) {
      recovery_ba_->OnVote(vote->step, vote->pk, weight, vote->value, vote->sorthash);
    }
    return;
  }
  // Votes binding to another chain are fork evidence, not countable votes.
  if (vote->prev_hash != ctx_.prev_hash) {
    fork_monitor_.RecordAlienVote(vote->round, vote->prev_hash);
    return;
  }
  uint64_t weight = VerifyVote(*vote, ctx_);
  if (weight == 0) {
    return;
  }
  if (obs_.votes_counted != nullptr) {
    obs_.votes_counted->Increment();
  }
  round_votes_.emplace(std::make_pair(vote->step, vote->pk), *vote);
  ba_->OnVote(vote->step, vote->pk, weight, vote->value, vote->sorthash);
}

void Node::HandlePriority(const std::shared_ptr<const PriorityMessage>& msg) {
  if (catchup_.active || fastsync_.active) {
    return;
  }
  if (!crypto_.signer->Verify(msg->pk, msg->SignedBody(), msg->signature)) {
    return;
  }
  uint64_t votes = VerifyProposerSortition(msg->pk, msg->sorthash, msg->sort_proof, ctx_);
  if (votes == 0) {
    return;
  }
  if (proposal_.banned_proposers.count(msg->pk)) {
    return;
  }
  Hash256 priority = ProposalPriority(msg->sorthash, votes);
  if (!proposal_.have_best || PriorityBeats(priority, proposal_.best_priority)) {
    proposal_.have_best = true;
    proposal_.best_priority = priority;
    proposal_.best_pk = msg->pk;
    proposal_.best_priority_at = sim_->now();
  }
}

void Node::HandleBlock(const std::shared_ptr<const BlockMessage>& msg) {
  if (catchup_.active || fastsync_.active) {
    return;
  }
  const Block& block = msg->block;
  const Hash256 hash = msg->DedupId();
  if (relay_validated_ != std::tuple(hash, current_round_, ledger_.tip_hash()) &&
      !ValidateBlockContents(block)) {
    return;
  }
  uint64_t votes = VerifyProposerSortition(block.proposer, block.proposer_vrf,
                                           block.proposer_proof, ctx_);
  if (votes == 0) {
    return;
  }
  Hash256 priority = ProposalPriority(block.proposer_vrf, votes);
  if (obs_.blocks_validated != nullptr) {
    obs_.blocks_validated->Increment();
  }

  if (proposal_.banned_proposers.count(block.proposer)) {
    return;  // Known equivocator this round.
  }
  // An equivocating proposer sends different blocks to different peers. If we
  // see two distinct blocks from one proposer before agreement starts, we
  // discard both and proceed with the empty block right away rather than
  // waiting out lambda_block (§10.4's optimization).
  auto existing = proposal_.block_hash_by_proposer.find(block.proposer);
  if (existing != proposal_.block_hash_by_proposer.end() && existing->second != hash) {
    proposal_.blocks_by_hash.erase(existing->second);
    proposal_.block_hash_by_proposer.erase(existing);
    proposal_.banned_proposers.insert(block.proposer);
    bool was_best = proposal_.have_best && proposal_.best_pk == block.proposer;
    if (was_best) {
      proposal_.have_best = false;  // Forget the equivocator's priority.
    }
    if (phase_ == Phase::kWaitBlock && was_best) {
      StartAgreement(empty_hash_);
    }
    return;
  }

  proposal_.blocks_by_hash.emplace(hash, block);
  proposal_.block_hash_by_proposer[block.proposer] = hash;
  proposal_.block_seen_at.emplace(hash, sim_->now());
  {
    // First valid receipt of this proposal: join against the originator's
    // gossip stamp (carried in-process on the shared message, over TCP in the
    // codec envelope) for true propagation latency.
    const TraceContext& tc = msg->trace_context();
    Trace(TraceKind::kBlockReceived, 0, tc.stamped() ? tc.origin : kTraceNoOrigin,
          tc.emitted_at, HashPrefix(hash));
  }

  // The block implies its own priority message.
  if (!proposal_.have_best || PriorityBeats(priority, proposal_.best_priority)) {
    proposal_.have_best = true;
    proposal_.best_priority = priority;
    proposal_.best_pk = block.proposer;
    proposal_.best_priority_at = sim_->now();
  }

  if (phase_ == Phase::kWaitBlock && proposal_.have_best &&
      proposal_.best_pk == block.proposer) {
    StartAgreement(hash);
  } else if (phase_ == Phase::kFetchBlock && hash == ba_result_.value) {
    TryFinishRound();
  }
}

void Node::HandleBlockRequest(const std::shared_ptr<const BlockRequestMessage>& msg) {
  // Serve from this round's proposals or from the chain.
  std::optional<Block> found;
  auto it = proposal_.blocks_by_hash.find(msg->block_hash);
  if (it != proposal_.blocks_by_hash.end()) {
    found = it->second;
  } else {
    found = ledger_.BlockByHash(msg->block_hash);
  }
  if (!found) {
    return;
  }
  auto reply = std::make_shared<BlockMessage>();
  reply->block = *found;
  gossip_->SendTo(msg->requester, reply);
}

// ---------------------------------------------------------------------------
// Live catch-up (§8.3): a lagging or restarted node fetches block+certificate
// batches from peers instead of waiting for the chain to come to it.
// ---------------------------------------------------------------------------

void Node::NoteCatchupEvidence(uint64_t round) {
  if (halted_) {
    return;
  }
  if (fastsync_.active) {
    // Same rule as below: gossip evidence may only widen the target.
    if (round > 0 && round - 1 > fastsync_.target_round) {
      fastsync_.target_round = round - 1;
    }
    return;
  }
  if (catchup_.active) {
    // Already fetching; only widen the target. The target always comes from
    // gossip evidence (a vote/block for `round` implies rounds < round are
    // settled somewhere), never from a responder's self-reported tip — a
    // Byzantine responder must not be able to inflate it.
    if (round > 0 && round - 1 > catchup_.target_round) {
      catchup_.target_round = round - 1;
    }
    return;
  }
  if (round > current_round_ + params_.catchup_trigger_lead) {
    // A genesis-fresh node (nothing to lose, everything to fetch) prefers
    // checkpoint fast-sync when enabled; everyone else block-catches-up.
    if (params_.fastsync_enabled && ledger_.chain_length() == 1) {
      StartFastSync(round - 1);
    } else {
      StartCatchup(round - 1);
    }
  }
}

void Node::StartCatchup(uint64_t target_round) {
  ++catchup_session_;
  ++sched_epoch_;  // Kill BA*/proposal timers for the round we are leaving.
  // Catch-up preempts an in-progress recovery session: certificate-backed
  // evidence of rounds ahead means the network moved on without us, so
  // fetching that chain beats re-agreeing on a stale suffix — and a stalled
  // recovery (stragglers hung at different rounds never form a committee)
  // must not lock the node out of catch-up forever.
  in_recovery_ = false;
  phase_ = Phase::kCatchup;
  catchup_.active = true;
  catchup_.target_round = target_round;
  catchup_.started_at_round = ledger_.next_round() - 1;
  catchup_.attempt = 0;
  catchup_.empty_streak = 0;
  catchup_.blocked_until = 0;
  catchup_.peers.clear();
  catchup_.peer_cursor = 0;
  catchup_.inflight.clear();
  catchup_.ready.clear();
  if (obs_.catchup_sessions != nullptr) {
    obs_.catchup_sessions->Increment();
  }
  Trace(TraceKind::kCatchupStart, 0, target_round);
  PumpCatchup();
}

void Node::PumpCatchup() {
  if (!catchup_.active || halted_) {
    return;
  }
  // Apply every ready batch that starts at (or before) the next needed round.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = catchup_.ready.begin(); it != catchup_.ready.end(); ++it) {
      if (it->first > ledger_.next_round()) {
        continue;
      }
      auto resp = it->second;
      catchup_.ready.erase(it);
      uint64_t applied = 0;
      if (!ApplyCatchupResponse(*resp, &applied)) {
        if (obs_.catchup_bad_batches != nullptr) {
          obs_.catchup_bad_batches->Increment();
        }
        FailCatchupAttempt();  // Rotates to a different peer with backoff.
        return;
      }
      if (applied > 0) {
        catchup_.attempt = 0;  // Progress resets the failure streaks.
        catchup_.empty_streak = 0;
      }
      progressed = true;
      break;  // Iterator invalidated; rescan.
    }
  }
  if (ledger_.next_round() > catchup_.target_round) {
    FinishCatchup();
    return;
  }
  if (sim_->now() < catchup_.blocked_until) {
    return;  // Backing off; the scheduled wakeup will re-pump.
  }
  while (catchup_.inflight.size() < params_.catchup_max_inflight) {
    uint64_t from = CatchupFrontier();
    if (from > catchup_.target_round) {
      break;  // Everything up to the target is applied, inflight, or ready.
    }
    SendCatchupRequest(from);
    if (catchup_.inflight.find(from) == catchup_.inflight.end()) {
      break;  // No peers available; evidence will retrigger later.
    }
  }
}

uint64_t Node::CatchupFrontier() const {
  // Lowest round not yet applied and not covered by an inflight request's
  // window or a ready batch. Sharded peers may answer with partial batches;
  // the frontier then lands exactly on the gap so the next request (to a
  // different peer) fills it.
  uint64_t frontier = ledger_.next_round();
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& [from, pending] : catchup_.inflight) {
      if (frontier >= from && frontier < from + pending.limit) {
        frontier = from + pending.limit;
        moved = true;
      }
    }
    for (const auto& [from, resp] : catchup_.ready) {
      if (frontier >= from && frontier < from + resp->entries.size()) {
        frontier = from + resp->entries.size();
        moved = true;
      }
    }
  }
  return frontier;
}

NodeId Node::NextCatchupPeer() {
  if (catchup_.peers.empty()) {
    // Draw from every addressable node (§9 address book), not just gossip
    // neighbours: certificates may be sharded across the network, and the
    // shard class holding the frontier round is not guaranteed to appear in
    // a small neighbour set.
    size_t n = gossip_->network_size();
    for (NodeId p = 0; p < n; ++p) {
      if (p != id_) {
        catchup_.peers.push_back(p);
      }
    }
    if (catchup_.peers.empty()) {
      catchup_.peers = gossip_->neighbors();
    }
    catchup_rng_.Shuffle(&catchup_.peers);
    catchup_.peer_cursor = 0;
  }
  NodeId peer = catchup_.peers[catchup_.peer_cursor % catchup_.peers.size()];
  ++catchup_.peer_cursor;
  return peer;
}

void Node::SendCatchupRequest(uint64_t from_round) {
  if (catchup_.peers.empty() && gossip_->neighbors().empty()) {
    return;
  }
  NodeId peer = NextCatchupPeer();
  auto req = std::make_shared<CatchupRequestMessage>();
  req->requester = id_;
  req->seq = catchup_seq_++;
  req->from_round = from_round;
  req->limit = params_.catchup_batch_limit;
  catchup_.inflight[from_round] = CatchupState::Pending{peer, req->seq, req->limit};
  if (obs_.catchup_requests != nullptr) {
    obs_.catchup_requests->Increment();
  }
  gossip_->SendTo(peer, req);
  // Per-request timeout: if the answer never lands, drop the slot and rotate.
  uint64_t session = catchup_session_;
  uint64_t seq = req->seq;
  sim_->Schedule(params_.catchup_timeout, [this, session, seq, from_round] {
    if (halted_ || !catchup_.active || catchup_session_ != session) {
      return;
    }
    auto it = catchup_.inflight.find(from_round);
    if (it == catchup_.inflight.end() || it->second.seq != seq) {
      return;  // Answered (or superseded) in time.
    }
    catchup_.inflight.erase(it);
    if (obs_.catchup_timeouts != nullptr) {
      obs_.catchup_timeouts->Increment();
    }
    FailCatchupAttempt();
  });
}

void Node::FailCatchupAttempt() {
  if (!catchup_.active) {
    return;
  }
  ++catchup_.attempt;
  if (obs_.catchup_rotations != nullptr) {
    obs_.catchup_rotations->Increment();
  }
  if (catchup_.attempt > 10) {
    // Evidence may have been fabricated (an unreachable target keeps every
    // peer "failing"); abort rather than wedge. Fresh evidence retriggers.
    AbortCatchup();
    return;
  }
  // Exponential backoff with jitter before asking the next peer.
  SimTime backoff = params_.catchup_backoff_base;
  for (uint32_t i = 1; i < catchup_.attempt && backoff < params_.catchup_backoff_max; ++i) {
    backoff *= 2;
  }
  if (backoff > params_.catchup_backoff_max) {
    backoff = params_.catchup_backoff_max;
  }
  backoff += static_cast<SimTime>(
      catchup_rng_.UniformU64(static_cast<uint64_t>(params_.catchup_backoff_base)));
  catchup_.blocked_until = sim_->now() + backoff;
  uint64_t session = catchup_session_;
  sim_->Schedule(backoff, [this, session] {
    if (halted_ || !catchup_.active || catchup_session_ != session) {
      return;
    }
    catchup_.blocked_until = 0;
    PumpCatchup();
  });
}

void Node::HandleCatchupRequest(const std::shared_ptr<const CatchupRequestMessage>& msg) {
  auto resp = BuildCatchupResponse(*msg);
  if (resp == nullptr) {
    return;
  }
  if (obs_.catchup_served != nullptr) {
    obs_.catchup_served->Increment();
  }
  gossip_->SendTo(msg->requester, resp);
}

std::shared_ptr<CatchupResponseMessage> Node::BuildCatchupResponse(
    const CatchupRequestMessage& req) const {
  auto resp = std::make_shared<CatchupResponseMessage>();
  resp->responder = id_;
  resp->seq = req.seq;
  resp->from_round = req.from_round;
  resp->tip_round = ledger_.chain_length() - 1;
  uint32_t limit = req.limit == 0 ? 1 : req.limit;
  if (limit > 64) {
    limit = 64;  // Bound the response a single request can make us build.
  }
  uint64_t r = req.from_round < 1 ? 1 : req.from_round;
  uint64_t last_served = 0;
  const uint64_t base = ledger_.base_round();
  while (r < ledger_.chain_length() && resp->entries.size() < limit) {
    auto it = certificates_.find(r);
    if (it != certificates_.end() && r > base) {
      resp->entries.push_back(
          CatchupResponseMessage::Entry{ledger_.BlockAtRound(r), it->second});
      last_served = r;
      ++r;
      continue;
    }
    // Shard gap in memory — or a round at/below our compacted base, whose
    // block the ledger no longer holds: fall through to the durable log,
    // which keeps block and certificate for every retained round (the index
    // makes this an O(1) seek, not a segment scan). Rounds compaction pruned
    // come back empty, so the batch honestly ends where our history does.
    std::optional<CatchupResponseMessage::Entry> from_disk;
    if (store_ != nullptr) {
      if (auto stored = store_->ReadRound(r); stored.has_value() && !stored->cert.empty()) {
        auto cert = Certificate::Deserialize(stored->cert);
        auto block = Block::Deserialize(stored->block);
        if (cert.has_value() && block.has_value()) {
          from_disk = CatchupResponseMessage::Entry{std::move(*block), std::move(*cert)};
        }
      }
    }
    if (!from_disk.has_value()) {
      break;  // Sharded/pruned storage: serve the prefix we hold (partial batch).
    }
    resp->entries.push_back(std::move(*from_disk));
    last_served = r;
    ++r;
  }
  // Attach the highest final-step certificate covering the served prefix so
  // the requester can mark finality (final blocks are totally ordered, §8.3).
  for (auto it = final_certificates_.rbegin(); it != final_certificates_.rend(); ++it) {
    if (it->first <= last_served) {
      resp->final_cert = it->second;
      break;
    }
  }
  return resp;
}

void Node::HandleCatchupResponse(const std::shared_ptr<const CatchupResponseMessage>& msg) {
  if (halted_ || !catchup_.active) {
    return;
  }
  auto it = catchup_.inflight.find(msg->from_round);
  if (it == catchup_.inflight.end() || it->second.seq != msg->seq ||
      it->second.peer != msg->responder) {
    return;  // Unsolicited, stale, or spoofed; only the asked peer may answer.
  }
  catchup_.inflight.erase(it);
  if (msg->entries.empty()) {
    // The peer answered but had nothing for this window — under sharded
    // certificate storage that is routine (wrong shard class), so rotate to
    // the next peer immediately instead of paying exponential backoff: the
    // round-trip itself paces the loop, and backing off here loses the race
    // against a live network advancing one round per agreement interval.
    // The streak bound still catches fabricated evidence (a target beyond
    // every honest tip makes every peer answer empty forever).
    ++catchup_.empty_streak;
    if (obs_.catchup_rotations != nullptr) {
      obs_.catchup_rotations->Increment();
    }
    if (catchup_.empty_streak > 32 + catchup_.peers.size()) {
      AbortCatchup();
      return;
    }
    PumpCatchup();
    return;
  }
  catchup_.ready[msg->from_round] = msg;
  PumpCatchup();
}

bool Node::ApplyCatchupResponse(const CatchupResponseMessage& resp, uint64_t* applied) {
  for (const CatchupResponseMessage::Entry& e : resp.entries) {
    uint64_t next = ledger_.next_round();
    if (e.block.round < next) {
      continue;  // Overlap with already-applied rounds is harmless.
    }
    if (e.block.round > next) {
      break;  // Gap inside the batch; stop at the contiguous prefix.
    }
    if (e.cert.round != e.block.round || e.cert.block_hash != e.block.Hash()) {
      return false;
    }
    RoundContext ctx = CatchupContext(next);
    if (!ValidateCertificate(e.cert, ctx, params_, *crypto_.vrf, *crypto_.signer)) {
      return false;
    }
    ConsensusKind kind =
        e.cert.step == kStepFinal ? ConsensusKind::kFinal : ConsensusKind::kTentative;
    if (!ledger_.Append(e.block, kind)) {
      return false;
    }
    if (kind == ConsensusKind::kFinal) {
      for (uint64_t r = 1; r < e.cert.round; ++r) {
        ledger_.MarkFinal(r);
      }
    }
    if (shard_count_ <= 1 || (e.cert.round % shard_count_) == (id_ % shard_count_)) {
      certificates_[e.cert.round] = e.cert;
    }
    StreamRoundToStore(e.cert.round, kind, &e.cert, nullptr);
    mempool_.ObserveCommitted(e.block.txns, ledger_.accounts());
    ++*applied;
    if (obs_.catchup_blocks != nullptr) {
      obs_.catchup_blocks->Increment();
    }
  }
  if (resp.final_cert.has_value()) {
    const Certificate& fc = *resp.final_cert;
    if (fc.round > ledger_.base_round() && fc.round >= 1 && fc.round < ledger_.next_round()) {
      if (fc.step != kStepFinal) {
        return false;
      }
      const Block& covered = ledger_.BlockAtRound(fc.round);
      if (fc.block_hash != covered.Hash()) {
        return false;
      }
      RoundContext ctx;
      ctx.round = fc.round;
      ctx.seed = ledger_.SortitionSeed(fc.round, params_.seed_refresh_interval);
      ctx.prev_hash = covered.prev_hash;
      ctx.total_weight = ledger_.total_weight();
      const Ledger* ledger = &ledger_;
      ctx.weight_of = [ledger](const PublicKey& pk) { return ledger->WeightOf(pk); };
      if (!ValidateCertificate(fc, ctx, params_, *crypto_.vrf, *crypto_.signer)) {
        return false;
      }
      for (uint64_t r = 1; r <= fc.round; ++r) {
        ledger_.MarkFinal(r);
      }
      if (shard_count_ <= 1 || (fc.round % shard_count_) == (id_ % shard_count_)) {
        final_certificates_[fc.round] = fc;
      }
      if (store_ != nullptr) {
        store_->AppendFinalUpgrade(fc.round, fc.Serialize());
      }
    }
    // A final cert beyond what we applied is simply ignored (not an error):
    // a partial batch legitimately undershoots the responder's final round.
  }
  if (*applied > 0) {
    Trace(TraceKind::kCatchupBatch, 0, *applied, resp.responder);
    MaybeCheckpoint();
  }
  return true;
}

RoundContext Node::CatchupContext(uint64_t round) const {
  RoundContext ctx;
  ctx.round = round;
  ctx.seed = ledger_.SortitionSeed(round, params_.seed_refresh_interval);
  ctx.prev_hash = ledger_.tip_hash();
  ctx.total_weight = ledger_.total_weight();
  const Ledger* ledger = &ledger_;
  ctx.weight_of = [ledger](const PublicKey& pk) { return ledger->WeightOf(pk); };
  return ctx;
}

void Node::FinishCatchup() {
  uint64_t gained = ledger_.next_round() - 1 - catchup_.started_at_round;
  catchup_.active = false;
  catchup_.inflight.clear();
  catchup_.ready.clear();
  ++catchup_session_;  // Orphans any pending timeout/backoff lambdas.
  ++catchups_completed_;
  hung_ = false;
  fork_monitor_.Prune(ledger_.HighestFinalRound().value_or(0));
  if (obs_.catchup_completed != nullptr) {
    obs_.catchup_completed->Increment();
  }
  Trace(TraceKind::kCatchupDone, 0, gained);
  // Rejoin live BA* at the new tip; buffered tip-round traffic replays there.
  StartRound(ledger_.next_round());
}

void Node::AbortCatchup() {
  catchup_.active = false;
  catchup_.inflight.clear();
  catchup_.ready.clear();
  ++catchup_session_;
  if (obs_.catchup_aborted != nullptr) {
    obs_.catchup_aborted->Increment();
  }
  StartRound(ledger_.next_round());
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
  // never loaded silently — each candidate is fully validated (tip hash,
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
      std::optional<CheckpointData> data = CheckpointData::Deserialize(*payload);
      if (!data.has_value() || data->manifest.round != it->round ||
          data->manifest.genesis_hash != genesis_hash_) {
        continue;
      }
      std::optional<Block> tip = Block::Deserialize(data->tip_block);
      if (!tip.has_value() || tip->round != data->manifest.round ||
          tip->Hash() != data->manifest.tip_hash) {
        continue;
      }
      AccountTable table;
      Reader ar(data->accounts);
      if (!table.DeserializeFrom(&ar) || !ar.AtEnd() ||
          table.StateFingerprint() != data->manifest.fingerprint) {
        continue;
      }
      if (!ledger_.InstallCheckpoint(*tip, std::move(table), data->seed_base,
                                     data->seeds)) {
        continue;
      }
      start = data->manifest.round + 1;
      last_checkpoint_round_ = data->manifest.round;
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
    std::optional<StoredRound> stored = store->ReadRound(r);
    if (!stored.has_value()) {
      stop = r;
      break;
    }
    std::optional<Block> block = Block::Deserialize(stored->block);
    if (!block.has_value() || block->round != r) {
      stop = r;
      break;
    }
    Hash256 hash = block->Hash();
    // Validate certificates against the chain reconstructed so far — the
    // log is not trusted blindly; a record only counts if its certificate
    // proves the round the way a catch-up batch would (§8.3). Rounds logged
    // without a certificate (recovery-adopted suffixes) are accepted on
    // chain structure alone: Append still checks parent hash and round.
    RoundContext ctx = CatchupContext(r);
    std::optional<Certificate> cert;
    if (!stored->cert.empty()) {
      cert = Certificate::Deserialize(stored->cert);
      if (!cert.has_value() || cert->round != r || cert->block_hash != hash ||
          !ValidateCertificate(*cert, ctx, params_, *crypto_.vrf, *crypto_.signer)) {
        stop = r;
        break;
      }
    }
    std::optional<Certificate> final_cert;
    if (!stored->final_cert.empty()) {
      final_cert = Certificate::Deserialize(stored->final_cert);
      if (!final_cert.has_value() || final_cert->round != r ||
          final_cert->step != kStepFinal || final_cert->block_hash != hash ||
          !ValidateCertificate(*final_cert, ctx, params_, *crypto_.vrf, *crypto_.signer)) {
        stop = r;
        break;
      }
    }
    ConsensusKind kind = static_cast<ConsensusKind>(stored->kind);
    if (!ledger_.Append(*block, kind)) {
      stop = r;
      break;
    }
    if (cert.has_value() &&
        (shard_count_ <= 1 || (r % shard_count_) == (id_ % shard_count_))) {
      certificates_[r] = *cert;
    }
    if (final_cert.has_value()) {
      for (uint64_t f = 1; f <= r; ++f) {
        ledger_.MarkFinal(f);
      }
      if (shard_count_ <= 1 || (r % shard_count_) == (id_ % shard_count_)) {
        final_certificates_[r] = *final_cert;
      }
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
  ++catchup_session_;  // ...or session, and the halted_ flag backstops both.
  phase_ = Phase::kIdle;
  in_recovery_ = false;
  catchup_.active = false;
  catchup_.inflight.clear();
  catchup_.ready.clear();
  ++fastsync_session_;
  fastsync_.active = false;
  fastsync_.links.clear();
  fastsync_.payload.clear();
}

// ---------------------------------------------------------------------------
// Fork recovery (§8.2)
// ---------------------------------------------------------------------------

uint64_t Node::RecoveryCode(uint32_t attempt) const {
  // The window is pinned when the session is first entered (at an aligned
  // clock boundary) so retries stay in the same code space on every node
  // even when their attempt timers drift across a boundary.
  return kRecoveryRoundBit | (recovery_window_ << 8) | attempt;
}

void Node::ScheduleRecoveryCheck() {
  // Loosely synchronized clocks: every node wakes at multiples of the
  // recovery interval and joins a recovery session if it is stuck or has
  // observed fork evidence.
  SimTime next = (sim_->now() / params_.recovery_interval + 1) * params_.recovery_interval;
  sim_->ScheduleAt(next, [this] {
    if (halted_) {
      return;  // A crashed node must stop rescheduling itself.
    }
    if (!in_recovery_ && !catchup_.active && !fastsync_.active &&
        (hung_ || fork_monitor_.ForkSuspected())) {
      recovery_attempt_ = 0;
      recovery_window_ = static_cast<uint64_t>(sim_->now() / params_.recovery_interval);
      EnterRecovery();
    }
    ScheduleRecoveryCheck();
  });
}

void Node::MaybeJoinRecoverySession(uint64_t code) {
  if (halted_ || catchup_.active || fastsync_.active) {
    return;  // Catch-up owns the node until it finishes or aborts.
  }
  if (!hung_ && !fork_monitor_.ForkSuspected() && !in_recovery_) {
    return;  // Healthy nodes ignore recovery chatter.
  }
  if (in_recovery_ && code <= recovery_code_) {
    return;  // Already in this session or a newer one.
  }
  // Sanity: the claimed window must be near our clock (loose synchrony).
  uint64_t window = (code & ~kRecoveryRoundBit) >> 8;
  uint64_t my_window = static_cast<uint64_t>(sim_->now() / params_.recovery_interval);
  if (window > my_window + 1 || window + 1 < my_window) {
    return;
  }
  recovery_window_ = window;
  recovery_attempt_ = static_cast<uint32_t>(code & 0xff);
  EnterRecovery();
}

void Node::EnterRecovery() {
  in_recovery_ = true;
  phase_ = Phase::kRecovery;
  ++sched_epoch_;
  recovery_code_ = RecoveryCode(recovery_attempt_);

  // Anchor at the last common final round: finals are totally ordered, so
  // every honest node shares this prefix (and its seed and weights).
  recovery_final_round_ = ledger_.HighestFinalRound().value_or(0);
  const Hash256 anchor = ledger_.BlockAtRound(recovery_final_round_).Hash();
  recovery_accounts_ = ledger_.AccountsAtRound(recovery_final_round_);

  // A fresh seed per attempt: H(seed_f || code), "applying a hash function to
  // the seed each time to produce a different set of proposers and committee
  // members".
  Writer w;
  w.Fixed(ledger_.SeedForRound(recovery_final_round_));
  w.U64(recovery_code_);
  Hash256 seed_hash = Sha256::Hash(w.buffer());

  recovery_ctx_ = RoundContext{};
  recovery_ctx_.round = recovery_code_;
  recovery_ctx_.seed = SeedBytes::FromSpan(seed_hash.span());
  recovery_ctx_.prev_hash = anchor;
  recovery_ctx_.total_weight = recovery_accounts_.total_weight();
  const AccountTable* accounts = &recovery_accounts_;
  recovery_ctx_.weight_of = [accounts](const PublicKey& pk) { return accounts->WeightOf(pk); };

  // Fallback value: an empty block directly extending the final prefix
  // (agreeing on it truncates every fork back to the common ancestor).
  recovery_empty_ = Block::MakeEmpty(recovery_final_round_ + 1, anchor,
                                     ledger_.SeedForRound(recovery_final_round_ + 1));
  recovery_empty_hash_ = recovery_empty_.Hash();

  recovery_candidates_.clear();
  have_best_recovery_ = false;
  prev_recovery_ba_ = std::move(recovery_ba_);
  recovery_ba_ = std::make_unique<BaStar>(
      params_, this, [this](const BaResult& result) { OnRecoveryBaComplete(result); });
  recovery_ba_->set_observer([this](const BaStepEvent& event) { ObserveBaStep(event); });
  Trace(TraceKind::kRecoveryEnter, 0, recovery_attempt_);

  MaybeProposeRecovery();

  ScheduleAfter(params_.lambda_priority + params_.lambda_stepvar, [this] {
    if (in_recovery_ && !recovery_ba_->started()) {
      StartRecoveryAgreement();
    }
  });
}

void Node::MaybeProposeRecovery() {
  SortitionResult sort = RunSortition(
      *crypto_.vrf, key_, recovery_ctx_.seed, params_.tau_proposer, Role::kRecovery,
      recovery_code_, 0, recovery_accounts_.WeightOf(key_.public_key),
      recovery_ctx_.total_weight);
  if (sort.votes == 0) {
    return;
  }
  // Propose an empty block extending the longest fork this node has seen —
  // its own chain (which includes all final blocks).
  auto msg = std::make_shared<RecoveryProposalMessage>();
  msg->pk = key_.public_key;
  msg->code = recovery_code_;
  msg->sorthash = sort.hash;
  msg->sort_proof = sort.proof;
  for (uint64_t r = recovery_final_round_ + 1; r < ledger_.chain_length(); ++r) {
    msg->suffix.push_back(ledger_.BlockAtRound(r));
  }
  msg->block = Block::MakeEmpty(ledger_.next_round(), ledger_.tip_hash(),
                                ledger_.SeedForRound(ledger_.next_round()));
  msg->signature = crypto_.signer->Sign(key_, msg->SignedBody());
  GossipMessage(msg);
}

GossipVerdict Node::ValidateRecoveryProposal(const RecoveryProposalMessage& msg) {
  if (!in_recovery_ || msg.code != recovery_code_) {
    return GossipVerdict::kDeliverOnly;  // Can't judge it; let it pass once.
  }
  if (!crypto_.signer->Verify(msg.pk, msg.SignedBody(), msg.signature)) {
    return GossipVerdict::kReject;
  }
  uint64_t votes = VerifySortition(*crypto_.vrf, msg.pk, msg.sorthash, msg.sort_proof,
                                   recovery_ctx_.seed, params_.tau_proposer, Role::kRecovery,
                                   recovery_code_, 0, recovery_ctx_.weight_of(msg.pk),
                                   recovery_ctx_.total_weight);
  if (votes == 0) {
    return GossipVerdict::kReject;
  }
  // The proposed chain must link from our final prefix and be at least as
  // long as the chain we already have.
  Hash256 prev = recovery_ctx_.prev_hash;
  uint64_t round = recovery_final_round_;
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

void Node::HandleRecoveryProposal(const std::shared_ptr<const RecoveryProposalMessage>& msg) {
  MaybeJoinRecoverySession(msg->code);
  if (!in_recovery_ || msg->code != recovery_code_) {
    return;
  }
  if (ValidateRecoveryProposal(*msg) == GossipVerdict::kReject) {
    return;
  }
  uint64_t votes = VerifySortition(*crypto_.vrf, msg->pk, msg->sorthash, msg->sort_proof,
                                   recovery_ctx_.seed, params_.tau_proposer, Role::kRecovery,
                                   recovery_code_, 0, recovery_ctx_.weight_of(msg->pk),
                                   recovery_ctx_.total_weight);
  if (votes == 0) {
    return;
  }
  if (msg->block.round < ledger_.next_round()) {
    return;  // Shorter than the chain we already have.
  }
  Hash256 hash = msg->block.Hash();
  RecoveryCandidate candidate;
  candidate.block = msg->block;
  candidate.suffix = msg->suffix;
  candidate.priority = ProposalPriority(msg->sorthash, votes);
  recovery_candidates_.emplace(hash, std::move(candidate));
  if (!have_best_recovery_ ||
      PriorityBeats(recovery_candidates_.at(hash).priority, best_recovery_priority_)) {
    have_best_recovery_ = true;
    best_recovery_priority_ = recovery_candidates_.at(hash).priority;
    best_recovery_hash_ = hash;
  }
}

void Node::StartRecoveryAgreement() {
  Hash256 candidate = have_best_recovery_ ? best_recovery_hash_ : recovery_empty_hash_;
  recovery_ba_->Start(candidate, recovery_empty_hash_);
}

void Node::OnRecoveryBaComplete(const BaResult& result) {
  if (result.hung) {
    // Retry with a rehashed seed (fresh proposers and committees).
    ++recovery_attempt_;
    EnterRecovery();
    return;
  }
  std::vector<Block> replacement;
  if (result.value == recovery_empty_hash_) {
    replacement.push_back(recovery_empty_);
  } else {
    auto it = recovery_candidates_.find(result.value);
    if (it == recovery_candidates_.end()) {
      // Agreed on a fork we never received; retry (the next attempt's
      // proposers will include holders of that fork).
      ++recovery_attempt_;
      EnterRecovery();
      return;
    }
    replacement = it->second.suffix;
    replacement.push_back(it->second.block);
  }
  if (!ledger_.ReplaceSuffix(recovery_final_round_ + 1, replacement)) {
    ++recovery_attempt_;
    EnterRecovery();
    return;
  }
  // The adopted fork may have spent different nonces than the abandoned one;
  // drop anything the new account state makes unappliable.
  mempool_.DropStale(ledger_.accounts());
  if (store_ != nullptr) {
    // Mirror the fork switch on disk: one truncate record (fsync'd before
    // any segment GC), then the adopted suffix. Recovery-adopted blocks
    // carry no per-round certificate — the recovery session itself vouched
    // for them — so they are logged cert-less.
    store_->TruncateSuffix(recovery_final_round_ + 1);
    for (uint64_t r = recovery_final_round_ + 1; r < ledger_.next_round(); ++r) {
      StreamRoundToStore(r, ledger_.ConsensusAtRound(r), nullptr, nullptr);
    }
  }
  // Recovered: resume normal operation on the agreed fork.
  in_recovery_ = false;
  ++sched_epoch_;
  hung_ = false;
  recovery_attempt_ = 0;
  ++recoveries_completed_;
  if (obs_.recoveries != nullptr) {
    obs_.recoveries->Increment();
  }
  fork_monitor_.Clear();
  StartRound(ledger_.next_round());
}

// ---------------------------------------------------------------------------
// Checkpoints + certificate-chain fast-sync (DESIGN.md §13)
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

void Node::StartFastSync(uint64_t target_round) {
  ++fastsync_session_;
  ++sched_epoch_;  // Kill BA*/proposal timers for the round we are leaving.
  in_recovery_ = false;
  phase_ = Phase::kCatchup;
  fastsync_ = FastSyncState{};
  fastsync_.active = true;
  fastsync_.target_round = target_round;
  fastsync_.prev_hash = genesis_hash_;  // The cert chain starts at round 0.
  fastsync_.next_link = 1;
  if (obs_.fastsync_sessions != nullptr) {
    obs_.fastsync_sessions->Increment();
  }
  Trace(TraceKind::kCatchupStart, 1, target_round);
  fastsync_.peer = NextFastSyncPeer();
  SendFastSyncManifestRequest();
}

NodeId Node::NextFastSyncPeer() {
  // One random peer per attempt (no pool: an attempt is a whole
  // manifest -> links -> chunks conversation with a single peer).
  size_t n = gossip_->network_size();
  if (n <= 1) {
    auto nb = gossip_->neighbors();
    return nb.empty() ? id_ : nb[catchup_rng_.UniformU64(nb.size())];
  }
  NodeId peer = static_cast<NodeId>(catchup_rng_.UniformU64(n));
  while (peer == id_) {
    peer = static_cast<NodeId>(catchup_rng_.UniformU64(n));
  }
  return peer;
}

void Node::SendFastSyncManifestRequest() {
  auto req = std::make_shared<FastSyncManifestRequest>();
  req->requester = id_;
  req->seq = fastsync_seq_++;
  fastsync_.seq = req->seq;
  gossip_->SendTo(fastsync_.peer, req);
  ArmFastSyncTimeout(req->seq);
}

void Node::SendFastSyncLinksRequest() {
  auto req = std::make_shared<FastSyncLinksRequest>();
  req->requester = id_;
  req->seq = fastsync_seq_++;
  req->from_round = fastsync_.next_link;
  req->limit = params_.fastsync_links_batch == 0 ? 1 : params_.fastsync_links_batch;
  fastsync_.seq = req->seq;
  gossip_->SendTo(fastsync_.peer, req);
  ArmFastSyncTimeout(req->seq);
}

void Node::SendFastSyncChunkRequest() {
  auto req = std::make_shared<FastSyncChunkRequest>();
  req->requester = id_;
  req->seq = fastsync_seq_++;
  req->round = fastsync_.manifest.round;
  req->offset = fastsync_.payload.size();
  req->limit = params_.fastsync_chunk_bytes == 0 ? 1 : params_.fastsync_chunk_bytes;
  fastsync_.seq = req->seq;
  gossip_->SendTo(fastsync_.peer, req);
  ArmFastSyncTimeout(req->seq);
}

void Node::ArmFastSyncTimeout(uint64_t seq) {
  uint64_t session = fastsync_session_;
  sim_->Schedule(params_.catchup_timeout, [this, session, seq] {
    if (halted_ || !fastsync_.active || fastsync_session_ != session ||
        fastsync_.seq != seq) {
      return;  // Answered (or the session moved on) in time.
    }
    FailFastSyncAttempt();
  });
}

void Node::HandleFastSyncManifestResponse(
    const std::shared_ptr<const FastSyncManifestResponse>& msg) {
  if (halted_ || !fastsync_.active || fastsync_.stage != FastSyncState::Stage::kManifest ||
      msg->seq != fastsync_.seq || msg->responder != fastsync_.peer) {
    return;  // Unsolicited, stale, or spoofed; only the asked peer may answer.
  }
  if (msg->manifest.empty()) {
    FailFastSyncAttempt();  // Peer holds no checkpoint; try another.
    return;
  }
  std::optional<CheckpointManifest> manifest = CheckpointData::ParseManifest(msg->manifest);
  if (!manifest.has_value() || manifest->round == 0 ||
      manifest->genesis_hash != genesis_hash_ || msg->payload_bytes == 0 ||
      msg->payload_bytes > (uint64_t{1} << 30)) {
    FailFastSyncAttempt();  // Wrong chain, or an absurd payload size.
    return;
  }
  fastsync_.manifest = *manifest;
  fastsync_.payload_bytes = msg->payload_bytes;
  fastsync_.stage = FastSyncState::Stage::kLinks;
  SendFastSyncLinksRequest();
}

bool Node::VerifyFastSyncLink(const ChainLink& link) const {
  if (link.round != fastsync_.next_link || link.cert.empty()) {
    // Rounds without a certificate (recovery-adopted suffixes) cannot be
    // vouched for by the chain; fast-sync fails over to full catch-up.
    return false;
  }
  std::optional<Certificate> cert = Certificate::Deserialize(link.cert);
  if (!cert.has_value() || cert->round != link.round ||
      cert->block_hash != link.hash || cert->votes.empty()) {
    return false;
  }
  for (const VoteMessage& v : cert->votes) {
    // Structural binding: each vote names this round, this block hash, and
    // the previous (already verified) link's hash — so forging any one link
    // means forging signatures, not just splicing hashes.
    if (v.round != link.round || v.value != link.hash ||
        v.prev_hash != fastsync_.prev_hash || v.step != cert->step) {
      return false;
    }
    if (!crypto_.signer->Verify(v.pk, v.SignedBody(), v.signature)) {
      return false;
    }
  }
  return true;
}

void Node::HandleFastSyncLinksResponse(
    const std::shared_ptr<const FastSyncLinksResponse>& msg) {
  if (halted_ || !fastsync_.active || fastsync_.stage != FastSyncState::Stage::kLinks ||
      msg->seq != fastsync_.seq || msg->responder != fastsync_.peer) {
    return;
  }
  if (msg->links.empty() || msg->from_round != fastsync_.next_link) {
    FailFastSyncAttempt();  // The peer's link history has a hole below B.
    return;
  }
  for (const std::vector<uint8_t>& payload : msg->links) {
    std::optional<ChainLink> link = ChainLink::DecodePayload(payload);
    if (!link.has_value() || !VerifyFastSyncLink(*link)) {
      FailFastSyncAttempt();
      return;
    }
    fastsync_.prev_hash = link->hash;
    ++fastsync_.next_link;
    fastsync_.links.push_back(std::move(*link));
    if (obs_.fastsync_links != nullptr) {
      obs_.fastsync_links->Increment();
    }
    if (fastsync_.next_link > fastsync_.manifest.round) {
      break;  // Chain complete; surplus links are ignored.
    }
  }
  if (fastsync_.next_link > fastsync_.manifest.round) {
    if (fastsync_.prev_hash != fastsync_.manifest.tip_hash) {
      // The verified chain ends on a different block than the manifest
      // claims — the checkpoint belongs to another history.
      FailFastSyncAttempt();
      return;
    }
    fastsync_.stage = FastSyncState::Stage::kChunks;
    fastsync_.payload.clear();
    fastsync_.payload.reserve(fastsync_.payload_bytes);
    SendFastSyncChunkRequest();
  } else {
    SendFastSyncLinksRequest();
  }
}

void Node::HandleFastSyncChunkResponse(
    const std::shared_ptr<const FastSyncChunkResponse>& msg) {
  if (halted_ || !fastsync_.active || fastsync_.stage != FastSyncState::Stage::kChunks ||
      msg->seq != fastsync_.seq || msg->responder != fastsync_.peer) {
    return;
  }
  if (msg->round != fastsync_.manifest.round || msg->offset != fastsync_.payload.size() ||
      msg->total_bytes != fastsync_.payload_bytes || msg->data.empty() ||
      fastsync_.payload.size() + msg->data.size() > fastsync_.payload_bytes) {
    FailFastSyncAttempt();
    return;
  }
  fastsync_.payload.insert(fastsync_.payload.end(), msg->data.begin(), msg->data.end());
  if (obs_.fastsync_bytes != nullptr) {
    obs_.fastsync_bytes->Increment(msg->data.size());
  }
  if (fastsync_.payload.size() < fastsync_.payload_bytes) {
    SendFastSyncChunkRequest();
    return;
  }
  if (InstallFastSyncCheckpoint()) {
    FinishFastSync();
  } else {
    FailFastSyncAttempt();  // Payload contradicts the verified manifest/chain.
  }
}

bool Node::InstallFastSyncCheckpoint() {
  std::optional<CheckpointData> data = CheckpointData::Deserialize(fastsync_.payload);
  if (!data.has_value()) {
    return false;
  }
  const CheckpointManifest& m = fastsync_.manifest;
  if (data->manifest.round != m.round || data->manifest.tip_hash != m.tip_hash ||
      data->manifest.fingerprint != m.fingerprint ||
      data->manifest.highest_final != m.highest_final ||
      data->manifest.genesis_hash != m.genesis_hash) {
    return false;  // Payload head must equal the manifest the chain vouched for.
  }
  std::optional<Block> tip = Block::Deserialize(data->tip_block);
  if (!tip.has_value() || tip->round != m.round || tip->Hash() != m.tip_hash) {
    return false;
  }
  AccountTable table;
  Reader ar(data->accounts);
  if (!table.DeserializeFrom(&ar) || !ar.AtEnd() ||
      table.StateFingerprint() != m.fingerprint) {
    return false;  // The state does not hash to what the manifest promised.
  }
  const uint64_t b = m.round;
  if (data->seed_base > b || data->seed_base + data->seeds.size() != b + 1) {
    return false;
  }
  // Seed cross-check against the verified chain: link r carries next_seed =
  // seed_{r+1} (links[j] is round j+1), so every seed in the window is pinned
  // by a certificate, not taken on the responder's word.
  for (size_t i = 0; i < data->seeds.size(); ++i) {
    uint64_t r = data->seed_base + i;
    SeedBytes expected;
    if (r <= 1) {
      expected = ledger_.SeedForRound(r);  // Genesis window: locally known.
    } else {
      expected = fastsync_.links[r - 2].next_seed;
    }
    if (data->seeds[i] != expected) {
      return false;
    }
  }
  if (tip->next_seed != fastsync_.links[b - 1].next_seed) {
    return false;  // Round b's own link must agree with the tip block.
  }
  if (!ledger_.InstallCheckpoint(*tip, std::move(table), data->seed_base,
                                 std::move(data->seeds))) {
    return false;
  }
  last_checkpoint_round_ = b;
  if (store_ != nullptr) {
    // Persist what we verified: the checkpoint payload (so a restart resumes
    // from here, and we can serve fast-sync in turn), the primed log, and
    // the cert chain below b.
    store_->AdoptCheckpoint(b, fastsync_.payload);
    store_->PrimeAt(b + 1, m.tip_hash);
    std::vector<std::vector<uint8_t>> payloads;
    payloads.reserve(fastsync_.links.size());
    for (const ChainLink& l : fastsync_.links) {
      payloads.push_back(l.SerializePayload());
    }
    store_->AppendChainLinks(std::move(payloads));
  }
  fork_monitor_.Prune(b);
  return true;
}

void Node::FailFastSyncAttempt() {
  if (!fastsync_.active) {
    return;
  }
  ++fastsync_.attempt;
  if (fastsync_.attempt > 5) {
    FailFastSync();
    return;
  }
  // Reset the conversation and try another peer; the target survives.
  fastsync_.stage = FastSyncState::Stage::kManifest;
  fastsync_.manifest = CheckpointManifest{};
  fastsync_.payload_bytes = 0;
  fastsync_.next_link = 1;
  fastsync_.prev_hash = genesis_hash_;
  fastsync_.links.clear();
  fastsync_.payload.clear();
  fastsync_.peer = NextFastSyncPeer();
  SendFastSyncManifestRequest();
}

void Node::FailFastSync() {
  uint64_t target = fastsync_.target_round;
  fastsync_.active = false;
  fastsync_.links.clear();
  fastsync_.payload.clear();
  ++fastsync_session_;
  if (obs_.fastsync_failed != nullptr) {
    obs_.fastsync_failed->Increment();
  }
  // Fall back to plain block catch-up from genesis — slower but always
  // sufficient (it needs no peer to hold a checkpoint).
  StartCatchup(target);
}

void Node::FinishFastSync() {
  uint64_t target = fastsync_.target_round;
  uint64_t b = fastsync_.manifest.round;
  fastsync_.active = false;
  fastsync_.links.clear();
  fastsync_.payload.clear();
  ++fastsync_session_;
  ++fastsyncs_completed_;
  hung_ = false;
  if (obs_.fastsync_completed != nullptr) {
    obs_.fastsync_completed->Increment();
  }
  Trace(TraceKind::kCatchupDone, 1, b);
  if (target >= ledger_.next_round()) {
    // Normal catch-up fetches the suffix past the checkpoint; its first
    // certificate validates in full against the installed state — the
    // implicit anchor of the fast-sync trust argument.
    StartCatchup(target);
  } else {
    StartRound(ledger_.next_round());
  }
}

void Node::HandleFastSyncManifestRequest(
    const std::shared_ptr<const FastSyncManifestRequest>& msg) {
  if (halted_) {
    return;
  }
  auto resp = std::make_shared<FastSyncManifestResponse>();
  resp->responder = id_;
  resp->seq = msg->seq;
  if (store_ != nullptr) {
    // Newest checkpoint whose payload still loads (a corrupt file steps
    // down to the next older one, mirroring the restore ladder).
    auto ckpts = store_->checkpoints();
    for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
      auto payload = store_->ReadCheckpointPayload(it->round);
      if (payload == nullptr || payload->size() < CheckpointData::kManifestBytes) {
        continue;
      }
      resp->manifest.assign(payload->begin(),
                            payload->begin() + CheckpointData::kManifestBytes);
      resp->payload_bytes = payload->size();
      break;
    }
  }
  // An empty manifest is still an answer: it lets the requester rotate to
  // another peer immediately instead of waiting out the timeout.
  if (obs_.fastsync_served != nullptr) {
    obs_.fastsync_served->Increment();
  }
  gossip_->SendTo(msg->requester, resp);
}

void Node::HandleFastSyncLinksRequest(
    const std::shared_ptr<const FastSyncLinksRequest>& msg) {
  if (halted_) {
    return;
  }
  auto resp = std::make_shared<FastSyncLinksResponse>();
  resp->responder = id_;
  resp->seq = msg->seq;
  uint64_t from = msg->from_round < 1 ? 1 : msg->from_round;
  resp->from_round = from;
  uint32_t limit = msg->limit == 0 ? 1 : msg->limit;
  if (limit > 256) {
    limit = 256;  // Bound the response a single request can make us build.
  }
  if (store_ != nullptr) {
    for (uint64_t r = from; resp->links.size() < limit; ++r) {
      std::optional<ChainLink> link = store_->ChainLinkAt(r);
      if (!link.has_value()) {
        break;  // Serve the contiguous prefix we hold (partial window).
      }
      resp->links.push_back(link->SerializePayload());
    }
  }
  if (obs_.fastsync_served != nullptr) {
    obs_.fastsync_served->Increment();
  }
  gossip_->SendTo(msg->requester, resp);
}

void Node::HandleFastSyncChunkRequest(
    const std::shared_ptr<const FastSyncChunkRequest>& msg) {
  if (halted_) {
    return;
  }
  auto resp = std::make_shared<FastSyncChunkResponse>();
  resp->responder = id_;
  resp->seq = msg->seq;
  resp->round = msg->round;
  resp->offset = msg->offset;
  if (store_ != nullptr) {
    auto payload = store_->ReadCheckpointPayload(msg->round);
    if (payload != nullptr) {
      resp->total_bytes = payload->size();
      if (msg->offset < payload->size()) {
        uint64_t limit = msg->limit == 0 ? 1 : msg->limit;
        if (limit > (uint64_t{1} << 20)) {
          limit = uint64_t{1} << 20;
        }
        uint64_t n = std::min<uint64_t>(limit, payload->size() - msg->offset);
        resp->data.assign(payload->begin() + msg->offset,
                          payload->begin() + msg->offset + n);
      }
    }
  }
  if (obs_.fastsync_served != nullptr) {
    obs_.fastsync_served->Increment();
  }
  gossip_->SendTo(msg->requester, resp);
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
    HandleMessage(msg);
  }
}

}  // namespace algorand
