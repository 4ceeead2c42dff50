#include "src/core/catchup.h"

#include <algorithm>
#include <iterator>

#include "src/crypto/sha256.h"

namespace algorand {

RoundContext ContextAt(const Ledger& ledger, const ProtocolParams& params, uint64_t round) {
  RoundContext ctx;
  ctx.round = round;
  ctx.seed = ledger.SortitionSeed(round, params.seed_refresh_interval);
  ctx.prev_hash =
      round == ledger.next_round() ? ledger.tip_hash() : ledger.BlockAtRound(round).prev_hash;
  ctx.total_weight = ledger.total_weight();
  const Ledger* l = &ledger;
  ctx.weight_of = [l](const PublicKey& pk) { return l->WeightOf(pk); };
  return ctx;
}

namespace {

// `cert` certifies `hash` at `ctx.round` (with the final step when `is_final`).
RoundCheck CheckCertificate(const Certificate& cert, const Hash256& hash, bool is_final,
                            const RoundContext& ctx, const ProtocolParams& params,
                            const VrfBackend& vrf, const SignerBackend& signer) {
  if (cert.round != ctx.round || cert.block_hash != hash ||
      (is_final && cert.step != kStepFinal)) {
    return RoundCheck::kCertMismatch;
  }
  if (!ValidateCertificate(cert, ctx, params, vrf, signer)) {
    return RoundCheck::kInvalidCert;
  }
  return RoundCheck::kOk;
}

}  // namespace

RoundCheck AppendCertifiedRound(Ledger* ledger, const ProtocolParams& params,
                                const VrfBackend& vrf, const SignerBackend& signer,
                                const Block& block, const Certificate* cert,
                                const Certificate* final_cert, const CertifiedRoundRules& rules) {
  const uint64_t round = ledger->next_round();
  if (block.round != round) {
    return RoundCheck::kWrongRound;
  }
  if (cert == nullptr && !rules.allow_uncertified) {
    return RoundCheck::kUncertified;
  }
  const RoundContext ctx = ContextAt(*ledger, params, round);
  const Hash256 hash = block.Hash();
  for (auto [c, is_final] : {std::pair{cert, false}, std::pair{final_cert, true}}) {
    if (c == nullptr) {
      continue;
    }
    if (RoundCheck check = CheckCertificate(*c, hash, is_final, ctx, params, vrf, signer);
        check != RoundCheck::kOk) {
      return check;
    }
  }
  ConsensusKind kind = rules.kind.value_or(cert != nullptr && cert->step == kStepFinal
                                               ? ConsensusKind::kFinal
                                               : ConsensusKind::kTentative);
  if (!ledger->Append(block, kind)) {
    return RoundCheck::kDoesNotApply;
  }
  if (final_cert != nullptr) {
    ledger->MarkFinalThrough(round);
  }
  return RoundCheck::kOk;
}

RoundCheck MarkCertifiedFinal(Ledger* ledger, const ProtocolParams& params,
                              const VrfBackend& vrf, const SignerBackend& signer,
                              const Certificate& final_cert) {
  const uint64_t round = final_cert.round;
  if (round <= ledger->base_round() || round >= ledger->next_round()) {
    return RoundCheck::kOutsideChain;
  }
  RoundCheck check =
      CheckCertificate(final_cert, ledger->BlockAtRound(round).Hash(), /*final=*/true,
                       ContextAt(*ledger, params, round), params, vrf, signer);
  if (check == RoundCheck::kOk) {
    ledger->MarkFinalThrough(round);
  }
  return check;
}

CatchupResult CatchupFromGenesis(const GenesisConfig& genesis, const ProtocolParams& params,
                                 const std::vector<Block>& blocks,
                                 const std::vector<Certificate>& certs, const VrfBackend& vrf,
                                 const SignerBackend& signer, const Certificate* final_cert) {
  CatchupResult result;
  result.ledger = std::make_unique<Ledger>(genesis);
  if (blocks.size() != certs.size()) {
    result.error = "blocks/certificates length mismatch";
    return result;
  }
  static constexpr const char* kWhy[] = {
      "", "block round mismatch", "missing certificate", "certificate does not cover block",
      "invalid certificate", "block does not apply", "certificate outside chain"};
  // Finality comes only from the trailing final certificate.
  const CertifiedRoundRules rules{.kind = ConsensusKind::kTentative};
  for (size_t i = 0; i < blocks.size(); ++i) {
    RoundCheck check = AppendCertifiedRound(result.ledger.get(), params, vrf, signer, blocks[i],
                                            &certs[i], nullptr, rules);
    if (check != RoundCheck::kOk) {
      result.error = std::string(kWhy[static_cast<int>(check)]) + " at round " +
                     std::to_string(result.ledger->next_round());
      return result;
    }
    ++result.verified_rounds;
  }
  // Final blocks are totally ordered, so the most recent final certificate
  // proves every round up to it (§8.3).
  if (final_cert != nullptr) {
    RoundCheck check = MarkCertifiedFinal(result.ledger.get(), params, vrf, signer, *final_cert);
    if (check != RoundCheck::kOk) {
      result.error = std::string("final ") + kWhy[static_cast<int>(check)];
      return result;
    }
  }
  result.ok = true;
  return result;
}

std::vector<uint8_t> CatchupRequestMessage::Serialize() const {
  Writer w;
  w.U32(requester);
  w.U64(seq);
  w.U64(from_round);
  w.U32(limit);
  return w.Take();
}

std::optional<CatchupRequestMessage> CatchupRequestMessage::Deserialize(
    std::span<const uint8_t> data) {
  return DecodeExactly<CatchupRequestMessage>(data, [](Reader& r, CatchupRequestMessage& m) {
    m.requester = r.U32();
    m.seq = r.U64();
    m.from_round = r.U64();
    m.limit = r.U32();
  });
}

std::vector<uint8_t> CatchupResponseMessage::Serialize() const {
  Writer w;
  w.U32(responder);
  w.U64(seq);
  w.U64(from_round);
  w.U64(tip_round);
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.Bytes(e.block.Serialize());
    w.Bytes(e.cert.Serialize());
  }
  w.U8(final_cert.has_value() ? 1 : 0);
  if (final_cert.has_value()) {
    w.Bytes(final_cert->Serialize());
  }
  return w.Take();
}

std::optional<CatchupResponseMessage> CatchupResponseMessage::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  CatchupResponseMessage m;
  m.responder = r.U32();
  m.seq = r.U64();
  m.from_round = r.U64();
  m.tip_round = r.U64();
  uint32_t n = r.U32();
  if (!r.ok() || n > data.size()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    auto bb = r.Bytes();
    auto block = Block::Deserialize(bb);
    auto cb = r.Bytes();
    auto cert = Certificate::Deserialize(cb);
    if (!block || !cert) {
      return std::nullopt;
    }
    m.entries.push_back(Entry{std::move(*block), std::move(*cert)});
  }
  uint8_t has_final = r.U8();
  if (!r.ok() || has_final > 1) {
    return std::nullopt;
  }
  if (has_final == 1) {
    auto fb = r.Bytes();
    auto cert = Certificate::Deserialize(fb);
    if (!cert) {
      return std::nullopt;
    }
    m.final_cert = std::move(*cert);
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

uint64_t CatchupResponseMessage::ComputeWireSize() const {
  uint64_t size = 4 + 8 + 8 + 8 + 4 + 1;
  for (const Entry& e : entries) {
    size += 8 + e.block.WireSize() + e.cert.WireSize();
  }
  if (final_cert.has_value()) {
    size += 4 + final_cert->WireSize();
  }
  return size;
}

std::shared_ptr<CatchupResponseMessage> ServeCatchup(
    const Ledger& ledger, const std::map<uint64_t, Certificate>& certs,
    const std::map<uint64_t, Certificate>& final_certs, const BlockStore* store,
    const CatchupRequestMessage& req, uint32_t responder) {
  auto resp = std::make_shared<CatchupResponseMessage>();
  resp->responder = responder;
  resp->seq = req.seq;
  resp->from_round = req.from_round;
  resp->tip_round = ledger.chain_length() - 1;
  // Bound the response a single request can make us build.
  const uint32_t limit = std::clamp<uint32_t>(req.limit, 1, 64);
  uint64_t r = req.from_round < 1 ? 1 : req.from_round;
  uint64_t last_served = 0;
  const uint64_t base = ledger.base_round();
  while (r < ledger.chain_length() && resp->entries.size() < limit) {
    // A shard gap in memory — or a round at/below our compacted base, whose
    // block the ledger no longer holds — falls through to the durable log,
    // which keeps block and certificate for every retained round (the index
    // makes this an O(1) seek, not a segment scan). Rounds compaction pruned
    // come back empty, so the batch honestly ends where our history does.
    std::optional<CatchupResponseMessage::Entry> entry;
    if (auto it = certs.find(r); it != certs.end() && r > base) {
      entry = CatchupResponseMessage::Entry{ledger.BlockAtRound(r), it->second};
    } else if (store != nullptr) {
      if (auto stored = store->ReadRound(r); stored.has_value() && !stored->cert.empty()) {
        auto cert = Certificate::Deserialize(stored->cert);
        auto block = Block::Deserialize(stored->block);
        if (cert.has_value() && block.has_value()) {
          entry = CatchupResponseMessage::Entry{std::move(*block), std::move(*cert)};
        }
      }
    }
    if (!entry.has_value()) {
      break;  // Sharded/pruned storage: serve the prefix we hold (partial batch).
    }
    resp->entries.push_back(std::move(*entry));
    last_served = r++;
  }
  // Attach the highest final-step certificate covering the served prefix so
  // the requester can mark finality (final blocks are totally ordered, §8.3).
  if (auto it = final_certs.upper_bound(last_served); it != final_certs.begin()) {
    resp->final_cert = std::prev(it)->second;
  }
  return resp;
}

// ---------------------------------------------------------------------------
// SyncSession: fast-sync, then block catch-up
// ---------------------------------------------------------------------------

SyncSession::SyncSession(NodeId self, SyncHost* host, Ledger* ledger,
                         const ProtocolParams& params, const VrfBackend& vrf,
                         const SignerBackend& signer, BlockStore* const& store)
    : self_(self),
      host_(*host),
      ledger_(*ledger),
      params_(params),
      vrf_(vrf),
      signer_(signer),
      store_(store),
      genesis_hash_(ledger->tip_hash()),
      rng_(self, "catchup") {}

void SyncSession::AttachMetrics(MetricsRegistry* metrics) {
  static constexpr const char* kNames[kMetricCount] = {
      "catchup.sessions", "catchup.requests", "catchup.served", "catchup.timeouts",
      "catchup.bad_batches", "catchup.blocks_applied", "catchup.completed",
      "catchup.peer_rotations", "catchup.aborted", "catchup.fastsync_sessions",
      "catchup.fastsync_completed", "catchup.fastsync_failed",
      "catchup.fastsync_links_verified", "catchup.fastsync_bytes", "catchup.fastsync_served"};
  for (int m = 0; m < kMetricCount; ++m) {
    obs_[m] = metrics == nullptr ? nullptr : &metrics->GetCounter(kNames[m]);
  }
}

void SyncSession::NoteEvidence(uint64_t round, uint64_t current_round) {
  if (active()) {
    // Only widen the target. It always comes from gossip evidence (a
    // vote/block for `round` implies rounds < round are settled somewhere),
    // never from a responder's self-reported tip — a Byzantine responder
    // must not be able to inflate it.
    if (round > 0 && round - 1 > st_.target_round) {
      st_.target_round = round - 1;
    }
    return;
  }
  if (round > current_round + params_.catchup_trigger_lead) {
    // A genesis-fresh node (nothing to lose, everything to fetch) prefers
    // checkpoint fast-sync when enabled; everyone else block-catches-up.
    const bool fast = params_.fastsync_enabled && ledger_.chain_length() == 1;
    Start(round - 1, fast ? Stage::kManifest : Stage::kBlocks);
  }
}

void SyncSession::Start(uint64_t target_round, Stage stage) {
  Stop();
  host_.LeaveRound();
  st_.stage = stage;
  st_.target_round = target_round;
  if (stage == Stage::kBlocks) {
    st_.started_at_round = ledger_.next_round() - 1;
    Count(kSessions);
    host_.TraceSync(TraceKind::kCatchupStart, 0, target_round, 0);
    Pump();
    return;
  }
  st_.prev_hash = genesis_hash_;  // The cert chain starts at round 0.
  Count(kFastSyncSessions);
  host_.TraceSync(TraceKind::kCatchupStart, 1, target_round, 0);
  st_.peer = NextFastSyncPeer();
  SendFastSyncRequest();
}

void SyncSession::Finish(bool synced) {
  const bool fast = st_.stage != Stage::kBlocks;
  const uint64_t target = st_.target_round;
  Stop();
  if (synced) {
    host_.Synced();
  }
  if (fast && (!synced || target >= ledger_.next_round())) {
    // Block catch-up fetches the suffix past the checkpoint — its first
    // certificate validates in full against the installed state, the
    // implicit anchor of the fast-sync trust argument — or, when fast-sync
    // failed, the whole chain from genesis: slower but always sufficient (it
    // needs no peer to hold a checkpoint).
    Start(target, Stage::kBlocks);
    return;
  }
  // Rejoin live BA* at the new tip; buffered tip-round traffic replays there.
  host_.StartRound(ledger_.next_round());
}

void SyncSession::Stop() {
  st_ = State{};
  ++epoch_;
}

void SyncSession::FailAttempt() {
  ++st_.attempt;
  if (st_.stage != Stage::kBlocks) {
    if (st_.attempt > 5) {
      Count(kFastSyncFailed);
      Finish(/*synced=*/false);
      return;
    }
    // Reset the conversation and try another peer; the target survives.
    State retry;
    retry.stage = Stage::kManifest;
    retry.target_round = st_.target_round;
    retry.attempt = st_.attempt;
    retry.prev_hash = genesis_hash_;
    retry.peer = NextFastSyncPeer();
    st_ = std::move(retry);
    SendFastSyncRequest();
    return;
  }
  Count(kRotations);
  if (st_.attempt > 10) {
    // Evidence may have been fabricated (an unreachable target keeps every
    // peer "failing"); abort rather than wedge. Fresh evidence retriggers.
    Count(kAborted);
    Finish(/*synced=*/false);
    return;
  }
  // Exponential backoff with jitter before asking the next peer.
  SimTime backoff = params_.catchup_backoff_base;
  for (uint32_t i = 1; i < st_.attempt && backoff < params_.catchup_backoff_max; ++i) {
    backoff *= 2;
  }
  if (backoff > params_.catchup_backoff_max) {
    backoff = params_.catchup_backoff_max;
  }
  backoff += static_cast<SimTime>(
      rng_.UniformU64(static_cast<uint64_t>(params_.catchup_backoff_base)));
  st_.blocked_until = host_.Now() + backoff;
  host_.ScheduleSyncTimer(backoff, [this, epoch = epoch_] {
    if (epoch == epoch_) {
      st_.blocked_until = 0;
      Pump();
    }
  });
}

void SyncSession::ArmTimeout(uint64_t seq, uint64_t from_round) {
  // If the answer never lands, drop the request and charge the peer.
  host_.ScheduleSyncTimer(params_.catchup_timeout, [this, epoch = epoch_, seq, from_round] {
    if (epoch != epoch_) {
      return;  // The stage ended.
    }
    if (st_.stage == Stage::kBlocks) {
      auto it = st_.inflight.find(from_round);
      if (it == st_.inflight.end() || it->second.seq != seq) {
        return;  // Answered (or superseded) in time.
      }
      st_.inflight.erase(it);
      Count(kTimeouts);
    } else if (st_.seq != seq) {
      return;
    }
    FailAttempt();
  });
}

void SyncSession::HandleMessage(const MessagePtr& msg) {
  switch (KindOf(*msg)) {
    case MessageKind::kCatchupRequest: {
      const auto& req = static_cast<const CatchupRequestMessage&>(*msg);
      Reply(req.requester, host_.BuildCatchupResponse(req), kServed);
      return;
    }
    case MessageKind::kFastSyncManifestRequest: {
      const auto& req = static_cast<const FastSyncManifestRequest&>(*msg);
      Reply(req.requester, ServeFastSyncManifest(store_, req, self_), kFastSyncServed);
      return;
    }
    case MessageKind::kFastSyncLinksRequest: {
      const auto& req = static_cast<const FastSyncLinksRequest&>(*msg);
      Reply(req.requester, ServeFastSyncLinks(store_, req, self_), kFastSyncServed);
      return;
    }
    case MessageKind::kFastSyncChunkRequest: {
      const auto& req = static_cast<const FastSyncChunkRequest&>(*msg);
      Reply(req.requester, ServeFastSyncChunk(store_, req, self_), kFastSyncServed);
      return;
    }
    case MessageKind::kCatchupResponse:
      OnCatchupResponse(std::static_pointer_cast<const CatchupResponseMessage>(msg));
      return;
    case MessageKind::kFastSyncManifestResponse:
      OnManifest(static_cast<const FastSyncManifestResponse&>(*msg));
      return;
    case MessageKind::kFastSyncLinksResponse:
      OnLinks(static_cast<const FastSyncLinksResponse&>(*msg));
      return;
    case MessageKind::kFastSyncChunkResponse:
      OnChunk(static_cast<const FastSyncChunkResponse&>(*msg));
      return;
    default:
      return;
  }
}

void SyncSession::Reply(NodeId to, const MessagePtr& resp, Metric served) {
  if (resp != nullptr) {
    Count(served);
    host_.SendTo(to, resp);
  }
}

// --- Block catch-up (§8.3): block+certificate batches from rotating peers ---

void SyncSession::Pump() {
  // Apply every ready batch that starts at (or before) the next needed round.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = st_.ready.begin(); it != st_.ready.end(); ++it) {
      if (it->first > ledger_.next_round()) {
        continue;
      }
      auto resp = it->second;
      st_.ready.erase(it);
      uint64_t applied = 0;
      if (!ApplyBatch(*resp, &applied)) {
        Count(kBadBatches);
        FailAttempt();  // Rotates to a different peer with backoff.
        return;
      }
      if (applied > 0) {
        st_.attempt = 0;  // Progress resets the failure streaks.
        st_.empty_streak = 0;
      }
      progressed = true;
      break;  // Iterator invalidated; rescan.
    }
  }
  if (ledger_.next_round() > st_.target_round) {
    const uint64_t gained = ledger_.next_round() - 1 - st_.started_at_round;
    ++catchups_completed_;
    Count(kCompleted);
    host_.TraceSync(TraceKind::kCatchupDone, 0, gained, 0);
    Finish(/*synced=*/true);
    return;
  }
  if (host_.Now() < st_.blocked_until) {
    return;  // Backing off; the scheduled wakeup will re-pump.
  }
  while (st_.inflight.size() < params_.catchup_max_inflight) {
    uint64_t from = Frontier();
    if (from > st_.target_round) {
      break;  // Everything up to the target is applied, inflight, or ready.
    }
    SendCatchupRequest(from);
    if (st_.inflight.find(from) == st_.inflight.end()) {
      break;  // No peers available; evidence will retrigger later.
    }
  }
}

uint64_t SyncSession::Frontier() const {
  // Lowest round not yet applied and not covered by an inflight request's
  // window or a ready batch. Sharded peers may answer with partial batches;
  // the frontier then lands exactly on the gap so the next request (to a
  // different peer) fills it.
  uint64_t frontier = ledger_.next_round();
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& [from, pending] : st_.inflight) {
      if (frontier >= from && frontier < from + pending.limit) {
        frontier = from + pending.limit;
        moved = true;
      }
    }
    for (const auto& [from, resp] : st_.ready) {
      if (frontier >= from && frontier < from + resp->entries.size()) {
        frontier = from + resp->entries.size();
        moved = true;
      }
    }
  }
  return frontier;
}

NodeId SyncSession::NextCatchupPeer() {
  if (st_.peers.empty()) {
    // Draw from every addressable node (§9 address book), not just gossip
    // neighbours: certificates may be sharded across the network, and the
    // shard class holding the frontier round is not guaranteed to appear in
    // a small neighbour set.
    size_t n = host_.NetworkSize();
    for (NodeId p = 0; p < n; ++p) {
      if (p != self_) {
        st_.peers.push_back(p);
      }
    }
    if (st_.peers.empty()) {
      st_.peers = host_.Neighbors();
    }
    rng_.Shuffle(&st_.peers);
    st_.peer_cursor = 0;
  }
  NodeId peer = st_.peers[st_.peer_cursor % st_.peers.size()];
  ++st_.peer_cursor;
  return peer;
}

void SyncSession::SendCatchupRequest(uint64_t from_round) {
  if (st_.peers.empty() && host_.Neighbors().empty()) {
    return;
  }
  NodeId peer = NextCatchupPeer();
  auto req = std::make_shared<CatchupRequestMessage>();
  req->requester = self_;
  req->seq = seq_++;
  req->from_round = from_round;
  req->limit = params_.catchup_batch_limit;
  st_.inflight[from_round] = Pending{peer, req->seq, req->limit};
  Count(kRequests);
  host_.SendTo(peer, req);
  ArmTimeout(req->seq, from_round);
}

void SyncSession::OnCatchupResponse(const std::shared_ptr<const CatchupResponseMessage>& msg) {
  if (st_.stage != Stage::kBlocks) {
    return;
  }
  auto it = st_.inflight.find(msg->from_round);
  if (it == st_.inflight.end() || it->second.seq != msg->seq ||
      it->second.peer != msg->responder) {
    return;  // Unsolicited, stale, or spoofed; only the asked peer may answer.
  }
  st_.inflight.erase(it);
  if (msg->entries.empty()) {
    // The peer answered but had nothing for this window — under sharded
    // certificate storage that is routine (wrong shard class), so rotate to
    // the next peer immediately instead of paying exponential backoff: the
    // round-trip itself paces the loop, and backing off here loses the race
    // against a live network advancing one round per agreement interval.
    // The streak bound still catches fabricated evidence (a target beyond
    // every honest tip makes every peer answer empty forever).
    ++st_.empty_streak;
    Count(kRotations);
    if (st_.empty_streak > 32 + st_.peers.size()) {
      Count(kAborted);
      Finish(/*synced=*/false);
      return;
    }
    Pump();
    return;
  }
  st_.ready[msg->from_round] = msg;
  Pump();
}

bool SyncSession::ApplyBatch(const CatchupResponseMessage& resp, uint64_t* applied) {
  for (const CatchupResponseMessage::Entry& e : resp.entries) {
    const uint64_t round = ledger_.next_round();
    if (e.block.round < round) {
      continue;  // Overlap with already-applied rounds is harmless.
    }
    if (e.block.round > round) {
      break;  // Gap inside the batch; stop at the contiguous prefix.
    }
    // Default rules: a certificate is required, the kind is its step's.
    if (AppendCertifiedRound(&ledger_, params_, vrf_, signer_, e.block, &e.cert, nullptr, {}) !=
        RoundCheck::kOk) {
      return false;
    }
    host_.CommitSyncedRound(e.block, e.cert);
    ++*applied;
    Count(kBlocksApplied);
  }
  if (resp.final_cert.has_value()) {
    const Certificate& fc = *resp.final_cert;
    // One beyond what we applied is ignored, not an error: a partial batch
    // legitimately undershoots the responder's final round.
    RoundCheck check = MarkCertifiedFinal(&ledger_, params_, vrf_, signer_, fc);
    if (check != RoundCheck::kOk && check != RoundCheck::kOutsideChain) {
      return false;
    }
    if (check == RoundCheck::kOk) {
      host_.CommitFinalCertificate(fc);
    }
  }
  if (*applied > 0) {
    host_.TraceSync(TraceKind::kCatchupBatch, 0, *applied, resp.responder);
    host_.MaybeCheckpoint();
  }
  return true;
}

// --- Fast-sync stages (DESIGN.md §13): manifest -> links -> chunks ---

NodeId SyncSession::NextFastSyncPeer() {
  // One random peer per attempt (no pool: an attempt is a whole
  // manifest -> links -> chunks conversation with a single peer).
  size_t n = host_.NetworkSize();
  if (n <= 1) {
    const std::vector<NodeId>& nb = host_.Neighbors();
    return nb.empty() ? self_ : nb[rng_.UniformU64(nb.size())];
  }
  NodeId peer = static_cast<NodeId>(rng_.UniformU64(n));
  while (peer == self_) {
    peer = static_cast<NodeId>(rng_.UniformU64(n));
  }
  return peer;
}

void SyncSession::SendFastSyncRequest() {
  st_.seq = seq_++;
  MessagePtr req;
  if (st_.stage == Stage::kManifest) {
    auto m = std::make_shared<FastSyncManifestRequest>();
    m->requester = self_;
    m->seq = st_.seq;
    req = m;
  } else if (st_.stage == Stage::kLinks) {
    auto m = std::make_shared<FastSyncLinksRequest>();
    m->requester = self_;
    m->seq = st_.seq;
    m->from_round = st_.next_link;
    m->limit = params_.fastsync_links_batch == 0 ? 1 : params_.fastsync_links_batch;
    req = m;
  } else {
    auto m = std::make_shared<FastSyncChunkRequest>();
    m->requester = self_;
    m->seq = st_.seq;
    m->round = st_.manifest.round;
    m->offset = st_.payload.size();
    m->limit = params_.fastsync_chunk_bytes == 0 ? 1 : params_.fastsync_chunk_bytes;
    req = m;
  }
  host_.SendTo(st_.peer, req);
  ArmTimeout(st_.seq, 0);
}

void SyncSession::OnManifest(const FastSyncManifestResponse& msg) {
  if (!Expects(Stage::kManifest, msg.seq, msg.responder)) {
    return;
  }
  if (msg.manifest.empty()) {
    FailAttempt();  // Peer holds no checkpoint; try another.
    return;
  }
  std::optional<CheckpointManifest> manifest = CheckpointData::ParseManifest(msg.manifest);
  if (!manifest.has_value() || manifest->round == 0 ||
      manifest->genesis_hash != genesis_hash_ || msg.payload_bytes == 0 ||
      msg.payload_bytes > (uint64_t{1} << 30)) {
    FailAttempt();  // Wrong chain, or an absurd payload size.
    return;
  }
  st_.manifest = *manifest;
  st_.payload_bytes = msg.payload_bytes;
  st_.stage = Stage::kLinks;
  SendFastSyncRequest();
}

void SyncSession::OnLinks(const FastSyncLinksResponse& msg) {
  if (!Expects(Stage::kLinks, msg.seq, msg.responder)) {
    return;
  }
  if (msg.links.empty() || msg.from_round != st_.next_link) {
    FailAttempt();  // The peer's link history has a hole below B.
    return;
  }
  for (const std::vector<uint8_t>& payload : msg.links) {
    std::optional<ChainLink> link = ChainLink::DecodePayload(payload);
    if (!link.has_value() || !VerifyChainLink(*link, st_.next_link, st_.prev_hash, signer_)) {
      FailAttempt();
      return;
    }
    st_.prev_hash = link->hash;
    ++st_.next_link;
    st_.links.push_back(std::move(*link));
    Count(kFastSyncLinks);
    if (st_.next_link > st_.manifest.round) {
      break;  // Chain complete; surplus links are ignored.
    }
  }
  if (st_.next_link > st_.manifest.round) {
    if (st_.prev_hash != st_.manifest.tip_hash) {
      // The verified chain ends on a different block than the manifest
      // claims — the checkpoint belongs to another history.
      FailAttempt();
      return;
    }
    st_.stage = Stage::kChunks;
    st_.payload.reserve(st_.payload_bytes);
  }
  SendFastSyncRequest();
}

void SyncSession::OnChunk(const FastSyncChunkResponse& msg) {
  if (!Expects(Stage::kChunks, msg.seq, msg.responder)) {
    return;
  }
  if (msg.round != st_.manifest.round || msg.offset != st_.payload.size() ||
      msg.total_bytes != st_.payload_bytes || msg.data.empty() ||
      st_.payload.size() + msg.data.size() > st_.payload_bytes) {
    FailAttempt();
    return;
  }
  st_.payload.insert(st_.payload.end(), msg.data.begin(), msg.data.end());
  Count(kFastSyncBytes, msg.data.size());
  if (st_.payload.size() < st_.payload_bytes) {
    SendFastSyncRequest();
    return;
  }
  // Full payload: it must match the manifest and the verified link chain.
  const CheckpointManifest& m = st_.manifest;
  std::optional<VerifiedCheckpoint> cp = VerifyCheckpoint(st_.payload, m.round, genesis_hash_, &m);
  if (!cp.has_value() || !SeedsMatchLinks(*cp, st_.links, ledger_) ||
      !host_.InstallCheckpoint(std::move(*cp), std::move(st_.payload), st_.links)) {
    FailAttempt();  // Payload contradicts the verified manifest/chain.
    return;
  }
  ++fastsyncs_completed_;
  Count(kFastSyncCompleted);
  host_.TraceSync(TraceKind::kCatchupDone, 1, m.round, 0);
  Finish(/*synced=*/true);
}

}  // namespace algorand
