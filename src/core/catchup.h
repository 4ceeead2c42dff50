// Verified history (§8.3): a joining, lagging or restarting user checks each
// round it did not agree on itself against the chain rebuilt so far, so it
// always knows the correct weights for the next round's sortition proofs.
// Live catch-up, disk restore and CatchupFromGenesis share the checks here,
// and SyncSession runs a node's whole sync: fast-sync, then block catch-up.
#ifndef ALGORAND_SRC_CORE_CATCHUP_H_
#define ALGORAND_SRC_CORE_CATCHUP_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/certificate.h"
#include "src/core/fastsync.h"
#include "src/core/params.h"
#include "src/ledger/ledger.h"
#include "src/netsim/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/round_tracer.h"

namespace algorand {

// The round-`round` context from `ledger` (which it reads, so must outlive):
// prev_hash is the tip for the next round, the block's parent for a past
// round; weights are the current ones.
RoundContext ContextAt(const Ledger& ledger, const ProtocolParams& params, uint64_t round);

enum class RoundCheck : uint8_t {
  kOk,
  kWrongRound,    // The block is not the next round.
  kUncertified,   // No deciding certificate, and the caller requires one.
  kCertMismatch,  // A certificate names another round or block (or, final, step).
  kInvalidCert,   // A certificate's votes fail signature, sortition or quorum.
  kDoesNotApply,  // Ledger::Append refused the block.
  kOutsideChain,  // A final certificate's round is not a retained chain round.
};

// Where the callers of AppendCertifiedRound differ.
struct CertifiedRoundRules {
  // The appended round's consensus kind; nullopt derives it from the
  // deciding certificate's step (final iff kStepFinal).
  std::optional<ConsensusKind> kind;
  // Accepts a round without a deciding certificate on chain structure alone.
  bool allow_uncertified = false;
};

// Checks `block` as the ledger's next round, with its deciding and final
// certificates (either may be null) against ContextAt(next round), then
// appends it; a final certificate marks the prefix final. Leaves the ledger
// untouched unless it returns kOk.
RoundCheck AppendCertifiedRound(Ledger* ledger, const ProtocolParams& params,
                                const VrfBackend& vrf, const SignerBackend& signer,
                                const Block& block, const Certificate* cert,
                                const Certificate* final_cert, const CertifiedRoundRules& rules);

// Checks a final certificate for a past round against ContextAt(its round),
// then marks that prefix final. A round at or below the compacted base, or
// beyond the tip, is kOutsideChain and changes nothing.
RoundCheck MarkCertifiedFinal(Ledger* ledger, const ProtocolParams& params,
                              const VrfBackend& vrf, const SignerBackend& signer,
                              const Certificate& final_cert);

struct CatchupResult {
  bool ok = false;
  std::string error;
  uint64_t verified_rounds = 0;
  std::unique_ptr<Ledger> ledger;  // State after replaying verified rounds.
};

// Validates `blocks[i]`/`certs[i]` (round i+1) in order starting from
// genesis, appending each as tentative. Stops with an error at the first
// certificate or chain-linkage failure. If `final_cert` is provided it must
// cover a replayed round (the "certificate proving safety" of §8.3); only
// then are that round and its prefix marked final.
CatchupResult CatchupFromGenesis(const GenesisConfig& genesis, const ProtocolParams& params,
                                 const std::vector<Block>& blocks,
                                 const std::vector<Certificate>& certs, const VrfBackend& vrf,
                                 const SignerBackend& signer,
                                 const Certificate* final_cert = nullptr);

// --- Live catch-up wire protocol (§8.3) ---
//
// A lagging node that sees votes for rounds ahead of its tip asks a random
// peer for a batch of blocks + certificates starting at `from_round`, and
// appends it through AppendCertifiedRound: a tampered batch costs the peer
// its turn (rotation) but can never corrupt the requester's chain.

class CatchupRequestMessage : public ProtocolMessage<MessageKind::kCatchupRequest> {
 public:
  uint32_t requester = 0;   // NodeId to answer to (point-to-point reply).
  uint64_t seq = 0;         // Per-requester nonce: retries defeat gossip dedup.
  uint64_t from_round = 0;  // First round wanted (requester's next_round).
  uint32_t limit = 0;       // Max rounds in the response batch.

  static constexpr uint64_t kWireSize = 4 + 8 + 8 + 4;

  std::vector<uint8_t> Serialize() const override;
  static std::optional<CatchupRequestMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "catchup_req"; }

 protected:
  uint64_t ComputeWireSize() const override { return kWireSize; }
};

class CatchupResponseMessage : public ProtocolMessage<MessageKind::kCatchupResponse> {
 public:
  struct Entry {
    Block block;
    Certificate cert;  // Deciding-step certificate covering the block.
  };

  uint32_t responder = 0;
  uint64_t seq = 0;         // Echo of the request nonce.
  uint64_t from_round = 0;  // Round of entries.front() (echo of the request).
  uint64_t tip_round = 0;   // Responder's highest stored round (informational).
  std::vector<Entry> entries;  // Consecutive rounds; may be a partial batch
                               // when the responder's cert shard has gaps.
  std::optional<Certificate> final_cert;  // Highest final-step cert ≤ batch end.

  std::vector<uint8_t> Serialize() const override;
  static std::optional<CatchupResponseMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "catchup_resp"; }

 protected:
  uint64_t ComputeWireSize() const override;
};

// The serving side: a batch of consecutive rounds from `req.from_round` out
// of `ledger` and the certificates a node keeps in memory (`certs`,
// `final_certs`), falling back to `store` (null = none) for the rest.
std::shared_ptr<CatchupResponseMessage> ServeCatchup(
    const Ledger& ledger, const std::map<uint64_t, Certificate>& certs,
    const std::map<uint64_t, Certificate>& final_certs, const BlockStore* store,
    const CatchupRequestMessage& req, uint32_t responder);

// --- The sync session: fast-sync, then block catch-up ---

// What a SyncSession needs from the node it runs in. Node implements it; a
// unit test can fake it.
class SyncHost {
 public:
  // Point-to-point transport and the address book (§9): every id below
  // NetworkSize() is addressable; Neighbors() is the fallback pool.
  virtual void SendTo(NodeId peer, const MessagePtr& msg) = 0;
  virtual size_t NetworkSize() const = 0;
  virtual const std::vector<NodeId>& Neighbors() const = 0;
  // The clock. Sync timers survive round changes; the session retires its
  // own stale ones by epoch.
  virtual SimTime Now() const = 0;
  virtual void ScheduleSyncTimer(SimTime delay, std::function<void()> fn) = 0;
  // Leaves the current round (and any recovery session) for the sync phase.
  virtual void LeaveRound() = 0;
  // The session fetched what it came for: the node is no longer hung, and
  // fork suspicions at or below the final frontier are void.
  virtual void Synced() = 0;
  // Resumes agreement at `round`.
  virtual void StartRound(uint64_t round) = 0;
  // A verified catch-up round was just appended to the ledger: keep its
  // certificate, stream the round to the store, prune the mempool.
  virtual void CommitSyncedRound(const Block& block, const Certificate& cert) = 0;
  // A verified final certificate just marked a past round final.
  virtual void CommitFinalCertificate(const Certificate& final_cert) = 0;
  // A batch of rounds landed: checkpoint a boundary that went final.
  virtual void MaybeCheckpoint() = 0;
  // Installs a checkpoint that passed VerifyCheckpoint and SeedsMatchLinks
  // into the ledger and persists it with its links; false = refused.
  virtual bool InstallCheckpoint(VerifiedCheckpoint checkpoint, std::vector<uint8_t> payload,
                                 const std::vector<ChainLink>& links) = 0;
  // Serves a catch-up request from local history.
  virtual std::shared_ptr<CatchupResponseMessage> BuildCatchupResponse(
      const CatchupRequestMessage& req) const = 0;
  virtual void TraceSync(TraceKind kind, uint32_t step, uint64_t a, uint64_t b) = 0;

 protected:
  ~SyncHost() = default;
};

// One node's sync with the network (§8.3, DESIGN.md §7 and §13). Gossip
// evidence of rounds ahead starts a session; a genesis-fresh node with
// fast-sync enabled opens with the fast-sync stages (manifest -> links ->
// chunks from one peer), and every session ends in block catch-up or goes
// straight back to agreement. Fast-sync is a stage, not a second session:
// one epoch retires every timer of a finished stage, one nonce numbers every
// request, and Start/Finish are the only ways in and out.
class SyncSession {
 public:
  enum class Stage : uint8_t { kIdle, kManifest, kLinks, kChunks, kBlocks };

  // `store` is the node's store pointer, read when serving (null = none).
  SyncSession(NodeId self, SyncHost* host, Ledger* ledger, const ProtocolParams& params,
              const VrfBackend& vrf, const SignerBackend& signer, BlockStore* const& store);

  // Routes the "catchup.*" counters to `metrics` (null detaches).
  void AttachMetrics(MetricsRegistry* metrics);

  bool active() const { return st_.stage != Stage::kIdle; }
  Stage stage() const { return st_.stage; }
  uint64_t target_round() const { return st_.target_round; }
  uint64_t catchups_completed() const { return catchups_completed_; }
  uint64_t fastsyncs_completed() const { return fastsyncs_completed_; }

  // Gossip carried traffic for `round` while the node is at `current_round`:
  // starts a session when the node lags, or widens the running one's target.
  void NoteEvidence(uint64_t round, uint64_t current_round);
  // Serves catch-up and fast-sync requests; consumes answers to this
  // session's own requests. Other messages are ignored.
  void HandleMessage(const MessagePtr& msg);
  // Clears the state and retires its timers without resuming agreement:
  // how Start and Finish leave a stage, and how a halted node drops one.
  void Stop();

 private:
  struct Pending {
    NodeId peer = 0;
    uint64_t seq = 0;
    uint32_t limit = 0;
  };
  struct State {
    Stage stage = Stage::kIdle;
    uint64_t target_round = 0;  // Sync through this round.
    // Block stage: consecutive failures, reset on progress. Fast-sync:
    // peers tried.
    uint32_t attempt = 0;
    // --- Block catch-up ---
    uint64_t started_at_round = 0;  // Tip round when the stage began.
    uint32_t empty_streak = 0;      // Consecutive empty answers; reset on progress.
    SimTime blocked_until = 0;      // Backoff gate for new requests.
    std::vector<NodeId> peers;      // Shuffled peer pool, rotated per request.
    size_t peer_cursor = 0;
    std::map<uint64_t, Pending> inflight;  // from_round -> outstanding request.
    // Verified-later batches keyed by from_round, applied in chain order.
    std::map<uint64_t, std::shared_ptr<const CatchupResponseMessage>> ready;
    // --- Fast-sync: one peer per attempt, one outstanding request ---
    NodeId peer = 0;
    uint64_t seq = 0;
    CheckpointManifest manifest;
    uint64_t payload_bytes = 0;
    uint64_t next_link = 1;  // Next chain-link round to verify.
    Hash256 prev_hash;       // Verified hash of round next_link - 1.
    std::vector<ChainLink> links;   // Verified links 1..next_link-1.
    std::vector<uint8_t> payload;   // Checkpoint payload prefix received.
  };

  // The one way in: leaves the round and opens `stage` (kManifest or kBlocks).
  void Start(uint64_t target_round, Stage stage);
  // The one way out of a stage; `synced` = it got what it came for. A
  // fast-sync stage hands over to block catch-up unless it left nothing to
  // fetch; everything else resumes agreement at the new tip.
  void Finish(bool synced);
  // Timeout, bad batch or junk answer: charge it to the peer and move on
  // (block stage: backoff and rotation; fast-sync: a fresh attempt with
  // another peer), or give up on the stage.
  void FailAttempt();
  // The per-request timeout of request `seq` (block stage: for `from_round`).
  void ArmTimeout(uint64_t seq, uint64_t from_round);

  // Block stage: applies ready batches, finishes or aborts, and keeps the
  // in-flight request window full.
  void Pump();
  void SendCatchupRequest(uint64_t from_round);
  // Lowest round not covered by an in-flight request or ready batch.
  uint64_t Frontier() const;
  NodeId NextCatchupPeer();
  void OnCatchupResponse(const std::shared_ptr<const CatchupResponseMessage>& msg);
  // Validates and appends a response batch in round order. Returns false on
  // the first invalid entry (the whole batch is then charged to the peer).
  bool ApplyBatch(const CatchupResponseMessage& resp, uint64_t* applied);

  // Fast-sync stages: one random peer per attempt.
  NodeId NextFastSyncPeer();
  // Sends the current stage's request to the attempt's peer.
  void SendFastSyncRequest();
  // Whether an answer is to the one outstanding request of `stage`: only the
  // asked peer may answer; anything else is unsolicited, stale, or spoofed.
  bool Expects(Stage stage, uint64_t seq, NodeId responder) const {
    return st_.stage == stage && st_.seq == seq && st_.peer == responder;
  }
  void OnManifest(const FastSyncManifestResponse& msg);
  void OnLinks(const FastSyncLinksResponse& msg);
  void OnChunk(const FastSyncChunkResponse& msg);

  // The "catchup.*" counters (names in AttachMetrics), null when detached.
  enum Metric : uint8_t {
    kSessions, kRequests, kServed, kTimeouts, kBadBatches, kBlocksApplied, kCompleted,
    kRotations, kAborted, kFastSyncSessions, kFastSyncCompleted, kFastSyncFailed,
    kFastSyncLinks, kFastSyncBytes, kFastSyncServed, kMetricCount
  };
  void Count(Metric metric, uint64_t n = 1) {
    if (obs_[metric] != nullptr) {
      obs_[metric]->Increment(n);
    }
  }
  void Reply(NodeId to, const MessagePtr& resp, Metric served);

  const NodeId self_;
  SyncHost& host_;
  Ledger& ledger_;
  const ProtocolParams& params_;
  const VrfBackend& vrf_;
  const SignerBackend& signer_;
  BlockStore* const& store_;
  // Round-0 block hash, pinned at construction: fast-sync checkpoints must
  // bind to it.
  const Hash256 genesis_hash_;
  std::array<Counter*, kMetricCount> obs_{};
  State st_;
  uint64_t epoch_ = 0;  // Bumped by Stop: timers of a dead stage no-op.
  uint64_t seq_ = 0;    // Request nonce; never reset, so old answers cannot alias.
  uint64_t catchups_completed_ = 0;
  uint64_t fastsyncs_completed_ = 0;
  DeterministicRng rng_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_CATCHUP_H_
