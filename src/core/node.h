// The Algorand node: ties block proposal (§6), BA* (§7), the ledger (§8.1),
// certificates (§8.3) and the gossip relay rules (§8.4) into the per-user
// state machine the paper evaluates.
//
// One Node instance is one "user" of the paper's experiments. Nodes interact
// only through the gossip network; every run is deterministic given the
// simulation seed. Adversarial behaviours are subclasses that override the
// protected virtual hooks (propose/vote), so the honest logic stays in one
// place.
#ifndef ALGORAND_SRC_CORE_NODE_H_
#define ALGORAND_SRC_CORE_NODE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/flat_set.h"
#include "src/common/rng.h"
#include "src/core/ba_star.h"
#include "src/core/catchup.h"
#include "src/core/certificate.h"
#include "src/core/context.h"
#include "src/core/fastsync.h"
#include "src/core/fork_monitor.h"
#include "src/core/params.h"
#include "src/core/sortition.h"
#include "src/core/tx_verifier.h"
#include "src/core/verification_cache.h"
#include "src/ledger/ledger.h"
#include "src/ledger/mempool.h"
#include "src/netsim/gossip.h"
#include "src/netsim/simulation.h"
#include "src/obs/metrics.h"
#include "src/obs/round_tracer.h"
#include "src/store/block_store.h"
#include "src/store/checkpoint.h"

namespace algorand {

class VerifyPool;

// Crypto backends shared by all nodes of a simulation.
struct CryptoSuite {
  const VrfBackend* vrf = nullptr;
  const SignerBackend* signer = nullptr;
  VerificationCache* cache = nullptr;  // Optional.
  // Optional verification worker pool. With a shared cache the first
  // verification of a message happens at its origin (every later receiver
  // hits the cache), so nodes prewarm their own outbound messages here and
  // the pool carries the compute off the protocol thread.
  VerifyPool* pool = nullptr;
  // Optional worker pool for the block-apply pipeline (ledger/exec.h):
  // conflict partitions of a committed block apply across these threads.
  // Kept separate from `pool` so long apply jobs never starve prewarms.
  // Null or zero workers = sequential apply (the deterministic default).
  VerifyPool* exec_pool = nullptr;
};

// Per-round timing/outcome record, the raw data behind Figures 5-8.
struct RoundRecord {
  uint64_t round = 0;
  SimTime start_time = 0;
  SimTime proposal_done_at = 0;  // Entered BA* with a candidate.
  SimTime best_priority_at = 0;  // Last improvement to the known best priority.
  SimTime candidate_block_at = 0;  // Receipt of the block BA* started with (0: empty).
  SimTime reduction_done_at = 0;
  SimTime binary_done_at = 0;  // BinaryBA* returned (BA* minus final step).
  SimTime end_time = 0;        // Block appended; next round may start.
  bool final = false;
  bool empty = false;
  bool hung = false;
  int binary_steps = 0;
};

class Node : public BaEnvironment {
 public:
  Node(NodeId id, Executor* sim, GossipAgent* gossip, const Ed25519KeyPair& key,
       const GenesisConfig& genesis, const ProtocolParams& params, CryptoSuite crypto);
  ~Node() override = default;

  // Begins round 1 at the current simulation time.
  void Start();

  // Routes this node's per-round instrumentation through `metrics` ("node.*"
  // counters, "ba.*" timing histograms) and structured BA* events through
  // `tracer`. Either may be null. Call before Start(); instrument pointers
  // are resolved once here so the per-event path never takes the registry
  // lock.
  void AttachObservability(MetricsRegistry* metrics, RoundTracer* tracer);

  // Adds a payment to the pending pool (§4, Figure 1).
  void SubmitTransaction(const Transaction& tx);

  // Submits a payment *and* gossips it network-wide, the way a client
  // attached to this node would (Figure 1).
  void GossipTransaction(const Transaction& tx);

  const Ledger& ledger() const { return ledger_; }
  Ledger* mutable_ledger() { return &ledger_; }
  NodeId id() const { return id_; }
  const Ed25519KeyPair& key() const { return key_; }
  const ProtocolParams& params() const { return params_; }
  const std::vector<RoundRecord>& round_records() const { return records_; }
  const std::map<uint64_t, Certificate>& certificates() const { return certificates_; }
  // Final-step certificates (§8.3: "a certificate proving the safety of a
  // block"), available for rounds this node saw reach final consensus.
  const std::map<uint64_t, Certificate>& final_certificates() const {
    return final_certificates_;
  }
  const ForkMonitor& fork_monitor() const { return fork_monitor_; }
  bool hung() const { return hung_; }
  bool in_recovery() const { return in_recovery_; }
  uint64_t recoveries_completed() const { return recoveries_completed_; }
  uint64_t current_round() const { return current_round_; }
  size_t pending_txn_count() const { return mempool_.size(); }
  // Vote rounds (including recovery sessions) the §8.4 relay table holds.
  size_t relay_table_rounds() const { return relayed_votes_.size(); }
  const Mempool& mempool() const { return mempool_; }
  bool in_catchup() const { return catchup_.active; }
  uint64_t catchups_completed() const { return catchups_completed_; }
  bool in_fastsync() const { return fastsync_.active; }
  uint64_t fastsyncs_completed() const { return fastsyncs_completed_; }
  bool halted() const { return halted_; }

  // --- Durable storage (src/store) ---
  // Attaches `store` (owned by the caller, one per node directory) and
  // rebuilds chain + certificate maps by replaying it into this
  // genesis-fresh node, validating each round's certificate against the
  // reconstructed chain (§8.3: bootstrapping from stored certificates). An
  // empty store restores trivially. Stops at the first record that fails
  // validation and truncates the store back to the valid prefix, so disk and
  // memory agree afterwards. From then on every append, catch-up
  // application, finality upgrade and fork switch is streamed to the log.
  // This is the node's only restart path: volatile state (BA* progress,
  // buffered messages, the transaction pool) is never persisted, so a crash
  // loses it. Call after ConfigureCertificateSharding, before Start().
  // Returns false if the node already made progress past genesis or the log
  // is compacted below every loadable checkpoint.
  bool RestoreFromStore(BlockStore* store);
  BlockStore* store() const { return store_; }

  // --- Crash/restart (fault injection) ---
  // Permanently stops this node: kills all pending timers via the scheduling
  // epoch and makes every handler a no-op. Used by the harness to park a
  // "crashed" node whose callbacks may still sit in the event queue.
  void Halt();

  // Verification pipeline hook: if `msg` carries a signature/VRF payload
  // verifiable in this node's *current* round context, submits a job to
  // `pool` that prewarms the shared VerificationCache. Everything the job
  // needs (seed, weights, committee size) is resolved here on the protocol
  // thread; the job itself is a pure function, so running it on a worker
  // changes wall-clock timing but never a protocol decision. Called by the
  // harness/cluster transport while the message is still in flight.
  void PrewarmMessage(const MessagePtr& msg, VerifyPool* pool);

  // Serves block/certificate history to catching-up peers (§8.3). When
  // sharding is configured (shard_count > 1) a node persists certificates
  // only for rounds where round % shard_count == id % shard_count.
  void ConfigureCertificateSharding(uint32_t shard_count);

  // --- BaEnvironment ---
  void CastVote(uint32_t step_code, double tau, const Hash256& value) override;
  void ScheduleAfter(SimTime delay, std::function<void()> fn) override;
  SimTime Now() const override;

 protected:
  // Block-proposal hook: runs proposer sortition and, when selected, builds
  // and gossips the priority message and the block. Adversaries override
  // (e.g. to equivocate).
  virtual void MaybePropose();

  // Vote-casting hook invoked when committee sortition selects this node;
  // honest nodes gossip exactly one vote for `value`. Adversaries override.
  virtual void EmitVotes(uint32_t step_code, const SortitionResult& sort, const Hash256& value);

  // Decides whether a completed BA* round counts as FINAL for this node.
  // Honest nodes defer to the protocol's final-step quorum; the model
  // checker's seeded-bug node overrides this to claim finality it did not
  // earn, giving the checker a schedule-dependent violation to find.
  virtual bool FinalVerdict(const BaResult& result) const { return result.final; }

  // Builds this node's block proposal for the current round.
  Block BuildBlockProposal();

  // Serves a catch-up request from local chain + certificate storage. A
  // sharded node stops at its first certificate gap (partial batch). Virtual
  // so adversarial subclasses can serve tampered batches in tests.
  virtual std::shared_ptr<CatchupResponseMessage> BuildCatchupResponse(
      const CatchupRequestMessage& req) const;

  // Shared helpers for subclasses.
  void GossipMessage(const MessagePtr& msg);
  RoundContext MakeContext() const;
  GossipAgent* gossip() { return gossip_; }
  Executor* sim() { return sim_; }
  const CryptoSuite& crypto() const { return crypto_; }
  const Hash256& empty_hash() const { return empty_hash_; }
  uint64_t SelfWeight() const { return ledger_.WeightOf(key_.public_key); }

 private:
  friend class SimHarness;

  enum class Phase {
    kIdle,
    kWaitPriority,
    kWaitBlock,
    kAgreement,
    kFetchBlock,
    kRecovery,
    kCatchup,
  };

  void StartRound(uint64_t round);
  void OnPriorityWindowClosed();
  void OnBlockWindowClosed(uint64_t round);
  void StartAgreement(const Hash256& candidate);
  void OnBaComplete(const BaResult& result);
  void TryFinishRound();
  void AppendAgreedBlock(const Block& block);
  // Gathers stored votes of `step` for the agreed value until their weight
  // exceeds `threshold`.
  Certificate BuildCertificateForStep(uint32_t step, double threshold) const;
  // Streams the just-appended round `round` (the current ledger tip) to the
  // attached store, if any. Null certificates mean "none recorded".
  void StreamRoundToStore(uint64_t round, ConsensusKind kind, const Certificate* cert,
                          const Certificate* final_cert);

  // Gossip plumbing.
  GossipVerdict ValidateForRelay(const MessagePtr& msg);
  void HandleMessage(const MessagePtr& msg);
  void HandleVote(const std::shared_ptr<const VoteMessage>& vote);
  void HandlePriority(const std::shared_ptr<const PriorityMessage>& msg);
  void HandleBlock(const std::shared_ptr<const BlockMessage>& msg);
  void HandleBlockRequest(const std::shared_ptr<const BlockRequestMessage>& msg);

  // --- Live catch-up (§8.3) ---
  // Called when gossip shows traffic for a round ahead of ours; triggers or
  // extends a catch-up session.
  void NoteCatchupEvidence(uint64_t round);
  void StartCatchup(uint64_t target_round);
  // The session driver: applies ready batches, finishes or aborts, and keeps
  // the in-flight request window full.
  void PumpCatchup();
  void SendCatchupRequest(uint64_t from_round);
  // Lowest round not covered by an in-flight request or ready batch.
  uint64_t CatchupFrontier() const;
  NodeId NextCatchupPeer();
  // Timeout or bad batch: bump the attempt counter, rotate peers, back off
  // exponentially (with jitter), and abort the session if it keeps failing.
  void FailCatchupAttempt();
  void FinishCatchup();
  void AbortCatchup();
  void HandleCatchupRequest(const std::shared_ptr<const CatchupRequestMessage>& msg);
  void HandleCatchupResponse(const std::shared_ptr<const CatchupResponseMessage>& msg);
  // Validates and appends a response batch in round order. Returns false on
  // the first invalid entry (the whole batch is then charged to the peer).
  bool ApplyCatchupResponse(const CatchupResponseMessage& resp, uint64_t* applied);
  // Context for validating the certificate of `round` == ledger_.next_round().
  RoundContext CatchupContext(uint64_t round) const;

  // --- Checkpoints + certificate-chain fast-sync (DESIGN.md §13) ---
  // After a final round crosses a checkpoint-interval boundary, captures the
  // ledger state at the boundary round and hands it to the store (which
  // writes the sidecar off the protocol thread and compacts old segments).
  void MaybeCheckpoint();
  // Bootstraps a genesis-fresh node from a peer's checkpoint: manifest ->
  // cert-chain links -> payload chunks -> install -> normal catch-up for the
  // suffix. Any failure falls back to full catch-up from genesis.
  void StartFastSync(uint64_t target_round);
  NodeId NextFastSyncPeer();
  void SendFastSyncManifestRequest();
  void SendFastSyncLinksRequest();
  void SendFastSyncChunkRequest();
  // Arms the per-request timeout for the outstanding request `seq`.
  void ArmFastSyncTimeout(uint64_t seq);
  // Verifies one chain link continues the verified prefix: consecutive
  // round, certificate deserializes and names this round/hash, and every
  // vote's signature checks out and binds to the previous link's hash.
  bool VerifyFastSyncLink(const ChainLink& link) const;
  // Full payload received: re-derives and cross-checks manifest, tip block,
  // account fingerprint and seed window, installs into the ledger, persists
  // checkpoint + links + log prime to the store. False = peer served junk.
  bool InstallFastSyncCheckpoint();
  // Peer-scoped failure: rotate to another peer and restart the handshake,
  // or (after enough attempts) give up on fast-sync entirely.
  void FailFastSyncAttempt();
  // Session failure: abandon fast-sync and fall back to ordinary catch-up
  // from genesis.
  void FailFastSync();
  void FinishFastSync();
  void HandleFastSyncManifestRequest(const std::shared_ptr<const FastSyncManifestRequest>& msg);
  void HandleFastSyncManifestResponse(
      const std::shared_ptr<const FastSyncManifestResponse>& msg);
  void HandleFastSyncLinksRequest(const std::shared_ptr<const FastSyncLinksRequest>& msg);
  void HandleFastSyncLinksResponse(const std::shared_ptr<const FastSyncLinksResponse>& msg);
  void HandleFastSyncChunkRequest(const std::shared_ptr<const FastSyncChunkRequest>& msg);
  void HandleFastSyncChunkResponse(const std::shared_ptr<const FastSyncChunkResponse>& msg);

  // Verifies a vote's signature and sortition for the current round context;
  // returns the weighted vote count (0 = invalid). Uses the shared cache.
  uint64_t VerifyVote(const VoteMessage& vote, const RoundContext& ctx) const;
  uint64_t VerifyProposerSortition(const PublicKey& pk, const VrfOutput& sorthash,
                                   const VrfProof& proof, const RoundContext& ctx) const;

  // Validates a received block's contents (§8.1); on failure the block is
  // treated as garbage (never a candidate).
  bool ValidateBlockContents(const Block& block) const;

  void RememberFutureMessage(uint64_t round, const MessagePtr& msg);
  void ReplayBufferedMessages(uint64_t round);

  // --- Observability ---
  // Translates BaStar step transitions into tracer events and the
  // "ba.step_time_ms" histogram (shared by the normal and recovery machines).
  void ObserveBaStep(const BaStepEvent& event);
  // Records a trace event stamped with this node's id and current time; the
  // round defaults to the active one (recovery session code in recovery).
  void Trace(TraceKind kind, uint32_t step = 0, uint64_t a = 0, uint64_t b = 0,
             uint64_t value_prefix = 0, uint8_t flag = 0);
  // Observes the completed round's phase durations into the "ba.*"
  // histograms and bumps the round-outcome counters.
  void RecordRoundMetrics(const RoundRecord& rec);

  // --- Fork recovery (§8.2) ---
  // Periodic clock-driven check: enters recovery when the node is hung or
  // has fork evidence.
  void ScheduleRecoveryCheck();
  void EnterRecovery();
  // Joins a newer recovery session observed on the wire (a stuck node whose
  // retries drifted out of step with the majority adopts their session code).
  void MaybeJoinRecoverySession(uint64_t code);
  void MaybeProposeRecovery();
  void StartRecoveryAgreement();
  void OnRecoveryBaComplete(const BaResult& result);
  void HandleRecoveryProposal(const std::shared_ptr<const RecoveryProposalMessage>& msg);
  GossipVerdict ValidateRecoveryProposal(const RecoveryProposalMessage& msg);
  // The recovery session code all (loosely synchronized) nodes derive for
  // attempt `attempt` of the recovery window containing `now`.
  uint64_t RecoveryCode(uint32_t attempt) const;

  NodeId id_;
  Executor* sim_;
  GossipAgent* gossip_;
  Ed25519KeyPair key_;
  ProtocolParams params_;
  CryptoSuite crypto_;
  Ledger ledger_;

  // Observability (null when not attached). Instrument pointers are resolved
  // once in AttachObservability.
  MetricsRegistry* metrics_ = nullptr;
  RoundTracer* tracer_ = nullptr;
  struct Instruments {
    Counter* blocks_proposed = nullptr;
    Counter* blocks_validated = nullptr;
    Counter* votes_cast = nullptr;
    Counter* votes_counted = nullptr;
    Counter* rounds_completed = nullptr;
    Counter* rounds_final = nullptr;
    Counter* rounds_empty = nullptr;
    Counter* rounds_hung = nullptr;
    Counter* recoveries = nullptr;
    Counter* catchup_sessions = nullptr;
    Counter* catchup_requests = nullptr;
    Counter* catchup_served = nullptr;
    Counter* catchup_timeouts = nullptr;
    Counter* catchup_bad_batches = nullptr;
    Counter* catchup_blocks = nullptr;
    Counter* catchup_completed = nullptr;
    Counter* catchup_rotations = nullptr;
    Counter* catchup_aborted = nullptr;
    Counter* fastsync_sessions = nullptr;
    Counter* fastsync_completed = nullptr;
    Counter* fastsync_failed = nullptr;
    Counter* fastsync_links = nullptr;
    Counter* fastsync_bytes = nullptr;
    Counter* fastsync_served = nullptr;
    Counter* checkpoints_requested = nullptr;
    Histogram* step_time_ms = nullptr;
    Histogram* proposal_time_ms = nullptr;
    Histogram* reduction_time_ms = nullptr;
    Histogram* binary_time_ms = nullptr;
    Histogram* final_time_ms = nullptr;
    Histogram* round_time_ms = nullptr;
    Histogram* binary_steps = nullptr;
  };
  Instruments obs_;

  Phase phase_ = Phase::kIdle;
  uint64_t current_round_ = 0;
  RoundContext ctx_;
  Hash256 empty_hash_;
  Block empty_block_;
  std::unique_ptr<BaStar> ba_;
  // The previous round's machine is parked here for one round instead of
  // being destroyed inside its own completion callback.
  std::unique_ptr<BaStar> prev_ba_;
  BaResult ba_result_;
  bool hung_ = false;

  // Proposal-phase state for the current round.
  struct ProposalState {
    bool have_best = false;
    Hash256 best_priority;
    PublicKey best_pk;
    SimTime best_priority_at = 0;
    std::unordered_map<Hash256, SimTime, FixedBytesHasher> block_seen_at;
    std::unordered_map<Hash256, Block, FixedBytesHasher> blocks_by_hash;
    std::unordered_map<PublicKey, Hash256, FixedBytesHasher> block_hash_by_proposer;
    // Proposers caught equivocating this round (§10.4 optimization).
    std::unordered_set<PublicKey, FixedBytesHasher> banned_proposers;
  };
  ProposalState proposal_;
  // (DedupId, round, tip) of the block ValidateForRelay last accepted:
  // HandleBlock reuses that verdict, so a gossiped block is validated once.
  std::tuple<Hash256, uint64_t, Hash256> relay_validated_;

  // Verified votes stored for certificate assembly: (step, pk) -> message.
  std::map<std::pair<uint32_t, PublicKey>, VoteMessage> round_votes_;

  // Messages for rounds we have not reached yet.
  std::map<uint64_t, std::vector<MessagePtr>> future_messages_;

  // Transactions waiting for inclusion: deduped, nonce-sequenced,
  // fee-prioritized (ledger/mempool.h). Declared before applier_/ledger use
  // sites but after crypto_ so tx_verifier_ can borrow the suite's backends.
  Mempool mempool_;
  // Cache-aware batch signature verification for transactions.
  TxSigVerifier tx_verifier_;
  // Conflict-partitioned block apply; attached to ledger_ in the ctor.
  BlockApplier applier_;

  std::vector<RoundRecord> records_;
  std::map<uint64_t, Certificate> certificates_;
  std::map<uint64_t, Certificate> final_certificates_;
  uint32_t shard_count_ = 1;

  // Durable log (null = in-memory only). Owned by the harness/cluster.
  BlockStore* store_ = nullptr;

  ForkMonitor fork_monitor_;

  // Relay bookkeeping: one vote relayed per (round, step, pk) (§8.4). One
  // (step, pk) set per vote round; StartRound drops the finished rounds'.
  struct StepVoter {
    PublicKey pk;
    uint32_t step = 0;
    bool operator==(const StepVoter&) const = default;
    uint64_t prefix_u64() const { return pk.prefix_u64() ^ step; }  // FlatSet's hash.
  };
  std::map<uint64_t, FlatSet<StepVoter>> relayed_votes_;

  // Scheduling epoch: bumped on round changes and recovery transitions so
  // timers scheduled for a dead state never fire into it.
  uint64_t sched_epoch_ = 0;

  // Set by Halt(): the node is a parked zombie (crashed); every handler and
  // periodic check returns immediately.
  bool halted_ = false;

  // --- Live catch-up state (§8.3) ---
  struct CatchupState {
    bool active = false;
    uint64_t target_round = 0;      // Catch up through this round.
    uint64_t started_at_round = 0;  // Tip round when the session began.
    uint32_t attempt = 0;           // Consecutive failures; reset on progress.
    uint32_t empty_streak = 0;      // Consecutive empty answers; reset on progress.
    SimTime blocked_until = 0;      // Backoff gate for new requests.
    std::vector<NodeId> peers;      // Shuffled peer pool, rotated per request.
    size_t peer_cursor = 0;
    struct Pending {
      NodeId peer = 0;
      uint64_t seq = 0;
      uint32_t limit = 0;
    };
    std::map<uint64_t, Pending> inflight;  // from_round -> outstanding request.
    // Verified-later batches keyed by from_round, applied in chain order.
    std::map<uint64_t, std::shared_ptr<const CatchupResponseMessage>> ready;
  };
  CatchupState catchup_;
  // Bumped when a session starts/ends so timers for dead sessions no-op.
  uint64_t catchup_session_ = 0;
  // Request nonce; never reset, so responses to old sessions cannot alias.
  uint64_t catchup_seq_ = 0;
  uint64_t catchups_completed_ = 0;
  DeterministicRng catchup_rng_;

  // --- Fast-sync state (DESIGN.md §13) ---
  struct FastSyncState {
    bool active = false;
    enum class Stage : uint8_t { kManifest, kLinks, kChunks };
    Stage stage = Stage::kManifest;
    NodeId peer = 0;      // The one peer this attempt talks to.
    uint64_t seq = 0;     // Nonce of the single outstanding request.
    uint64_t target_round = 0;  // Gossip-evidence round; post-install catch-up target.
    uint32_t attempt = 0;       // Peers tried this session.
    CheckpointManifest manifest;
    uint64_t payload_bytes = 0;
    uint64_t next_link = 1;  // Next chain-link round to verify.
    Hash256 prev_hash;       // Verified hash of round next_link - 1.
    std::vector<ChainLink> links;   // Verified links 1..next_link-1.
    std::vector<uint8_t> payload;   // Checkpoint payload prefix received.
  };
  FastSyncState fastsync_;
  uint64_t fastsync_session_ = 0;
  uint64_t fastsync_seq_ = 0;
  uint64_t fastsyncs_completed_ = 0;
  // Hash of the round-0 block, pinned at construction: a compacted ledger
  // can no longer serve genesis(), but checkpoints must bind to it.
  Hash256 genesis_hash_;
  // Highest round this node asked the store to checkpoint (or adopted).
  uint64_t last_checkpoint_round_ = 0;

  // Recovery state (§8.2).
  bool in_recovery_ = false;
  uint64_t recovery_code_ = 0;
  uint32_t recovery_attempt_ = 0;
  uint64_t recovery_window_ = 0;  // Pinned at session entry; retries keep it.
  uint64_t recoveries_completed_ = 0;
  uint64_t recovery_final_round_ = 0;  // Last common final round f.
  RoundContext recovery_ctx_;
  AccountTable recovery_accounts_;  // Weights as of round f.
  Block recovery_empty_;            // Fallback: empty block extending round f.
  Hash256 recovery_empty_hash_;
  std::unique_ptr<BaStar> recovery_ba_;
  std::unique_ptr<BaStar> prev_recovery_ba_;
  struct RecoveryCandidate {
    Block block;
    std::vector<Block> suffix;
    Hash256 priority;
  };
  std::unordered_map<Hash256, RecoveryCandidate, FixedBytesHasher> recovery_candidates_;
  bool have_best_recovery_ = false;
  Hash256 best_recovery_priority_;
  Hash256 best_recovery_hash_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_NODE_H_
