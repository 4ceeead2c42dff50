// The Algorand node: ties block proposal (§6), BA* (§7), the ledger (§8.1),
// certificates (§8.3) and the gossip relay rules (§8.4) into the per-user
// state machine the paper evaluates.
//
// Node = agreement + one SyncSession + one RecoverySession. The node runs
// proposal (its ProposalBook keeps §6's state), BA* and checkpointing itself,
// and checks and handles each received message in one pass (Receive).
// Catching up with the network — certificate-chain fast-sync and block
// catch-up (§8.3) — is the SyncSession's (catchup.h); fork recovery (§8.2) is
// the RecoverySession's (recovery.h). Each reaches the node only through its
// host interface. Chain rounds and recovery sessions share one BA* slot: one
// machine is active at a time, and it votes in the context the slot points at.
//
// One Node instance is one "user" of the paper's experiments. Nodes interact
// only through the gossip network; every run is deterministic given the
// simulation seed. Adversarial behaviours are subclasses that override the
// protected virtual hooks (propose/vote), so the honest logic stays in one
// place.
#ifndef ALGORAND_SRC_CORE_NODE_H_
#define ALGORAND_SRC_CORE_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/flat_set.h"
#include "src/core/ba_star.h"
#include "src/core/catchup.h"
#include "src/core/certificate.h"
#include "src/core/context.h"
#include "src/core/fork_monitor.h"
#include "src/core/params.h"
#include "src/core/proposal_book.h"
#include "src/core/recovery.h"
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

namespace algorand {

class VerifyPool;

// Crypto backends shared by all nodes of a simulation.
struct CryptoSuite {
  const VrfBackend* vrf = nullptr;
  const SignerBackend* signer = nullptr;
  VerificationCache* cache = nullptr;  // Optional.
  // Optional worker pool for batch signature checks: TxSigVerifier::
  // VerifyBatch fans a block's payments not held in the mempool out across
  // these threads and waits for them.
  VerifyPool* pool = nullptr;
  // Optional worker pool for the block-apply pipeline (ledger/exec.h):
  // conflict partitions of a committed block apply across these threads.
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

class Node : public BaEnvironment, private SyncHost, private RecoveryHost {
 public:
  Node(NodeId id, Executor* sim, GossipAgent* gossip, const Ed25519KeyPair& key,
       const GenesisConfig& genesis, const ProtocolParams& params, CryptoSuite crypto);
  ~Node() override;

  // Begins round 1 at the current simulation time.
  void Start();

  // Routes this node's per-round instrumentation through `metrics` ("node.*"
  // counters, "ba.*" timing histograms, the "accounts.table_bytes" and
  // "ba.tally_bytes" gauges folded at snapshot time) and structured BA*
  // events through `tracer`.
  // Either may be null; `metrics` must outlive the node. Call before Start();
  // instrument pointers are resolved once here so the per-event path never
  // takes the registry lock.
  void AttachObservability(MetricsRegistry* metrics, RoundTracer* tracer);

  // Adds a payment to the pending pool (§4, Figure 1).
  void SubmitTransaction(const Transaction& tx);

  // Gossips a payment network-wide, the way a client attached to this node
  // would (Figure 1); its own delivery submits it here.
  void GossipTransaction(const Transaction& tx);

  const Ledger& ledger() const { return ledger_; }
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
  bool hung() const { return hung_; }
  bool in_recovery() const { return recovery_.active(); }
  uint64_t recoveries_completed() const { return recovery_.recoveries_completed(); }
  uint64_t current_round() const { return current_round_; }
  size_t pending_txn_count() const { return mempool_.size(); }
  // Vote rounds (including recovery sessions) the §8.4 relay table holds.
  size_t relay_table_rounds() const { return relayed_votes_.size(); }
  // Heap bytes of the BA* tallies: the active machine's plus the parked
  // one's (which releases its tallies when parked, so adds 0). The
  // "ba.tally_bytes" gauge.
  size_t TallyBytes() const {
    return (ba_ ? ba_->TallyBytes() : 0) + (prev_ba_ ? prev_ba_->TallyBytes() : 0);
  }
  const Mempool& mempool() const { return mempool_; }
  // Syncing with the network: fast-sync or block catch-up.
  bool in_catchup() const { return sync_.active(); }
  uint64_t catchups_completed() const { return sync_.catchups_completed(); }
  uint64_t fastsyncs_completed() const { return sync_.fastsyncs_completed(); }
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

  // --- Crash/restart (fault injection) ---
  // Permanently stops this node: kills all pending timers via the scheduling
  // epoch and makes every handler a no-op. Used by the harness to park a
  // "crashed" node whose callbacks may still sit in the event queue.
  void Halt();

  // Serves block/certificate history to catching-up peers (§8.3). When
  // sharding is configured (shard_count > 1) a node keeps certificates, both
  // deciding and final, in memory only for rounds where
  // round % shard_count == id % shard_count; the log keeps every one.
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
  std::shared_ptr<CatchupResponseMessage> BuildCatchupResponse(
      const CatchupRequestMessage& req) const override;

  // Shared helpers for subclasses.
  void GossipMessage(const MessagePtr& msg) { gossip_->Gossip(msg); }
  RoundContext MakeContext() const { return ContextAt(ledger_, params_, current_round_); }
  GossipAgent* gossip() { return gossip_; }
  Executor* sim() { return sim_; }
  const CryptoSuite& crypto() const { return crypto_; }
  const Hash256& empty_hash() const { return empty_hash_; }
  uint64_t SelfWeight() const { return ledger_.WeightOf(key_.public_key); }

 private:
  enum class Phase {
    kIdle,
    kWaitPriority,
    kWaitBlock,
    kAgreement,
    kFetchBlock,
    kCatchup,
  };

  void StartRound(uint64_t round) override;
  void OnPriorityWindowClosed();
  void OnBlockWindowClosed(uint64_t round);
  // Ends the round's proposal phase: BA* starts on `candidate`.
  void StartAgreement(const Hash256& candidate);
  void OnBaComplete(const BaResult& result);
  void TryFinishRound();
  void AppendAgreedBlock(const Block& block);
  // Gathers the votes `step`'s tally counted for the agreed value, in arrival
  // order, until their weight exceeds `threshold`.
  Certificate BuildCertificateForStep(uint32_t step, double threshold) const;
  // Streams ledger round `round`, with its consensus kind, to the attached
  // store, if any. Null certificates mean "none recorded".
  void StreamRoundToStore(uint64_t round, const Certificate* cert, const Certificate* final_cert);

  // The gossip agent's receiver: checks `msg` once, computes its relay
  // verdict before it changes any state, and handles it. A message from this
  // node itself (own gossip, replayed traffic) writes no §8.4 relay table.
  GossipVerdict Receive(NodeId from, const MessagePtr& msg);
  GossipVerdict ReceiveVote(NodeId from, const std::shared_ptr<const VoteMessage>& vote);
  GossipVerdict ReceivePriority(const std::shared_ptr<const PriorityMessage>& msg);
  GossipVerdict ReceiveBlock(const std::shared_ptr<const BlockMessage>& msg);
  void HandleBlockRequest(const BlockRequestMessage& msg);
  // A vote, priority or block of another chain round: a future one waits in
  // the buffer (a hint that this node lags), a stale one is rejected.
  GossipVerdict NotCurrent(uint64_t round, const MessagePtr& msg);

  // --- SyncHost: how the sync session reaches this node ---
  void SendTo(NodeId peer, const MessagePtr& msg) override { gossip_->SendTo(peer, msg); }
  size_t NetworkSize() const override { return gossip_->network_size(); }
  const std::vector<NodeId>& Neighbors() const override { return gossip_->neighbors(); }
  void ScheduleSyncTimer(SimTime delay, std::function<void()> fn) override {
    sim_->Schedule(delay, std::move(fn));
  }
  void LeaveRound() override;
  void Synced() override;
  void CommitSyncedRound(const Block& block, const Certificate& cert) override;
  void CommitFinalCertificate(const Certificate& final_cert) override;
  bool InstallCheckpoint(VerifiedCheckpoint checkpoint, std::vector<uint8_t> payload,
                         const std::vector<ChainLink>& links) override;
  void TraceSync(TraceKind kind, uint32_t step, uint64_t a, uint64_t b) override {
    Trace(kind, step, a, b);
  }
  // Whether this node's certificate shard holds `round` (see
  // ConfigureCertificateSharding); applies to both certificate maps.
  bool KeepsCertificate(uint64_t round) const {
    return shard_count_ <= 1 || round % shard_count_ == id_ % shard_count_;
  }

  // --- RecoveryHost: how the recovery session reaches this node ---
  void ScheduleRecoveryCheck(SimTime at, std::function<void()> fn) override {
    sim_->ScheduleAt(at, [this, fn = std::move(fn)] {
      if (!halted_) {  // A crashed node must stop rescheduling itself.
        fn();
      }
    });
  }
  bool NeedsRecovery() const override { return hung_ || fork_monitor_.ForkSuspected(); }
  bool Syncing() const override { return sync_.active(); }
  void Gossip(const MessagePtr& msg) override { GossipMessage(msg); }
  void BeginAgreement(const RoundContext& ctx, BaStar::CompletionHandler done) override;
  void StartAgreement(const Hash256& candidate, const Hash256& empty) override {
    ba_->Start(candidate, empty);
  }
  void Recovered(uint64_t first_replaced_round) override;
  void TraceRecovery(TraceKind kind, uint64_t a, uint64_t b) override { Trace(kind, 0, a, b); }

  // --- Checkpoints (DESIGN.md §13) ---
  // After a final round crosses a checkpoint-interval boundary, captures the
  // ledger state at the boundary round and hands it to the store (which
  // writes the sidecar off the protocol thread and compacts old segments).
  void MaybeCheckpoint() override;

  // Verifies a vote's signature and sortition in `ctx` (a chain round's or a
  // recovery session's); returns the weighted vote count (0 = invalid). Uses
  // the shared cache.
  uint64_t VerifyVote(const VoteMessage& vote, const RoundContext& ctx) const;
  uint64_t VerifyProposerSortition(const PublicKey& pk, const VrfOutput& sorthash,
                                   const VrfProof& proof, const RoundContext& ctx) const;

  // Validates a received block's contents (§8.1) and returns its proposer's
  // sortition weight; 0 = invalid, and the block is treated as garbage
  // (never a candidate).
  uint64_t ValidateBlockContents(const Block& block) const;

  void RememberFutureMessage(uint64_t round, const MessagePtr& msg);
  void ReplayBufferedMessages(uint64_t round);

  // --- Observability ---
  // Translates BaStar step transitions into tracer events and the
  // "ba.step_time_ms" histogram (for chain rounds and recovery sessions).
  void ObserveBaStep(const BaStepEvent& event);
  // Records a trace event stamped with this node's id, the current time and
  // the active machine's round (the session code during recovery).
  void Trace(TraceKind kind, uint32_t step = 0, uint64_t a = 0, uint64_t b = 0,
             uint64_t value_prefix = 0, uint8_t flag = 0);
  // Observes the completed round's phase durations into the "ba.*"
  // histograms and bumps the round-outcome counters.
  void RecordRoundMetrics(const RoundRecord& rec);

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
  MetricsRegistry::CollectorId collector_ = 0;
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
  // The one BA* slot: the active machine — the chain round's, or a recovery
  // session's — and the context it votes in (ctx_ or the session's).
  std::unique_ptr<BaStar> ba_;
  const RoundContext* vote_ctx_ = &ctx_;
  // The previous machine is parked here until the next one begins instead of
  // being destroyed inside its own completion callback. Parking releases its
  // tallies: only the parked machine's frames still on the stack can read
  // it, and none of them reads a tally.
  std::unique_ptr<BaStar> prev_ba_;
  BaResult ba_result_;
  bool hung_ = false;

  // The current round's proposals (§6).
  ProposalBook book_;

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

  // Scheduling epoch: bumped whenever the BA* slot gets a new machine and
  // when the node leaves agreement, so timers scheduled for a dead state
  // never fire into it.
  uint64_t sched_epoch_ = 0;

  // Set by Halt(): the node is a parked zombie (crashed); every handler and
  // periodic check returns immediately.
  bool halted_ = false;

  // Fast-sync and block catch-up (§8.3): the node's one sync session.
  SyncSession sync_;
  // Hash of the round-0 block, pinned at construction: a compacted ledger
  // can no longer serve genesis(), but checkpoints must bind to it.
  Hash256 genesis_hash_;
  // Highest round this node asked the store to checkpoint (or adopted).
  uint64_t last_checkpoint_round_ = 0;

  // Fork recovery (§8.2): the node's one recovery session.
  RecoverySession recovery_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_NODE_H_
