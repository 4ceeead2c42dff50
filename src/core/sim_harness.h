// SimHarness: assembles a complete Algorand deployment inside the
// discrete-event simulator — keys and genesis, latency/bandwidth models,
// gossip topology, honest and adversarial nodes — runs rounds, and checks the
// paper's safety goal across nodes. All integration tests, benchmarks and
// examples build on this.
#ifndef ALGORAND_SRC_CORE_SIM_HARNESS_H_
#define ALGORAND_SRC_CORE_SIM_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/verify_pool.h"
#include "src/core/adversary_nodes.h"
#include "src/core/node.h"
#include "src/netsim/latency.h"
#include "src/obs/metrics.h"
#include "src/obs/round_tracer.h"
#include "src/store/block_store.h"

namespace algorand {

struct HarnessConfig {
  size_t n_nodes = 50;
  uint64_t stake_per_user = 1000;
  // Optional per-user stake override (index -> stake); when set,
  // stake_per_user is ignored.
  std::function<uint64_t(size_t)> stake_of;
  // Look-back rounds for sortition weights (§5.3); 0 = current balances.
  uint64_t weight_lookback_rounds = 0;
  uint64_t rng_seed = 1;
  ProtocolParams params = ProtocolParams::ScaledCommittees(0.02);  // tau_step 40.

  // Network.
  size_t gossip_out_degree = 4;
  NetworkConfig net;
  enum class Latency { kUniform, kCity } latency = Latency::kCity;
  SimTime uniform_latency = Millis(50);
  SimTime uniform_jitter = Millis(20);

  // Crypto: real Ed25519 + ECVRF by default; the Sim backends reproduce the
  // paper's replace-crypto-with-sleeps methodology for very large runs.
  bool use_sim_crypto = false;

  // Event-loop shard workers (conservative-lookahead engine, see
  // simulation.h). Any N produces identical results to N = 1: the per-stream
  // event keys make runs a pure function of (seed, scenario). 1 runs the
  // single shard inline; 0 is treated as 1.
  size_t sim_workers = 1;

  // Aggregate-user modeling (§10.1's 500k-user methodology): every node
  // hosts this many users' stake behind one gossip endpoint. Sub-user
  // sortition is Binomial over total weight, so one node holding K users'
  // stake draws committee seats statistically identically to K separate
  // users — that is UserGroupNode. Genesis allocations are scaled by this
  // factor; total users = n_nodes * users_per_group.
  size_t users_per_group = 1;

  // Batch signature checks: worker threads across which a node's block
  // validation fans out the payments its mempool does not hold, waiting for
  // all of them (TxSigVerifier::VerifyBatch). 0 = single-threaded (the tier-1
  // test configuration); workers change wall-clock speed, never a protocol
  // decision, and cache counts only for a block with a bad signature (the
  // fan-out may check a few payments past it). -1 (default) reads the
  // ALGORAND_VERIFY_WORKERS environment variable, else 0 — the hook CI uses
  // to run the whole suite threaded under TSan.
  int verify_workers = -1;

  // Block-apply pipeline: worker threads for the conflict-partitioned
  // parallel apply (ledger/exec.h). Same contract as verify_workers: 0 =
  // sequential (the tier-1 configuration), any N commits bit-identical state,
  // -1 (default) reads the ALGORAND_EXEC_WORKERS environment variable.
  int exec_workers = -1;

  // Synthetic transaction load. `tx_clients` funded signing accounts
  // (`client_stake` each) and `filler_accounts` key-less accounts of stake 1
  // are appended to genesis after the node allocations — fillers inflate the
  // account table to millions of entries without the keypair cost, clients
  // carry the payment traffic. When tx_load_per_round > 0 the harness
  // injects that many signed client-to-client payments each time the honest
  // chain advances a round (plus one batch before the first round), nonces
  // tracked per client. Fees cycle over 1..tx_fee_levels *per client* —
  // monotone within a sender, so eviction can never open a nonce gap — which
  // exercises the mempool's fee-priority ordering across senders.
  size_t tx_clients = 0;
  uint64_t client_stake = 1'000'000;
  size_t filler_accounts = 0;
  size_t tx_load_per_round = 0;
  uint64_t tx_fee_levels = 8;

  // Adversary: the first floor(n * malicious_fraction) node ids run the
  // equivocation attack of §10.4 (their stake is the malicious stake, since
  // stakes are equal).
  double malicious_fraction = 0.0;

  // Seed-grinding adversaries (§5.2): the `grinding_count` node ids after the
  // equivocators run GrindingProposerNode, each grinding `grind_candidates`
  // payload variants per selected round and (when `grind_withhold` is set)
  // withholding its proposal whenever the empty-block fallback seed scores
  // better for its own next-round sortition.
  size_t grinding_count = 0;
  size_t grind_candidates = 8;
  bool grind_withhold = false;

  // Durable storage: when data_dir is non-empty every node opens a
  // BlockStore at <data_dir>/node-<i> and streams its committed rounds
  // there. KillNode then Crash()es the store (queued writes are lost, like a
  // SIGKILL) and RestartNode rebuilds the node by replaying the on-disk log
  // (Node::RestoreFromStore). A dir that already holds a log is replayed at
  // construction (process-level restarts). The store is a node's only
  // durable state: without a data_dir every restart is a genesis-fresh join.
  std::string data_dir;
  FsyncPolicy store_fsync = FsyncPolicy::kBatched;
  // false = synchronous writes on the protocol thread (deterministic I/O
  // interleaving for tests); true = background writer thread.
  bool store_background_writer = true;

  // Fault injection: declarative crash/restart schedule, applied at Start().
  // A crashed node stops processing and receiving; at restart_at it comes
  // back by replaying its disk log (or empty, when there is no data_dir or
  // the disk is lost) and catches up to the live chain via the peer
  // catch-up protocol.
  struct CrashEvent {
    size_t node = 0;
    SimTime crash_at = 0;
    SimTime restart_at = 0;  // 0 (or <= crash_at) = never restarts.
    bool keep_disk = true;   // false = wipe the node's data dir, rejoin fresh.
  };
  std::vector<CrashEvent> crash_schedule;

  // Override to build custom node types; return nullptr to get the default
  // behaviour for that id.
  using NodeFactory = std::function<std::unique_ptr<Node>(
      NodeId, Simulation*, GossipAgent*, const Ed25519KeyPair&, const GenesisConfig&,
      const ProtocolParams&, CryptoSuite, AdversaryCoordinator*)>;
  NodeFactory node_factory;
};

class SimHarness {
 public:
  explicit SimHarness(HarnessConfig config);
  ~SimHarness();

  // Starts every node at the current simulation time.
  void Start();

  // Runs until every honest node finished `rounds` rounds. Returns false if
  // the simulated deadline passed or the event queue drained first.
  bool RunRounds(uint64_t rounds, SimTime deadline = Hours(24));

  Simulation& sim() { return *sim_; }
  Network& network() { return *network_; }
  Node& node(size_t i) { return *nodes_[i]; }
  size_t node_count() const { return nodes_.size(); }
  // Simulated users, counting aggregation: node_count() * users_per_group.
  uint64_t total_users() const {
    return static_cast<uint64_t>(nodes_.size()) *
           static_cast<uint64_t>(config_.users_per_group);
  }
  bool is_malicious(size_t i) const { return i < malicious_count_; }
  size_t malicious_count() const { return malicious_count_; }
  const GenesisBundle& genesis() const { return genesis_; }
  VerificationCache& cache() { return cache_; }
  // The verification worker pool; null when running single-threaded.
  VerifyPool* verify_pool() { return pool_.get(); }
  AdversaryCoordinator& coordinator() { return coordinator_; }
  const VrfBackend& vrf() const { return *vrf_; }
  const SignerBackend& signer() const { return *signer_; }
  NetworkAdversary* network_adversary() const { return net_adversary_.get(); }
  void SetNetworkAdversary(std::unique_ptr<NetworkAdversary> adversary);

  // Observability. Each node owns a private MetricsRegistry (lock-free hot
  // path, no cross-node contention); AggregateMetrics() merges them with the
  // harness-wide registry (verification cache, sim/network totals) into one
  // deployment-level snapshot. All nodes share one RoundTracer — trace events
  // carry the node id.
  MetricsRegistry& node_metrics(size_t i) { return *metrics_[i]; }
  MetricsRegistry& global_metrics() { return global_metrics_; }
  RoundTracer& tracer() { return tracer_; }
  MetricsSnapshot AggregateMetrics() const;

  // Per-honest-node completion time (seconds) of `round`, for nodes that
  // finished it.
  std::vector<double> RoundLatencies(uint64_t round) const;

  // Seconds spent by honest nodes in each phase of `round` (Figure 7's
  // decomposition): block proposal, BA* without the final step, final step.
  struct PhaseBreakdown {
    double proposal = 0;
    double ba_without_final = 0;
    double final_step = 0;
  };
  PhaseBreakdown MeanPhaseBreakdown(uint64_t first_round, uint64_t last_round) const;

  // The paper's safety goal (§3): if any honest node reached *final*
  // consensus on a block in round r, every honest node's round-r block
  // matches it.
  struct SafetyReport {
    bool ok = true;
    std::string violation;
  };
  SafetyReport CheckSafety() const;

  // True if all honest nodes' chains agree on every common round (stronger
  // than safety; holds under strong synchrony).
  bool ChainsConsistent() const;

  // Submits a signed payment from node `from_idx` to node `to_idx` at every
  // node's pool (clients gossip transactions network-wide).
  Transaction SubmitPayment(size_t from_idx, size_t to_idx, uint64_t amount, uint64_t nonce);

  // The synthetic-load client keys (empty unless config.tx_clients > 0).
  const std::vector<Ed25519KeyPair>& client_keys() const { return client_keys_; }

  // Injects one round's worth of client payments (config.tx_load_per_round
  // transactions) into every live node's mempool. Called automatically by the
  // load probe; exposed for tests that drive load manually.
  void InjectTxLoad();

  // Transactions committed on node `i`'s chain (sum over its blocks).
  uint64_t CommittedTxCount(size_t i = 0) const;

  // Fault injection (usable directly or via config.crash_schedule).
  // KillNode crashes the node's store (SIGKILL semantics), halts the node and
  // stops delivering to it. RestartNode builds node i again exactly as the
  // deployment did (node_factory, adversary type, user group), replays its
  // disk log — unless `keep_disk` is false, which wipes the directory first —
  // and starts it; the catch-up protocol brings it to the live tip. Without
  // a data_dir the restarted node starts from genesis.
  void KillNode(size_t i);
  void RestartNode(size_t i, bool keep_disk = true);
  bool node_alive(size_t i) const { return alive_[i]; }

  // Node i's durable store; null when config.data_dir is empty (or the node
  // is currently crashed — its store object is parked, inert).
  BlockStore* node_store(size_t i) const { return stores_[i].get(); }

 private:
  // Node i as the deployment shape configures it: node_factory first, then
  // equivocator, grinder, user group or plain honest node by id.
  std::unique_ptr<Node> MakeNode(size_t i);
  // The one bring-up sequence for construction and restarts: MakeNode, open
  // node i's store (when data_dir is set), RestoreFromStore, then
  // AttachObservability — so replayed rounds are not counted as live work.
  // Installs the node in nodes_[i]; returns true if it replayed any round.
  bool BringUpNode(size_t i);
  std::string NodeDir(size_t i) const;
  // The synthetic-load probe: tops the mempools up once per round the honest
  // chain advanced, then reschedules itself a second later.
  void TxLoadProbe();
  HarnessConfig config_;
  DeterministicRng rng_;
  GenesisBundle genesis_;
  // Constructed in the ctor body: the engine's lookahead is send_overhead +
  // the latency model's floor.
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<GossipTopology> topology_;
  // Declared before agents_: an agent folds its last counts into its
  // registry when destroyed.
  std::vector<std::unique_ptr<MetricsRegistry>> metrics_;
  MetricsRegistry global_metrics_;
  std::vector<std::unique_ptr<GossipAgent>> agents_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Crash/restart bookkeeping. Halted nodes move to the graveyard instead of
  // being destroyed: the simulator's event queue may still hold lambdas that
  // capture their raw `this`.
  std::vector<bool> alive_;
  std::vector<std::unique_ptr<Node>> graveyard_;
  std::unique_ptr<NetworkAdversary> net_adversary_;
  RoundTracer tracer_;
  // Per-node durable stores (empty unique_ptrs when data_dir is unset).
  // Crashed stores are parked like crashed nodes: the graveyarded node still
  // holds a raw pointer to its (inert) store. Declared after metrics_: the
  // background writer threads hold cached Counter pointers, so the stores
  // must be destroyed (writers joined) before the registries go away.
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<BlockStore>> store_graveyard_;

  EcVrf ec_vrf_;
  SimVrf sim_vrf_;
  Ed25519Signer ed_signer_;
  SimSigner sim_signer_;
  const VrfBackend* vrf_ = nullptr;
  const SignerBackend* signer_ = nullptr;
  VerificationCache cache_;
  // Declared after cache_ (and the crypto backends) so workers are joined
  // before anything they touch is destroyed.
  std::unique_ptr<VerifyPool> pool_;
  // Separate pool for block-apply partitions, sized by exec_workers: the two
  // fan-outs are configured (and measured) independently.
  std::unique_ptr<VerifyPool> exec_pool_;
  AdversaryCoordinator coordinator_;
  size_t malicious_count_ = 0;
  uint64_t probe_generation_ = 0;

  // Synthetic-load state (see HarnessConfig::tx_load_per_round).
  std::vector<Ed25519KeyPair> client_keys_;
  std::vector<uint64_t> client_nonces_;
  uint64_t tx_counter_ = 0;
  uint64_t last_loaded_round_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_SIM_HARNESS_H_
