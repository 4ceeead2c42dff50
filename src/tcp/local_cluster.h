// LocalCluster: a whole Algorand network over real TCP sockets on localhost,
// driven by one single-threaded event loop. The deployment-shaped counterpart
// of SimHarness: same Node code, same gossip relay logic, but kernel sockets,
// wire-serialized messages, and wall-clock timers.
#ifndef ALGORAND_SRC_TCP_LOCAL_CLUSTER_H_
#define ALGORAND_SRC_TCP_LOCAL_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/common/verify_pool.h"
#include "src/core/node.h"
#include "src/core/verification_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/round_tracer.h"
#include "src/store/block_store.h"
#include "src/tcp/tcp_transport.h"

namespace algorand {

struct LocalClusterConfig {
  size_t n_nodes = 8;
  uint64_t stake_per_user = 1000;
  uint64_t rng_seed = 1;
  size_t gossip_out_degree = 3;
  ProtocolParams params;  // Caller should scale lambdas to real-time budgets.
  bool use_sim_crypto = false;
  // Batch signature-check worker threads (see HarnessConfig::verify_workers):
  // 0 = verify every block inline on the event-loop thread; -1 (default)
  // reads the ALGORAND_VERIFY_WORKERS environment variable, else 0.
  int verify_workers = -1;
  // When a gossip connection drops (peer crash, socket error), redial with
  // exponential backoff instead of staying disconnected.
  bool enable_reconnect = false;
  // Durable storage: when non-empty, node i keeps a BlockStore at
  // <data_dir>/node-<i>. KillNode Crash()es the store and RestartNode
  // reopens it from disk (Node::RestoreFromStore). Without a data_dir a node
  // has no durable state and every restart is a genesis-fresh join.
  std::string data_dir;
  FsyncPolicy store_fsync = FsyncPolicy::kBatched;
  bool store_background_writer = true;
};

class LocalCluster {
 public:
  explicit LocalCluster(const LocalClusterConfig& config);

  // Starts every node at the current wall time.
  void Start();

  // Runs the event loop until every node completed `rounds` rounds or
  // `wall_budget` elapses. Returns whether the target was reached.
  bool RunRounds(uint64_t rounds, SimTime wall_budget);

  EventLoop& loop() { return loop_; }
  Node& node(size_t i) { return *nodes_[i]; }
  size_t node_count() const { return nodes_.size(); }
  const TcpEndpoint& endpoint(size_t i) const { return *endpoints_[i]; }
  const GenesisBundle& genesis() const { return genesis_; }
  const SignerBackend& signer() const { return *signer_; }

  // True if every pair of nodes agrees on all common rounds.
  bool ChainsConsistent() const;

  // Fault injection: KillNode crashes the node's store (SIGKILL semantics),
  // halts the node and tears down its sockets (peers see EOF and begin
  // reconnect-with-backoff). RestartNode rebinds the same port, rebuilds
  // endpoint/agent/node — replaying the disk log, or genesis-fresh when
  // `keep_disk` is false (the directory is wiped) or there is no data_dir —
  // and starts it; catch-up brings it to the live tip.
  void KillNode(size_t i);
  void RestartNode(size_t i, bool keep_disk = true);
  bool node_alive(size_t i) const { return alive_[i]; }

  // Node i's durable store; null when config.data_dir is empty or the node
  // is currently crashed.
  BlockStore* node_store(size_t i) const { return stores_[i].get(); }

  // Observability: per-node registries (endpoint + gossip + node) merged with
  // the cluster-wide registry (verification cache) into one snapshot. All
  // nodes share one RoundTracer.
  MetricsRegistry& node_metrics(size_t i) { return *metrics_[i]; }
  RoundTracer& tracer() { return tracer_; }
  MetricsSnapshot AggregateMetrics() const;

 private:
  // Wires slot `i` around the already-bound endpoints_[i]: address book,
  // metrics, reconnect policy, a fresh agent + node (open store →
  // RestoreFromStore → AttachObservability), and the receiver chain.
  // Initial construction and RestartNode share this.
  void WireSlot(size_t i);
  std::string NodeDir(size_t i) const;

  LocalClusterConfig config_;
  GenesisBundle genesis_;
  EventLoop loop_;
  std::unique_ptr<GossipTopology> topology_;
  std::vector<std::unique_ptr<TcpEndpoint>> endpoints_;
  // Declared before agents_: an agent folds its last counts into its
  // registry when destroyed.
  std::vector<std::unique_ptr<MetricsRegistry>> metrics_;
  MetricsRegistry cluster_metrics_;
  std::vector<std::unique_ptr<GossipAgent>> agents_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<NodeId, uint16_t> address_book_;
  // Crash/restart bookkeeping: halted nodes (and their agents) are parked,
  // not destroyed — event-loop timers may still hold their raw pointers.
  std::vector<bool> alive_;
  std::vector<std::unique_ptr<Node>> node_graveyard_;
  std::vector<std::unique_ptr<GossipAgent>> agent_graveyard_;
  EcVrf ec_vrf_;
  SimVrf sim_vrf_;
  Ed25519Signer ed_signer_;
  SimSigner sim_signer_;
  const VrfBackend* vrf_ = nullptr;
  const SignerBackend* signer_ = nullptr;
  VerificationCache cache_;
  // After cache_: workers join before the cache (or backends) go away.
  std::unique_ptr<VerifyPool> pool_;
  RoundTracer tracer_;
  // Per-node durable stores (empty when data_dir is unset). Crashed stores
  // park in the graveyard: the halted node still points at its inert store.
  // Declared after metrics_: writer threads hold cached Counter pointers, so
  // stores must be destroyed (writers joined) before the registries.
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<BlockStore>> store_graveyard_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_TCP_LOCAL_CLUSTER_H_
