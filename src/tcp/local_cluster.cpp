#include "src/tcp/local_cluster.h"

#include <cstdio>
#include <filesystem>

namespace algorand {

LocalCluster::LocalCluster(const LocalClusterConfig& config)
    : config_(config),
      genesis_(MakeTestGenesis(config.n_nodes, config.stake_per_user, config.rng_seed)) {
  vrf_ = config_.use_sim_crypto ? static_cast<const VrfBackend*>(&sim_vrf_) : &ec_vrf_;
  signer_ =
      config_.use_sim_crypto ? static_cast<const SignerBackend*>(&sim_signer_) : &ed_signer_;

  DeterministicRng topo_rng(config_.rng_seed, "tcp-topology");
  topology_ = std::make_unique<GossipTopology>(config_.n_nodes, config_.gossip_out_degree,
                                               &topo_rng);

  // Bind every endpoint on an ephemeral port, then distribute the address
  // book (the paper's per-user IP/port file, §9).
  for (NodeId i = 0; i < config_.n_nodes; ++i) {
    endpoints_.push_back(std::make_unique<TcpEndpoint>(&loop_, i, /*listen_port=*/0));
    address_book_[i] = endpoints_.back()->port();
  }
  cache_.AttachMetrics(&cluster_metrics_);
  tracer_.AttachMetrics(&cluster_metrics_);
  const size_t workers = ResolveVerifyWorkers(config_.verify_workers);
  if (workers > 0) {
    pool_ = std::make_unique<VerifyPool>(workers);
    pool_->AttachMetrics(&cluster_metrics_);
  }
  agents_.resize(config_.n_nodes);
  nodes_.resize(config_.n_nodes);
  alive_.assign(config_.n_nodes, true);
  stores_.resize(config_.n_nodes);
  for (NodeId i = 0; i < config_.n_nodes; ++i) {
    metrics_.push_back(std::make_unique<MetricsRegistry>());
  }
  for (NodeId i = 0; i < config_.n_nodes; ++i) {
    WireSlot(i);
  }
  // Dial out-peers up front so the first round's gossip flows immediately.
  for (NodeId i = 0; i < config_.n_nodes; ++i) {
    endpoints_[i]->ConnectToPeers(topology_->neighbors(i));
  }
}

void LocalCluster::WireSlot(size_t i) {
  NodeId id = static_cast<NodeId>(i);
  endpoints_[i]->SetAddressBook(address_book_);
  endpoints_[i]->AttachMetrics(metrics_[i].get());
  if (config_.enable_reconnect) {
    endpoints_[i]->EnableReconnect(topology_->neighbors(id));
  }
  agents_[i] = std::make_unique<GossipAgent>(id, endpoints_[i].get(), topology_.get());
  agents_[i]->AttachMetrics(metrics_[i].get());
  agents_[i]->set_clock(&loop_);
  CryptoSuite crypto{vrf_, signer_, &cache_, pool_.get()};
  nodes_[i] = std::make_unique<Node>(id, &loop_, agents_[i].get(), genesis_.keys[i],
                                     genesis_.config, config_.params, crypto);
  if (!config_.data_dir.empty()) {
    // A directory that already holds a log (restart, or a reused dir from a
    // previous process) replays before the node starts.
    StoreOptions opts;
    opts.dir = NodeDir(i);
    opts.fsync = config_.store_fsync;
    opts.background_writer = config_.store_background_writer;
    std::string error;
    stores_[i] = BlockStore::Open(opts, &error);
    if (stores_[i] == nullptr) {
      fprintf(stderr, "local_cluster: cannot open store for node %zu: %s\n", i, error.c_str());
    } else {
      stores_[i]->AttachMetrics(metrics_[i].get());
      nodes_[i]->RestoreFromStore(stores_[i].get());
    }
  }
  nodes_[i]->AttachObservability(metrics_[i].get(), &tracer_);
  // With a pool, kick verification onto a worker as each frame is decoded;
  // by the time the relay logic asks for the verdict, the entry is ready or
  // in flight (worst case the protocol thread briefly waits).
  TcpEndpoint* endpoint = endpoints_[i].get();
  GossipAgent* agent = agents_[i].get();
  Node* node = nodes_[i].get();
  VerifyPool* pool = pool_.get();
  endpoint->set_receiver([agent, node, pool](NodeId from, const MessagePtr& msg) {
    if (pool != nullptr) {
      node->PrewarmMessage(msg, pool);
    }
    agent->OnReceive(from, msg);
  });
}

std::string LocalCluster::NodeDir(size_t i) const {
  return config_.data_dir + "/node-" + std::to_string(i);
}

void LocalCluster::KillNode(size_t i) {
  if (i >= nodes_.size() || !alive_[i]) {
    return;
  }
  if (stores_[i] != nullptr) {
    // SIGKILL semantics: queued log writes die, files close without flush;
    // restart finds exactly what the OS already had.
    stores_[i]->Crash();
    store_graveyard_.push_back(std::move(stores_[i]));
  }
  TraceEvent ev;
  ev.at = loop_.now();
  ev.node = static_cast<uint32_t>(i);
  ev.round = nodes_[i]->ledger().chain_length();
  ev.kind = TraceKind::kCrash;
  tracer_.Record(ev);
  nodes_[i]->Halt();
  alive_[i] = false;
  // Tearing down the endpoint closes the listener and every connection;
  // peers observe EOF and (if enabled) start redialing with backoff.
  endpoints_[i].reset();
  cluster_metrics_.GetCounter("restart.kills").Increment();
}

void LocalCluster::RestartNode(size_t i, bool keep_disk) {
  if (i >= nodes_.size() || alive_[i]) {
    return;
  }
  // The old node/agent may still be referenced by queued event-loop timers;
  // park them instead of destroying them.
  node_graveyard_.push_back(std::move(nodes_[i]));
  agent_graveyard_.push_back(std::move(agents_[i]));
  // Rebind the same port so every other node's address book stays valid.
  endpoints_[i] = std::make_unique<TcpEndpoint>(&loop_, static_cast<NodeId>(i),
                                                address_book_.at(static_cast<NodeId>(i)));
  if (!config_.data_dir.empty() && !keep_disk) {
    // Fresh rejoin: the disk is gone too. WireSlot reopens an empty store.
    std::error_code ec;
    std::filesystem::remove_all(NodeDir(i), ec);
  }
  WireSlot(i);  // With data_dir set, this reopens and replays the disk log.
  const bool restored = nodes_[i]->ledger().chain_length() > 1;
  TraceEvent ev;
  ev.at = loop_.now();
  ev.node = static_cast<uint32_t>(i);
  ev.round = nodes_[i]->ledger().chain_length();
  ev.kind = TraceKind::kRestart;
  ev.flag = restored ? 1 : 0;
  tracer_.Record(ev);
  alive_[i] = true;
  cluster_metrics_.GetCounter("restart.restarts").Increment();
  endpoints_[i]->ConnectToPeers(topology_->neighbors(static_cast<NodeId>(i)));
  nodes_[i]->Start();
}

void LocalCluster::Start() {
  for (auto& node : nodes_) {
    node->Start();
  }
}

bool LocalCluster::RunRounds(uint64_t rounds, SimTime wall_budget) {
  auto done = [this, rounds] {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!alive_[i]) {
        continue;  // A permanently-dead node must not stall the run.
      }
      if (nodes_[i]->ledger().chain_length() <= rounds) {
        return false;
      }
    }
    return true;
  };
  SimTime deadline = loop_.now() + wall_budget;
  loop_.Run([&] { return done() || loop_.now() >= deadline; });
  return done();
}

MetricsSnapshot LocalCluster::AggregateMetrics() const {
  MetricsSnapshot merged = cluster_metrics_.Snapshot();
  for (const auto& registry : metrics_) {
    merged.Merge(registry->Snapshot());
  }
  merged.counters["trace.events_recorded"] += tracer_.recorded();
  merged.counters["trace.events_dropped"] += tracer_.dropped();
  return merged;
}

bool LocalCluster::ChainsConsistent() const {
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const Ledger& a = nodes_[0]->ledger();
    const Ledger& b = nodes_[i]->ledger();
    uint64_t common = std::min<uint64_t>(a.chain_length(), b.chain_length());
    // Compacted prefixes (checkpoint installs) hold no blocks below the base.
    for (uint64_t r = std::max<uint64_t>(a.base_round(), b.base_round()); r < common; ++r) {
      if (a.BlockAtRound(r).Hash() != b.BlockAtRound(r).Hash()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace algorand
