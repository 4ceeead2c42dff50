#include "src/core/sim_harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/core/user_group.h"

namespace algorand {

SimHarness::SimHarness(HarnessConfig config)
    : config_(std::move(config)),
      rng_(config_.rng_seed, "harness"),
      genesis_(MakeTestGenesisKeys(config_.n_nodes, config_.rng_seed)) {
  {
    // The allocations live only until they are minted: every node's ledger
    // copies the one table.
    std::vector<std::pair<PublicKey, uint64_t>> allocations;
    allocations.reserve(config_.n_nodes + config_.tx_clients + config_.filler_accounts);
    for (size_t i = 0; i < config_.n_nodes; ++i) {
      // Aggregate-user modeling: each node carries its whole group's stake.
      // Binomial sortition over weight makes this statistically identical to
      // users_per_group separate users of the original stake.
      const uint64_t stake = config_.stake_of ? config_.stake_of(i) : config_.stake_per_user;
      allocations.emplace_back(genesis_.keys[i].public_key,
                               stake * std::max<uint64_t>(1, config_.users_per_group));
    }
    // Client accounts ride after the node allocations: funded, with real
    // signing keys, but no stake scaling — they pay, they don't propose.
    DeterministicRng client_rng(config_.rng_seed, "tx-clients");
    client_keys_.reserve(config_.tx_clients);
    for (size_t i = 0; i < config_.tx_clients; ++i) {
      FixedBytes<32> seed;
      client_rng.FillBytes(seed.data(), seed.size());
      client_keys_.push_back(Ed25519KeyFromSeed(seed));
      allocations.emplace_back(client_keys_.back().public_key, config_.client_stake);
    }
    client_nonces_.assign(config_.tx_clients, 0);
    // Fillers scale the account table to millions of entries. They never
    // sign anything, so a raw random public key (no keypair derivation) is
    // enough; stake 1 keeps their sortition weight negligible.
    DeterministicRng filler_rng(config_.rng_seed, "tx-fillers");
    for (size_t i = 0; i < config_.filler_accounts; ++i) {
      PublicKey pk;
      filler_rng.FillBytes(pk.data(), pk.size());
      allocations.emplace_back(pk, 1);
    }
    genesis_.config.accounts = MintGenesis(allocations);
  }
  genesis_.config.weight_lookback_rounds = config_.weight_lookback_rounds;
  vrf_ = config_.use_sim_crypto ? static_cast<const VrfBackend*>(&sim_vrf_) : &ec_vrf_;
  signer_ =
      config_.use_sim_crypto ? static_cast<const SignerBackend*>(&sim_signer_) : &ed_signer_;

  if (config_.latency == HarnessConfig::Latency::kCity) {
    latency_ = std::make_unique<CityLatencyModel>(config_.n_nodes, config_.rng_seed);
  } else {
    latency_ = std::make_unique<UniformLatencyModel>(
        config_.uniform_latency, config_.uniform_jitter, config_.rng_seed, config_.n_nodes);
  }
  // Conservative lookahead: no delivery can land earlier than send time +
  // sender overhead + the latency floor (Network::Send adds both).
  const SimTime lookahead = config_.net.send_overhead + latency_->Floor();
  sim_ = std::make_unique<Simulation>(config_.sim_workers, config_.n_nodes, lookahead);
  network_ =
      std::make_unique<Network>(sim_.get(), latency_.get(), config_.net, config_.n_nodes);
  DeterministicRng topo_rng = rng_.Fork("topology");
  topology_ = std::make_unique<GossipTopology>(config_.n_nodes, config_.gossip_out_degree,
                                               &topo_rng);

  malicious_count_ =
      static_cast<size_t>(static_cast<double>(config_.n_nodes) * config_.malicious_fraction);

  cache_.AttachMetrics(&global_metrics_);
  tracer_.AttachMetrics(&global_metrics_);
  const size_t workers = ResolveVerifyWorkers(config_.verify_workers);
  if (workers > 0) {
    pool_ = std::make_unique<VerifyPool>(workers);
    pool_->AttachMetrics(&global_metrics_);
  }
  const size_t exec_workers = ResolveExecWorkers(config_.exec_workers);
  if (exec_workers > 0) {
    exec_pool_ = std::make_unique<VerifyPool>(exec_workers);
    exec_pool_->AttachMetrics(&global_metrics_, "exec");
  }

  agents_.reserve(config_.n_nodes);
  metrics_.reserve(config_.n_nodes);
  for (NodeId i = 0; i < config_.n_nodes; ++i) {
    metrics_.push_back(std::make_unique<MetricsRegistry>());
    agents_.push_back(std::make_unique<GossipAgent>(i, network_.get(), topology_.get()));
    agents_.back()->AttachMetrics(metrics_.back().get());
    agents_.back()->set_clock(sim_.get());
  }
  nodes_.resize(config_.n_nodes);
  stores_.resize(config_.n_nodes);
  alive_.assign(config_.n_nodes, true);
  for (size_t i = 0; i < config_.n_nodes; ++i) {
    // A directory that already holds a log (process-level restart) replays
    // into the fresh node before it starts.
    BringUpNode(i);
  }
  network_->set_delivery_handler([this](NodeId to, NodeId from, const MessagePtr& msg) {
    if (!alive_[to]) {
      return;  // Crashed nodes receive nothing until restarted.
    }
    agents_[to]->OnReceive(from, msg);
  });
}

SimHarness::~SimHarness() = default;

void SimHarness::SetNetworkAdversary(std::unique_ptr<NetworkAdversary> adversary) {
  net_adversary_ = std::move(adversary);
  network_->set_adversary(net_adversary_.get());
}

void SimHarness::Start() {
  // Seed the mempools before the first proposals are assembled, then keep
  // them topped up: a probe injects one batch per round the honest chain
  // advances. Two batches go in up front — round N+1's proposal is built in
  // the same event cascade that commits round N, before the probe's next
  // tick, so without a standing one-batch buffer every other block would
  // sail empty at full-block load.
  if (config_.tx_load_per_round > 0 && client_keys_.size() >= 2) {
    InjectTxLoad();
    InjectTxLoad();
    last_loaded_round_ = nodes_[malicious_count_]->ledger().chain_length();
    sim_->Schedule(Seconds(1), [this] { TxLoadProbe(); });
  }
  // Each node's startup events are keyed to its own stream so the engine
  // orders them independently of the worker count.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    sim_->SetExternalStream(static_cast<uint32_t>(i));
    nodes_[i]->Start();
  }
  sim_->SetExternalStream(Simulation::kGlobalStream);
  for (const HarnessConfig::CrashEvent& ev : config_.crash_schedule) {
    if (ev.node >= nodes_.size()) {
      continue;
    }
    sim_->ScheduleAt(ev.crash_at, [this, ev] { KillNode(ev.node); });
    if (ev.restart_at > ev.crash_at) {
      sim_->ScheduleAt(ev.restart_at, [this, ev] { RestartNode(ev.node, ev.keep_disk); });
    }
  }
}

std::unique_ptr<Node> SimHarness::MakeNode(size_t i) {
  const NodeId id = static_cast<NodeId>(i);
  CryptoSuite crypto{vrf_, signer_, &cache_, pool_.get(), exec_pool_.get()};
  if (config_.node_factory) {
    if (auto node = config_.node_factory(id, sim_.get(), agents_[i].get(), genesis_.keys[i],
                                         genesis_.config, config_.params, crypto,
                                         &coordinator_)) {
      return node;
    }
  }
  if (i < malicious_count_) {
    return std::make_unique<EquivocatingNode>(id, sim_.get(), agents_[i].get(),
                                              genesis_.keys[i], genesis_.config,
                                              config_.params, crypto, &coordinator_);
  }
  if (i < malicious_count_ + config_.grinding_count) {
    return std::make_unique<GrindingProposerNode>(
        id, sim_.get(), agents_[i].get(), genesis_.keys[i], genesis_.config, config_.params,
        crypto, config_.grind_candidates, config_.grind_withhold);
  }
  if (config_.users_per_group > 1) {
    return std::make_unique<UserGroupNode>(id, sim_.get(), agents_[i].get(), genesis_.keys[i],
                                           genesis_.config, config_.params, crypto,
                                           config_.users_per_group);
  }
  return std::make_unique<Node>(id, sim_.get(), agents_[i].get(), genesis_.keys[i],
                                genesis_.config, config_.params, crypto);
}

bool SimHarness::BringUpNode(size_t i) {
  std::unique_ptr<Node> node = MakeNode(i);
  bool restored = false;
  if (!config_.data_dir.empty()) {
    StoreOptions opts;
    opts.dir = NodeDir(i);
    opts.fsync = config_.store_fsync;
    opts.background_writer = config_.store_background_writer;
    std::string error;
    stores_[i] = BlockStore::Open(opts, &error);
    if (stores_[i] == nullptr) {
      fprintf(stderr, "sim_harness: cannot open store for node %zu: %s\n", i, error.c_str());
    } else {
      stores_[i]->AttachMetrics(metrics_[i].get());
      restored = node->RestoreFromStore(stores_[i].get()) && stores_[i]->max_round() > 0;
    }
  }
  node->AttachObservability(metrics_[i].get(), &tracer_);
  nodes_[i] = std::move(node);
  return restored;
}

std::string SimHarness::NodeDir(size_t i) const {
  return config_.data_dir + "/node-" + std::to_string(i);
}

void SimHarness::KillNode(size_t i) {
  if (i >= nodes_.size() || !alive_[i]) {
    return;
  }
  if (stores_[i] != nullptr) {
    // SIGKILL semantics: queued-but-unwritten log operations die with the
    // process; whatever was write()n is what restart will find.
    stores_[i]->Crash();
    store_graveyard_.push_back(std::move(stores_[i]));
  }
  TraceEvent ev;
  ev.at = sim_->now();
  ev.node = static_cast<uint32_t>(i);
  ev.round = nodes_[i]->ledger().chain_length();
  ev.kind = TraceKind::kCrash;
  tracer_.Record(ev);
  nodes_[i]->Halt();
  alive_[i] = false;
  global_metrics_.GetCounter("restart.kills").Increment();
}

void SimHarness::RestartNode(size_t i, bool keep_disk) {
  if (i >= nodes_.size() || alive_[i]) {
    return;
  }
  // The old node may still be referenced by queued simulator lambdas; park it
  // (halted) instead of destroying it.
  graveyard_.push_back(std::move(nodes_[i]));
  if (!config_.data_dir.empty() && !keep_disk) {
    // Fresh rejoin: the node lost its disk too. Wipe the directory so the
    // reopened store starts empty.
    std::error_code ec;
    std::filesystem::remove_all(NodeDir(i), ec);
  }
  // Same construction as at deployment: a restart changes state, not
  // deployment shape.
  const bool restored = BringUpNode(i);
  TraceEvent ev;
  ev.at = sim_->now();
  ev.node = static_cast<uint32_t>(i);
  ev.round = nodes_[i]->ledger().chain_length();
  ev.kind = TraceKind::kRestart;
  ev.flag = restored ? 1 : 0;
  tracer_.Record(ev);
  alive_[i] = true;
  global_metrics_.GetCounter("restart.restarts").Increment();
  sim_->SetExternalStream(static_cast<uint32_t>(i));
  nodes_[i]->Start();
  sim_->SetExternalStream(Simulation::kGlobalStream);
}

bool SimHarness::RunRounds(uint64_t rounds, SimTime deadline) {
  auto honest_done = [this, rounds] {
    for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
      if (!alive_[i]) {
        continue;  // Permanently-crashed nodes must not stall the run.
      }
      if (nodes_[i]->ledger().chain_length() <= rounds) {
        return false;
      }
    }
    return true;
  };
  // Periodic completion probe: cheap relative to protocol traffic. The
  // generation stamp kills probes left over from earlier RunRounds calls.
  // The probe holds itself only weakly — the local shared_ptr (alive across
  // RunUntil) is the sole owner, so no reference cycle outlives this call.
  const uint64_t generation = ++probe_generation_;
  auto probe = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = probe;
  *probe = [this, weak, honest_done, generation] {
    if (generation != probe_generation_) {
      return;  // Stale probe from a previous RunRounds call.
    }
    if (honest_done()) {
      sim_->Stop();
      return;
    }
    if (auto self = weak.lock()) {
      sim_->Schedule(Seconds(1), *self);
    }
  };
  sim_->Schedule(Seconds(1), *probe);
  sim_->RunUntil(deadline);
  return honest_done();
}

std::vector<double> SimHarness::RoundLatencies(uint64_t round) const {
  std::vector<double> latencies;
  for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
    for (const RoundRecord& rec : nodes_[i]->round_records()) {
      if (rec.round == round && rec.end_time > 0) {
        latencies.push_back(ToSeconds(rec.end_time - rec.start_time));
      }
    }
  }
  return latencies;
}

SimHarness::PhaseBreakdown SimHarness::MeanPhaseBreakdown(uint64_t first_round,
                                                          uint64_t last_round) const {
  PhaseBreakdown sum;
  size_t count = 0;
  for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
    for (const RoundRecord& rec : nodes_[i]->round_records()) {
      if (rec.round < first_round || rec.round > last_round || rec.end_time == 0) {
        continue;
      }
      sum.proposal += ToSeconds(rec.proposal_done_at - rec.start_time);
      sum.ba_without_final += ToSeconds(rec.binary_done_at - rec.proposal_done_at);
      sum.final_step += ToSeconds(rec.end_time - rec.binary_done_at);
      ++count;
    }
  }
  if (count > 0) {
    sum.proposal /= static_cast<double>(count);
    sum.ba_without_final /= static_cast<double>(count);
    sum.final_step /= static_cast<double>(count);
  }
  return sum;
}

SimHarness::SafetyReport SimHarness::CheckSafety() const {
  SafetyReport report;
  // For every round where some honest node recorded FINAL consensus, every
  // other honest node that has any block at that round must have the same
  // block hash.
  uint64_t max_round = 0;
  for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
    max_round = std::max<uint64_t>(max_round, nodes_[i]->ledger().chain_length());
  }
  for (uint64_t r = 1; r < max_round; ++r) {
    bool have_final = false;
    Hash256 final_hash;
    size_t final_node = 0;
    for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
      const Ledger& ledger = nodes_[i]->ledger();
      // A compacted prefix (checkpoint install) holds no blocks below the
      // base; those rounds were final and fingerprint-validated at install.
      if (ledger.chain_length() <= r || r < ledger.base_round()) {
        continue;
      }
      if (ledger.ConsensusAtRound(r) == ConsensusKind::kFinal) {
        Hash256 h = ledger.BlockAtRound(r).Hash();
        if (!have_final) {
          have_final = true;
          final_hash = h;
          final_node = i;
        } else if (h != final_hash) {
          report.ok = false;
          report.violation = "two final blocks at round " + std::to_string(r) + " (nodes " +
                             std::to_string(final_node) + ", " + std::to_string(i) + ")";
          return report;
        }
      }
    }
    if (!have_final) {
      continue;
    }
    for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
      const Ledger& ledger = nodes_[i]->ledger();
      if (ledger.chain_length() <= r || r < ledger.base_round()) {
        continue;
      }
      if (ledger.BlockAtRound(r).Hash() != final_hash) {
        report.ok = false;
        report.violation = "node " + std::to_string(i) + " disagrees with final block at round " +
                           std::to_string(r);
        return report;
      }
    }
  }
  return report;
}

bool SimHarness::ChainsConsistent() const {
  for (size_t i = malicious_count_ + 1; i < nodes_.size(); ++i) {
    const Ledger& a = nodes_[malicious_count_]->ledger();
    const Ledger& b = nodes_[i]->ledger();
    uint64_t common = std::min<uint64_t>(a.chain_length(), b.chain_length());
    // Rounds either side compacted away are final by construction; compare
    // the overlap both ledgers can still materialize.
    for (uint64_t r = std::max<uint64_t>(a.base_round(), b.base_round()); r < common; ++r) {
      if (a.BlockAtRound(r).Hash() != b.BlockAtRound(r).Hash()) {
        return false;
      }
    }
  }
  return true;
}

MetricsSnapshot SimHarness::AggregateMetrics() const {
  MetricsSnapshot merged = global_metrics_.Snapshot();
  for (const auto& registry : metrics_) {
    merged.Merge(registry->Snapshot());
  }
  // Fold in simulator/network totals so one snapshot describes the run.
  merged.counters["sim.events_executed"] += sim_->executed_events();
  merged.counters["sim.users"] += total_users();
  for (const auto& [name, value] : sim_->EngineStats()) {
    merged.counters[name] += value;
  }
  merged.counters["net.bytes_sent"] += network_->total_bytes_sent();
  for (const auto& [type, count] : network_->message_counts_by_type()) {
    merged.counters["net.msgs." + type] += count;
  }
  merged.counters["trace.events_recorded"] += tracer_.recorded();
  merged.counters["trace.events_dropped"] += tracer_.dropped();
  return merged;
}

void SimHarness::InjectTxLoad() {
  if (config_.tx_load_per_round == 0 || client_keys_.size() < 2) {
    return;
  }
  const uint64_t fee_levels = std::max<uint64_t>(1, config_.tx_fee_levels);
  for (size_t k = 0; k < config_.tx_load_per_round; ++k) {
    const size_t from = static_cast<size_t>(tx_counter_ % client_keys_.size());
    const size_t to = (from + 1) % client_keys_.size();
    // Fee depends on the sender only: monotone within a sender's nonce
    // sequence, so mempool eviction can never strand a later nonce behind an
    // evicted earlier one, while cross-sender fee priority stays exercised.
    const uint64_t fee = 1 + static_cast<uint64_t>(from) % fee_levels;
    Transaction tx = MakeTransaction(client_keys_[from], client_keys_[to].public_key,
                                     /*amount=*/1, client_nonces_[from]++, *signer_, fee);
    ++tx_counter_;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!alive_[i]) {
        continue;
      }
      sim_->SetExternalStream(static_cast<uint32_t>(i));
      nodes_[i]->SubmitTransaction(tx);
    }
  }
  sim_->SetExternalStream(Simulation::kGlobalStream);
}

void SimHarness::TxLoadProbe() {
  uint64_t tip = 0;
  size_t tip_node = malicious_count_;
  for (size_t i = malicious_count_; i < nodes_.size(); ++i) {
    if (alive_[i] && nodes_[i]->ledger().chain_length() > tip) {
      tip = nodes_[i]->ledger().chain_length();
      tip_node = i;
    }
  }
  while (last_loaded_round_ < tip) {
    // Back off while the chain is committing empty blocks: injecting into a
    // pool that is not draining only forces fee evictions, and an evicted
    // middle nonce strands every later nonce of that sender.
    const uint64_t backlog = tx_counter_ - CommittedTxCount(tip_node);
    if (backlog >= 2 * config_.tx_load_per_round) {
      break;
    }
    InjectTxLoad();
    ++last_loaded_round_;
  }
  sim_->Schedule(Seconds(1), [this] { TxLoadProbe(); });
}

uint64_t SimHarness::CommittedTxCount(size_t i) const {
  const Ledger& ledger = nodes_[i]->ledger();
  uint64_t total = 0;  // Counts only the retained suffix on compacted ledgers.
  for (uint64_t r = ledger.base_round(); r < ledger.chain_length(); ++r) {
    total += ledger.BlockAtRound(r).txns.size();
  }
  return total;
}

Transaction SimHarness::SubmitPayment(size_t from_idx, size_t to_idx, uint64_t amount,
                                      uint64_t nonce) {
  Transaction tx = MakeTransaction(genesis_.keys[from_idx],
                                   genesis_.keys[to_idx].public_key, amount, nonce, *signer_);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    sim_->SetExternalStream(static_cast<uint32_t>(i));
    nodes_[i]->SubmitTransaction(tx);
  }
  sim_->SetExternalStream(Simulation::kGlobalStream);
  return tx;
}

}  // namespace algorand
