// Shared scenario runner for the figure-reproduction benches: configures a
// SimHarness, runs a few rounds, and condenses the per-node records into the
// statistics the paper plots.
//
// Scaling policy (documented in DESIGN.md/EXPERIMENTS.md): expected committee
// sizes are held CONSTANT while the user count sweeps — that is the paper's
// central scalability argument (§8.4: per-user cost depends on committee
// size, not user count). Crypto uses the Sim backends plus the verification
// cache, mirroring the paper's replace-verification-with-sleeps methodology.
#ifndef ALGORAND_BENCH_SIM_RUNNER_H_
#define ALGORAND_BENCH_SIM_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/core/sim_harness.h"
#include "src/obs/trace_collector.h"

namespace algorand {
namespace bench {

struct RunSpec {
  size_t n_nodes = 150;
  uint64_t rounds = 3;
  uint64_t seed = 1;
  uint64_t block_size = 1 << 20;

  double tau_proposer = 26;  // Paper value.
  double tau_step = 100;
  double tau_final = 300;

  double uplink_bytes_per_sec = 20e6 / 8;  // 20 Mbit/s, the paper's cap.
  SimTime lambda_step = Seconds(20);
  double malicious_fraction = 0;
  bool real_crypto = false;
  SimTime deadline = Hours(6);
  // Engine shard workers (any N is bit-identical to N=1 — see
  // src/netsim/simulation.h).
  size_t sim_workers = 1;
  // Users hosted per node (aggregate-user modeling); total simulated users =
  // n_nodes * users_per_group.
  size_t users_per_group = 1;
  // Durable store A/B: when data_dir is non-empty every node streams its
  // rounds to a disk log there — the cost of durability on the sim hot path.
  std::string data_dir;
  FsyncPolicy store_fsync = FsyncPolicy::kBatched;
};

struct RunResult {
  bool completed = false;
  bool safety_ok = false;
  Summary latency;  // Round-completion seconds across honest nodes & rounds.
  SimHarness::PhaseBreakdown phases;
  double bytes_per_user_per_round = 0;
  uint64_t executed_events = 0;
  double wall_seconds = 0;  // Real time spent inside RunRounds.
  // Merged cross-node metrics snapshot; the registry-backed view of the same
  // run ("ba.round_time_ms", "gossip.msgs_in.*", ...).
  MetricsSnapshot metrics;
  // Per-round latency waterfalls joined from the causal trace events — the
  // Fig-5 phase breakdown measured from real cross-node event data.
  std::vector<RoundWaterfall> waterfalls;
};

inline RunResult RunScenario(const RunSpec& spec) {
  HarnessConfig cfg;
  cfg.n_nodes = spec.n_nodes;
  cfg.rng_seed = spec.seed;
  cfg.params = ProtocolParams::Paper();
  cfg.params.tau_proposer = spec.tau_proposer;
  cfg.params.tau_step = spec.tau_step;
  cfg.params.tau_final = spec.tau_final;
  cfg.params.lambda_step = spec.lambda_step;
  cfg.params.block_size_bytes = spec.block_size;
  cfg.net.uplink_bytes_per_sec = spec.uplink_bytes_per_sec;
  cfg.latency = HarnessConfig::Latency::kCity;
  cfg.use_sim_crypto = !spec.real_crypto;
  cfg.malicious_fraction = spec.malicious_fraction;
  cfg.data_dir = spec.data_dir;
  cfg.store_fsync = spec.store_fsync;
  cfg.sim_workers = spec.sim_workers;
  cfg.users_per_group = spec.users_per_group;

  SimHarness h(cfg);
  h.Start();
  RunResult result;
  auto wall_start = std::chrono::steady_clock::now();
  result.completed = h.RunRounds(spec.rounds, spec.deadline);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  result.safety_ok = h.CheckSafety().ok;
  std::vector<double> latencies;
  for (uint64_t r = 1; r <= spec.rounds; ++r) {
    for (double v : h.RoundLatencies(r)) {
      latencies.push_back(v);
    }
  }
  result.latency = Summarize(std::move(latencies));
  result.phases = h.MeanPhaseBreakdown(1, spec.rounds);
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    total_bytes += h.network().traffic(static_cast<NodeId>(i)).bytes_sent;
  }
  // Per *user*, so aggregate runs stay comparable: with users_per_group > 1
  // the denominator counts every hosted user (identical to the old per-node
  // figure when users_per_group == 1).
  result.bytes_per_user_per_round = static_cast<double>(total_bytes) /
                                    static_cast<double>(h.total_users()) /
                                    static_cast<double>(spec.rounds);
  result.executed_events = h.sim().executed_events();
  result.metrics = h.AggregateMetrics();
  TraceCollector collector;
  collector.AddEvents(h.tracer().Events());
  result.waterfalls = collector.Waterfalls();
  return result;
}

// Runs a batch of scenarios across `workers` threads. Each worker owns a
// complete SimHarness per scenario (share-nothing: separate event queues,
// networks, metrics registries), so results are identical to running the
// specs sequentially — the only shared state is the work index. Results land
// at the same index as their spec.
inline std::vector<RunResult> RunScenariosParallel(const std::vector<RunSpec>& specs,
                                                   size_t workers) {
  std::vector<RunResult> results(specs.size());
  if (workers == 0) {
    workers = 1;
  }
  workers = std::min(workers, specs.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) {
        return;
      }
      results[i] = RunScenario(specs[i]);
    }
  };
  if (workers <= 1) {
    work();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back(work);
  }
  for (auto& t : pool) {
    t.join();
  }
  return results;
}

}  // namespace bench
}  // namespace algorand

#endif  // ALGORAND_BENCH_SIM_RUNNER_H_
