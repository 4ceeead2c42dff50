// Ablation: the two-message block proposal protocol (§6).
//
// Algorand gossips a tiny priority/proof message first so users can discard
// all but the highest-priority proposer's block; blocks that are not the
// current best are not relayed. This bench disables that machinery — every
// proposer's full block floods the network — and measures the bandwidth and
// latency cost.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/core/sim_harness.h"

using namespace algorand;

namespace {

struct Outcome {
  double block_mb_per_round = 0;
  double median_latency = 0;
  bool safety = false;
};

Outcome Run(bool priority_gossip, uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = 100;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::Paper();
  cfg.params.tau_proposer = 26;  // ~26 proposers per round, as in the paper.
  cfg.params.tau_step = 100;
  cfg.params.tau_final = 300;
  cfg.params.block_size_bytes = 1 << 20;
  cfg.params.priority_gossip_enabled = priority_gossip;
  cfg.use_sim_crypto = true;
  cfg.latency = HarnessConfig::Latency::kCity;

  SimHarness h(cfg);
  h.Start();
  const uint64_t kRounds = 3;
  bool ok = h.RunRounds(kRounds, Hours(6));
  Outcome out;
  out.safety = ok && h.CheckSafety().ok;
  const uint64_t block_msgs = h.AggregateMetrics().CounterValue("net.msgs.block");
  out.block_mb_per_round = static_cast<double>(block_msgs) *
                           static_cast<double>(cfg.params.block_size_bytes) / 1e6 /
                           static_cast<double>(kRounds);
  std::vector<double> latencies;
  for (uint64_t r = 1; r <= kRounds; ++r) {
    for (double v : h.RoundLatencies(r)) {
      latencies.push_back(v);
    }
  }
  out.median_latency = Summarize(std::move(latencies)).median;
  return out;
}

}  // namespace

int main() {
  bench::Banner("ablation-priority", "§6 two-message proposal (priority gossip vs block flood)",
                "without the priority message, every proposer's 1 MB block is "
                "relayed network-wide: block bytes grow ~tau_proposer-fold and "
                "the proposal phase slows down");

  printf("%-22s %-20s %-14s %-8s\n", "mode", "block MB/round(net)", "median lat(s)", "safety");
  Outcome with_priority = Run(true, 17);
  Outcome without = Run(false, 17);
  printf("%-22s %-20.0f %-14.1f %-8s\n", "priority gossip ON", with_priority.block_mb_per_round,
         with_priority.median_latency, with_priority.safety ? "ok" : "VIOLATED");
  printf("%-22s %-20.0f %-14.1f %-8s\n", "priority gossip OFF", without.block_mb_per_round,
         without.median_latency, without.safety ? "ok" : "VIOLATED");
  printf("\nblock bandwidth ratio (off/on): %.1fx\n",
         without.block_mb_per_round / with_priority.block_mb_per_round);
  return 0;
}
