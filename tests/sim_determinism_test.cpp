// Determinism regression: a (seed, scenario) pair must replay identically —
// same per-node chains, same executed-event count — across repeat runs and
// across engine worker counts (workers=3 and workers=4 must be bit-identical
// to workers=1). This is the contract that makes every other test in the
// suite reproducible, so it gets its own canary. The engine's event order
// itself is pinned against a reference std::map queue in netsim_test.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/sim_harness.h"
#include "src/obs/safety_auditor.h"

namespace algorand {
namespace {

struct RunOutcome {
  std::vector<Hash256> tips;  // Per-node chain tip after the run.
  std::vector<uint64_t> lengths;
  uint64_t executed_events = 0;
  // Every gossip.* counter of the merged snapshot: the relay counters are
  // plain per-agent counts on the shard threads, folded at snapshot time.
  std::map<std::string, uint64_t> gossip_counters;

  bool operator==(const RunOutcome& o) const {
    return tips == o.tips && lengths == o.lengths && executed_events == o.executed_events &&
           gossip_counters == o.gossip_counters;
  }
};

RunOutcome RunOnce(uint64_t seed, double malicious = 0.0, size_t sim_workers = 1) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.use_sim_crypto = true;
  cfg.malicious_fraction = malicious;
  cfg.sim_workers = sim_workers;
  SimHarness h(cfg);

  // The online safety auditor must stay silent for every worker count: a
  // violation under one worker count but not another would mean the window
  // barriers leaked a torn protocol state.
  SafetyAuditorConfig audit_cfg;
  audit_cfg.step_threshold = cfg.params.StepThreshold();
  audit_cfg.final_threshold = cfg.params.FinalThreshold();
  SafetyAuditor auditor(audit_cfg);
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });

  h.Start();
  EXPECT_TRUE(h.RunRounds(3));
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  RunOutcome out;
  out.executed_events = h.sim().executed_events();
  for (size_t i = 0; i < h.node_count(); ++i) {
    out.tips.push_back(h.node(i).ledger().tip_hash());
    out.lengths.push_back(h.node(i).ledger().chain_length());
  }
  for (const auto& [name, value] : h.AggregateMetrics().counters) {
    if (name.starts_with("gossip.")) {
      out.gossip_counters[name] = value;
    }
  }
  EXPECT_FALSE(out.gossip_counters.empty());
  return out;
}

TEST(SimDeterminismTest, RepeatRunsAreBitIdentical) {
  RunOutcome a = RunOnce(42);
  RunOutcome b = RunOnce(42);
  EXPECT_TRUE(a == b);
}

TEST(SimDeterminismTest, HoldsUnderAdversarialTraffic) {
  // Equivocating nodes stress duplicate/relay paths where the memoized
  // DedupId and the seen-window pruning do the most work.
  RunOutcome a = RunOnce(5, /*malicious=*/0.2);
  RunOutcome b = RunOnce(5, /*malicious=*/0.2);
  EXPECT_TRUE(a == b);
}

// The engine contract: the conservative-lookahead windows and per-stream
// event keys make the execution order a pure function of the scenario, never
// of how streams are sharded across workers. workers=3 and workers=4 must
// replay workers=1 bit-for-bit — same tips, same chain lengths, same
// executed-event count.
TEST(SimDeterminismTest, ThreeWorkersReplayOneWorker) {
  for (uint64_t seed : {1u, 7u}) {
    RunOutcome one = RunOnce(seed);
    RunOutcome three = RunOnce(seed, /*malicious=*/0.0, /*sim_workers=*/3);
    EXPECT_EQ(one.executed_events, three.executed_events) << "seed=" << seed;
    EXPECT_TRUE(one == three) << "seed=" << seed;
  }
}

TEST(SimDeterminismTest, ParallelWorkersProduceIdenticalRuns) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    RunOutcome one = RunOnce(seed);
    RunOutcome four = RunOnce(seed, /*malicious=*/0.0, /*sim_workers=*/4);
    EXPECT_EQ(one.executed_events, four.executed_events) << "seed=" << seed;
    EXPECT_TRUE(one == four) << "seed=" << seed;
  }
}

TEST(SimDeterminismTest, ParallelHoldsUnderAdversarialTraffic) {
  // Equivocators plus cross-shard relay storms: the worst case for the
  // exchange queues, since most duplicate traffic crosses shard boundaries.
  RunOutcome one = RunOnce(5, /*malicious=*/0.2);
  RunOutcome four = RunOnce(5, /*malicious=*/0.2, /*sim_workers=*/4);
  EXPECT_EQ(one.executed_events, four.executed_events);
  EXPECT_TRUE(one == four);
}

TEST(SimDeterminismTest, ParallelRepeatRunsAreBitIdentical) {
  RunOutcome a = RunOnce(42, /*malicious=*/0.0, /*sim_workers=*/3);
  RunOutcome b = RunOnce(42, /*malicious=*/0.0, /*sim_workers=*/3);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace algorand
