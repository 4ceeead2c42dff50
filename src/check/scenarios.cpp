#include "src/check/scenarios.h"

#include <memory>
#include <set>
#include <sstream>

#include "src/check/model_checker.h"
#include "src/core/messages.h"
#include "src/core/sim_harness.h"
#include "src/netsim/adversary.h"
#include "src/obs/safety_auditor.h"

namespace algorand {

namespace {

// One assertion line: "[ok] ..." / "[FAIL] ...". Returns the condition so
// callers can fold it into the scenario verdict.
bool Check(std::ostringstream& out, bool cond, const std::string& what) {
  out << (cond ? "  [ok]   " : "  [FAIL] ") << what << "\n";
  return cond;
}

SafetyAuditorConfig AuditorConfigFor(const ProtocolParams& params) {
  SafetyAuditorConfig acfg;
  acfg.step_threshold = params.StepThreshold();
  acfg.final_threshold = params.FinalThreshold();
  acfg.final_step_code = kStepFinal;
  return acfg;
}

// The small fast deployment shared by the scenarios (the recovery_test
// configuration: sim crypto, uniform latency, quick hang detection).
HarnessConfig ScenarioHarnessConfig(size_t n_nodes, uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = n_nodes;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 32 * 1024;
  cfg.params.max_steps = 9;
  cfg.params.recovery_interval = Minutes(10);
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  cfg.verify_workers = 0;
  return cfg;
}

// --- seed-grind ------------------------------------------------------------
//
// A §5.2 grinding proposer tries 16 payloads per selected round and plays the
// withhold bit greedily. Expected outcome: the VRF refresh rule pins every
// ground round to exactly ONE reachable next-seed (payload grinding buys
// nothing), consensus stays live and safe under the attack.
ScenarioResult RunSeedGrind() {
  ScenarioResult result;
  std::ostringstream out;
  HarnessConfig cfg = ScenarioHarnessConfig(10, 21);
  cfg.grinding_count = 1;
  cfg.grind_candidates = 16;
  cfg.grind_withhold = true;
  SimHarness h(cfg);
  SafetyAuditor auditor(AuditorConfigFor(cfg.params));
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });
  h.Start();
  const bool done = h.RunRounds(6, Hours(4));

  const auto& grinder = dynamic_cast<const GrindingProposerNode&>(h.node(0));
  const auto& stats = grinder.grind_stats();
  out << "seed-grind: rounds_selected=" << stats.rounds_selected
      << " candidates_tried=" << stats.candidates_tried
      << " distinct_next_seeds=" << stats.distinct_next_seeds
      << " fallback_preferred=" << stats.fallback_preferred << " withheld=" << stats.withheld
      << "\n";
  bool ok = Check(out, done, "cluster finishes 6 rounds despite the grinder");
  ok &= Check(out, stats.rounds_selected >= 1, "grinder was selected as proposer");
  ok &= Check(out, stats.candidates_tried == stats.rounds_selected * 16,
              "grinder ground 16 payload variants per selected round");
  ok &= Check(out, stats.distinct_next_seeds == stats.rounds_selected,
              "VRF seed-refresh rule: every ground round reaches exactly 1 next-seed");
  ok &= Check(out, h.CheckSafety().ok, "cross-node safety holds");
  ok &= Check(out, auditor.ok(), "safety auditor is silent");
  result.pass = ok;
  result.detail = out.str();
  return result;
}

// --- threshold-equivocation ------------------------------------------------
//
// §10.4 equivocating proposers + double-voting committee members at the
// ScaledCommittees(0.02) thresholds (tau_step 40 / T 0.685, tau_final 200 /
// T 0.74), hammered with randomized schedule exploration (message reordering
// + adversarial vote drops/delays on top of the in-protocol attack).
// Expected outcome: the attack is *observed* (equivocations flagged) but no
// explored schedule ever violates safety.
ScenarioResult RunThresholdEquivocation() {
  ScenarioResult result;
  std::ostringstream out;
  CheckConfig cfg;
  cfg.n_nodes = 8;
  cfg.rounds = 2;
  cfg.harness_seed = 11;
  cfg.malicious_fraction = 0.25;  // 2 of 8 nodes equivocate.
  cfg.max_choice_points = 10;
  cfg.adversary_max_decisions = 4;
  ModelChecker checker(cfg);

  uint64_t equivocations = 0;
  uint64_t schedules = 0;
  uint64_t violations = 0;
  DeterministicRng batch(33, "threshold-equivocation");
  for (int i = 0; i < 40; ++i) {
    RandomStrategy strategy(batch.NextU64(), cfg.max_choice_points);
    ScheduleOutcome outcome = checker.RunWithStrategy(&strategy);
    ++schedules;
    equivocations += outcome.equivocations;
    if (!outcome.safety_ok) {
      ++violations;
      for (const std::string& v : outcome.violations) {
        out << "  violation: " << v << "  [trace " << outcome.trace.Serialize() << "]\n";
      }
    }
  }
  out << "threshold-equivocation: schedules=" << schedules << " equivocations_flagged="
      << equivocations << " violations=" << violations << "\n";
  bool ok = Check(out, equivocations > 0, "the equivocation attack was observed and flagged");
  ok &= Check(out, violations == 0, "no explored schedule violates safety at the tau thresholds");
  result.pass = ok;
  result.detail = out.str();
  return result;
}

// --- partition-rejoin ------------------------------------------------------
//
// Network split mid-BinaryBA*: after one healthy round, a 4/16 partition
// isolates a 20% minority for 9 minutes, then heals. Expected outcome (§8.2):
// stall-then-recover, not fork — the minority makes no progress during the
// split, the 80% majority keeps committing, and after the heal both sides
// converge on the majority's single chain with partition-era rounds FINAL on
// every node. The SafetyAuditor watches the whole run.
ScenarioResult RunPartitionRejoin() {
  ScenarioResult result;
  std::ostringstream out;
  SimHarness h(ScenarioHarnessConfig(20, 5));
  SafetyAuditor auditor(AuditorConfigFor(ProtocolParams::ScaledCommittees(0.02)));
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });
  h.Start();
  bool warmup = h.RunRounds(1, Hours(1));

  std::set<NodeId> minority = {0, 1, 2, 3};
  const SimTime split_at = h.sim().now();  // Mid-protocol: round 2 is running.
  const SimTime heal_at = split_at + Minutes(9);
  h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(minority, split_at, heal_at));
  h.sim().RunUntil(heal_at);

  const uint64_t minority_tip_at_heal = h.node(0).ledger().chain_length();
  const uint64_t majority_tip_at_heal = h.node(19).ledger().chain_length();

  h.sim().RunUntil(heal_at + Minutes(25));

  out << "partition-rejoin: minority_tip@heal=" << minority_tip_at_heal
      << " majority_tip@heal=" << majority_tip_at_heal
      << " minority_tip@end=" << h.node(0).ledger().chain_length()
      << " majority_tip@end=" << h.node(19).ledger().chain_length() << "\n";

  bool ok = Check(out, warmup, "pre-partition warm-up round commits");
  ok &= Check(out, minority_tip_at_heal <= 3,
              "stall: the 20% side cannot commit rounds during the split");
  ok &= Check(out, majority_tip_at_heal > minority_tip_at_heal,
              "progress: the 80% side keeps committing during the split");
  ok &= Check(out, h.node(0).ledger().chain_length() >= majority_tip_at_heal,
              "recover: the minority catches up past the majority's split-time tip");
  bool partition_rounds_final = true;
  for (uint64_t r = minority_tip_at_heal; r < majority_tip_at_heal; ++r) {
    partition_rounds_final &=
        h.node(0).ledger().ConsensusAtRound(r) == ConsensusKind::kFinal;
  }
  ok &= Check(out, partition_rounds_final,
              "tentative->final: partition-era rounds are FINAL on the rejoined minority");
  ok &= Check(out, h.ChainsConsistent(), "one chain: all nodes agree on every common round");
  ok &= Check(out, h.CheckSafety().ok, "cross-node safety holds");
  ok &= Check(out, auditor.ok(), "safety auditor is silent across split and heal");
  if (!auditor.ok()) {
    out << auditor.Report();
  }
  result.pass = ok;
  result.detail = out.str();
  return result;
}

}  // namespace

std::vector<ScenarioInfo> ListScenarios() {
  return {
      {"seed-grind",
       "§5.2 grinding proposer: payload grinding is seed-neutral, consensus stays safe"},
      {"threshold-equivocation",
       "§10.4 equivocation at the tau thresholds under randomized schedule exploration"},
      {"partition-rejoin",
       "network split mid-BinaryBA*: stall-then-recover with FINAL convergence, no fork"},
  };
}

std::optional<ScenarioResult> RunScenarioByName(const std::string& name) {
  if (name == "seed-grind") {
    return RunSeedGrind();
  }
  if (name == "threshold-equivocation") {
    return RunThresholdEquivocation();
  }
  if (name == "partition-rejoin") {
    return RunPartitionRejoin();
  }
  return std::nullopt;
}

}  // namespace algorand
