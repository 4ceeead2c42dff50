// ModelChecker: drives SimHarness as a determinized schedule explorer.
//
// PR 7 made every simulation a pure function of (seed, scenario); this module
// cashes that in as a stateless model checker for BA* (ROADMAP item 4, the
// CADP/Coq formalization direction). Three nondeterminism sources are reified
// into choice points answered by a Strategy (strategy.h):
//
//   kDelivery  — which of the events inside a weak-synchrony window runs
//                next (ScheduleChoiceHook, simulation.h);
//   kAdversary — per-transmission deliver/drop/delay (HookedAdversary);
//   kCrash     — crash/restart injection at periodic probe ticks.
//
// Every explored schedule runs under the online SafetyAuditor plus two
// checker-side end-state invariants: cross-node safety (no two honest chains
// disagree on a FINAL round — SimHarness::CheckSafety) and certificate
// quorums (every stored certificate revalidates against the node's own chain,
// ValidateCertificate's signature + sortition + > T*tau weight check).
// A violating schedule's ChoiceTrace is greedily delta-minimized and dumped
// as a replayable counterexample artifact.
#ifndef ALGORAND_SRC_CHECK_MODEL_CHECKER_H_
#define ALGORAND_SRC_CHECK_MODEL_CHECKER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/check/strategy.h"
#include "src/common/time_units.h"

namespace algorand {

struct CheckConfig {
  // Deployment shape (kept small: the schedule tree is what's large).
  size_t n_nodes = 4;
  uint64_t rounds = 2;
  uint64_t harness_seed = 7;

  // Delivery choice points: events within `window` of the earliest pending
  // event (and no later than the engine's current lookahead window end) are
  // concurrent; at most `max_candidates` race per choice point.
  SimTime window = Millis(5);
  size_t max_candidates = 3;

  // Schedule-depth bound: choices beyond this take the default (option 0).
  size_t max_choice_points = 12;

  // Adversary choice points (deliver/drop/delay per transmission). Consulted
  // for at most `adversary_max_decisions` vote transmissions (votes are the
  // safety-critical traffic; 0 = disabled). Delayed votes arrive
  // `adversary_delay` late.
  size_t adversary_max_decisions = 0;
  SimTime adversary_delay = Millis(250);

  // Crash/restart choice points: every `crash_probe_interval` a probe may
  // kill an alive node or restart a killed one, at most `max_crash_events`
  // times per schedule (0 = disabled).
  size_t max_crash_events = 0;
  SimTime crash_probe_interval = Seconds(5);

  // Per-schedule simulated-time budget; schedules that don't finish `rounds`
  // by then are recorded as incomplete (a liveness observation, not a safety
  // violation — the adversary is allowed to stall).
  SimTime deadline = Minutes(30);

  // Optional in-protocol adversaries riding along (§10.4 equivocators and
  // §5.2 seed grinders, as in SimHarness).
  double malicious_fraction = 0;
  size_t grinding_count = 0;
  bool grind_withhold = false;

  // Test-only: node 0 runs ForcedFinalNode (test_bugs.h), the deliberately
  // seeded safety bug the checker must be able to find.
  bool seeded_bug = false;
};

// Everything observed about one explored schedule. `Fingerprint()` is the
// bit-for-bit replay contract: two runs of the same (config, trace) must
// produce identical fingerprints (event counts, per-node tips, verdicts).
struct ScheduleOutcome {
  bool completed = false;   // RunRounds finished within the deadline.
  bool safety_ok = true;    // No auditor/cross-node/certificate violation.
  std::vector<std::string> violations;
  uint64_t executed_events = 0;
  uint64_t equivocations = 0;
  std::vector<uint64_t> tips;          // Per-node chain length.
  std::vector<uint64_t> tip_prefixes;  // Per-node tip-hash prefix (uint64).
  ChoiceTrace trace;                   // As recorded by the strategy.
  bool diverged = false;               // Prefix replay mismatch (see strategy.h).

  std::string Fingerprint() const;
};

class ModelChecker {
 public:
  explicit ModelChecker(CheckConfig config) : config_(config) {}

  const CheckConfig& config() const { return config_; }

  // Runs one schedule under `prefix` (defaults beyond it). Deterministic:
  // same config + prefix => same outcome, fingerprint included.
  ScheduleOutcome RunOne(const ChoiceTrace& prefix);

  // Runs one schedule under an arbitrary strategy (owned by the caller).
  ScheduleOutcome RunWithStrategy(Strategy* strategy);

  struct ExploreResult {
    uint64_t schedules = 0;
    uint64_t violations = 0;
    uint64_t incomplete = 0;  // Schedules that missed the deadline.
    bool exhausted = false;   // DFS visited the whole (depth-bounded) tree.
    std::optional<ScheduleOutcome> first_violation;
  };

  // Exhaustive DFS over the depth-bounded choice tree, up to `max_schedules`
  // leaves (0 = unlimited). `progress` (optional) is invoked every 1000
  // schedules with the running count.
  ExploreResult RunExhaustive(uint64_t max_schedules,
                              const std::function<void(const ExploreResult&)>& progress = {});

  // `schedules` independent seeded-random schedules.
  ExploreResult RunRandom(uint64_t schedules, uint64_t seed,
                          const std::function<void(const ExploreResult&)>& progress = {});

  // Greedy delta-minimization of a violating trace: (1) shortest violating
  // prefix, (2) reset each remaining non-default choice to the default if the
  // violation survives. Returns the minimized trace, which still violates.
  ChoiceTrace Minimize(const ChoiceTrace& trace);

  // Counterexample artifact IO. The artifact is a small text file holding the
  // config, the violation strings, the expected fingerprint and the trace.
  static bool WriteCounterexample(const std::string& path, const CheckConfig& config,
                                  const ScheduleOutcome& outcome);
  struct Counterexample {
    CheckConfig config;
    ChoiceTrace trace;
    std::string fingerprint;  // Fingerprint recorded at dump time.
  };
  static std::optional<Counterexample> ReadCounterexample(const std::string& path);

 private:
  CheckConfig config_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CHECK_MODEL_CHECKER_H_
