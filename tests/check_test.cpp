// Tests for the schedule-exploring model checker (src/check): choice-trace
// round-trips, the per-kind depth bound, DFS successor enumeration,
// determinized bit-for-bit replay, counterexample artifacts, the seeded
// safety bug (found, minimized, replayed to the same violation), and the
// attack satellites — the grinding proposer's bounded advantage and the
// tentative->final upgrade across a partition heal.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/check/model_checker.h"
#include "src/check/scenarios.h"
#include "src/check/strategy.h"
#include "src/core/adversary_nodes.h"
#include "src/core/sim_harness.h"
#include "src/netsim/adversary.h"
#include "src/obs/safety_auditor.h"

namespace algorand {
namespace {

// --- ChoiceTrace -----------------------------------------------------------

TEST(ChoiceTraceTest, SerializeParseRoundTrip) {
  ChoiceTrace trace;
  trace.choices = {Choice{ChoiceKind::kDelivery, 1, 3}, Choice{ChoiceKind::kAdversary, 0, 2},
                   Choice{ChoiceKind::kCrash, 2, 5}, Choice{ChoiceKind::kDelivery, 0, 2}};
  const std::string text = trace.Serialize();
  EXPECT_EQ(text, "d1/3 a0/2 c2/5 d0/2");
  auto parsed = ChoiceTrace::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, trace);

  auto empty = ChoiceTrace::Parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->choices.empty());
}

TEST(ChoiceTraceTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ChoiceTrace::Parse("x1/3").has_value());  // Unknown kind.
  EXPECT_FALSE(ChoiceTrace::Parse("d3/3").has_value());  // chosen >= options.
  EXPECT_FALSE(ChoiceTrace::Parse("d0/1").has_value());  // Not a choice point.
  EXPECT_FALSE(ChoiceTrace::Parse("d1").has_value());    // Missing options.
}

// --- Strategy depth bound --------------------------------------------------

class AlwaysOneStrategy : public Strategy {
 public:
  using Strategy::Strategy;

 protected:
  uint32_t Pick(ChoiceKind, uint32_t) override { return 1; }
};

TEST(StrategyTest, DepthBoundIsPerKind) {
  AlwaysOneStrategy s(2);
  EXPECT_EQ(s.Choose(ChoiceKind::kDelivery, 3), 1u);
  EXPECT_EQ(s.Choose(ChoiceKind::kDelivery, 3), 1u);
  // Delivery depth exhausted: defaults, unrecorded.
  EXPECT_EQ(s.Choose(ChoiceKind::kDelivery, 3), 0u);
  // Adversary choices have their own budget and still record.
  EXPECT_EQ(s.Choose(ChoiceKind::kAdversary, 3), 1u);
  EXPECT_EQ(s.trace().choices.size(), 3u);
  EXPECT_EQ(s.trace().choices[2].kind, ChoiceKind::kAdversary);
}

TEST(StrategyTest, SingleOptionIsNotAChoicePoint) {
  AlwaysOneStrategy s(8);
  EXPECT_EQ(s.Choose(ChoiceKind::kDelivery, 1), 0u);
  EXPECT_TRUE(s.trace().choices.empty());
}

// --- DFS successor ---------------------------------------------------------

ChoiceTrace Trace(std::vector<Choice> choices) {
  ChoiceTrace t;
  t.choices = std::move(choices);
  return t;
}

TEST(NextDfsPrefixTest, IncrementsDeepestUntriedChoice) {
  auto next = NextDfsPrefix(
      Trace({Choice{ChoiceKind::kDelivery, 0, 2}, Choice{ChoiceKind::kDelivery, 0, 3}}));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->Serialize(), "d0/2 d1/3");

  // Deepest choice exhausted: pop it, increment the one above.
  next = NextDfsPrefix(
      Trace({Choice{ChoiceKind::kDelivery, 0, 2}, Choice{ChoiceKind::kDelivery, 2, 3}}));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->Serialize(), "d1/2");

  // Everything exhausted: the tree is done.
  next = NextDfsPrefix(
      Trace({Choice{ChoiceKind::kDelivery, 1, 2}, Choice{ChoiceKind::kDelivery, 2, 3}}));
  EXPECT_FALSE(next.has_value());

  // The empty trace (a run that hit no choice points) is also exhaustion.
  EXPECT_FALSE(NextDfsPrefix(Trace({})).has_value());
}

// --- ModelChecker: determinism and replay ----------------------------------

CheckConfig TinyConfig() {
  CheckConfig cfg;
  cfg.n_nodes = 4;
  cfg.rounds = 1;
  cfg.harness_seed = 7;
  cfg.max_choice_points = 6;
  return cfg;
}

TEST(ModelCheckerTest, DefaultScheduleIsDeterministicAndSafe) {
  ModelChecker checker(TinyConfig());
  ScheduleOutcome a = checker.RunOne(ChoiceTrace{});
  ScheduleOutcome b = checker.RunOne(ChoiceTrace{});
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(a.safety_ok) << a.Fingerprint();
  EXPECT_FALSE(a.diverged);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(ModelCheckerTest, RecordedTraceReplaysBitForBit) {
  CheckConfig cfg = TinyConfig();
  cfg.adversary_max_decisions = 3;
  ModelChecker checker(cfg);
  RandomStrategy strategy(99, cfg.max_choice_points);
  ScheduleOutcome live = checker.RunWithStrategy(&strategy);
  ASSERT_FALSE(live.trace.choices.empty());

  ScheduleOutcome replay = checker.RunOne(live.trace);
  EXPECT_FALSE(replay.diverged);
  EXPECT_EQ(replay.Fingerprint(), live.Fingerprint());
  EXPECT_EQ(replay.trace, live.trace);
}

TEST(ModelCheckerTest, ExhaustiveDfsVisitsDistinctSchedules) {
  CheckConfig cfg = TinyConfig();
  cfg.max_candidates = 2;
  cfg.max_choice_points = 4;
  ModelChecker checker(cfg);

  // Walk the DFS by hand and require every visited schedule to be distinct.
  std::set<std::string> seen;
  ChoiceTrace prefix;
  for (int i = 0; i < 30; ++i) {
    ScheduleOutcome out = checker.RunOne(prefix);
    EXPECT_TRUE(seen.insert(out.trace.Serialize()).second)
        << "duplicate schedule: " << out.trace.Serialize();
    auto next = NextDfsPrefix(out.trace);
    if (!next.has_value()) {
      break;
    }
    prefix = *next;
  }
  EXPECT_GE(seen.size(), 10u);

  // The library loop agrees with the manual walk.
  ModelChecker::ExploreResult res = checker.RunExhaustive(seen.size());
  EXPECT_EQ(res.schedules, seen.size());
  EXPECT_EQ(res.violations, 0u);
}

TEST(ModelCheckerTest, CleanProtocolSurvivesAdversarialSchedules) {
  CheckConfig cfg = TinyConfig();
  cfg.rounds = 2;
  cfg.adversary_max_decisions = 6;
  cfg.max_choice_points = 12;
  ModelChecker checker(cfg);
  ModelChecker::ExploreResult res = checker.RunRandom(15, 3);
  EXPECT_EQ(res.schedules, 15u);
  EXPECT_EQ(res.violations, 0u)
      << (res.first_violation ? res.first_violation->Fingerprint() : std::string());
}

TEST(ModelCheckerTest, CrashInjectionSchedulesStaySafe) {
  CheckConfig cfg = TinyConfig();
  cfg.rounds = 2;
  cfg.max_crash_events = 2;
  ModelChecker checker(cfg);
  ModelChecker::ExploreResult res = checker.RunRandom(8, 5);
  EXPECT_EQ(res.schedules, 8u);
  EXPECT_EQ(res.violations, 0u);
}

TEST(ModelCheckerTest, CrashRestartSchedulesReplayBitForBit) {
  // Crash probes restart nodes through their block stores. Every checker
  // owns a private store directory wiped before each schedule, so a
  // kill-and-restart schedule recorded by one checker replays bit for bit on
  // a second checker alive at the same time, and again on the first.
  CheckConfig cfg = TinyConfig();
  cfg.rounds = 2;
  cfg.max_crash_events = 2;
  ModelChecker recorder(cfg);
  ModelChecker replayer(cfg);
  std::optional<ScheduleOutcome> live;
  for (uint64_t seed = 1; seed <= 50 && !live.has_value(); ++seed) {
    RandomStrategy strategy(seed, cfg.max_choice_points);
    ScheduleOutcome out = recorder.RunWithStrategy(&strategy);
    const auto faults = std::count_if(
        out.trace.choices.begin(), out.trace.choices.end(),
        [](const Choice& c) { return c.kind == ChoiceKind::kCrash && c.chosen != 0; });
    if (faults >= 2) {  // A kill, then a restart.
      live = out;
    }
  }
  ASSERT_TRUE(live.has_value()) << "no kill-and-restart schedule in 50 seeds";
  EXPECT_TRUE(live->safety_ok) << live->Fingerprint();

  ScheduleOutcome replay = replayer.RunOne(live->trace);
  EXPECT_FALSE(replay.diverged);
  EXPECT_EQ(replay.Fingerprint(), live->Fingerprint());
  EXPECT_EQ(recorder.RunOne(live->trace).Fingerprint(), live->Fingerprint());
}

// --- The seeded safety bug -------------------------------------------------

CheckConfig SeededBugConfig() {
  CheckConfig cfg;
  cfg.n_nodes = 4;
  cfg.rounds = 2;
  cfg.harness_seed = 7;
  cfg.max_choice_points = 12;
  cfg.adversary_max_decisions = 6;
  cfg.seeded_bug = true;
  return cfg;
}

TEST(SeededBugTest, DefaultScheduleIsClean) {
  // ForcedFinalNode is harmless when the final step genuinely succeeds: on
  // the unperturbed schedule every round earns its FINAL honestly.
  ModelChecker checker(SeededBugConfig());
  ScheduleOutcome out = checker.RunOne(ChoiceTrace{});
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.safety_ok) << out.Fingerprint();
}

TEST(SeededBugTest, FoundMinimizedAndReplayedToSameViolation) {
  ModelChecker checker(SeededBugConfig());
  ModelChecker::ExploreResult res = checker.RunRandom(12, 1);
  ASSERT_GT(res.violations, 0u) << "randomized exploration missed the seeded bug";
  ASSERT_TRUE(res.first_violation.has_value());
  const ScheduleOutcome& violation = *res.first_violation;

  bool names_missing_quorum = false;
  for (const std::string& v : violation.violations) {
    names_missing_quorum |= v.find("FINAL consensus without a final-step quorum") !=
                            std::string::npos;
  }
  EXPECT_TRUE(names_missing_quorum) << violation.Fingerprint();

  // Minimization keeps the violation and never grows the trace.
  ChoiceTrace minimized = checker.Minimize(violation.trace);
  EXPECT_LE(minimized.choices.size(), violation.trace.choices.size());
  ScheduleOutcome replay = checker.RunOne(minimized);
  EXPECT_FALSE(replay.safety_ok);
  EXPECT_FALSE(replay.diverged);

  // Replaying the minimized schedule is bit-for-bit reproducible.
  EXPECT_EQ(checker.RunOne(minimized).Fingerprint(), replay.Fingerprint());
}

TEST(SeededBugTest, CounterexampleArtifactRoundTrips) {
  ModelChecker checker(SeededBugConfig());
  ModelChecker::ExploreResult res = checker.RunRandom(12, 1);
  ASSERT_TRUE(res.first_violation.has_value());

  const std::string path = ::testing::TempDir() + "check_test_counterexample.txt";
  ASSERT_TRUE(ModelChecker::WriteCounterexample(path, checker.config(), *res.first_violation));
  auto ce = ModelChecker::ReadCounterexample(path);
  ASSERT_TRUE(ce.has_value());
  EXPECT_EQ(ce->trace, res.first_violation->trace);
  EXPECT_EQ(ce->config.n_nodes, checker.config().n_nodes);
  EXPECT_EQ(ce->config.harness_seed, checker.config().harness_seed);
  EXPECT_EQ(ce->config.adversary_max_decisions, checker.config().adversary_max_decisions);
  EXPECT_TRUE(ce->config.seeded_bug);

  // A fresh checker built from the artifact alone reproduces the recorded run.
  ModelChecker replayer(ce->config);
  ScheduleOutcome replay = replayer.RunOne(ce->trace);
  EXPECT_FALSE(replay.diverged);
  EXPECT_EQ(replay.Fingerprint(), ce->fingerprint);
  EXPECT_FALSE(replay.safety_ok);
}

// --- Satellite: the grinding proposer's advantage is bounded ---------------

TEST(GrindingProposerTest, SeedRefreshBoundsGrinderAdvantage) {
  // A §5.2 adversary grinding block payloads for a favorable next-round seed:
  // because next_seed = VRF(seed_r || r+1) ignores the payload, every ground
  // round reaches exactly ONE next-seed no matter how many candidates it
  // tries — its only lever is the 1-bit propose/withhold choice.
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = 21;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 32 * 1024;
  cfg.params.max_steps = 9;
  cfg.params.recovery_interval = Minutes(10);
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  cfg.verify_workers = 0;
  cfg.grinding_count = 1;
  cfg.grind_candidates = 8;
  cfg.grind_withhold = true;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(5, Hours(4)));

  const auto& grinder = dynamic_cast<const GrindingProposerNode&>(h.node(0));
  const GrindingProposerNode::GrindStats& stats = grinder.grind_stats();
  ASSERT_GE(stats.rounds_selected, 1u) << "seed 21 must select the grinder at least once";
  EXPECT_EQ(stats.candidates_tried, stats.rounds_selected * 8);
  EXPECT_EQ(stats.distinct_next_seeds, stats.rounds_selected);
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(h.ChainsConsistent());
}

// --- Satellite: tentative -> final upgrade across a partition heal ---------

TEST(PartitionHealTest, TentativeRoundsUpgradeToFinalAcrossHeal) {
  // A 20% minority is cut off mid-protocol for 9 minutes while the majority
  // keeps committing. After the heal the minority must catch up and hold the
  // partition-era rounds as FINAL (not stuck tentative), with the auditor
  // silent across split, catch-up, and upgrade.
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = 5;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 32 * 1024;
  cfg.params.max_steps = 9;
  cfg.params.recovery_interval = Minutes(10);
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  cfg.verify_workers = 0;
  SimHarness h(cfg);

  SafetyAuditorConfig acfg;
  acfg.step_threshold = cfg.params.StepThreshold();
  acfg.final_threshold = cfg.params.FinalThreshold();
  SafetyAuditor auditor(acfg);
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });

  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));

  const std::set<NodeId> minority = {0, 1};
  const SimTime split_at = h.sim().now();
  const SimTime heal_at = split_at + Minutes(9);
  h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(minority, split_at, heal_at));
  h.sim().RunUntil(heal_at);

  const uint64_t minority_tip_at_heal = h.node(0).ledger().chain_length();
  const uint64_t majority_tip_at_heal = h.node(9).ledger().chain_length();
  ASSERT_GT(majority_tip_at_heal, minority_tip_at_heal)
      << "the 80% side should keep committing through the split";

  h.sim().RunUntil(heal_at + Minutes(25));

  EXPECT_GE(h.node(0).ledger().chain_length(), majority_tip_at_heal)
      << "the minority must catch up past the majority's split-time tip";
  for (uint64_t r = minority_tip_at_heal; r < majority_tip_at_heal; ++r) {
    EXPECT_EQ(h.node(0).ledger().ConsensusAtRound(r), ConsensusKind::kFinal)
        << "partition-era round " << r << " stuck tentative on the rejoined minority";
  }
  EXPECT_TRUE(h.ChainsConsistent());
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

// --- Scenario library smoke ------------------------------------------------

TEST(ScenarioTest, LibraryListsScenariosAndRejectsUnknownNames) {
  // (Running each scenario end-to-end is the CI model-check-smoke job's and
  // check_cli's business — here we only check the registry surface.)
  auto infos = ListScenarios();
  ASSERT_EQ(infos.size(), 3u);
  for (const ScenarioInfo& info : infos) {
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.description, nullptr);
  }
  EXPECT_FALSE(RunScenarioByName("no-such-scenario").has_value());
}

TEST(ScenarioTest, SeedGrindScenarioPasses) {
  auto result = RunScenarioByName("seed-grind");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->pass) << result->detail;
}

}  // namespace
}  // namespace algorand
