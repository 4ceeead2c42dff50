// End-to-end tests for the cross-node tracing and auditing pipeline: JSONL
// schema round-trip, trace-context propagation through gossip, waterfall
// joins over a multi-node simulation, the online SafetyAuditor against both
// honest and adversarial runs, and the periodic stats reporter's JSON-lines
// output.
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/sim_harness.h"
#include "src/netsim/simulation.h"
#include "src/obs/round_tracer.h"
#include "src/obs/safety_auditor.h"
#include "src/obs/stats_reporter.h"
#include "src/obs/trace_collector.h"

namespace algorand {
namespace {

// ---------------------------------------------------------------------------
// JSONL schema round-trip
// ---------------------------------------------------------------------------

std::vector<TraceEvent> SampleEvents() {
  std::vector<TraceEvent> events;
  auto add = [&events](TraceKind kind, auto mutate) {
    TraceEvent ev;
    ev.at = Millis(1500) + static_cast<SimTime>(events.size()) * Nanos(12345677);
    ev.node = static_cast<uint32_t>(events.size() % 7);
    ev.round = 3 + events.size() % 4;
    ev.kind = kind;
    mutate(&ev);
    events.push_back(ev);
  };
  add(TraceKind::kRoundStart, [](TraceEvent* ev) { ev->a = 2; });
  add(TraceKind::kSortition, [](TraceEvent* ev) {
    ev->a = 3;
    ev->b = kTraceRoleProposer;
  });
  add(TraceKind::kSortition, [](TraceEvent* ev) {
    ev->step = 4;
    ev->b = kTraceRoleCommittee;
  });
  add(TraceKind::kStepEnter, [](TraceEvent* ev) { ev->step = 1; });
  add(TraceKind::kStepExit, [](TraceEvent* ev) {
    ev->step = 1;
    ev->a = 87;
    ev->value_prefix = 0xdeadbeef12345678ull;
  });
  add(TraceKind::kStepExit, [](TraceEvent* ev) {
    ev->step = 0xffffffff;
    ev->flag = 1;  // Timed out.
  });
  add(TraceKind::kReductionDone,
      [](TraceEvent* ev) { ev->value_prefix = 0x0102030405060708ull; });
  add(TraceKind::kCoinFlip, [](TraceEvent* ev) {
    ev->step = 7;
    ev->a = 1;
  });
  add(TraceKind::kBinaryDecided, [](TraceEvent* ev) {
    ev->a = 2;
    ev->value_prefix = 0xffffffffffffffffull;
  });
  add(TraceKind::kRoundEnd, [](TraceEvent* ev) {
    ev->flag = kTraceFinal;
    ev->value_prefix = 0xabcdef;
  });
  add(TraceKind::kRoundEnd, [](TraceEvent* ev) { ev->flag = kTraceEmpty | kTraceHung; });
  add(TraceKind::kRecoveryEnter, [](TraceEvent* ev) {
    ev->round = kTraceRecoverySessionBit | 42;
    ev->a = 1;
  });
  add(TraceKind::kCatchupStart, [](TraceEvent* ev) { ev->a = 9; });
  add(TraceKind::kCatchupBatch, [](TraceEvent* ev) {
    ev->a = 4;
    ev->b = 11;
  });
  add(TraceKind::kCatchupDone, [](TraceEvent* ev) { ev->a = 6; });
  add(TraceKind::kCrash, [](TraceEvent* ev) { ev->round = 5; });
  add(TraceKind::kRestart, [](TraceEvent* ev) { ev->flag = 1; });
  add(TraceKind::kProposalGossiped, [](TraceEvent* ev) {
    ev->a = 2;
    ev->value_prefix = 0x1122334455667788ull;
  });
  add(TraceKind::kBlockReceived, [](TraceEvent* ev) {
    ev->a = 3;  // Origin node.
    ev->b = 1499000000ull;
    ev->value_prefix = 0x1122334455667788ull;
  });
  add(TraceKind::kBlockReceived, [](TraceEvent* ev) {
    ev->a = kTraceNoOrigin;  // Unstamped message.
    ev->value_prefix = 0x1122334455667788ull;
  });
  return events;
}

TEST(TraceJsonlTest, DumpParseRoundTripIsIdentity) {
  RoundTracer tracer(64);
  std::vector<TraceEvent> events = SampleEvents();
  for (const TraceEvent& ev : events) {
    tracer.Record(ev);
  }
  std::string jsonl = tracer.ToJsonl();
  auto parsed = ParseTraceJsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE((*parsed)[i] == events[i]) << "event " << i << ": " << TraceEventToJson(events[i])
                                           << " vs " << TraceEventToJson((*parsed)[i]);
  }
}

TEST(TraceJsonlTest, SingleEventJsonMatchesJsonlLine) {
  TraceEvent ev = SampleEvents()[4];  // step_exit with votes + value.
  RoundTracer tracer(4);
  tracer.Record(ev);
  std::string jsonl = tracer.ToJsonl();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_EQ(TraceEventToJson(ev) + "\n", jsonl);
}

TEST(TraceJsonlTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseTraceEventJson("").has_value());
  EXPECT_FALSE(ParseTraceEventJson("not json").has_value());
  EXPECT_FALSE(ParseTraceEventJson("{\"t\":1.0}").has_value());  // No "ev".
  EXPECT_FALSE(ParseTraceEventJson("{\"t\":1.0,\"ev\":\"no_such_kind\"}").has_value());
  EXPECT_FALSE(
      ParseTraceEventJson("{\"t\":1.0,\"ev\":\"round_start\"} trailing").has_value());
  EXPECT_FALSE(ParseTraceJsonl("{\"t\":1.0,\"ev\":\"round_start\"}\ngarbage\n").has_value());
}

TEST(FlatJsonTest, ParsesAndRejects) {
  auto obj = ParseFlatJsonObject("{\"a\":1,\"b\":\"x y\",\"c\":true,\"d\":-2.5}");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->at("a"), "1");
  EXPECT_EQ(obj->at("b"), "x y");
  EXPECT_EQ(obj->at("c"), "true");
  EXPECT_EQ(obj->at("d"), "-2.5");
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":1").has_value());       // Unterminated.
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":1,\"a\":2}").has_value());  // Duplicate key.
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":1}x").has_value());     // Trailing garbage.
  EXPECT_FALSE(ParseFlatJsonObject("[1,2]").has_value());          // Not an object.
}

// ---------------------------------------------------------------------------
// Trace-context propagation + collector join over a real multi-node sim
// ---------------------------------------------------------------------------

TEST(TraceCollectorTest, JoinsWaterfallsFromMultiNodeSim) {
  constexpr uint64_t kRounds = 2;
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.use_sim_crypto = true;
  cfg.params = ProtocolParams::ScaledCommittees(0.5);
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(kRounds));

  std::vector<TraceEvent> events = h.tracer().Events();
  // Gossip stamped the proposal; every node's first valid receipt joined
  // against the origin's stamp.
  size_t receipts_with_origin = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceKind::kBlockReceived && ev.a != kTraceNoOrigin) {
      ++receipts_with_origin;
    }
  }
  EXPECT_GT(receipts_with_origin, 0u);

  TraceCollector collector;
  collector.AddEvents(events);
  std::vector<RoundWaterfall> waterfalls = collector.Waterfalls();
  ASSERT_GE(waterfalls.size(), kRounds);
  for (uint64_t r = 0; r < kRounds; ++r) {
    const RoundWaterfall& wf = waterfalls[r];
    EXPECT_EQ(wf.round, r + 1);
    EXPECT_EQ(wf.nodes, cfg.n_nodes) << "round " << wf.round;
    EXPECT_GT(wf.receipts, 0u);
    // Receipt latency percentiles are ordered; the p50 can legitimately be
    // zero (a proposer's first receipt is its own zero-latency self-delivery)
    // but the tail reflects real network hops.
    EXPECT_GT(wf.receipt_p90_ms, 0.0);
    EXPECT_LE(wf.receipt_p50_ms, wf.receipt_p90_ms);
    EXPECT_LE(wf.receipt_p90_ms, wf.receipt_p99_ms);
    // The three Fig-5 phases are all nonzero and partition the round wall.
    EXPECT_GT(wf.gossip_ms, 0.0);
    EXPECT_GT(wf.reduction_ms, 0.0);
    EXPECT_GT(wf.votes_ms, 0.0);
    EXPECT_NEAR(wf.gossip_ms + wf.reduction_ms + wf.votes_ms, wf.round_ms,
                wf.round_ms * 1e-9 + 1e-6);
    EXPECT_FALSE(wf.step_p50_ms.empty());
  }
  // ToJson emits one object per round and stays structurally sound.
  std::string json = TraceCollector::ToJson(waterfalls);
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"gossip_ms\":"), std::string::npos);
}

TEST(TraceCollectorTest, IgnoresRecoverySessionsAndTipReusingKinds) {
  TraceCollector collector;
  TraceEvent ev;
  ev.kind = TraceKind::kRoundStart;
  ev.round = kTraceRecoverySessionBit | 7;
  collector.Ingest(ev);
  // kCrash/kCatchupDone reuse `round` for chain tips; they must not fabricate
  // round entries.
  ev.round = 12345;
  ev.kind = TraceKind::kCrash;
  collector.Ingest(ev);
  ev.kind = TraceKind::kCatchupDone;
  collector.Ingest(ev);
  EXPECT_TRUE(collector.Waterfalls().empty());
}

// ---------------------------------------------------------------------------
// SafetyAuditor: synthetic violation streams
// ---------------------------------------------------------------------------

// Small explicit quorum thresholds (the ScaledCommittees(0.5) values: a step
// winner needs > 68.5 weighted votes, FINAL needs > 222).
SafetyAuditorConfig TestThresholds() {
  SafetyAuditorConfig cfg;
  cfg.step_threshold = 68.5;
  cfg.final_threshold = 222;
  return cfg;
}

TraceEvent RoundEndEvent(uint32_t node, uint64_t round, uint64_t value, uint8_t flag) {
  TraceEvent ev;
  ev.node = node;
  ev.round = round;
  ev.kind = TraceKind::kRoundEnd;
  ev.value_prefix = value;
  ev.flag = flag;
  return ev;
}

TEST(SafetyAuditorTest, FlagsConflictingFinalBlocks) {
  SafetyAuditor auditor;
  auditor.Observe(RoundEndEvent(0, 5, 0xaaaa, kTraceFinal));
  auditor.Observe(RoundEndEvent(1, 5, 0xaaaa, kTraceFinal));  // Agreeing: fine.
  EXPECT_TRUE(auditor.ok());
  auditor.Observe(RoundEndEvent(2, 5, 0xbbbb, kTraceFinal));  // Conflict.
  EXPECT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violation_count(), 1u);
  EXPECT_NE(auditor.Report().find("two FINAL blocks"), std::string::npos);
}

TEST(SafetyAuditorTest, TentativeDisagreementIsNotAViolation) {
  SafetyAuditor auditor;
  auditor.Observe(RoundEndEvent(0, 5, 0xaaaa, 0));
  auditor.Observe(RoundEndEvent(1, 5, 0xbbbb, 0));
  EXPECT_TRUE(auditor.ok());
}

TEST(SafetyAuditorTest, FlagsSubThresholdQuorum) {
  SafetyAuditor auditor(TestThresholds());
  TraceEvent ev;
  ev.node = 0;
  ev.round = 3;
  ev.kind = TraceKind::kStepExit;
  ev.step = 2;
  ev.a = 10;  // Far below 0.685 * 100.
  auditor.Observe(ev);
  EXPECT_FALSE(auditor.ok());
  // A timed-out exit with few votes is normal.
  SafetyAuditor auditor2(TestThresholds());
  ev.flag = 1;
  auditor2.Observe(ev);
  EXPECT_TRUE(auditor2.ok());
  // A healthy quorum passes.
  SafetyAuditor auditor3(TestThresholds());
  ev.flag = 0;
  ev.a = 80;
  auditor3.Observe(ev);
  EXPECT_TRUE(auditor3.ok());
}

TEST(SafetyAuditorTest, FinalWithoutFinalStepQuorumIsFlagged) {
  SafetyAuditorConfig cfg = TestThresholds();
  SafetyAuditor auditor(cfg);
  TraceEvent start;
  start.node = 0;
  start.round = 4;
  start.kind = TraceKind::kRoundStart;
  auditor.Observe(start);
  auditor.Observe(RoundEndEvent(0, 4, 0xcccc, kTraceFinal));
  EXPECT_FALSE(auditor.ok());

  // Same stream with a non-timed-out final-step exit in between is clean.
  SafetyAuditor auditor2(cfg);
  auditor2.Observe(start);
  TraceEvent quorum;
  quorum.node = 0;
  quorum.round = 4;
  quorum.kind = TraceKind::kStepExit;
  quorum.step = cfg.final_step_code;
  quorum.a = 250;  // Above 0.74 * 300.
  auditor2.Observe(quorum);
  auditor2.Observe(RoundEndEvent(0, 4, 0xcccc, kTraceFinal));
  EXPECT_TRUE(auditor2.ok());
}

TEST(SafetyAuditorTest, FinalValueMustMatchFinalStepQuorumValue) {
  // A node whose final step exits with a quorum on value X but whose round
  // ends FINAL on value Y fabricated its finality.
  SafetyAuditorConfig cfg = TestThresholds();
  SafetyAuditor auditor(cfg);
  TraceEvent quorum;
  quorum.node = 0;
  quorum.round = 4;
  quorum.kind = TraceKind::kStepExit;
  quorum.step = cfg.final_step_code;
  quorum.a = 250;
  quorum.value_prefix = 0xaaaa;
  auditor.Observe(quorum);
  auditor.Observe(RoundEndEvent(0, 4, 0xbbbb, kTraceFinal));
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.Report().find("differs from final-step quorum value"),
            std::string::npos);

  // Matching values are clean.
  SafetyAuditor auditor2(cfg);
  auditor2.Observe(quorum);
  auditor2.Observe(RoundEndEvent(0, 4, 0xaaaa, kTraceFinal));
  EXPECT_TRUE(auditor2.ok());
}

TEST(SafetyAuditorTest, CrossNodeFinalStepWinnersMustAgree) {
  // Two nodes reporting final-step quorums on different values for the same
  // round would certify two blocks — the checker's inv-5.
  SafetyAuditorConfig cfg = TestThresholds();
  SafetyAuditor auditor(cfg);
  TraceEvent quorum;
  quorum.node = 0;
  quorum.round = 4;
  quorum.kind = TraceKind::kStepExit;
  quorum.step = cfg.final_step_code;
  quorum.a = 250;
  quorum.value_prefix = 0xaaaa;
  auditor.Observe(quorum);
  quorum.node = 1;  // Same value on another node: fine.
  auditor.Observe(quorum);
  EXPECT_TRUE(auditor.ok());
  quorum.node = 2;
  quorum.value_prefix = 0xbbbb;  // Conflicting quorum.
  auditor.Observe(quorum);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.Report().find("final-step quorums on two values"), std::string::npos);
}

TEST(SafetyAuditorTest, RestartedNodesFinalStepWinnersAreForgiven) {
  // A node that crashed and rejoined may replay a stale round's final step;
  // its quorum report must not count as a cross-node conflict.
  SafetyAuditorConfig cfg = TestThresholds();
  SafetyAuditor auditor(cfg);
  TraceEvent quorum;
  quorum.node = 0;
  quorum.round = 4;
  quorum.kind = TraceKind::kStepExit;
  quorum.step = cfg.final_step_code;
  quorum.a = 250;
  quorum.value_prefix = 0xaaaa;
  auditor.Observe(quorum);
  TraceEvent crash;
  crash.node = 2;
  crash.kind = TraceKind::kCrash;
  auditor.Observe(crash);
  quorum.node = 2;
  quorum.value_prefix = 0xbbbb;
  auditor.Observe(quorum);
  EXPECT_TRUE(auditor.ok());
}

TEST(SafetyAuditorTest, FinalityIsMonotonePerNode) {
  SafetyAuditor auditor;
  auditor.Observe(RoundEndEvent(0, 6, 0xaaaa, kTraceFinal));
  auditor.Observe(RoundEndEvent(0, 6, 0xaaaa, 0));  // Demoted to tentative.
  EXPECT_FALSE(auditor.ok());

  SafetyAuditor auditor2;
  auditor2.Observe(RoundEndEvent(0, 6, 0xaaaa, 0));  // Tentative -> final: fine.
  auditor2.Observe(RoundEndEvent(0, 6, 0xaaaa, kTraceFinal));
  EXPECT_TRUE(auditor2.ok());
}

TEST(SafetyAuditorTest, CatchupTipMustNotRegress) {
  SafetyAuditor auditor;
  TraceEvent start;
  start.node = 2;
  start.round = 9;  // Tip at session start.
  start.kind = TraceKind::kCatchupStart;
  start.a = 15;
  auditor.Observe(start);
  TraceEvent done;
  done.node = 2;
  done.round = 7;  // Behind the start tip.
  done.kind = TraceKind::kCatchupDone;
  auditor.Observe(done);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.Report().find("catch-up regressed"), std::string::npos);

  SafetyAuditor auditor2;
  auditor2.Observe(start);
  done.round = 15;
  auditor2.Observe(done);
  EXPECT_TRUE(auditor2.ok());
}

TEST(SafetyAuditorTest, FlagsEquivocationOncePerProposerRound) {
  SafetyAuditor auditor;
  TraceEvent p;
  p.node = 3;
  p.round = 2;
  p.kind = TraceKind::kProposalGossiped;
  p.value_prefix = 0x1111;
  auditor.Observe(p);
  // Another node reports receiving a different block from proposer 3.
  TraceEvent r;
  r.node = 8;
  r.round = 2;
  r.kind = TraceKind::kBlockReceived;
  r.a = 3;
  r.value_prefix = 0x2222;
  auditor.Observe(r);
  auditor.Observe(r);  // Same conflict again: still one flag.
  EXPECT_EQ(auditor.equivocations(), 1u);
  EXPECT_TRUE(auditor.ok());  // An attack indicator, not a safety violation.
}

TEST(SafetyAuditorTest, RestartedProposersAreForgiven) {
  SafetyAuditor auditor;
  TraceEvent p;
  p.node = 3;
  p.round = 2;
  p.kind = TraceKind::kProposalGossiped;
  p.value_prefix = 0x1111;
  auditor.Observe(p);
  TraceEvent crash;
  crash.node = 3;
  crash.kind = TraceKind::kCrash;
  crash.round = 2;
  auditor.Observe(crash);
  p.value_prefix = 0x2222;  // Rebuilt after restart: legitimately different.
  auditor.Observe(p);
  EXPECT_EQ(auditor.equivocations(), 0u);
}

TEST(SafetyAuditorTest, RestartedReceiversCannotWitnessEquivocation) {
  // A rejoined node replaying stale rounds receives blocks re-gossiped from
  // stored copies, whose trace stamp names the relayer, not the proposer —
  // such receipts must not be read as proposer equivocation.
  SafetyAuditor auditor;
  TraceEvent p;
  p.node = 9;
  p.round = 13;
  p.kind = TraceKind::kProposalGossiped;
  p.value_prefix = 0x1111;
  auditor.Observe(p);
  TraceEvent crash;
  crash.node = 11;
  crash.kind = TraceKind::kCrash;
  auditor.Observe(crash);
  TraceEvent r;  // Node 11 rejoins and sees a conflicting hash for round 13.
  r.node = 11;
  r.round = 13;
  r.kind = TraceKind::kBlockReceived;
  r.a = 9;
  r.value_prefix = 0x2222;
  auditor.Observe(r);
  EXPECT_EQ(auditor.equivocations(), 0u);
}

TEST(SafetyAuditorTest, CapsStoredViolationsButCountsAll) {
  SafetyAuditorConfig cfg;
  cfg.max_violations = 2;
  SafetyAuditor auditor(cfg);
  for (uint64_t r = 0; r < 5; ++r) {
    auditor.Observe(RoundEndEvent(0, r, 0xaaaa, kTraceFinal));
    auditor.Observe(RoundEndEvent(1, r, 0xbbbb, kTraceFinal));
  }
  EXPECT_EQ(auditor.violation_count(), 5u);
  EXPECT_EQ(auditor.violations().size(), 2u);
  EXPECT_NE(auditor.Report().find("(+3 more)"), std::string::npos);
}

TEST(SafetyAuditorTest, MetricsMirrorCounts) {
  MetricsRegistry reg;
  SafetyAuditor auditor;
  auditor.AttachMetrics(&reg);
  auditor.Observe(RoundEndEvent(0, 1, 0xaaaa, kTraceFinal));
  auditor.Observe(RoundEndEvent(1, 1, 0xbbbb, kTraceFinal));
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("audit.events"), 2u);
  EXPECT_EQ(snap.CounterValue("audit.violations"), 1u);
  EXPECT_EQ(snap.CounterValue("audit.equivocations"), 0u);
}

// ---------------------------------------------------------------------------
// SafetyAuditor against real runs (live observer hook)
// ---------------------------------------------------------------------------

TEST(SafetyAuditorSimTest, FlagsSeededEquivocatingRun) {
  HarnessConfig cfg;
  cfg.n_nodes = 40;
  cfg.use_sim_crypto = true;
  cfg.params = ProtocolParams::ScaledCommittees(0.5);
  cfg.malicious_fraction = 0.1;  // EquivocatingNode for the first 4 ids.
  SimHarness h(cfg);
  SafetyAuditorConfig audit_cfg;
  audit_cfg.step_threshold = cfg.params.StepThreshold();
  audit_cfg.final_threshold = cfg.params.FinalThreshold();
  SafetyAuditor auditor(audit_cfg);
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });
  h.Start();
  ASSERT_TRUE(h.RunRounds(3));
  // The attack is detected...
  EXPECT_GT(auditor.equivocations(), 0u);
  // ...but BA* survives it: no safety violation, matching CheckSafety.
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  EXPECT_TRUE(h.CheckSafety().ok);
}

TEST(SafetyAuditorSimTest, SilentOnHonestChaosRun) {
  HarnessConfig cfg;
  cfg.n_nodes = 50;
  cfg.use_sim_crypto = true;
  cfg.params = ProtocolParams::ScaledCommittees(0.5);
  cfg.data_dir = ::testing::TempDir() + "algorand_auditor_chaos";
  cfg.store_background_writer = false;
  std::filesystem::remove_all(cfg.data_dir);
  cfg.crash_schedule.push_back({3, Seconds(10), Seconds(30), true});
  cfg.crash_schedule.push_back({7, Seconds(15), Seconds(40), false});
  SimHarness h(cfg);
  SafetyAuditorConfig audit_cfg;
  audit_cfg.step_threshold = cfg.params.StepThreshold();
  audit_cfg.final_threshold = cfg.params.FinalThreshold();
  SafetyAuditor auditor(audit_cfg);
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });
  h.Start();
  ASSERT_TRUE(h.RunRounds(5, Hours(2)));
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  EXPECT_EQ(auditor.equivocations(), 0u);
  EXPECT_TRUE(h.CheckSafety().ok);
  std::filesystem::remove_all(cfg.data_dir);
}

// ---------------------------------------------------------------------------
// StatsReporter
// ---------------------------------------------------------------------------

TEST(StatsReporterTest, MakeLineIsValidFlatJson) {
  std::string line =
      StatsReporter::MakeLine(12.5, 0.25, {{"tip", 41}, {"rounds_per_sec", 3.25}});
  auto obj = ParseFlatJsonObject(line);
  ASSERT_TRUE(obj.has_value()) << line;
  EXPECT_EQ(obj->at("t"), "12.500000");
  EXPECT_EQ(obj->at("lag_ms"), "0.250");
  EXPECT_EQ(obj->at("tip"), "41");
  EXPECT_EQ(obj->at("rounds_per_sec"), "3.25");
  // Hostile key characters are escaped; non-finite values are zeroed (neither
  // NaN nor inf is JSON).
  std::string hostile = StatsReporter::MakeLine(
      0, 0, {{"quote\"key", 1}, {"nan", std::nan("")}, {"inf", INFINITY}});
  EXPECT_NE(hostile.find("\"quote\\\"key\":1"), std::string::npos);
  EXPECT_NE(hostile.find("\"nan\":0"), std::string::npos);
  EXPECT_NE(hostile.find("\"inf\":0"), std::string::npos);
}

TEST(StatsReporterTest, EmitsOneValidJsonLinePerInterval) {
  Simulation sim;
  std::ostringstream out;
  int ticks = 0;
  StatsReporter reporter(
      &sim, Millis(100),
      [&ticks]() -> StatsReporter::Sample {
        ++ticks;
        return {{"tick", static_cast<double>(ticks)}};
      },
      &out);
  reporter.Start();
  // Keep the queue alive past the last expected tick, then drain.
  sim.Schedule(Millis(1050), [] {});
  sim.RunUntil(Millis(1050));
  reporter.Stop();
  EXPECT_EQ(reporter.lines_emitted(), 10u);

  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  double last_t = -1;
  while (std::getline(lines, line)) {
    auto obj = ParseFlatJsonObject(line);
    ASSERT_TRUE(obj.has_value()) << line;
    EXPECT_EQ(obj->count("t"), 1u);
    EXPECT_EQ(obj->count("lag_ms"), 1u);
    double t = std::stod(obj->at("t"));
    EXPECT_GT(t, last_t);
    last_t = t;
    EXPECT_EQ(obj->at("tick"), std::to_string(++count));
  }
  EXPECT_EQ(count, 10);
}

TEST(StatsReporterTest, StopPreventsFurtherLines) {
  Simulation sim;
  std::ostringstream out;
  StatsReporter reporter(
      &sim, Millis(100), []() -> StatsReporter::Sample { return {}; }, &out);
  reporter.Start();
  sim.Schedule(Millis(250), [&reporter] { reporter.Stop(); });
  sim.Schedule(Millis(1000), [] {});
  sim.RunUntil(Millis(1000));
  EXPECT_EQ(reporter.lines_emitted(), 2u);
}

}  // namespace
}  // namespace algorand
