// Tests for the observability subsystem (src/obs): metrics registry
// semantics, histogram percentiles against the exact stats helpers, snapshot
// merging, the round tracer's ring buffer, and end-to-end integration through
// SimHarness.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/sim_harness.h"
#include "src/crypto/sha256.h"
#include "src/obs/metrics.h"
#include "src/obs/round_tracer.h"

namespace algorand {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
}

TEST(RegistryTest, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.y");
  Counter& b = reg.GetCounter("x.y");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  Histogram& h1 = reg.GetHistogram("h", {1, 2, 3});
  Histogram& h2 = reg.GetHistogram("h", {10, 20});  // Bounds fixed at creation.
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 3u);
}

TEST(RegistryTest, ThousandMixedMetricsSnapshotIsPinned) {
  // 1,000 instruments of all three kinds, created out of name order with
  // names of several lengths (400 shared across kinds) and repeat lookups,
  // then written through the references the first lookups returned. The
  // snapshot must match one built beside it, and its exports are pinned to a
  // digest.
  MetricsRegistry reg;
  MetricsSnapshot expected;
  DeterministicRng rng(1000);
  std::vector<std::pair<std::string, Counter*>> counters;
  std::vector<std::pair<std::string, Gauge*>> gauges;
  std::vector<std::pair<std::string, Histogram*>> histograms;
  std::vector<uint64_t> first_kind;
  for (int i = 0; i < 1000; ++i) {
    // The last 400 reuse an earlier name under another kind.
    const int n = i % 600;
    uint64_t kind = rng.UniformU64(3);
    if (i < 600) {
      first_kind.push_back(kind);
    } else if (kind == first_kind[n]) {
      kind = (kind + 1) % 3;
    }
    std::string name = "m";
    name += std::to_string(n * 7919 % 600);
    name.push_back('.');
    name.append(n % 5 * 9, static_cast<char>('a' + n % 26));
    if (kind == 0) {
      counters.emplace_back(name, &reg.GetCounter(name));
      expected.counters[name];
    } else if (kind == 1) {
      gauges.emplace_back(name, &reg.GetGauge(name));
      expected.gauges[name];
    } else {
      std::vector<double> bounds;
      for (uint64_t b = 0, n = 1 + rng.UniformU64(6); b < n; ++b) {
        bounds.push_back(static_cast<double>(rng.UniformU64(100)));
      }
      Histogram& h = reg.GetHistogram(name, bounds);
      histograms.emplace_back(name, &h);
      HistogramSnapshot& e = expected.histograms[name];
      if (e.bounds.empty()) {
        e.bounds = h.bounds();
        e.buckets.assign(e.bounds.size() + 1, 0);
      }
    }
  }
  for (const auto& [name, c] : counters) {
    EXPECT_EQ(c, &reg.GetCounter(name));
    const uint64_t n = rng.UniformU64(1000);
    c->Increment(n);
    expected.counters[name] += n;
  }
  for (const auto& [name, g] : gauges) {
    EXPECT_EQ(g, &reg.GetGauge(name));
    const int64_t d = static_cast<int64_t>(rng.UniformU64(2000)) - 1000;
    g->Add(d);
    expected.gauges[name] += d;
  }
  for (const auto& [name, h] : histograms) {
    EXPECT_EQ(h, &reg.GetHistogram(name));
    const double v = static_cast<double>(rng.UniformU64(120));
    h->Observe(v);
    HistogramSnapshot& e = expected.histograms[name];
    ++e.buckets[std::lower_bound(e.bounds.begin(), e.bounds.end(), v) - e.bounds.begin()];
    ++e.count;
    e.sum += v;
  }
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters, expected.counters);
  EXPECT_EQ(snap.gauges, expected.gauges);
  ASSERT_EQ(snap.histograms.size(), expected.histograms.size());
  for (const auto& [name, e] : expected.histograms) {
    const HistogramSnapshot& h = snap.histograms.at(name);
    EXPECT_EQ(h.bounds, e.bounds) << name;
    EXPECT_EQ(h.buckets, e.buckets) << name;
    EXPECT_EQ(h.count, e.count) << name;
    EXPECT_DOUBLE_EQ(h.sum, e.sum) << name;
  }
  EXPECT_EQ(snap.ToJson(), expected.ToJson());
  EXPECT_EQ(snap.counters.size() + snap.gauges.size() + snap.histograms.size(), 1000u);
  EXPECT_EQ(Sha256::Hash(BytesOfString(snap.ToJson() + snap.ToText())).ToHex(),
            "7094ee96ce7ebc18cf4bfcb6d7c058337920c04123bfc336bc8e9b1deef0095b");
}

TEST(HistogramTest, BucketsObservationsByBound) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("h", {10, 20, 30});
  h.Observe(5);    // Bucket 0 (<= 10).
  h.Observe(10);   // Bucket 0 (inclusive upper bound).
  h.Observe(15);   // Bucket 1.
  h.Observe(100);  // Overflow.
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("h");
  ASSERT_EQ(hs.buckets.size(), 4u);
  EXPECT_EQ(hs.buckets[0], 2u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 0u);
  EXPECT_EQ(hs.buckets[3], 1u);
  EXPECT_EQ(hs.count, 4u);
  EXPECT_DOUBLE_EQ(hs.sum, 130.0);
  EXPECT_DOUBLE_EQ(hs.Mean(), 32.5);
}

TEST(HistogramTest, UnsortedBoundsAreNormalized) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("h", {30, 10, 20, 10});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 10);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 30);
}

TEST(HistogramTest, PercentileTracksExactStats) {
  // With fine buckets, the interpolated histogram percentile must stay close
  // to the exact sorted-vector percentile: within one bucket width.
  std::vector<double> bounds;
  for (double b = 1; b <= 1000; b += 1) {
    bounds.push_back(b);
  }
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", bounds);
  std::vector<double> values;
  uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG.
    double v = static_cast<double>(x % 900) + 50.0;
    values.push_back(v);
    h.Observe(v);
  }
  const HistogramSnapshot hs = reg.Snapshot().histograms.at("lat");
  std::sort(values.begin(), values.end());
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    double exact = PercentileSorted(values, q);
    EXPECT_NEAR(hs.Percentile(q), exact, 1.01) << "q=" << q;
  }
  Summary s = Summarize(values);
  EXPECT_NEAR(hs.Percentile(0.5), s.median, 1.01);
  EXPECT_NEAR(hs.Mean(), s.mean, 1e-6);
}

TEST(SnapshotTest, MergeSumsCountersAndBuckets) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("c").Increment(2);
  b.GetCounter("c").Increment(3);
  b.GetCounter("only_b").Increment(1);
  a.GetGauge("g").Set(5);
  b.GetGauge("g").Set(7);
  a.GetHistogram("h", {1, 2}).Observe(0.5);
  b.GetHistogram("h", {1, 2}).Observe(1.5);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.CounterValue("c"), 5u);
  EXPECT_EQ(merged.CounterValue("only_b"), 1u);
  EXPECT_EQ(merged.gauges.at("g"), 12);
  const HistogramSnapshot& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_DOUBLE_EQ(h.sum, 2.0);
}

TEST(SnapshotTest, MergeIsAssociative) {
  // (a + b) + c == a + (b + c) for counters, gauges and histograms.
  auto make = [](uint64_t n, double obs) {
    auto reg = std::make_unique<MetricsRegistry>();
    reg->GetCounter("c").Increment(n);
    reg->GetGauge("g").Add(static_cast<int64_t>(n));
    reg->GetHistogram("h", {1, 10, 100}).Observe(obs);
    return reg;
  };
  auto a = make(1, 0.5);
  auto b = make(2, 5);
  auto c = make(4, 50);

  MetricsSnapshot left = a->Snapshot();
  left.Merge(b->Snapshot());
  left.Merge(c->Snapshot());

  MetricsSnapshot bc = b->Snapshot();
  bc.Merge(c->Snapshot());
  MetricsSnapshot right = a->Snapshot();
  right.Merge(bc);

  EXPECT_EQ(left.ToJson(), right.ToJson());
  EXPECT_EQ(left.CounterValue("c"), 7u);
}

TEST(SnapshotTest, MismatchedHistogramBoundsCountConflict) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetHistogram("h", {1, 2}).Observe(1);
  b.GetHistogram("h", {5, 6}).Observe(5);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.histograms.at("h").count, 1u);  // Keeps the existing one.
  EXPECT_EQ(merged.CounterValue("obs.merge_conflicts"), 1u);
}

TEST(SnapshotTest, CounterSumByPrefix) {
  MetricsRegistry reg;
  reg.GetCounter("gossip.msgs_in.vote").Increment(3);
  reg.GetCounter("gossip.msgs_in.block").Increment(4);
  reg.GetCounter("gossip.msgs_out.vote").Increment(9);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterSumByPrefix("gossip.msgs_in."), 7u);
  EXPECT_EQ(snap.CounterSumByPrefix("gossip."), 16u);
  EXPECT_EQ(snap.CounterSumByPrefix("nope."), 0u);
}

TEST(SnapshotTest, JsonExportIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("a.b").Increment(7);
  reg.GetGauge("g").Set(-2);
  reg.GetHistogram("h", {1, 2}).Observe(1.5);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.b\":7"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
  // Balanced braces (cheap structural check without a JSON parser).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (!in_string && ch == '{') {
      ++depth;
    } else if (!in_string && ch == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(RoundTracerTest, RecordsInOrder) {
  RoundTracer tracer(8);
  for (uint64_t i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.node = static_cast<uint32_t>(i);
    ev.kind = TraceKind::kRoundStart;
    tracer.Record(ev);
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].node, i);
  }
}

TEST(RoundTracerTest, RingBufferWrapsKeepingNewest) {
  RoundTracer tracer(4);
  for (uint64_t i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.round = i;
    tracer.Record(ev);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: rounds 6, 7, 8, 9.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].round, 6u + i);
  }
}

TEST(RoundTracerTest, AttachMetricsMirrorsRingHealth) {
  MetricsRegistry reg;
  RoundTracer tracer(4);
  tracer.AttachMetrics(&reg);
  for (uint64_t i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.round = i;
    tracer.Record(ev);
  }
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("trace.recorded"), 10u);
  EXPECT_EQ(snap.CounterValue("trace.dropped"), 6u);
  // The ring is full: occupancy gauge pins at capacity.
  EXPECT_EQ(snap.gauges.at("trace.ring_occupancy"), 4);
  // Detach stops the mirroring but keeps the accessors live.
  tracer.AttachMetrics(nullptr);
  tracer.Record(TraceEvent{});
  EXPECT_EQ(reg.Snapshot().CounterValue("trace.recorded"), 10u);
  EXPECT_EQ(tracer.recorded(), 11u);
}

TEST(RoundTracerTest, OccupancyGaugeTracksPartialFill) {
  MetricsRegistry reg;
  RoundTracer tracer(8);
  tracer.AttachMetrics(&reg);
  tracer.Record(TraceEvent{});
  tracer.Record(TraceEvent{});
  tracer.Record(TraceEvent{});
  EXPECT_EQ(reg.Snapshot().gauges.at("trace.ring_occupancy"), 3);
  EXPECT_EQ(reg.Snapshot().CounterValue("trace.dropped"), 0u);
}

TEST(RoundTracerTest, ObserverSeesEveryEventInOrder) {
  RoundTracer tracer(2);  // Smaller than the event count: drops don't matter.
  std::vector<uint64_t> seen;
  tracer.SetObserver([&seen](const TraceEvent& ev) { seen.push_back(ev.round); });
  for (uint64_t i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.round = i;
    tracer.Record(ev);
  }
  ASSERT_EQ(seen.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[i], i);
  }
  tracer.SetObserver(nullptr);  // Cleared: no further callbacks.
  tracer.Record(TraceEvent{});
  EXPECT_EQ(seen.size(), 5u);
}

TEST(HistogramTest, EstimateQuantilesMatchesPercentile) {
  MetricsRegistry reg;
  std::vector<double> bounds;
  for (double b = 10; b <= 1000; b += 10) {
    bounds.push_back(b);
  }
  Histogram& h = reg.GetHistogram("lat", bounds);
  for (int i = 1; i <= 100; ++i) {
    h.Observe(static_cast<double>(i * 7 % 950) + 1);
  }
  const HistogramSnapshot hs = reg.Snapshot().histograms.at("lat");
  HistogramSnapshot::Quantiles q = hs.EstimateQuantiles();
  EXPECT_DOUBLE_EQ(q.p50, hs.Percentile(0.5));
  EXPECT_DOUBLE_EQ(q.p90, hs.Percentile(0.9));
  EXPECT_DOUBLE_EQ(q.p99, hs.Percentile(0.99));
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p99);
}

TEST(SnapshotTest, ExportsIncludeInterpolatedQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {1, 2, 4, 8});
  h.Observe(1.5);
  h.Observe(3);
  MetricsSnapshot snap = reg.Snapshot();
  std::string text = snap.ToText();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p90="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(RoundTracerTest, JsonlHasOneObjectPerEvent) {
  RoundTracer tracer(16);
  TraceEvent ev;
  ev.at = Millis(1500);
  ev.node = 3;
  ev.round = 2;
  ev.kind = TraceKind::kStepExit;
  ev.step = 4;
  ev.a = 87;
  tracer.Record(ev);
  ev.kind = TraceKind::kRoundEnd;
  ev.flag = kTraceFinal;
  tracer.Record(ev);
  std::string jsonl = tracer.ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"ev\":\"step_exit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\":\"round_end\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"node\":3"), std::string::npos);
}

TEST(VerificationCacheTest, RoutesHitsAndMissesThroughRegistry) {
  MetricsRegistry reg;
  VerificationCache cache;
  cache.AttachMetrics(&reg);
  Hash256 id{};
  id[0] = 1;
  EXPECT_EQ(cache.GetOrCompute(id, [] { return 7u; }), 7u);
  EXPECT_EQ(cache.GetOrCompute(id, [] { return 9u; }), 7u);  // Cached.
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("verify.cache_misses"), 1u);
  EXPECT_EQ(snap.CounterValue("verify.cache_hits"), 1u);
  EXPECT_EQ(cache.hits(), 1u);  // Accessor reads the same counter.
}

// End-to-end: a small simulated deployment populates BA* histograms, the
// gossip counters balance, and every honest node leaves a full round trace.
class HarnessObsTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRounds = 2;

  void SetUp() override {
    HarnessConfig cfg;
    cfg.n_nodes = 20;
    cfg.use_sim_crypto = true;
    cfg.params = ProtocolParams::ScaledCommittees(0.5);
    harness_ = std::make_unique<SimHarness>(cfg);
    harness_->Start();
    ASSERT_TRUE(harness_->RunRounds(kRounds));
    snapshot_ = harness_->AggregateMetrics();
  }

  std::unique_ptr<SimHarness> harness_;
  MetricsSnapshot snapshot_;
};

TEST_F(HarnessObsTest, BaStepHistogramsArePopulated) {
  const HistogramSnapshot& steps = snapshot_.histograms.at("ba.step_time_ms");
  EXPECT_GT(steps.count, 0u);
  EXPECT_GT(steps.Percentile(0.5), 0.0);
  const HistogramSnapshot& rounds = snapshot_.histograms.at("ba.round_time_ms");
  // Every node contributes one observation per completed round.
  EXPECT_GE(rounds.count, kRounds * harness_->node_count());
  EXPECT_GT(snapshot_.CounterValue("node.rounds.completed"), 0u);
  EXPECT_GT(snapshot_.CounterValue("node.votes.cast"), 0u);
  EXPECT_GT(snapshot_.CounterValue("node.votes.counted"), 0u);
}

TEST_F(HarnessObsTest, GossipCountersBalance) {
  uint64_t in = snapshot_.CounterSumByPrefix("gossip.msgs_in.");
  uint64_t out = snapshot_.CounterSumByPrefix("gossip.msgs_out.");
  EXPECT_GT(in, 0u);
  // The sim network is lossless, but the run stops the instant the last
  // honest node finishes its rounds — copies still in flight never arrive.
  EXPECT_LE(in, out);
  EXPECT_GT(in, out - out / 20);  // Within 5% of sends.
  // Every arrival is dispatched exactly once.
  EXPECT_EQ(in, snapshot_.CounterValue("gossip.delivered") +
                    snapshot_.CounterValue("gossip.dup_dropped") +
                    snapshot_.CounterValue("gossip.rejected"));
}

TEST_F(HarnessObsTest, TracerCoversEveryNodeAndRound) {
  std::vector<TraceEvent> events = harness_->tracer().Events();
  ASSERT_FALSE(events.empty());
  // Each node records a round_start for rounds 1..kRounds (and likely the
  // next round it began before the run stopped).
  std::vector<int> starts(harness_->node_count(), 0);
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceKind::kRoundStart && ev.round >= 1 && ev.round <= kRounds) {
      ++starts[ev.node];
    }
  }
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i], static_cast<int>(kRounds)) << "node " << i;
  }
  // Round ends carry the final/tentative flag and a non-zero block prefix.
  bool saw_round_end = false;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceKind::kRoundEnd && (ev.flag & kTraceHung) == 0) {
      saw_round_end = true;
      EXPECT_NE(ev.value_prefix, 0u);
    }
  }
  EXPECT_TRUE(saw_round_end);
}

TEST_F(HarnessObsTest, AggregateIncludesSimAndNetworkTotals) {
  EXPECT_GT(snapshot_.CounterValue("sim.events_executed"), 0u);
  EXPECT_GT(snapshot_.CounterValue("net.bytes_sent"), 0u);
  EXPECT_GT(snapshot_.CounterValue("trace.events_recorded"), 0u);
  EXPECT_GT(snapshot_.CounterValue("verify.cache_hits"), 0u);
}

}  // namespace
}  // namespace algorand
