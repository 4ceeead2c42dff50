// Unit tests for the conservative-lookahead engine's windows, workers,
// typed deliveries and model-checker choice hook (src/netsim/simulation.h), the aggregate-user model's
// distributional fidelity (src/core/user_group.h), and the mutex-striped
// sortition CDF cache. sim_determinism_test covers the end-to-end
// workers=1-vs-N contract on full consensus runs; this file pins the
// engine-level mechanics those runs rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sortition.h"
#include "src/netsim/simulation.h"

namespace algorand {
namespace {

// ---------------------------------------------------------------------------
// Engine mechanics.

TEST(ParallelSimTest, ExecutesInTimestampOrderWithinStream) {
  Simulation sim(/*workers=*/1, /*n_streams=*/1, /*lookahead=*/100);
  std::vector<std::pair<SimTime, int>> log;
  sim.SetExternalStream(0);
  sim.ScheduleAtForStream(50, 0, [&] { log.emplace_back(sim.now(), 3); });
  sim.ScheduleAtForStream(10, 0, [&] { log.emplace_back(sim.now(), 1); });
  sim.ScheduleAtForStream(30, 0, [&] { log.emplace_back(sim.now(), 2); });
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<SimTime, int>{10, 1}));
  EXPECT_EQ(log[1], (std::pair<SimTime, int>{30, 2}));
  EXPECT_EQ(log[2], (std::pair<SimTime, int>{50, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ParallelSimTest, PastSchedulesClampToNow) {
  Simulation sim(1, 1, 100);
  sim.SetExternalStream(0);
  SimTime seen = -1;
  sim.ScheduleAtForStream(500, 0, [&] {
    // Inside the event, "now" is 500; a schedule into the past must clamp.
    sim.ScheduleAtForStream(3, 0, [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 500);
}

TEST(ParallelSimTest, RunUntilLeavesLaterEventsAndAdvancesClock) {
  Simulation sim(1, 1, 100);
  sim.SetExternalStream(0);
  int ran = 0;
  sim.ScheduleAtForStream(500, 0, [&] { ++ran; });
  sim.RunUntil(200);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.now(), 200);  // Clock reaches the deadline even when idle.
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(1000);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(ParallelSimTest, StepRunsOneConservativeWindow) {
  constexpr SimTime kLook = 100;
  Simulation sim(/*workers=*/2, /*n_streams=*/2, kLook);
  // The two shards run the first window concurrently and both count into
  // first_window.
  std::atomic<int> first_window{0};
  std::atomic<int> second_window{0};
  sim.SetExternalStream(0);
  sim.ScheduleAtForStream(10, 0, [&] { ++first_window; });
  sim.SetExternalStream(1);
  sim.ScheduleAtForStream(20, 1, [&] { ++first_window; });  // Same [10,109] window.
  sim.ScheduleAtForStream(10 + 5 * kLook, 1, [&] { ++second_window; });
  sim.SetExternalStream(Simulation::kGlobalStream);

  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(first_window.load(), 2);
  EXPECT_EQ(second_window.load(), 0);
  EXPECT_EQ(sim.windows(), 1u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(second_window.load(), 1);
  EXPECT_FALSE(sim.Step());  // Drained.
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(ParallelSimTest, StopHaltsAtTheNextBarrier) {
  constexpr SimTime kLook = 100;
  Simulation sim(1, 1, kLook);
  sim.SetExternalStream(0);
  int ran = 0;
  sim.ScheduleAtForStream(10, 0, [&] {
    ++ran;
    sim.Stop();
  });
  sim.ScheduleAtForStream(10 + 5 * kLook, 0, [&] { ++ran; });  // A later window.
  sim.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();  // Run() clears the stop flag and resumes.
  EXPECT_EQ(ran, 2);
}

TEST(ParallelSimTest, GlobalEventsRunAtBarriersBetweenStreamEvents) {
  // A global-stream event must observe every same-or-earlier stream event
  // completed (even at an equal timestamp: node streams order before the
  // global stream), and runs with the clock set to its own timestamp. The
  // two stream events live on different shards and may run concurrently, so
  // each writes only its own flag; the barrier's synchronization makes both
  // flags visible to the coordinator-run global event.
  constexpr SimTime kLook = 100;
  Simulation sim(/*workers=*/2, /*n_streams=*/2, kLook);
  bool done0 = false;
  bool done1 = false;
  sim.SetExternalStream(0);
  sim.ScheduleAtForStream(10, 0, [&] { done0 = true; });
  sim.SetExternalStream(1);
  sim.ScheduleAtForStream(40, 1, [&] { done1 = true; });
  sim.SetExternalStream(Simulation::kGlobalStream);
  bool saw_both = false;
  SimTime global_now = -1;
  sim.ScheduleAt(40, [&] {
    saw_both = done0 && done1;
    global_now = sim.now();
  });
  sim.Run();
  EXPECT_TRUE(saw_both);
  EXPECT_EQ(global_now, 40);
  EXPECT_EQ(sim.executed_events(), 3u);
}

// The synthetic ping workload used for the worker-invariance checks: each
// stream hops a token around the ring (cross-shard for any workers >= 2,
// arrival exactly lookahead later — the minimum legal delay) and drops a
// same-stream echo event inside the current window. Per-stream logs are safe
// to write concurrently because one stream's events execute on exactly one
// shard, sequentially.
struct PingRun {
  std::vector<std::vector<std::pair<SimTime, uint32_t>>> logs;
  uint64_t executed = 0;
  uint64_t windows = 0;
  uint64_t cross_shard = 0;
  std::vector<std::pair<std::string, uint64_t>> stats;
};

PingRun RunPingWorkload(size_t workers) {
  constexpr uint32_t kStreams = 6;
  constexpr SimTime kLook = 100;
  Simulation sim(workers, kStreams, kLook);
  PingRun out;
  out.logs.resize(kStreams);
  std::function<void(uint32_t, uint32_t, int)> hop = [&](uint32_t at, uint32_t from, int hops) {
    out.logs[at].emplace_back(sim.now(), from);
    if (hops == 0) {
      return;
    }
    const uint32_t next = (at + 1) % kStreams;
    sim.ScheduleAtForStream(sim.now() + kLook, next,
                            [&hop, next, at, hops] { hop(next, at, hops - 1); });
    sim.ScheduleAtForStream(sim.now() + 1, at,
                            [&out, &sim, at] { out.logs[at].emplace_back(sim.now(), 1000 + at); });
  };
  for (uint32_t i = 0; i < kStreams; ++i) {
    sim.SetExternalStream(i);
    sim.ScheduleAtForStream(1 + i, i, [&hop, i] { hop(i, i, 8); });
  }
  sim.SetExternalStream(Simulation::kGlobalStream);
  sim.Run();
  out.executed = sim.executed_events();
  out.windows = sim.windows();
  out.cross_shard = sim.cross_shard_events();
  out.stats = sim.EngineStats();
  return out;
}

TEST(ParallelSimTest, WorkerCountDoesNotChangeExecution) {
  PingRun one = RunPingWorkload(1);
  for (size_t workers : {2u, 3u, 4u}) {
    PingRun many = RunPingWorkload(workers);
    EXPECT_EQ(one.executed, many.executed) << "workers=" << workers;
    EXPECT_EQ(one.windows, many.windows) << "workers=" << workers;
    EXPECT_EQ(one.logs, many.logs) << "workers=" << workers;
    // Ring hops cross shard boundaries whenever there is more than one shard.
    EXPECT_GT(many.cross_shard, 0u) << "workers=" << workers;
  }
  EXPECT_EQ(one.cross_shard, 0u);  // Single shard: nothing to exchange.
  EXPECT_GT(one.executed, 0u);
}

TEST(ParallelSimTest, EngineStatsAccountForEveryEvent) {
  PingRun r = RunPingWorkload(4);
  uint64_t windows = 0, cross = 0, globals = 0, worker_events = 0;
  size_t worker_rows = 0;
  for (const auto& [k, v] : r.stats) {
    if (k == "sim.windows") {
      windows = v;
    } else if (k == "sim.cross_shard_events") {
      cross = v;
    } else if (k == "sim.global_events") {
      globals = v;
    } else if (k.size() > 7 && k.compare(k.size() - 7, 7, ".events") == 0) {
      worker_events += v;
      ++worker_rows;
    }
  }
  EXPECT_EQ(windows, r.windows);
  EXPECT_EQ(cross, r.cross_shard);
  EXPECT_EQ(worker_rows, 4u);  // One ".events" row per shard.
  // Per-worker counters plus barrier-run globals account for every event.
  EXPECT_EQ(worker_events + globals, r.executed);
}

// ---------------------------------------------------------------------------
// Model-checker choice hook.

// Answers every choice point from a fixed rule and records what it was
// offered.
class ScriptedHook : public ScheduleChoiceHook {
 public:
  enum class Pick { kFirst, kLastOnce };

  ScriptedHook(SimTime window, size_t max_candidates, Pick pick)
      : window_(window), max_candidates_(max_candidates), pick_(pick) {}

  SimTime Window() const override { return window_; }
  size_t MaxCandidates() const override { return max_candidates_; }
  size_t ChooseNext(SimTime earliest, size_t count) override {
    offers.emplace_back(earliest, count);
    if (pick_ == Pick::kLastOnce && offers.size() == 1) {
      return count - 1;
    }
    return 0;
  }

  std::vector<std::pair<SimTime, size_t>> offers;  // (earliest, count).

 private:
  SimTime window_;
  size_t max_candidates_;
  Pick pick_;
};

// A dense four-stream workload on one worker: close timestamps, nested
// same-stream timers, and cross-stream sends, so most dequeues have several
// events inside any hook window. Returns the (now, id) execution log.
std::vector<std::pair<SimTime, int>> RunDenseWorkload(ScheduleChoiceHook* hook,
                                                      uint64_t* executed) {
  constexpr uint32_t kStreams = 4;
  Simulation sim(/*workers=*/1, kStreams, /*lookahead=*/100);
  sim.set_choice_hook(hook);
  std::vector<std::pair<SimTime, int>> log;
  DeterministicRng rng(3);
  std::function<void(int, uint32_t, int)> fire = [&](int id, uint32_t at, int depth) {
    log.emplace_back(sim.now(), id);
    if (depth == 0) {
      return;
    }
    const SimTime d = static_cast<SimTime>(rng.NextU64() % 40);
    sim.Schedule(d, [&fire, id, at, depth] { fire(id * 10 + 1, at, depth - 1); });
    const uint32_t to = (at + 1) % kStreams;
    sim.ScheduleAtForStream(sim.now() + 100 + d, to,
                            [&fire, id, to, depth] { fire(id * 10 + 2, to, depth - 1); });
  };
  for (uint32_t i = 0; i < 24; ++i) {
    const uint32_t stream = i % kStreams;
    sim.SetExternalStream(stream);
    sim.ScheduleAtForStream(static_cast<SimTime>(rng.NextU64() % 60), stream,
                            [&fire, i, stream] { fire(static_cast<int>(i) + 1, stream, 3); });
  }
  sim.SetExternalStream(Simulation::kGlobalStream);
  sim.Run();
  *executed = sim.executed_events();
  return log;
}

TEST(ParallelSimTest, ChoiceHookPickingFirstReplaysUnhookedOrder) {
  uint64_t plain_executed = 0;
  const auto plain = RunDenseWorkload(nullptr, &plain_executed);
  ScriptedHook hook(/*window=*/30, /*max_candidates=*/4, ScriptedHook::Pick::kFirst);
  uint64_t hooked_executed = 0;
  const auto hooked = RunDenseWorkload(&hook, &hooked_executed);
  ASSERT_FALSE(hook.offers.empty());  // The hook really was consulted.
  EXPECT_EQ(plain, hooked);
  EXPECT_EQ(plain_executed, hooked_executed);
}

TEST(ParallelSimTest, ChoiceHookRunsPickFirstWithoutClockRegressOrPastWindowEnd) {
  // Window [10, 109]: the events at 10, 20 and 30 race; the one at 150 lies
  // inside the hook's (huge) concurrency window but past the lookahead
  // window's end, so it must never be offered alongside them.
  Simulation sim(/*workers=*/1, /*n_streams=*/1, /*lookahead=*/100);
  ScriptedHook hook(/*window=*/1000, /*max_candidates=*/8, ScriptedHook::Pick::kLastOnce);
  sim.set_choice_hook(&hook);
  std::vector<std::pair<SimTime, int>> log;
  sim.SetExternalStream(0);
  for (const auto& [when, id] : std::vector<std::pair<SimTime, int>>{
           {10, 1}, {20, 2}, {30, 3}, {150, 4}}) {
    sim.ScheduleAtForStream(when, 0, [&sim, &log, id = id] { log.emplace_back(sim.now(), id); });
  }
  sim.SetExternalStream(Simulation::kGlobalStream);
  sim.Run();

  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], (std::pair<SimTime, int>{30, 3}));  // The last candidate ran first...
  EXPECT_EQ(log[1], (std::pair<SimTime, int>{30, 1}));  // ...and the others at its time,
  EXPECT_EQ(log[2], (std::pair<SimTime, int>{30, 2}));  // in their unchanged key order.
  EXPECT_EQ(log[3], (std::pair<SimTime, int>{150, 4}));
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].first, log[i - 1].first);
  }
  ASSERT_FALSE(hook.offers.empty());
  EXPECT_EQ(hook.offers[0], (std::pair<SimTime, size_t>{10, 3}));
  for (const auto& [earliest, count] : hook.offers) {
    EXPECT_LE(count, 3u) << "earliest=" << earliest;
  }
}

TEST(ParallelSimTest, ChoiceHookNeedsOneWorker) {
  ScriptedHook hook(/*window=*/10, /*max_candidates=*/2, ScriptedHook::Pick::kFirst);
  Simulation many(/*workers=*/2, /*n_streams=*/2, /*lookahead=*/100);
  EXPECT_THROW(many.set_choice_hook(&hook), std::logic_error);
  EXPECT_EQ(many.choice_hook(), nullptr);
  many.set_choice_hook(nullptr);  // Clearing is always allowed.
  Simulation one(/*workers=*/1, /*n_streams=*/2, /*lookahead=*/100);
  one.set_choice_hook(&hook);
  EXPECT_EQ(one.choice_hook(), &hook);
}

// ---------------------------------------------------------------------------
// Typed deliveries next to callbacks.

// A message that is only its id.
class IdMessage : public SimMessage {
 public:
  explicit IdMessage(int id) : SimMessage(0), id_(id) {}
  int id() const { return id_; }
  const char* TypeName() const override { return "id"; }
  std::vector<uint8_t> Serialize() const override { return {}; }

 protected:
  uint64_t ComputeWireSize() const override { return 0; }
  Hash256 ComputeDedupId() const override { return Hash256{}; }

 private:
  int id_;
};

// Logs every delivery at its target stream as (now, id). A delivery of
// kRearm schedules a timer at 300 with ScheduleAt, which keys it to the
// stream the delivery runs on.
struct LoggingSink : DeliverySink {
  static constexpr int kRearm = 100;

  LoggingSink(Simulation* sim, std::vector<std::vector<std::pair<SimTime, int>>>* logs)
      : sim(sim), logs(logs) {}
  void Deliver(const Delivery& d) override {
    const int id = static_cast<const IdMessage&>(*d.msg).id();
    (*logs)[d.to].emplace_back(sim->now(), id);
    if (id == kRearm) {
      const uint32_t to = d.to;
      sim->ScheduleAt(300, [this, to] { (*logs)[to].emplace_back(sim->now(), kRearm + 1); });
    }
  }

  Simulation* sim;
  std::vector<std::vector<std::pair<SimTime, int>>>* logs;
};

// Streams 0, 1 and 2 each send three events to stream 3 for time 200 — a
// delivery, a callback, a delivery — from kicks that run in the reverse of
// stream order (stream 2 first). A global event sends stream 3 a delivery
// for 200 too, whose handler arms a timer for 300; streams 2 and 4 schedule
// callbacks on stream 3 for 300. Returns the per-stream (now, id) logs.
std::vector<std::vector<std::pair<SimTime, int>>> RunMixedDeliveries(size_t workers,
                                                                     ScheduleChoiceHook* hook) {
  constexpr uint32_t kStreams = 5;
  constexpr uint32_t kTarget = 3;
  Simulation sim(workers, kStreams, /*lookahead=*/100);
  sim.set_choice_hook(hook);
  std::vector<std::vector<std::pair<SimTime, int>>> logs(kStreams);
  LoggingSink sink(&sim, &logs);
  sim.set_delivery_sink(&sink);
  auto deliver = [&sim](SimTime when, int id, uint32_t from) {
    sim.ScheduleDelivery(when, Delivery{std::make_shared<IdMessage>(id), from, kTarget});
  };
  auto call = [&sim, &logs](SimTime when, int id) {
    sim.ScheduleAtForStream(when, kTarget,
                            [&sim, &logs, id] { logs[kTarget].emplace_back(sim.now(), id); });
  };
  for (uint32_t s : {2u, 1u, 0u}) {
    sim.SetExternalStream(s);
    sim.ScheduleAtForStream(30 - 10 * static_cast<SimTime>(s), s, [&, s] {
      const int base = 10 * static_cast<int>(s);
      deliver(200, base + 1, s);
      call(200, base + 2);
      deliver(200, base + 3, s);
    });
  }
  sim.SetExternalStream(4);
  call(300, 40);
  sim.SetExternalStream(2);
  call(300, 20);
  sim.SetExternalStream(Simulation::kGlobalStream);
  sim.ScheduleAt(50, [&] { deliver(200, LoggingSink::kRearm, 4); });
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u + 9u + 1u + 1u + 2u + 1u);
  return logs;
}

TEST(ParallelSimTest, DeliveriesAndCallbacksRunInKeyOrder) {
  // At equal times events run by (scheduling stream, its sequence), with
  // the global stream last: stream 0's three, then 1's, then 2's, then the
  // global event's delivery. At 300 the rearmed timer carries stream 3's
  // key, so it runs between stream 2's callback and stream 4's.
  const std::vector<std::pair<SimTime, int>> want = {
      {200, 1},  {200, 2},  {200, 3},  {200, 11}, {200, 12}, {200, 13},  {200, 21},
      {200, 22}, {200, 23}, {200, 100}, {300, 20}, {300, 101}, {300, 40}};
  const auto one = RunMixedDeliveries(1, nullptr);
  EXPECT_EQ(one[3], want);
  // Three shards: stream 3 shares shard 0 with stream 0, so streams 1 and 2
  // reach it through the exchange buffers.
  EXPECT_EQ(RunMixedDeliveries(3, nullptr), one);
  ScriptedHook first(/*window=*/150, /*max_candidates=*/6, ScriptedHook::Pick::kFirst);
  EXPECT_EQ(RunMixedDeliveries(1, &first), one);
  EXPECT_FALSE(first.offers.empty());
}

// ---------------------------------------------------------------------------
// Aggregate-user fidelity (UserGroupNode's stake-additivity claim).

VrfOutput RandomVrfOutput(DeterministicRng* rng) {
  VrfOutput h;
  for (size_t i = 0; i < h.size(); i += 8) {
    uint64_t v = rng->NextU64();
    for (size_t b = 0; b < 8; ++b) {
      h[i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  return h;
}

TEST(UserAggregationTest, GroupStakeDrawsMatchIndependentUserDraws) {
  // The §5.1 sub-user model makes sortition Binomial over weight, so one node
  // holding K users' stake must draw committee seats with the distribution of
  // K independent users: Binomial(K*s, p) == sum of K Binomial(s, p). Compare
  // the sample mean and variance of both configurations over many VRF draws.
  constexpr uint64_t kUserStake = 100;
  constexpr uint64_t kUsersPerGroup = 50;
  constexpr double kP = 0.002;  // tau / W in a typical committee config.
  constexpr int kTrials = 2000;
  const double expect_mean = static_cast<double>(kUserStake * kUsersPerGroup) * kP;

  DeterministicRng rng(2026);
  double agg_sum = 0, agg_sq = 0, split_sum = 0, split_sq = 0;
  for (int t = 0; t < kTrials; ++t) {
    const double agg = static_cast<double>(
        SelectSubUsers(RandomVrfOutput(&rng), kUserStake * kUsersPerGroup, kP));
    uint64_t split = 0;
    for (uint64_t u = 0; u < kUsersPerGroup; ++u) {
      split += SelectSubUsers(RandomVrfOutput(&rng), kUserStake, kP);
    }
    agg_sum += agg;
    agg_sq += agg * agg;
    split_sum += static_cast<double>(split);
    split_sq += static_cast<double>(split) * static_cast<double>(split);
  }
  const double agg_mean = agg_sum / kTrials;
  const double split_mean = split_sum / kTrials;
  const double agg_var = agg_sq / kTrials - agg_mean * agg_mean;
  const double split_var = split_sq / kTrials - split_mean * split_mean;

  // Mean of Binomial(5000, 0.002) is 10, sd of the sample mean ~0.07; a 0.4
  // tolerance is > 5 sigma and the run is seed-deterministic besides.
  EXPECT_NEAR(agg_mean, expect_mean, 0.4);
  EXPECT_NEAR(split_mean, expect_mean, 0.4);
  EXPECT_NEAR(agg_mean, split_mean, 0.5);
  // Variances match to sampling noise (theoretical ~9.98 for both shapes).
  const double expect_var = expect_mean * (1.0 - kP);
  EXPECT_NEAR(agg_var, expect_var, expect_var * 0.15);
  EXPECT_NEAR(split_var, expect_var, expect_var * 0.15);
}

// ---------------------------------------------------------------------------
// Striped sortition CDF cache.

TEST(SortitionCdfCacheTest, StatsStayCoherentUnderConcurrentLookups) {
  const SortitionCdfCacheStats before = GetSortitionCdfCacheStats();
  constexpr int kThreads = 8;
  constexpr int kLookupsPerThread = 4000;
  constexpr double kP = 0.0005;
  std::vector<std::thread> pool;
  std::vector<uint64_t> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &failures] {
      DeterministicRng rng(9000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kLookupsPerThread; ++i) {
        // A handful of hot weights (cache hits from many threads at once)
        // plus a per-thread cold weight (misses + insertions racing).
        const uint64_t weight = (i % 4 == 0) ? 1000 + static_cast<uint64_t>(t * 7 + i)
                                             : 100 * (1 + static_cast<uint64_t>(i % 3));
        const VrfOutput h = RandomVrfOutput(&rng);
        if (SelectSubUsers(h, weight, kP) != SelectSubUsersUncached(h, weight, kP)) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "thread " << t << " saw cached != uncached";
  }
  const SortitionCdfCacheStats after = GetSortitionCdfCacheStats();
  const uint64_t calls = static_cast<uint64_t>(kThreads) * kLookupsPerThread;
  // Every lookup is exactly one hit or one miss — the striped counters must
  // account for all of them with none double-counted.
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses), calls);
  EXPECT_GT(after.hits, before.hits);    // The hot weights repeat.
  EXPECT_GT(after.misses, before.misses);  // The cold weights do not.
  EXPECT_LE(after.entries, 256u);        // Global capacity across stripes.
}

}  // namespace
}  // namespace algorand
