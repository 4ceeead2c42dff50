// Deterministic discrete-event simulation core: a conservative-lookahead
// engine that shards the simulated nodes across worker threads.
//
// All of Algorand's behaviour in this repository — gossip, timeouts, BA*
// steps, recovery timers — runs as callbacks scheduled here, so a (seed,
// scenario) pair replays identically every run, for any worker count.
//
// Windows: every node-to-node message takes at least `lookahead` of simulated
// time to arrive (uplink send overhead plus the latency-matrix floor), so all
// events inside a window [T, T + lookahead) are causally independent across
// nodes and may run concurrently. Cross-shard sends are buffered in
// per-(src,dst) exchange queues and merged into the target shard's queue at
// the window barrier — always before the window that contains their delivery
// time. With one worker the single shard runs inline on the calling thread.
//
// Determinism contract (the property sim_determinism_test pins): the result
// of a run depends only on (seed, scenario), never on the worker count.
// Mechanism: every event carries a key (when, key_stream, key_seq), where
// key_stream is the *logical stream* — the node whose callback scheduled the
// event — and key_seq a per-stream counter. A stream's events execute in key
// order on exactly one shard; schedules during those executions increment the
// stream's counter in a deterministic order; cross-shard deliveries are keyed
// by their sender. Window boundaries are derived from the global minimum
// event time and the lookahead only — quantities independent of the worker
// count — so workers=1 and workers=N take byte-identical window sequences
// and every per-stream execution order matches exactly.
//
// Events scheduled from outside event execution (harness probes, crash
// schedules, stats reporters) belong to the distinguished kGlobalStream:
// they run on the calling thread at window barriers, when every worker is
// parked, and may therefore touch any node's state. They execute in (when,
// insertion) order; at equal timestamps, node-stream events order before
// global-stream events (kGlobalStream is the largest stream id).
//
// Each shard queues 24-byte keys (when, key_stream, key_seq, slot) in a
// calendar of ~1 ms buckets (KeyQueue). An event's record waits in one of two
// per-shard slabs with free lists, at the key's slot, and moves out once,
// when its key pops: a message delivery is a 24-byte typed `Delivery` handed
// to the `DeliverySink` (the Network), everything else an 80-byte callback
// slot (timers).
#ifndef ALGORAND_SRC_NETSIM_SIMULATION_H_
#define ALGORAND_SRC_NETSIM_SIMULATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/time_units.h"
#include "src/netsim/message.h"

namespace algorand {

// Model-checker seam: when installed on a one-worker Simulation, the hook is
// consulted at every shard dequeue where more than one event is eligible to
// run "next" under a weak-synchrony window. Events whose timestamps lie
// within `Window()` of the earliest pending event — and no later than the
// current lookahead window's end — are concurrent candidates (capped at
// `MaxCandidates()`); `ChooseNext` picks which one runs. The chosen event
// executes at max(now, event.when) — reordering is equivalent to an
// adversary delaying the passed-over deliveries, so the clock never regresses.
// Unchosen events keep their original keys, so choosing index 0 everywhere
// reproduces the unhooked schedule exactly. Global-stream events run at
// barriers and are never candidates.
class ScheduleChoiceHook {
 public:
  virtual ~ScheduleChoiceHook() = default;
  // Width of the concurrency window. 0 means only exact-time ties race.
  virtual SimTime Window() const = 0;
  // Cap on candidates gathered per choice point (branching factor bound).
  virtual size_t MaxCandidates() const = 0;
  // Picks which of `count` candidates (listed in default key order) runs
  // next. Called only when count > 1; must return a value in [0, count).
  virtual size_t ChooseNext(SimTime earliest, size_t count) = 0;
};

// A message in flight: the engine's typed event. It runs on stream `to`.
struct Delivery {
  MessagePtr msg;
  uint32_t from;
  uint32_t to;
};
static_assert(sizeof(Delivery) <= 24, "a delivery record is one shared_ptr and two ids");

// Receives each Delivery when its event runs (the simulated Network). Runs on
// the shard thread of stream `to`.
class DeliverySink {
 public:
  virtual void Deliver(const Delivery& delivery) = 0;

 protected:
  ~DeliverySink() = default;
};

class Simulation final : public Executor {
 public:
  using Callback = Executor::Callback;

  // Stream id for events not owned by any simulated node (harness probes,
  // crash schedules, reporters). They run at window barriers, when every
  // worker is parked.
  static constexpr uint32_t kGlobalStream = UINT32_MAX;

  // `workers`: shard/worker count (0 is treated as 1; 1 runs the single shard
  // inline on the calling thread — same windows, no thread hand-off).
  // `n_streams`: number of logical node streams (stream ids 0..n_streams-1;
  // kGlobalStream is implicit). A one-worker engine adds streams on first
  // use; with more workers every stream must be declared here.
  // `lookahead`: minimum cross-node delivery delay in simulated time (values
  // below 1 are treated as 1).
  explicit Simulation(size_t workers = 1, size_t n_streams = 0, SimTime lookahead = 1);
  ~Simulation() override;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Inside an event: the executing shard's clock. Outside: the barrier clock.
  SimTime now() const override;

  // Schedules `fn` to run `delay` from now (negative delays clamp to now).
  void Schedule(SimTime delay, Callback&& fn) override;
  // Schedules at an absolute time (times in the past clamp to now). The event
  // acts on its scheduler's own stream (timers).
  void ScheduleAt(SimTime when, Callback&& fn) override;
  // Schedules an event that acts on `stream`'s state: it is routed to the
  // stream's shard and runs with that stream current, which is what keeps
  // cross-shard sends deterministic.
  void ScheduleAtForStream(SimTime when, uint32_t stream, Callback&& fn);
  // Schedules `delivery` at an absolute time (clamped to now) on stream
  // `delivery.to`, keyed exactly like ScheduleAtForStream. When it runs it
  // goes to the delivery sink, which must be set and outlive it.
  void ScheduleDelivery(SimTime when, Delivery delivery);
  void set_delivery_sink(DeliverySink* sink) { sink_ = sink; }

  // Declares which stream subsequent Schedule* calls from *outside* event
  // execution belong to (harness setup, node restarts), so those events are
  // ordered independently of the worker count. Pass kGlobalStream to revert
  // to barrier-executed global events.
  void SetExternalStream(uint32_t stream);

  // Runs windows until the queue drains or `Stop()` is called.
  void Run();
  // Runs events with time <= deadline; leaves later events queued. The clock
  // advances to the deadline.
  void RunUntil(SimTime deadline);
  // Runs one conservative window; returns false if the queue was empty.
  bool Step();

  // Takes effect at the next window barrier.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }
  size_t pending_events() const;
  uint64_t executed_events() const;

  // Counters folded into metrics snapshots ("sim.windows", per-worker event
  // counts, peak queue sizes and peak slab bytes).
  std::vector<std::pair<std::string, uint64_t>> EngineStats() const;

  // Installs (or clears, with nullptr) the model checker's scheduling hook.
  // Throws std::logic_error on an engine with more than one worker: choices
  // are answered in one global order, which only a single shard has. Not
  // owned.
  void set_choice_hook(ScheduleChoiceHook* hook);
  ScheduleChoiceHook* choice_hook() const { return choice_hook_; }

  size_t workers() const { return workers_; }
  SimTime lookahead() const { return lookahead_; }
  uint64_t windows() const { return windows_; }
  uint64_t cross_shard_events() const { return exchanged_; }

 private:
  struct Key {
    SimTime when;
    uint64_t key_seq;     // Per-key_stream counter: makes the key total.
    uint32_t key_stream;  // Stream whose callback scheduled the event.
    uint32_t slot;        // Slab index; kDeliveryBit selects the delivery slab.
  };
  static constexpr uint32_t kDeliveryBit = 1u << 31;

  static bool Before(const Key& a, const Key& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.key_stream != b.key_stream) {
      return a.key_stream < b.key_stream;
    }
    return a.key_seq < b.key_seq;
  }
  static bool After(const Key& a, const Key& b) { return Before(b, a); }

  struct Slot {
    Callback fn;
    uint32_t exec_stream;  // Stream whose state the event touches.
  };

  // Records at stable indices with a LIFO free list. Never shrinks, so its
  // size is the shard's peak count of waiting records.
  template <typename T>
  struct Slab {
    std::vector<T> items;
    std::vector<uint32_t> free;

    // Builds the record from `args` in its slot, with no temporary.
    template <typename... Args>
    uint32_t Put(Args&&... args) {
      if (free.empty()) {
        items.emplace_back(std::forward<Args>(args)...);
        return static_cast<uint32_t>(items.size() - 1);
      }
      const uint32_t index = free.back();
      free.pop_back();
      std::destroy_at(&items[index]);
      std::construct_at(&items[index], std::forward<Args>(args)...);
      return index;
    }
    T Take(uint32_t index) {
      T out = std::move(items[index]);
      free.push_back(index);
      return out;
    }
    uint64_t bytes() const { return items.size() * sizeof(T); }
  };

  // A shard's keys in Before() order: a calendar. Keys in buckets (of 2^20
  // ns) up to cur_ are sorted in near_, minimum last; the next kBuckets
  // buckets (~4.3 s) are unsorted vectors, each sorted when cur_ reaches it;
  // later keys (long timers) wait in a heap. front() and pop() need !empty().
  class KeyQueue {
   public:
    size_t size() const { return near_.size() + in_ring_ + far_.size(); }
    bool empty() const { return size() == 0; }
    void push(const Key& key);
    const Key& front() { return near_.empty() ? Refill() : near_.back(); }
    Key pop() {
      const Key key = front();
      near_.pop_back();
      return key;
    }

   private:
    static constexpr uint64_t kBuckets = 4096;
    static uint64_t BucketOf(const Key& key) { return static_cast<uint64_t>(key.when) >> 20; }
    const Key& Refill();  // Moves the next non-empty bucket into near_.

    std::vector<Key> near_;
    std::vector<std::vector<Key>> ring_ = std::vector<std::vector<Key>>(kBuckets);
    std::vector<Key> far_;  // Min-heap under After.
    uint64_t cur_ = 0;
    size_t in_ring_ = 0;
  };

  struct Shard {
    KeyQueue queue;
    Slab<Slot> callbacks;
    Slab<Delivery> deliveries;
    SimTime local_now = 0;
    uint32_t current_stream = kGlobalStream;
    uint64_t executed = 0;
    uint64_t peak_queue = 0;
  };

  size_t ShardOf(uint32_t stream) const { return static_cast<size_t>(stream) % workers_; }
  // The stream on whose behalf the calling thread is scheduling right now.
  uint32_t ContextStream() const;
  // Makes `stream` a known node stream (grows the counters on a one-worker
  // engine; throws std::out_of_range for an undeclared stream otherwise).
  void RequireStream(uint32_t stream);

  // Keys an event scheduled now by the calling stream for `stream`, and
  // queues it on that stream's shard, through the exchange if the shard is
  // another worker's. `args` are a callback and its exec stream, or a
  // delivery.
  template <typename... Args>
  void Route(SimTime when, uint32_t stream, Args&&... args);
  void PushEvent(size_t shard, Key key, Callback&& fn, uint32_t exec_stream);
  void PushEvent(size_t shard, Key key, Delivery&& delivery);
  // Pops the key the choice hook picks among the candidates no later than
  // `window_end`; the others go back unchanged.
  Key PopChosen(KeyQueue* queue, SimTime window_end);

  // Runs every event with when <= window_end on shard `s`. Sets the calling
  // thread's worker context for the duration.
  void ProcessShardWindow(size_t s, SimTime window_end);
  // Runs one window across all shards (threads or inline). Returns false if
  // there was nothing to run at or before `deadline`.
  bool Advance(SimTime deadline);
  void DrainExchanges();
  SimTime MinShardTime();
  void WorkerLoop(size_t shard_index);

  const size_t workers_;
  const SimTime lookahead_;
  std::vector<Shard> shards_;
  // Per-node-stream schedule counters, and kGlobalStream's.
  std::vector<uint64_t> stream_seq_;
  uint64_t global_seq_ = 0;

  // Cross-shard exchange buffers: exchange_[src][dst] is written only by
  // src's worker during a window and drained only at barriers.
  struct Exchange {
    std::vector<std::pair<Key, Slot>> callbacks;
    std::vector<std::pair<Key, Delivery>> deliveries;
    void Add(const Key& key, Callback&& fn, uint32_t exec_stream) {
      callbacks.emplace_back(key, Slot{std::move(fn), exec_stream});
    }
    void Add(const Key& key, Delivery&& d) { deliveries.emplace_back(key, std::move(d)); }
    size_t size() const { return callbacks.size() + deliveries.size(); }
  };
  std::vector<std::vector<Exchange>> exchange_;

  // Global-stream events, run at barriers on the calling thread.
  std::map<std::pair<SimTime, uint64_t>, Callback> global_;
  uint64_t global_executed_ = 0;

  SimTime now_ = 0;  // Barrier clock.
  uint32_t external_stream_ = kGlobalStream;
  DeliverySink* sink_ = nullptr;
  ScheduleChoiceHook* choice_hook_ = nullptr;
  std::atomic<bool> stopped_{false};
  uint64_t windows_ = 0;
  uint64_t exchanged_ = 0;

  // Worker pool synchronization (unused when workers_ == 1).
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  SimTime window_end_ = 0;
  size_t workers_done_ = 0;
  bool exit_ = false;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_SIMULATION_H_
