#include "src/netsim/simulation.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace algorand {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

// Identifies the shard (and owning engine) the calling thread is currently
// executing a window for. Workers of different Simulation instances (nested
// scenario sweeps) never confuse each other: the owner pointer is checked on
// every access.
struct WorkerTls {
  const void* owner = nullptr;
  size_t shard = 0;
};
thread_local WorkerTls tls_worker;

SimTime SaturatingAdd(SimTime a, SimTime b) {
  SimTime out;
  if (__builtin_add_overflow(a, b, &out)) {
    return kNever;
  }
  return out;
}

}  // namespace

Simulation::Simulation(size_t workers, size_t n_streams, SimTime lookahead)
    : workers_(workers == 0 ? 1 : workers),
      lookahead_(lookahead < 1 ? 1 : lookahead),
      shards_(workers_),
      stream_seq_(n_streams, 0),
      exchange_(workers_) {
  for (auto& row : exchange_) {
    row.resize(workers_);
  }
  if (workers_ > 1) {
    pool_.reserve(workers_);
    for (size_t i = 0; i < workers_; ++i) {
      pool_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

Simulation::~Simulation() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      exit_ = true;
    }
    cv_workers_.notify_all();
    for (auto& t : pool_) {
      t.join();
    }
  }
}

uint32_t Simulation::ContextStream() const {
  if (tls_worker.owner == this) {
    return shards_[tls_worker.shard].current_stream;
  }
  return external_stream_;
}

SimTime Simulation::now() const {
  if (tls_worker.owner == this) {
    return shards_[tls_worker.shard].local_now;
  }
  return now_;
}

void Simulation::RequireStream(uint32_t stream) {
  if (stream == kGlobalStream || stream < stream_seq_.size()) {
    return;
  }
  if (workers_ > 1) {
    throw std::out_of_range("Simulation: stream " + std::to_string(stream) +
                            " was not declared at construction");
  }
  stream_seq_.resize(static_cast<size_t>(stream) + 1, 0);
}

void Simulation::SetExternalStream(uint32_t stream) {
  RequireStream(stream);
  external_stream_ = stream;
}

void Simulation::set_choice_hook(ScheduleChoiceHook* hook) {
  if (hook != nullptr && workers_ > 1) {
    throw std::logic_error("Simulation: a choice hook needs a one-worker engine");
  }
  choice_hook_ = hook;
}

void Simulation::KeyQueue::push(const Key& key) {
  const uint64_t bucket = BucketOf(key);
  if (bucket <= cur_) {
    near_.insert(std::upper_bound(near_.begin(), near_.end(), key, After), key);
  } else if (bucket < cur_ + kBuckets) {
    ring_[bucket % kBuckets].push_back(key);
    ++in_ring_;
  } else {
    far_.push_back(key);
    std::push_heap(far_.begin(), far_.end(), After);
  }
}

const Simulation::Key& Simulation::KeyQueue::Refill() {
  while (near_.empty()) {
    if (in_ring_ == 0) {
      cur_ = BucketOf(far_.front()) - 1;  // Skip the empty buckets.
    }
    ++cur_;
    // Far keys whose bucket entered the ring's span move into it.
    while (!far_.empty() && BucketOf(far_.front()) < cur_ + kBuckets) {
      ring_[BucketOf(far_.front()) % kBuckets].push_back(far_.front());
      ++in_ring_;
      std::pop_heap(far_.begin(), far_.end(), After);
      far_.pop_back();
    }
    std::vector<Key>& bucket = ring_[cur_ % kBuckets];
    in_ring_ -= bucket.size();
    near_.swap(bucket);
    std::vector<Key>().swap(bucket);  // A bucket holds memory only while it holds keys.
    std::sort(near_.begin(), near_.end(), After);
  }
  return near_.back();
}

Simulation::Key Simulation::PopChosen(KeyQueue* queue, SimTime window_end) {
  const SimTime earliest = queue->front().when;
  const SimTime horizon =
      std::min(SaturatingAdd(earliest, choice_hook_->Window()), window_end);
  const size_t cap = std::max<size_t>(1, choice_hook_->MaxCandidates());
  std::vector<Key> candidates;
  while (!queue->empty() && candidates.size() < cap && queue->front().when <= horizon) {
    candidates.push_back(queue->pop());
  }
  size_t pick = 0;
  if (candidates.size() > 1) {
    pick = choice_hook_->ChooseNext(earliest, candidates.size());
    if (pick >= candidates.size()) {
      pick = 0;
    }
  }
  // Unchosen candidates keep their original keys: they stay in default order
  // relative to each other, and a hook that always picks 0 replays the
  // unhooked schedule bit-for-bit.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i != pick) {
      queue->push(candidates[i]);
    }
  }
  return candidates[pick];
}

template <typename... Args>
void Simulation::Route(SimTime when, uint32_t stream, Args&&... args) {
  RequireStream(stream);
  const uint32_t src = ContextStream();
  const Key key{when, src == kGlobalStream ? global_seq_++ : stream_seq_[src]++, src, 0};
  const size_t dst = ShardOf(stream);
  if (tls_worker.owner == this && dst != tls_worker.shard) {
    // Cross-shard send from inside a window: buffer for the barrier merge.
    exchange_[tls_worker.shard][dst].Add(key, std::forward<Args>(args)...);
    return;
  }
  // Same-shard send, or an external/barrier-context schedule while every
  // worker is parked: push straight into the target queue.
  PushEvent(dst, key, std::forward<Args>(args)...);
}

void Simulation::PushEvent(size_t shard, Key key, Callback&& fn, uint32_t exec_stream) {
  Shard& sh = shards_[shard];
  key.slot = sh.callbacks.Put(std::move(fn), exec_stream);
  sh.queue.push(key);
  sh.peak_queue = std::max<uint64_t>(sh.peak_queue, sh.queue.size());
}

void Simulation::PushEvent(size_t shard, Key key, Delivery&& delivery) {
  Shard& sh = shards_[shard];
  key.slot = kDeliveryBit | sh.deliveries.Put(std::move(delivery));
  sh.queue.push(key);
  sh.peak_queue = std::max<uint64_t>(sh.peak_queue, sh.queue.size());
}

void Simulation::Schedule(SimTime delay, Callback&& fn) {
  ScheduleAt(now() + (delay < 0 ? 0 : delay), std::move(fn));
}

void Simulation::ScheduleAt(SimTime when, Callback&& fn) {
  // An event scheduled with no target stream acts on its scheduler's own
  // state (timers); deliveries go through ScheduleDelivery.
  ScheduleAtForStream(when, ContextStream(), std::move(fn));
}

void Simulation::ScheduleAtForStream(SimTime when, uint32_t stream, Callback&& fn) {
  when = std::max(when, now());
  if (stream == kGlobalStream) {
    // Global events carry a global sequence; they run at barriers.
    global_.emplace(std::make_pair(when, global_seq_++), std::move(fn));
    return;
  }
  Route(when, stream, std::move(fn), stream);
}

void Simulation::ScheduleDelivery(SimTime when, Delivery delivery) {
  const uint32_t to = delivery.to;
  Route(std::max(when, now()), to, std::move(delivery));
}

SimTime Simulation::MinShardTime() {
  SimTime t = kNever;
  for (Shard& sh : shards_) {
    if (!sh.queue.empty() && sh.queue.front().when < t) {
      t = sh.queue.front().when;
    }
  }
  return t;
}

void Simulation::DrainExchanges() {
  for (size_t src = 0; src < workers_; ++src) {
    for (size_t dst = 0; dst < workers_; ++dst) {
      Exchange& q = exchange_[src][dst];
      exchanged_ += q.size();
      // Keys order the queue, so the two buffers may merge in either order.
      for (auto& [key, slot] : q.callbacks) {
        PushEvent(dst, key, std::move(slot.fn), slot.exec_stream);
      }
      for (auto& [key, delivery] : q.deliveries) {
        PushEvent(dst, key, std::move(delivery));
      }
      q.callbacks.clear();
      q.deliveries.clear();
    }
  }
}

void Simulation::ProcessShardWindow(size_t s, SimTime window_end) {
  WorkerTls saved = tls_worker;
  tls_worker.owner = this;
  tls_worker.shard = s;
  Shard& sh = shards_[s];
  while (!sh.queue.empty() && sh.queue.front().when <= window_end) {
    const Key key = choice_hook_ != nullptr ? PopChosen(&sh.queue, window_end) : sh.queue.pop();
    // A hook may run a later candidate first; the passed-over ones then run
    // at the advanced clock, which never regresses.
    sh.local_now = std::max(sh.local_now, key.when);
    ++sh.executed;
    // Out of the slab before it runs: what it schedules may reuse the slot.
    if (key.slot & kDeliveryBit) {
      const Delivery delivery = sh.deliveries.Take(key.slot & ~kDeliveryBit);
      sh.current_stream = delivery.to;
      sink_->Deliver(delivery);
    } else {
      Slot slot = sh.callbacks.Take(key.slot);
      sh.current_stream = slot.exec_stream;
      slot.fn();
    }
  }
  tls_worker = saved;
}

bool Simulation::Advance(SimTime deadline) {
  DrainExchanges();
  const SimTime t_shard = MinShardTime();
  const SimTime t_global = global_.empty() ? kNever : global_.begin()->first.first;
  const SimTime t = std::min(t_shard, t_global);
  if (t == kNever || t > deadline) {
    return false;
  }
  SimTime window_end = SaturatingAdd(t, lookahead_ - 1);
  if (window_end > deadline) {
    window_end = deadline;
  }
  bool run_globals = false;
  if (t_global <= window_end) {
    // Clamp the window at the global event: shard events up to (and at) its
    // timestamp run first, then the global events run at the barrier.
    window_end = t_global;
    run_globals = true;
  }
  ++windows_;
  if (t_shard <= window_end) {
    if (workers_ == 1) {
      ProcessShardWindow(0, window_end);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        window_end_ = window_end;
        workers_done_ = 0;
        ++epoch_;
      }
      cv_workers_.notify_all();
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [this] { return workers_done_ == workers_; });
    }
  }
  DrainExchanges();
  now_ = window_end;
  if (run_globals) {
    // A global event may schedule node-stream work at its own timestamp;
    // that work orders before any later global at the same time, so yield
    // to the next window as soon as a shard event is due first.
    while (!stopped() && !global_.empty() && global_.begin()->first.first <= window_end &&
           MinShardTime() > global_.begin()->first.first) {
      auto node = global_.extract(global_.begin());
      now_ = node.key().first;
      ++global_executed_;
      node.mapped()();
    }
  }
  return true;
}

void Simulation::WorkerLoop(size_t shard_index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    SimTime end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_workers_.wait(lock, [&] { return exit_ || epoch_ != seen_epoch; });
      if (exit_) {
        return;
      }
      seen_epoch = epoch_;
      end = window_end_;
    }
    ProcessShardWindow(shard_index, end);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    cv_done_.notify_one();
  }
}

void Simulation::Run() {
  stopped_.store(false, std::memory_order_relaxed);
  while (!stopped() && Advance(kNever - 1)) {
  }
}

void Simulation::RunUntil(SimTime deadline) {
  stopped_.store(false, std::memory_order_relaxed);
  while (!stopped() && Advance(deadline)) {
  }
  // The full window elapsed only if nothing stopped us early.
  if (!stopped() && now_ < deadline) {
    now_ = deadline;
  }
}

bool Simulation::Step() { return Advance(kNever - 1); }

size_t Simulation::pending_events() const {
  size_t n = global_.size();
  for (const Shard& sh : shards_) {
    n += sh.queue.size();
  }
  for (const auto& row : exchange_) {
    for (const auto& q : row) {
      n += q.size();
    }
  }
  return n;
}

uint64_t Simulation::executed_events() const {
  uint64_t n = global_executed_;
  for (const Shard& sh : shards_) {
    n += sh.executed;
  }
  return n;
}

std::vector<std::pair<std::string, uint64_t>> Simulation::EngineStats() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.emplace_back("sim.windows", windows_);
  out.emplace_back("sim.cross_shard_events", exchanged_);
  out.emplace_back("sim.global_events", global_executed_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "sim.worker" + std::to_string(i);
    out.emplace_back(prefix + ".events", shards_[i].executed);
    out.emplace_back(prefix + ".peak_queue", shards_[i].peak_queue);
    out.emplace_back(prefix + ".peak_slab_bytes",
                     shards_[i].callbacks.bytes() + shards_[i].deliveries.bytes());
  }
  return out;
}

}  // namespace algorand
