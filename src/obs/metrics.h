// Node-level metrics registry: the uniform observability path behind the
// paper's evaluation numbers (§10, Figures 3-8).
//
// Every layer of the stack — gossip relay, BA* steps, the TCP transport —
// reports through named counters, gauges and fixed-bucket histograms.
// Increments are relaxed atomics so the real-socket path can share the same
// instruments with zero locking on the hot path; only instrument *creation*
// takes the registry mutex (callers resolve an instrument once and cache the
// pointer). A source too hot even for an atomic per event (the gossip relay,
// once per delivery) counts in plain integers and folds them in through a
// collector that every snapshot runs first. Names are hierarchical dot-paths
// ("gossip.msgs_in.vote", "ba.step_time_ms"); snapshots are plain value maps
// that merge across nodes so a whole simulated deployment condenses into one
// exportable view.
#ifndef ALGORAND_SRC_OBS_METRICS_H_
#define ALGORAND_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace algorand {

// Monotone event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written level (queue depths, connection counts).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the first
// N buckets; one implicit overflow bucket catches the rest. Observations are
// relaxed atomic increments (no per-sample allocation, no lock).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;

  std::vector<double> bounds_;                        // Sorted, strictly increasing.
  std::vector<std::atomic<uint64_t>> buckets_;        // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};                 // Bit-cast double, CAS-accumulated.
};

// Point-in-time copy of one histogram, mergeable and queryable.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1 (last = overflow).
  uint64_t count = 0;
  double sum = 0;

  double Mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
  // Linear interpolation within the bucket containing quantile q in [0, 1].
  // The overflow bucket reports its lower bound (we cannot interpolate past
  // the last boundary).
  double Percentile(double q) const;

  // The three quantiles every report wants, in one struct: the JSON/text
  // export, the waterfall tables and the bench columns all read these
  // instead of re-deriving percentiles by hand.
  struct Quantiles {
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
  };
  Quantiles EstimateQuantiles() const;
};

// A value-typed view of a registry (or of many registries merged together).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Adds `other` into this snapshot: counters and gauges sum; histograms
  // with identical bounds merge bucket-wise (mismatched bounds keep the
  // existing instrument and count the conflict under "obs.merge_conflicts").
  void Merge(const MetricsSnapshot& other);

  uint64_t CounterValue(const std::string& name) const;
  // Sum of every counter whose name starts with `prefix` (e.g.
  // "gossip.msgs_out." across all message types).
  uint64_t CounterSumByPrefix(const std::string& prefix) const;

  // One "name value" line per instrument; histograms print count/mean/p50/p99.
  std::string ToText() const;
  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,buckets,...}}}
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates an instrument. Returned references stay valid for the
  // registry's lifetime; resolve once and cache.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // A histogram's bounds are fixed at first creation; later calls with a
  // different bounds argument return the existing instrument unchanged.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = DefaultTimeBucketsMs());

  // Runs Collect(), then copies every instrument's value.
  MetricsSnapshot Snapshot() const;

  // Plain-count sources. `collect` adds what its owner counted since the
  // last call into this registry's instruments. Collectors run in
  // registration order, so for a gauge several owners set, the latest
  // registered owner that changed it wins. The owner removes its collector,
  // after a last fold, before it is destroyed: the registry must outlive it.
  // Folding is not synchronized with the owner's counting; collect (or
  // snapshot) while the owner is quiescent or on the owner's thread.
  using CollectorId = uint64_t;
  CollectorId AddCollector(std::function<void()> collect);
  void RemoveCollector(CollectorId id);
  void Collect() const;

  // Exponential-ish bucket boundaries in milliseconds, 1 ms .. 10 min,
  // sized for round/step latencies (paper: seconds to a minute per round).
  static std::vector<double> DefaultTimeBucketsMs();
  // Small linear buckets for step counts (BinaryBA* steps, committee sizes).
  static std::vector<double> DefaultCountBuckets();

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  // One instrument: its kind, its name in names_ and its slot in that kind's
  // arena.
  struct IndexEntry {
    Kind kind;
    uint32_t name_offset;
    uint32_t name_size;
    uint32_t slot;
  };
  std::string_view NameOf(const IndexEntry& e) const {
    return std::string_view(names_).substr(e.name_offset, e.name_size);
  }
  // The instrument (kind, name), built from `args` at the end of `arena` if
  // absent. Takes mu_.
  template <typename T, typename... Args>
  T& FindOrAdd(Kind kind, std::deque<T>* arena, std::string_view name, Args&&... args);

  mutable std::mutex mu_;
  // Chunked arenas: a deque never moves an element it holds, so the
  // references Get* returns stay valid, and instruments share allocations.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::string names_;              // Every instrument name, back to back.
  std::vector<IndexEntry> index_;  // Sorted by (kind, name).
  // Lock order: collectors_mu_ before mu_ (collectors resolve instruments).
  mutable std::mutex collectors_mu_;
  std::map<CollectorId, std::function<void()>> collectors_;
  CollectorId next_collector_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_OBS_METRICS_H_
