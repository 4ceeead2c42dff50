#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace algorand {
namespace {

// Minimal JSON string escape; metric names are dot-paths but stay safe for
// arbitrary input anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Bucket bounds must be sorted and distinct before the (fixed-size) atomic
// bucket array is built; std::vector<std::atomic> cannot resize afterwards.
std::vector<double> NormalizeBounds(std::vector<double> bounds) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(NormalizeBounds(std::move(bounds))), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Accumulate the sum as a bit-cast double: a CAS loop keeps Observe
  // lock-free without requiring std::atomic<double>::fetch_add support.
  uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double updated = std::bit_cast<double>(old_bits) + value;
    if (sum_bits_.compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(updated),
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      double lower = i == 0 ? 0 : bounds[i - 1];
      if (i >= bounds.size()) {
        return lower;  // Overflow bucket: no upper boundary to interpolate to.
      }
      double upper = bounds[i];
      double within = target - static_cast<double>(cumulative);
      return lower + (upper - lower) * within / static_cast<double>(in_bucket);
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0 : bounds.back();
}

HistogramSnapshot::Quantiles HistogramSnapshot::EstimateQuantiles() const {
  return Quantiles{Percentile(0.5), Percentile(0.9), Percentile(0.99)};
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, hist);
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.bounds != hist.bounds || mine.buckets.size() != hist.buckets.size()) {
      ++counters["obs.merge_conflicts"];
      continue;
    }
    for (size_t i = 0; i < mine.buckets.size(); ++i) {
      mine.buckets[i] += hist.buckets[i];
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
  }
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t MetricsSnapshot::CounterSumByPrefix(const std::string& prefix) const {
  uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    total += it->second;
  }
  return total;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, hist] : histograms) {
    HistogramSnapshot::Quantiles q = hist.EstimateQuantiles();
    out += name + " count=" + std::to_string(hist.count) +
           " mean=" + FormatDouble(hist.Mean()) + " p50=" + FormatDouble(q.p50) +
           " p90=" + FormatDouble(q.p90) + " p99=" + FormatDouble(q.p99) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out += ",";
    first = false;
    HistogramSnapshot::Quantiles q = hist.EstimateQuantiles();
    out += "\"" + JsonEscape(name) + "\":{\"count\":" + std::to_string(hist.count) +
           ",\"sum\":" + FormatDouble(hist.sum) + ",\"mean\":" + FormatDouble(hist.Mean()) +
           ",\"p50\":" + FormatDouble(q.p50) + ",\"p90\":" + FormatDouble(q.p90) +
           ",\"p99\":" + FormatDouble(q.p99) + ",\"buckets\":[";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i > 0) out += ",";
      std::string le = i < hist.bounds.size() ? FormatDouble(hist.bounds[i]) : "\"inf\"";
      out += "{\"le\":" + le + ",\"count\":" + std::to_string(hist.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

template <typename T, typename... Args>
T& MetricsRegistry::FindOrAdd(Kind kind, std::deque<T>* arena, std::string_view name,
                              Args&&... args) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::lower_bound(index_.begin(), index_.end(), name,
                             [this, kind](const IndexEntry& e, std::string_view key) {
                               return e.kind != kind ? e.kind < kind : NameOf(e) < key;
                             });
  if (it != index_.end() && it->kind == kind && NameOf(*it) == name) {
    return (*arena)[it->slot];
  }
  index_.insert(it, IndexEntry{kind, static_cast<uint32_t>(names_.size()),
                               static_cast<uint32_t>(name.size()),
                               static_cast<uint32_t>(arena->size())});
  names_.append(name);
  return arena->emplace_back(std::forward<Args>(args)...);
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  return FindOrAdd(Kind::kCounter, &counters_, name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  return FindOrAdd(Kind::kGauge, &gauges_, name);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, std::vector<double> bounds) {
  return FindOrAdd(Kind::kHistogram, &histograms_, name, std::move(bounds));
}

MetricsRegistry::CollectorId MetricsRegistry::AddCollector(std::function<void()> collect) {
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.emplace(next_collector_, std::move(collect));
  return next_collector_++;
}

void MetricsRegistry::RemoveCollector(CollectorId id) {
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.erase(id);
}

void MetricsRegistry::Collect() const {
  // Held while the collectors run: RemoveCollector must not return while its
  // owner's fold is still running.
  std::lock_guard<std::mutex> lock(collectors_mu_);
  for (const auto& [id, collect] : collectors_) {
    collect();
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Collect();
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // The index is in name order within each kind: every insert goes last.
  for (const IndexEntry& e : index_) {
    std::string name(NameOf(e));
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters.emplace_hint(snap.counters.end(), std::move(name),
                                   counters_[e.slot].Value());
        break;
      case Kind::kGauge:
        snap.gauges.emplace_hint(snap.gauges.end(), std::move(name), gauges_[e.slot].Value());
        break;
      case Kind::kHistogram: {
        const Histogram& hist = histograms_[e.slot];
        HistogramSnapshot h;
        h.bounds = hist.bounds_;
        h.buckets.reserve(hist.buckets_.size());
        for (const auto& bucket : hist.buckets_) {
          h.buckets.push_back(bucket.load(std::memory_order_relaxed));
        }
        h.count = hist.count_.load(std::memory_order_relaxed);
        h.sum = std::bit_cast<double>(hist.sum_bits_.load(std::memory_order_relaxed));
        snap.histograms.emplace_hint(snap.histograms.end(), std::move(name), std::move(h));
        break;
      }
    }
  }
  return snap;
}

std::vector<double> MetricsRegistry::DefaultTimeBucketsMs() {
  // 1-2-5 decades from 1 ms up, then ~15% steps through the seconds-to-a-
  // minute range where round and step latencies live (paper: tens of
  // seconds per round) so interpolated percentiles stay within a few
  // percent, then coarse beyond two minutes.
  return {1,    2,     5,     10,    20,    50,    100,   200,   350,   500,
          750,  1000,  1500,  2000,  3000,  4000,  5000,  6000,  7000,  8000,
          9000, 10000, 11500, 13000, 15000, 17500, 20000, 23000, 26000, 30000,
          35000, 40000, 45000, 52000, 60000, 75000, 90000, 120000, 180000,
          300000, 600000};
}

std::vector<double> MetricsRegistry::DefaultCountBuckets() {
  return {0, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500, 1000};
}

}  // namespace algorand
