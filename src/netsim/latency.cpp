#include "src/netsim/latency.h"

#include <cmath>

namespace algorand {
namespace {

struct City {
  const char* name;
  double lat;  // degrees
  double lon;  // degrees
};

// Twenty major cities spread across the paper's deployment regions.
constexpr City kCities[20] = {
    {"New York", 40.71, -74.01},    {"San Francisco", 37.77, -122.42},
    {"Chicago", 41.88, -87.63},     {"Toronto", 43.65, -79.38},
    {"Sao Paulo", -23.55, -46.63},  {"London", 51.51, -0.13},
    {"Paris", 48.86, 2.35},         {"Frankfurt", 50.11, 8.68},
    {"Madrid", 40.42, -3.70},       {"Stockholm", 59.33, 18.06},
    {"Moscow", 55.76, 37.62},       {"Mumbai", 19.08, 72.88},
    {"Singapore", 1.35, 103.82},    {"Hong Kong", 22.32, 114.17},
    {"Tokyo", 35.68, 139.65},       {"Seoul", 37.57, 126.98},
    {"Sydney", -33.87, 151.21},     {"Johannesburg", -26.20, 28.05},
    {"Dubai", 25.20, 55.27},        {"Mexico City", 19.43, -99.13},
};

double Radians(double deg) { return deg * M_PI / 180.0; }

// Great-circle distance in km.
double HaversineKm(const City& a, const City& b) {
  constexpr double kEarthRadiusKm = 6371.0;
  double dlat = Radians(b.lat - a.lat);
  double dlon = Radians(b.lon - a.lon);
  double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(Radians(a.lat)) * std::cos(Radians(b.lat)) * std::sin(dlon / 2) *
                 std::sin(dlon / 2);
  return 2 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace

const std::vector<std::string>& CityLatencyModel::CityNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const City& c : kCities) {
      names.emplace_back(c.name);
    }
    return names;
  }();
  return kNames;
}

std::vector<DeterministicRng> ForkPerSender(DeterministicRng* rng, size_t n_senders) {
  std::vector<DeterministicRng> out;
  out.reserve(n_senders);
  for (size_t i = 0; i < n_senders; ++i) {
    out.push_back(rng->Fork("sender-" + std::to_string(i)));
  }
  return out;
}

UniformLatencyModel::UniformLatencyModel(SimTime base, SimTime jitter, uint64_t rng_seed,
                                         size_t n_senders)
    : base_(base), jitter_(jitter) {
  DeterministicRng rng(rng_seed, "uniform-latency");
  per_sender_ = ForkPerSender(&rng, n_senders);
}

CityLatencyModel::CityLatencyModel(size_t n_nodes, uint64_t rng_seed) {
  constexpr int kNumCities = 20;
  // Speed of light in fibre ~ 200,000 km/s; routing inflates path length.
  constexpr double kKmPerMs = 200.0;
  constexpr double kRoutingFactor = 1.6;
  constexpr SimTime kLastMile = Millis(4);
  constexpr SimTime kIntraCity = Millis(1);

  base_.assign(kNumCities, std::vector<SimTime>(kNumCities, 0));
  for (int i = 0; i < kNumCities; ++i) {
    for (int j = 0; j < kNumCities; ++j) {
      if (i == j) {
        base_[static_cast<size_t>(i)][static_cast<size_t>(j)] = kIntraCity;
        continue;
      }
      double km = HaversineKm(kCities[i], kCities[j]);
      double ms = km / kKmPerMs * kRoutingFactor;
      base_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          kLastMile + static_cast<SimTime>(ms * static_cast<double>(kMillisecond));
    }
  }
  city_of_.resize(n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    city_of_[n] = static_cast<int>(n % kNumCities);
  }
  floor_ = kIntraCity;
  for (const auto& row : base_) {
    for (SimTime t : row) {
      if (t < floor_) {
        floor_ = t;
      }
    }
  }
  DeterministicRng rng(rng_seed, "city-latency");
  per_sender_ = ForkPerSender(&rng, n_nodes);
}

SimTime CityLatencyModel::BaseLatency(int city_a, int city_b) const {
  return base_[static_cast<size_t>(city_a)][static_cast<size_t>(city_b)];
}

SimTime CityLatencyModel::Sample(NodeId from, NodeId to) {
  SimTime base = base_[static_cast<size_t>(city_of_[from])][static_cast<size_t>(city_of_[to])];
  double jitter = std::abs(per_sender_[from].Normal(0.0, 0.10));
  return base + static_cast<SimTime>(static_cast<double>(base) * jitter);
}

}  // namespace algorand
