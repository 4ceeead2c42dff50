// The reproduction's benchmark binary: runs one named workload against the
// simulator libraries, gates the run on correctness, and prints one result
// line ("PERFBENCH {json}") that perfbench/run.py turns into the benchmark's
// output.
//
//   perfbench --workload=consensus-fig5|payments-1m|restart-join --seed=N
//             --seconds=S --trace=0|1 --data-dir=DIR [--small]
//             [--corrupt-fingerprint]
//
// Every layer is measured from outside: spans wrap this file's calls into the
// program's public entry points, and counts come from public accessors
// (AggregateMetrics, executed_events, traffic, GetSortitionCdfCacheStats).
// --trace=0 reports end-to-end numbers; --trace=1 repeats the run stepped one
// round at a time under spans, then re-drives the run's own inputs through
// the per-layer entry points (the "layer pass").
//
// Exit codes: 0 ok, 1 a correctness check failed (no result line is
// printed), 2 bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sim_harness.h"
#include "src/core/sortition.h"
#include "src/core/tx_verifier.h"
#include "src/core/vote_counter.h"
#include "src/crypto/sha256.h"
#include "src/ledger/exec.h"
#include "src/ledger/mempool.h"
#include "src/obs/safety_auditor.h"
#include "src/store/block_store.h"

using namespace algorand;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out as JSON lines when the run ends.

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;  // Since the tracer was created.
  double end_s = 0;
  uint64_t ops = 0;
};

class SpanTracer {
 public:
  int Begin(const std::string& name, int parent = -1) {
    spans_.push_back({name, parent, Now(), 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, uint64_t ops = 1) {
    spans_[id].end_s = Now();
    spans_[id].ops = ops;
  }
  // Runs `fn` under a span.
  void Time(const std::string& name, uint64_t ops, const std::function<void()>& fn,
            int parent = -1) {
    int id = Begin(name, parent);
    fn();
    End(id, ops);
  }
  // Seconds per op, summed over every span of that name.
  double SecondsPerOp(const std::string& name) const {
    double total = 0;
    uint64_t ops = 0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        total += s.end_s - s.start_s;
        ops += s.ops;
      }
    }
    return ops == 0 ? 0 : total / static_cast<double>(ops);
  }
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(s.end_s - s.start_s);
      }
    }
    return out;
  }
  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      snprintf(buf, sizeof(buf),
               "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
               "\"ops\":%llu}\n",
               i, s.parent, s.name.c_str(), s.start_s, s.end_s,
               static_cast<unsigned long long>(s.ops));
      out << buf;
    }
    return static_cast<bool>(out);
  }

 private:
  double Now() const { return SecondsSince(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  double value = 0;
  std::string unit;
};

class Result {
 public:
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  void Count(const std::string& name, uint64_t value) { counts_[name] = value; }
  void Record(const std::string& key, const std::string& value) { record_[key] = value; }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& e2e() const { return e2e_; }
  const std::map<std::string, uint64_t>& counts() const { return counts_; }

  std::string ToJson() const {
    std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_);
    auto metrics = [&out](const char* key, const std::map<std::string, Metric>& m) {
      out += std::string(",\"") + key + "\":{";
      bool first = true;
      for (const auto& [name, metric] : m) {
        char buf[96];
        snprintf(buf, sizeof(buf), "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
        out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + buf + ",\"unit\":\"" +
               metric.unit + "\"}";
        first = false;
      }
      out += "}";
    };
    metrics("end_to_end", e2e_);
    metrics("per_layer", layer_);
    out += ",\"counts\":{";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      out += (first ? "\"" : ",\"") + name + "\":" + std::to_string(value);
      first = false;
    }
    out += "},\"record\":{";
    first = true;
    for (const auto& [key, value] : record_) {
      out += (first ? "\"" : ",\"") + key + "\":\"" + value + "\"";
      first = false;
    }
    return out + "}}";
  }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, uint64_t> counts_;
  std::map<std::string, std::string> record_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool corrupt_fingerprint = false;
  std::string data_dir;
};

struct Workload {
  HarnessConfig cfg;
  uint64_t rounds = 0;        // Rounds of the measured run.
  size_t subruns = 1;         // Equal RunRounds calls the measured run is cut into.
  SimTime deadline = 0;       // Simulated deadline of the measured run.
  size_t setups = 3;          // Timed construct + Start repetitions for setup_s,
                              // after one untimed (cold) one.
  std::string message_delay;  // Injected message delay, as stated.
  // restart-join only.
  size_t restart_cycles = 0;  // Kill/restart rounds over the restarted nodes.
  size_t joins = 0;           // Sequential wipe-and-rejoin nodes.
};

// Run sizes scale with --seconds through fixed per-workload rates measured on
// a 4-core host, so the executed work (and every count) is a pure function of
// (workload, seed, seconds, --small).
Workload MakeWorkload(const Args& a) {
  Workload w;
  HarnessConfig& cfg = w.cfg;
  cfg.rng_seed = a.seed;
  cfg.use_sim_crypto = true;
  if (a.workload == "consensus-fig5") {
    // bench/sim_runner.h defaults: the Figure-5 deployment.
    cfg.n_nodes = a.small ? 60 : 500;
    cfg.params = ProtocolParams::Paper();
    cfg.params.tau_proposer = 26;
    cfg.params.tau_step = 100;
    cfg.params.tau_final = 300;
    cfg.params.lambda_step = Seconds(20);
    cfg.params.block_size_bytes = 1 << 20;
    cfg.net.uplink_bytes_per_sec = 20e6 / 8;
    cfg.latency = HarnessConfig::Latency::kCity;
    // The parallel engine executes identical events for any worker count;
    // one worker (no barrier hand-offs) gave the steadiest wall times on a
    // shared 4-core host.
    cfg.sim_workers = 1;
    cfg.verify_workers = 0;
    cfg.exec_workers = 0;
    w.rounds = a.small ? 2 : std::max<uint64_t>(1, std::llround(a.seconds / 10.0));
    w.subruns = w.rounds;
    w.deadline = Hours(6);
    w.setups = 21;
    w.message_delay = "20-city latency matrix with jitter, 20 Mbit/s uplinks";
  } else if (a.workload == "payments-1m") {
    // bench/bench_txpipeline.cpp's deployment.
    cfg.n_nodes = 6;
    cfg.latency = HarnessConfig::Latency::kCity;
    cfg.verify_workers = 1;
    cfg.exec_workers = 2;
    cfg.stake_per_user = 50'000'000;
    cfg.tx_clients = 64;
    cfg.client_stake = 50'000;
    cfg.filler_accounts = a.small ? 20'000 : 1'000'000;
    cfg.params.block_size_bytes = 1 << 20;
    cfg.tx_load_per_round = cfg.params.block_size_bytes / Transaction::kWireSize;
    cfg.params.mempool_capacity = 4 * cfg.tx_load_per_round;
    w.rounds = a.small ? 2 : std::max<uint64_t>(3, std::llround(a.seconds * 0.6));
    w.subruns = w.rounds;
    w.deadline = Hours(48);
    w.setups = 3;
    w.message_delay = "20-city latency matrix with jitter";
  } else if (a.workload == "restart-join") {
    // bench/bench_store.cpp's checkpointed side.
    cfg.n_nodes = 6;
    // bench_store's 0.02 scaling (tau_step 40, tau_proposer clamped to 5)
    // leaves ~5% of node-rounds tentative: committee weight falls short of
    // the step threshold, or no proposer is selected (e^-5 per round). 0.1
    // with the paper's tau_proposer keeps every round final at about the
    // same message count (one vote per node per step either way).
    cfg.params = ProtocolParams::ScaledCommittees(0.1);
    cfg.params.tau_proposer = 26;
    cfg.params.block_size_bytes = 8 << 10;
    cfg.params.checkpoint_interval = a.small ? 50 : 100;
    cfg.params.fastsync_enabled = true;
    cfg.latency = HarnessConfig::Latency::kUniform;
    cfg.uniform_latency = Millis(50);
    cfg.uniform_jitter = Millis(20);
    cfg.verify_workers = 0;
    cfg.exec_workers = 0;
    cfg.stake_per_user = 50'000'000;
    cfg.tx_clients = 16;
    cfg.client_stake = 50'000;
    cfg.tx_load_per_round = 20;
    cfg.params.mempool_capacity = 4 * cfg.tx_load_per_round;
    cfg.data_dir = a.data_dir + "/store";
    cfg.store_fsync = FsyncPolicy::kBatched;
    cfg.store_background_writer = true;
    w.rounds = a.small ? 300 : std::max<uint64_t>(200, std::llround(a.seconds * 100));
    w.subruns = 20;
    w.deadline = Hours(24 * 365);
    w.setups = 41;
    w.message_delay = "uniform 50 +/- 20 ms";
    w.restart_cycles = 3;
    w.joins = 3;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Correctness gate.

struct Gate {
  std::vector<std::string> failures;
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

struct NodeState {
  size_t length = 0;
  Hash256 tip;
  Hash256 fingerprint;
};

NodeState StateOf(SimHarness& h, size_t i) {
  const Ledger& l = h.node(i).ledger();
  return {l.chain_length(), l.tip_hash(), l.accounts().StateFingerprint()};
}

// Honest live nodes at equal chain length must agree on tip hash and account
// state. `corrupt` flips one compared fingerprint (the self-test's proof that
// this check can fail).
void CheckAgreement(SimHarness& h, bool corrupt, Gate* gate) {
  std::map<size_t, std::vector<std::pair<size_t, NodeState>>> by_length;
  for (size_t i = h.malicious_count(); i < h.node_count(); ++i) {
    if (h.node_alive(i)) {
      NodeState s = StateOf(h, i);
      by_length[s.length].emplace_back(i, s);
    }
  }
  bool compared = false;
  for (auto& [length, group] : by_length) {
    if (group.size() < 2) {
      continue;
    }
    if (corrupt && !compared) {
      group[1].second.fingerprint.data()[0] ^= 0x01;
    }
    compared = true;
    for (const auto& [i, s] : group) {
      gate->Check(s.tip == group[0].second.tip,
                  "node " + std::to_string(i) + " tip differs at length " + std::to_string(length));
      gate->Check(s.fingerprint == group[0].second.fingerprint,
                  "node " + std::to_string(i) + " state fingerprint differs at length " +
                      std::to_string(length));
    }
  }
  gate->Check(compared, "no two honest nodes at the same chain length to compare");
}

// A restarted or joined node must match a never-restarted live node: same
// block at its tip round and the same account state after that round.
void CheckAgainstLive(SimHarness& h, size_t node, size_t reference, bool corrupt, Gate* gate) {
  const Ledger& mine = h.node(node).ledger();
  const Ledger& ref = h.node(reference).ledger();
  const uint64_t tip_round = mine.chain_length() - 1;
  if (ref.chain_length() <= tip_round) {
    gate->Check(false, "reference node " + std::to_string(reference) + " is behind node " +
                           std::to_string(node));
    return;
  }
  gate->Check(ref.BlockAtRound(tip_round).Hash() == mine.tip_hash(),
              "node " + std::to_string(node) + " tip differs from live node " +
                  std::to_string(reference));
  Hash256 fp = mine.accounts().StateFingerprint();
  if (corrupt) {
    fp.data()[0] ^= 0x01;
  }
  gate->Check(ref.AccountsAtRound(tip_round).StateFingerprint() == fp,
              "node " + std::to_string(node) + " state differs from live node " +
                  std::to_string(reference));
}

// ---------------------------------------------------------------------------
// One run of a workload.

struct RunOutput {
  double setup_s = 0;
  std::vector<double> setup_samples;  // Timed set-ups, the cold one excluded.
  double run_wall_s = 0;              // Sum over the measured RunRounds calls.
  double committed_blocks = 0;        // Full-block equivalents under
                                      // transaction load.
  std::vector<double> block_walls;    // Run wall per block, one per sub-run
                                      // that committed any.
  uint64_t events = 0;
  double cpu_s = 0;
  std::vector<double> latencies;
  uint64_t node_rounds = 0;
  uint64_t node_rounds_failed = 0;
  uint64_t committed_txns = 0;
  uint64_t binary_steps = 0;
  MetricsSnapshot metrics;        // Right after the measured RunRounds call.
  MetricsSnapshot final_metrics;  // At the end, restarts and joins included.
  SortitionCdfCacheStats cdf_before;
  SortitionCdfCacheStats cdf_after;
  uint64_t bytes_sent = 0;
  uint64_t users = 0;
  uint64_t rounds = 0;
  // restart-join.
  std::vector<double> restart_walls;
  std::vector<double> join_walls;
  std::vector<double> join_sim;
  uint64_t restarts_failed = 0;
  uint64_t joins_failed = 0;
  double disk_mb_per_node = 0;
  // Layer-pass inputs, copied out of the harness.
  std::vector<Block> blocks;
  GenesisConfig genesis;
  std::vector<Ed25519KeyPair> keys;
  ProtocolParams params;
};

class Runner {
 public:
  Runner(const Args& args, const Workload& w, SpanTracer* spans, Gate* gate)
      : args_(args), w_(w), spans_(spans), gate_(gate) {}

  RunOutput Run(bool keep_layer_inputs) {
    RunOutput out;
    // Set-up: construct + Start, repeated; the first (cold) one is not
    // timed, and the last harness is the one that runs.
    std::unique_ptr<SimHarness> h;
    const size_t reps = spans_ != nullptr ? 1 : 1 + w_.setups;
    for (size_t rep = 0; rep < reps; ++rep) {
      h.reset();
      if (!w_.cfg.data_dir.empty()) {
        fs::remove_all(w_.cfg.data_dir);
        fs::create_directories(w_.cfg.data_dir);
      }
      auto t0 = Clock::now();
      Timed("harness.construct", [&] { h = std::make_unique<SimHarness>(w_.cfg); });
      Timed("harness.start", [&] { h->Start(); });
      if (rep > 0 || reps == 1) {
        out.setup_samples.push_back(SecondsSince(t0));
      }
    }
    out.setup_s = Median(out.setup_samples);

    SafetyAuditorConfig audit_cfg;
    audit_cfg.step_threshold = w_.cfg.params.StepThreshold();
    audit_cfg.final_threshold = w_.cfg.params.FinalThreshold();
    SafetyAuditor auditor(audit_cfg);
    auditor.AttachMetrics(&h->global_metrics());
    h->tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });

    out.cdf_before = GetSortitionCdfCacheStats();
    const double cpu0 = ProcessCpuSeconds();
    bool completed = true;
    // The measured run is cut into equal RunRounds calls (one per round when
    // traced, each under a span); every call schedules its own completion
    // probe, so the call count is fixed per workload and every count stays a
    // function of the seed. Each call's wall is divided by the blocks its
    // rounds committed on node 0's chain; under transaction load a block is
    // one full block's worth of transactions, so packing fewer transactions
    // reads as slower. A call whose rounds committed none is left out rather
    // than counted as cheap; failed_op_ratio counts its rounds.
    const size_t calls = spans_ != nullptr ? w_.rounds : w_.subruns;
    const int parent = spans_ != nullptr ? spans_->Begin("harness.run") : -1;
    uint64_t done_rounds = 0;
    for (size_t k = 1; k <= calls && completed; ++k) {
      const uint64_t target = w_.rounds * k / calls;
      const int id = spans_ != nullptr ? spans_->Begin("harness.round", parent) : -1;
      auto t0 = Clock::now();
      completed = h->RunRounds(target, w_.deadline);
      const double wall = SecondsSince(t0);
      if (id >= 0) {
        spans_->End(id);
      }
      double blocks = static_cast<double>(target - done_rounds);
      if (w_.cfg.tx_load_per_round > 0 && completed) {
        const Ledger& l = h->node(0).ledger();
        uint64_t txns = 0;
        for (uint64_t r = std::max(done_rounds + 1, l.base_round()); r <= target; ++r) {
          txns += l.BlockAtRound(r).txns.size();
        }
        blocks = static_cast<double>(txns) / static_cast<double>(w_.cfg.tx_load_per_round);
      }
      out.run_wall_s += wall;
      out.committed_blocks += blocks;
      if (blocks > 0) {
        out.block_walls.push_back(wall / blocks);
      }
      done_rounds = target;
    }
    if (parent >= 0) {
      spans_->End(parent, w_.rounds);
    }
    gate_->Check(out.committed_blocks > 0, "the measured run committed no transactions");
    out.cpu_s = ProcessCpuSeconds() - cpu0;
    out.events = h->sim().executed_events();
    out.cdf_after = GetSortitionCdfCacheStats();
    // Counts of the measured run alone: restart-join's later kill/restart
    // phase depends on what the background store writers had flushed.
    out.metrics = h->AggregateMetrics();
    gate_->Check(completed, "RunRounds missed its deadline");

    // Fig. 5's axis: round completion time over honest node x round.
    for (uint64_t r = 1; r <= w_.rounds; ++r) {
      for (double v : h->RoundLatencies(r)) {
        out.latencies.push_back(v);
      }
    }
    for (size_t i = h->malicious_count(); i < h->node_count(); ++i) {
      std::vector<bool> final_in_time(w_.rounds + 1, false);
      for (const RoundRecord& rec : h->node(i).round_records()) {
        if (rec.round >= 1 && rec.round <= w_.rounds) {
          final_in_time[rec.round] = rec.end_time > 0 && rec.final && !rec.hung;
          out.binary_steps += static_cast<uint64_t>(std::max(rec.binary_steps, 0));
        }
      }
      out.node_rounds += w_.rounds;
      out.node_rounds_failed += std::count(final_in_time.begin() + 1, final_in_time.end(), false);
    }
    out.committed_txns = h->CommittedTxCount(0);
    for (size_t i = 0; i < h->node_count(); ++i) {
      out.bytes_sent += h->network().traffic(static_cast<NodeId>(i)).bytes_sent;
    }
    out.users = h->total_users();
    out.rounds = w_.rounds;
    if (keep_layer_inputs) {
      // Before restart-join's phase, which rebuilds every node's ledger.
      const Ledger& l = h->node(0).ledger();
      for (uint64_t r = 1; r < l.chain_length(); ++r) {
        out.blocks.push_back(l.BlockAtRound(r));
      }
      out.genesis = h->genesis().config;
      out.keys = h->genesis().keys;
      out.params = w_.cfg.params;
    }

    SimHarness::SafetyReport safety = h->CheckSafety();
    gate_->Check(safety.ok, "CheckSafety: " + safety.violation);
    gate_->Check(h->ChainsConsistent(), "ChainsConsistent() is false");
    CheckAgreement(*h, args_.corrupt_fingerprint, gate_);

    if (!w_.cfg.data_dir.empty()) {
      size_t n = h->node_count();
      uint64_t bytes = 0;
      for (size_t i = 0; i < n; ++i) {
        bytes += DirBytes(w_.cfg.data_dir + "/node-" + std::to_string(i));
      }
      out.disk_mb_per_node = static_cast<double>(bytes) / static_cast<double>(n) / 1e6;
      RestartAndJoin(*h, &out);
    }
    gate_->Check(auditor.ok(), "SafetyAuditor: " + auditor.Report());
    out.final_metrics = h->AggregateMetrics();
    h->tracer().SetObserver({});

    return out;
  }

 private:
  void Timed(const std::string& name, const std::function<void()>& fn) {
    if (spans_ != nullptr) {
      spans_->Time(name, 1, fn);
    } else {
      fn();
    }
  }

  // restart-join: kill nodes and restart them cold from disk, then wipe
  // nodes one at a time and let each rejoin by fast-sync under live load.
  void RestartAndJoin(SimHarness& h, RunOutput* out) {
    const size_t n = h.node_count();
    std::vector<size_t> restarted;
    std::vector<size_t> joiners;
    for (size_t i = 0; i < n; ++i) {
      (i % 2 == 0 ? restarted : joiners).push_back(i);
    }
    joiners.resize(std::min(joiners.size(), w_.joins));
    // Node 1 never restarts before its own join; the reference for the
    // restarted nodes is the last joiner-to-be, still untouched.
    const size_t reference = joiners.back();
    auto counter = [&h](const char* name) { return h.AggregateMetrics().CounterValue(name); };
    for (size_t cycle = 0; cycle < w_.restart_cycles; ++cycle) {
      for (size_t i : restarted) {
        const uint64_t loads = counter("store.checkpoint_loads");
        Timed("harness.kill", [&] { h.KillNode(i); });
        auto t0 = Clock::now();
        Timed("harness.restart", [&] { h.RestartNode(i, /*from_snapshot=*/true); });
        out->restart_walls.push_back(SecondsSince(t0));
        // A restart that loaded no checkpoint fell back to full WAL replay.
        const bool from_checkpoint =
            counter("store.checkpoint_loads") > loads && h.node(i).ledger().base_round() > 0;
        out->restarts_failed += from_checkpoint ? 0 : 1;
        CheckAgainstLive(h, i, reference, args_.corrupt_fingerprint, gate_);
      }
    }
    for (size_t j : joiners) {
      size_t live = 0;
      for (size_t i = 0; i < n; ++i) {
        if (i != j) {
          live = std::max<size_t>(live, h.node(i).ledger().chain_length());
        }
      }
      const uint64_t fastsyncs = h.node(j).fastsyncs_completed();
      Timed("harness.kill", [&] { h.KillNode(j); });
      auto t0 = Clock::now();
      const SimTime sim0 = h.sim().now();
      const SimTime deadline = sim0 + Hours(1);
      Timed("harness.join", [&] {
        h.RestartNode(j, /*from_snapshot=*/false);
        while (h.node(j).ledger().chain_length() < live && h.sim().now() < deadline) {
          h.sim().RunUntil(h.sim().now() + Millis(250));
        }
      });
      out->join_walls.push_back(SecondsSince(t0));
      out->join_sim.push_back(ToSeconds(h.sim().now() - sim0));
      const bool joined = h.node(j).ledger().chain_length() >= live;
      const bool fast = h.node(j).fastsyncs_completed() > fastsyncs;
      out->joins_failed += joined && fast ? 0 : 1;
      gate_->Check(joined, "node " + std::to_string(j) + " missed the join deadline");
      if (joined) {
        // Any restarted node is live and never wiped: compare against it.
        CheckAgainstLive(h, j, restarted.front(), args_.corrupt_fingerprint, gate_);
      }
    }
    // Everyone keeps running together for a few rounds; then all honest
    // nodes at equal height must agree again.
    uint64_t tip = 0;
    for (size_t i = 0; i < n; ++i) {
      tip = std::max<uint64_t>(tip, h.node(i).ledger().chain_length());
    }
    gate_->Check(h.RunRounds(tip + 2, h.sim().now() + Hours(1)),
                 "restarted and joined nodes did not keep up with the chain");
    CheckAgreement(h, false, gate_);
  }

  const Args& args_;
  const Workload& w_;
  SpanTracer* spans_;
  Gate* gate_;
};

// ---------------------------------------------------------------------------
// Metrics.

uint64_t CounterOf(const MetricsSnapshot& m, const char* name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

void AddEndToEnd(const Workload& w, const RunOutput& o, Result* res) {
  res->E2e("setup_s", o.setup_s, "s");
  res->E2e("block_wall_ms", Median(o.block_walls) * 1e3, "ms");
  res->E2e("sim_events_per_s", static_cast<double>(o.events) / o.run_wall_s, "events/s");
  res->E2e("round_latency_p50_s", Median(o.latencies), "s");
  res->E2e("peak_rss_mb", PeakRssMb(), "MB");
  // Reported, not gated per workload: run.py prints them in the human report.
  res->E2e("committed_tx_per_s", static_cast<double>(o.committed_txns) / o.run_wall_s, "tx/s");
  if (o.latencies.size() >= 1000) {
    res->E2e("round_latency_p99_s", Percentile(o.latencies, 0.99), "s");
  }
  if (!o.restart_walls.empty()) {
    res->E2e("restart_s", Median(o.restart_walls), "s");
    res->E2e("join_s", Median(o.join_walls), "s");
    res->E2e("join_sim_s", Median(o.join_sim), "s");
    res->E2e("disk_mb_per_node", o.disk_mb_per_node, "MB");
  }
  // failed_op_ratio's base: honest node-rounds, injected transactions,
  // restarts and joins.
  res->Ops(o.node_rounds, o.node_rounds_failed);
  auto ops = [](uint64_t attempted, uint64_t failed) {
    return std::to_string(failed) + " failed of " + std::to_string(attempted);
  };
  res->Record("ops_node_rounds", ops(o.node_rounds, o.node_rounds_failed));
  res->Record("latency_samples", std::to_string(o.latencies.size()));
  auto get = [&o](const char* name) { return CounterOf(o.metrics, name); };
  if (w.cfg.tx_load_per_round > 0) {
    const uint64_t rejected = get("mempool.underpriced") + get("mempool.evicted") +
                              get("mempool.stale");
    res->Ops(get("mempool.added") + get("mempool.underpriced") + get("mempool.stale"), rejected);
    res->Record("ops_txns", ops(get("mempool.added") + get("mempool.underpriced") +
                                    get("mempool.stale"),
                                rejected));
  }
  if (!o.restart_walls.empty()) {
    res->Ops(o.restart_walls.size() + o.join_walls.size(), o.restarts_failed + o.joins_failed);
    res->Record("ops_restarts", ops(o.restart_walls.size(), o.restarts_failed));
    res->Record("ops_joins", ops(o.join_walls.size(), o.joins_failed));
  }
  res->E2e("failed_op_ratio",
           res->attempted() == 0
               ? 0
               : static_cast<double>(res->failed()) / static_cast<double>(res->attempted()),
           "ratio");
}

// Counts of the untraced run. Those perfbench/metrics.json marks "exact" are
// a pure function of the seed and are compared across runs by run.py; the
// rest (store writes, restart and join paths) depend on background-writer
// timing.
void AddCounts(const RunOutput& o, Result* res) {
  auto get = [&o](const char* name) { return CounterOf(o.metrics, name); };
  auto fin = [&o](const char* name) { return CounterOf(o.final_metrics, name); };
  res->Count("netsim.events", o.events);
  res->Count("netsim.windows", get("sim.windows"));
  res->Count("netsim.cross_shard_events", get("sim.cross_shard_events"));
  res->Count("netsim.gossip_delivered", get("gossip.delivered"));
  res->Count("netsim.gossip_dup_dropped", get("gossip.dup_dropped"));
  res->Count("netsim.gossip_rejected", get("gossip.rejected"));
  res->Count("netsim.msgs_sent", o.metrics.CounterSumByPrefix("net.msgs."));
  res->Count("netsim.bytes_sent", o.bytes_sent);
  res->Count("core.committed_txns", o.committed_txns);
  res->Count("core.binary_steps", o.binary_steps);
  res->Count("core.sortition_cdf_hits", o.cdf_after.hits - o.cdf_before.hits);
  res->Count("core.sortition_cdf_misses", o.cdf_after.misses - o.cdf_before.misses);
  res->Count("ledger.mempool_added", get("mempool.added"));
  res->Count("ledger.mempool_rejected", get("mempool.underpriced") + get("mempool.evicted") +
                                            get("mempool.stale") + get("mempool.duplicates"));
  res->Count("ledger.exec_txns", get("exec.txns"));
  res->Count("ledger.exec_partitions", get("exec.partitions"));
  res->Count("ledger.exec_parallel_blocks", get("exec.parallel_blocks"));
  res->Count("obs.audit_events", get("audit.events"));
  res->Count("obs.trace_recorded", get("trace.events_recorded"));
  res->Count("obs.trace_dropped", get("trace.events_dropped"));
  res->Count("core.fastsync_links_verified", fin("catchup.fastsync_links_verified"));
  res->Count("core.fastsync_bytes", fin("catchup.fastsync_bytes"));
  res->Count("core.catchup_blocks_applied", fin("catchup.blocks_applied"));
  res->Count("store.bytes_written", fin("store.bytes_written"));
  res->Count("store.fsyncs", fin("store.fsyncs"));
  res->Count("store.checkpoints_written", fin("store.checkpoints_written"));
  res->Count("store.checkpoint_bytes", fin("store.checkpoint_bytes"));
  res->Count("store.compaction_bytes_reclaimed", fin("store.compaction_bytes_reclaimed"));
  res->Count("store.replay_rounds", fin("store.replay_rounds"));
  res->Count("store.checkpoint_loads", fin("store.checkpoint_loads"));
  res->Count("store.checkpoint_load_failures", fin("store.checkpoint_load_failures"));
  res->Count("store.index_hits", fin("store.index_hits"));
  res->Count("store.index_misses", fin("store.index_misses"));
}

// Per-layer metrics from the untraced run's counters (some, like cache hits
// under a verify pool or fsync counts, depend on thread timing and are
// reported but not gated).
void AddLayerCounts(const RunOutput& o, Result* res) {
  auto get = [&o](const char* name) { return CounterOf(o.metrics, name); };
  for (const auto& [name, value] : res->counts()) {
    res->Layer(name, static_cast<double>(value), "count");
  }
  const double delivered = static_cast<double>(get("gossip.delivered"));
  const double dups = static_cast<double>(get("gossip.dup_dropped"));
  res->Layer("netsim.gossip_dup_ratio", delivered + dups > 0 ? dups / (delivered + dups) : 0,
             "ratio");
  res->Layer("netsim.bytes_per_user_round",
             static_cast<double>(o.bytes_sent) / static_cast<double>(std::max<uint64_t>(1, o.users)) /
                 static_cast<double>(std::max<uint64_t>(1, o.rounds)),
             "B");
  res->Layer("netsim.cpu_per_wall", o.cpu_s / o.run_wall_s, "ratio");
  if (!o.block_walls.empty()) {  // Else the gate has failed the run.
    const auto [lo, hi] = std::minmax_element(o.block_walls.begin(), o.block_walls.end());
    res->Layer("obs.timing_spread_pct", 100.0 * (*hi - *lo) / Median(o.block_walls), "%");
  }
  res->Layer("core.verify_cache_hits", static_cast<double>(get("verify.cache_hits")), "count");
  res->Layer("core.verify_cache_misses", static_cast<double>(get("verify.cache_misses")),
             "count");
  res->Layer("core.verify_cache_lookups_per_tx",
             o.committed_txns == 0
                 ? 0
                 : static_cast<double>(get("verify.cache_hits") + get("verify.cache_misses")) /
                       static_cast<double>(o.committed_txns),
             "1/tx");
  res->Layer("core.binary_steps_per_round",
             static_cast<double>(o.binary_steps) /
                 static_cast<double>(std::max<uint64_t>(1, o.node_rounds)),
             "steps");
  res->Layer("common.verify_pool_prewarms", static_cast<double>(get("verify.pool_prewarms")),
             "count");
  auto hist = o.metrics.histograms.find("verify.pool_wait_us");
  res->Layer("common.verify_pool_wait_us",
             hist == o.metrics.histograms.end() ? 0 : hist->second.sum, "us");
  auto apply = o.metrics.histograms.find("exec.apply_us");
  res->Layer("ledger.exec_apply_us", apply == o.metrics.histograms.end() ? 0 : apply->second.sum,
             "us");
}

// ---------------------------------------------------------------------------
// Layer pass: re-drives the run's own inputs through public entry points,
// one span per batch.

void LayerPass(const Args& args, const Workload& w, const RunOutput& o, SpanTracer* spans,
               Result* res, Gate* gate) {
  int pass = spans->Begin("layer_pass");
  DeterministicRng rng(args.seed, "perfbench-layer-pass");
  SimSigner signer;
  SimVrf vrf;

  // Transactions: node 0's committed ones, or freshly made ones when the
  // workload carries no load.
  std::vector<Transaction> txns;
  for (const Block& b : o.blocks) {
    txns.insert(txns.end(), b.txns.begin(), b.txns.end());
  }
  {
    std::vector<Ed25519KeyPair> clients(std::min<size_t>(o.keys.size(), 16));
    std::copy_n(o.keys.begin(), clients.size(), clients.begin());
    const size_t n = 4096;
    std::vector<Transaction> made;
    made.reserve(n);
    spans->Time("ledger.tx_make", n, [&] {
      for (size_t k = 0; k < n; ++k) {
        const auto& from = clients[k % clients.size()];
        made.push_back(MakeTransaction(from, clients[(k + 1) % clients.size()].public_key, 1,
                                       k / clients.size(), signer, 1));
      }
    }, pass);
    if (txns.empty()) {
      txns = std::move(made);
    }
  }
  res->Layer("ledger.tx_make_ns", spans->SecondsPerOp("ledger.tx_make") * 1e9, "ns");

  // SHA-256 over the serialized chain, at least 32 MB in total.
  std::vector<uint8_t> bytes;
  for (const Block& b : o.blocks) {
    std::vector<uint8_t> s = b.Serialize();
    bytes.insert(bytes.end(), s.begin(), s.end());
    if (bytes.size() >= (1u << 20)) {
      break;
    }
  }
  while (bytes.size() < (1u << 20)) {
    bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
  }
  const size_t sha_reps = std::max<size_t>(1, (32u << 20) / bytes.size());
  uint8_t sink = 0;
  spans->Time("crypto.sha256", sha_reps * bytes.size(), [&] {
    for (size_t k = 0; k < sha_reps; ++k) {
      sink ^= Sha256::Hash(bytes).data()[0];
    }
  }, pass);
  res->Layer("crypto.sha256_mb_per_s", 1e-6 / spans->SecondsPerOp("crypto.sha256"), "MB/s");

  spans->Time("ledger.tx_id", txns.size(), [&] {
    for (const Transaction& tx : txns) {
      sink ^= tx.Id().data()[0];
    }
  }, pass);
  res->Layer("ledger.tx_id_ns", spans->SecondsPerOp("ledger.tx_id") * 1e9, "ns");

  {
    // Cold cache: every verdict is computed.
    VerificationCache cache;
    TxSigVerifier verifier(&signer, &cache, nullptr);
    const size_t batch = std::max<size_t>(1, std::min<size_t>(txns.size(), 6898));
    for (size_t at = 0; at < txns.size(); at += batch) {
      std::vector<Transaction> chunk(txns.begin() + at,
                                     txns.begin() + std::min(txns.size(), at + batch));
      bool ok = true;
      spans->Time("core.tx_verify_batch", 1, [&] { ok = verifier.VerifyBatch(chunk); }, pass);
      gate->Check(ok, "layer pass: VerifyBatch rejected a committed batch");
    }
  }
  res->Layer("core.tx_verify_batch_ms", spans->SecondsPerOp("core.tx_verify_batch") * 1e3, "ms");

  {
    // Mempool and apply replay node 0's chain from genesis state.
    AccountTable table = Ledger(o.genesis).accounts();
    MempoolConfig mcfg;
    mcfg.capacity = std::max<size_t>(1 << 16, 4 * txns.size());
    Mempool pool(mcfg);
    BlockApplier applier;
    if (o.blocks.empty() || o.blocks.front().txns.empty()) {
      spans->Time("ledger.mempool_add", txns.size(), [&] {
        for (const Transaction& tx : txns) {
          pool.Add(tx, 0);
        }
      }, pass);
      spans->Time("ledger.mempool_build", 1, [&] {
        sink ^= static_cast<uint8_t>(pool.BuildBlock(table, o.params.block_size_bytes).size());
      }, pass);
    }
    for (const Block& b : o.blocks) {
      if (b.txns.empty()) {
        continue;
      }
      spans->Time("ledger.mempool_add", b.txns.size(), [&] {
        for (const Transaction& tx : b.txns) {
          pool.Add(tx, table.NextNonceOf(tx.from));
        }
      }, pass);
      spans->Time("ledger.mempool_build", 1, [&] {
        sink ^= static_cast<uint8_t>(pool.BuildBlock(table, o.params.block_size_bytes).size());
      }, pass);
      bool ok = true;
      spans->Time("ledger.apply_block", 1, [&] { ok = applier.ApplyBlock(b.txns, &table); },
                  pass);
      gate->Check(ok, "layer pass: ApplyBlock rejected committed round " +
                          std::to_string(b.round));
      pool.ObserveCommitted(b.txns, table);
    }
    if (spans->Durations("ledger.apply_block").empty()) {
      // No committed payments: apply the made batch to a genesis table.
      AccountTable fresh = Ledger(o.genesis).accounts();
      std::vector<Transaction> batch(txns.begin(),
                                     txns.begin() + std::min<size_t>(txns.size(), 16));
      spans->Time("ledger.apply_block", 1, [&] { applier.ApplyBlock(batch, &fresh); }, pass);
    }
  }
  res->Layer("ledger.mempool_add_ns", spans->SecondsPerOp("ledger.mempool_add") * 1e9, "ns");
  res->Layer("ledger.mempool_build_ms", spans->SecondsPerOp("ledger.mempool_build") * 1e3, "ms");
  res->Layer("ledger.apply_block_ms", spans->SecondsPerOp("ledger.apply_block") * 1e3, "ms");

  {
    // Sortition and vote counting at the run's weights and round seeds.
    Ledger ledger(o.genesis);
    const uint64_t total = ledger.total_weight();
    struct Vote {
      PublicKey pk;
      uint64_t weight;
      SortitionResult sort;
      SeedBytes seed;
      uint64_t round;
      uint32_t step;
    };
    std::vector<Vote> votes;
    const size_t voters = std::min<size_t>(o.keys.size(), 500);
    const uint64_t rounds = std::max<uint64_t>(1, std::min<uint64_t>(o.blocks.size(), 4));
    for (uint64_t r = 0; r < rounds; ++r) {
      SeedBytes seed = o.blocks.empty() ? o.genesis.seed0 : o.blocks[r].next_seed;
      for (uint32_t step = 1; step <= 4; ++step) {
        for (size_t k = 0; k < voters; ++k) {
          const uint64_t weight = ledger.WeightOf(o.keys[k].public_key);
          SortitionResult s = RunSortition(vrf, o.keys[k], seed, o.params.tau_step,
                                           Role::kCommittee, r + 2, step, weight, total);
          if (s.votes > 0) {
            votes.push_back({o.keys[k].public_key, weight, s, seed, r + 2, step});
          }
        }
      }
    }
    size_t verified = 0;
    spans->Time("core.sortition_verify", votes.size(), [&] {
      for (const Vote& v : votes) {
        verified += VerifySortition(vrf, v.pk, v.sort.hash, v.sort.proof, v.seed,
                                    o.params.tau_step, Role::kCommittee, v.round, v.step,
                                    v.weight, total) == v.sort.votes;
      }
    }, pass);
    gate->Check(verified == votes.size(), "layer pass: VerifySortition rejected a selection");
    const double p = o.params.tau_step / static_cast<double>(total);
    spans->Time("core.select_subusers", votes.size(), [&] {
      for (const Vote& v : votes) {
        sink ^= static_cast<uint8_t>(SelectSubUsers(v.sort.hash, v.weight, p));
      }
    }, pass);
    // One tally per (round, step), as a node keeps them.
    std::map<std::pair<uint64_t, uint32_t>, StepTally> tallies;
    for (const Vote& v : votes) {
      tallies[{v.round, v.step}];
    }
    size_t added = 0;
    spans->Time("core.vote_add", votes.size(), [&] {
      for (const Vote& v : votes) {
        Hash256 value;
        value.data()[0] = static_cast<uint8_t>(v.step);
        added += tallies[{v.round, v.step}].AddVote(v.pk, v.sort.votes, value, v.sort.hash);
      }
    }, pass);
    gate->Check(added == votes.size(), "layer pass: StepTally rejected a vote");
  }
  res->Layer("core.sortition_verify_ns", spans->SecondsPerOp("core.sortition_verify") * 1e9,
             "ns");
  res->Layer("core.select_subusers_ns", spans->SecondsPerOp("core.select_subusers") * 1e9, "ns");
  res->Layer("core.vote_add_ns", spans->SecondsPerOp("core.vote_add") * 1e9, "ns");

  {
    // Store: append node 0's chain to a fresh log, flush, read it back, and
    // reopen it (restart-join reopens its built node-0 directory instead).
    const std::string dir = args.data_dir + "/layer-store";
    fs::remove_all(dir);
    StoreOptions opts;
    opts.dir = dir;
    opts.fsync = FsyncPolicy::kBatched;
    opts.background_writer = false;
    std::string error;
    auto store = BlockStore::Open(opts, &error);
    if (store != nullptr) {
      uint64_t round = 1;
      for (const Block& b : o.blocks) {
        StoredRound sr;
        sr.round = round++;
        sr.kind = 1;
        sr.tip_hash = b.Hash();
        sr.next_seed = b.next_seed;
        sr.block = b.Serialize();
        spans->Time("store.append_round", 1, [&] { store->AppendRound(std::move(sr)); }, pass);
      }
      spans->Time("store.flush", 1, [&] { store->Flush(); }, pass);
      for (uint64_t r = 1; r < round; ++r) {
        spans->Time("store.read_round", 1, [&] { sink ^= store->ReadRound(r).has_value(); },
                    pass);
      }
      store.reset();
    }
    if (!w.cfg.data_dir.empty()) {
      opts.dir = w.cfg.data_dir + "/node-0";
    }
    std::unique_ptr<BlockStore> reopened;
    spans->Time("store.open", 1, [&] { reopened = BlockStore::Open(opts, &error); }, pass);
    reopened.reset();
    fs::remove_all(dir);
  }
  res->Layer("store.append_round_us", spans->SecondsPerOp("store.append_round") * 1e6, "us");
  res->Layer("store.flush_ms", spans->SecondsPerOp("store.flush") * 1e3, "ms");
  res->Layer("store.read_round_us", spans->SecondsPerOp("store.read_round") * 1e6, "us");
  res->Layer("store.open_ms", spans->SecondsPerOp("store.open") * 1e3, "ms");
  spans->End(pass);
  res->Record("layer_pass_checksum", std::to_string(sink));  // Keeps the results observable.
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name, std::string* out) {
      std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string v;
    try {
      if (value("workload", &v)) {
        a->workload = v;
      } else if (value("seed", &v)) {
        a->seed = std::stoull(v);
      } else if (value("seconds", &v)) {
        a->seconds = std::stod(v);
      } else if (value("trace", &v)) {
        a->trace = v == "1";
      } else if (value("data-dir", &v)) {
        a->data_dir = v;
      } else if (arg == "--small") {
        a->small = true;
      } else if (arg == "--corrupt-fingerprint") {
        a->corrupt_fingerprint = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (a->workload == "consensus-fig5" || a->workload == "payments-1m" ||
          a->workload == "restart-join") &&
         !a->data_dir.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload=consensus-fig5|payments-1m|restart-join --seed=N "
            "--seconds=S --trace=0|1 --data-dir=DIR [--small] "
            "[--corrupt-fingerprint]\n");
    return 2;
  }
  fs::create_directories(args.data_dir);
  const Workload w = MakeWorkload(args);
  Gate gate;
  Result res;

  RunOutput plain = Runner(args, w, nullptr, &gate).Run(/*keep_layer_inputs=*/false);
  AddEndToEnd(w, plain, &res);
  AddCounts(plain, &res);
  if (args.trace) {
    AddLayerCounts(plain, &res);
    SpanTracer spans;
    RunOutput traced = Runner(args, w, &spans, &gate).Run(/*keep_layer_inputs=*/true);
    // Whole-run wall per block, traced against untraced. The traced run makes
    // one RunRounds call (and completion probe) per round and starts with the
    // process-global sortition cache warm, so the difference is not only the
    // spans' cost; obs.timing_spread_pct, the untraced sub-runs' spread, is
    // the noise it has to exceed to mean anything.
    const double per_block = plain.run_wall_s / plain.committed_blocks;
    res.Layer("obs.trace_overhead_pct",
              100.0 * (traced.run_wall_s / traced.committed_blocks - per_block) / per_block, "%");
    res.Layer("harness.construct_s", Median(spans.Durations("harness.construct")), "s");
    res.Layer("harness.start_s", Median(spans.Durations("harness.start")), "s");
    res.Layer("harness.round_ms", Median(spans.Durations("harness.round")) * 1e3, "ms");
    res.Layer("harness.kill_ms", Median(spans.Durations("harness.kill")) * 1e3, "ms");
    res.Layer("harness.restart_ms", Median(spans.Durations("harness.restart")) * 1e3, "ms");
    res.Layer("harness.join_ms", Median(spans.Durations("harness.join")) * 1e3, "ms");
    LayerPass(args, w, traced, &spans, &res, &gate);
    const std::string span_file =
        args.data_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
    if (!spans.WriteJsonl(span_file)) {
      gate.Check(false, "cannot write " + span_file);
    }
    res.Record("span_file", span_file);
  }

  res.Record("workload", args.workload);
  res.Record("seed", std::to_string(args.seed));
  res.Record("nodes", std::to_string(w.cfg.n_nodes));
  res.Record("rounds", std::to_string(w.rounds));
  res.Record("message_delay", w.message_delay);
  res.Record("sim_workers", std::to_string(w.cfg.sim_workers));
  res.Record("exec_workers", std::to_string(std::max(0, w.cfg.exec_workers)));
  res.Record("verify_workers", std::to_string(std::max(0, w.cfg.verify_workers)));
  res.Record("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
#ifdef __clang__
  res.Record("compiler", std::string("clang ") + __clang_version__);
#else
  res.Record("compiler", std::string("g++ ") + __VERSION__);
#endif

  if (!gate.failures.empty()) {
    for (const std::string& f : gate.failures) {
      fprintf(stderr, "correctness check failed: %s\n", f.c_str());
    }
    return 1;
  }
  printf("PERFBENCH %s\n", res.ToJson().c_str());
  return 0;
}
