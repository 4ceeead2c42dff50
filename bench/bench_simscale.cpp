// Simulator scaling sweep: wall-clock and events/sec as the node count,
// engine worker count, and users-per-node grow, with committee sizes fixed
// (the paper's §8.4 scaling discipline). This is the engine benchmark behind
// the Figure 5/6 reproductions — it measures the simulator itself, not the
// protocol, so regressions in the event queue, message memoization, the
// window barriers, or the sortition cache show up here first.
//
//   $ ./bench/bench_simscale --nodes=100,200,500 --rounds=3 --workers=1,2,4
//         --users-per-group=500 --out=scaling.json [--seed=N]
//
// --workers sweeps ENGINE shard-worker counts of the conservative-lookahead
// engine (every N produces bit-identical executed_events — the report calls
// out any mismatch). Each (nodes x workers) pair is one sweep point.
// --users-per-group=K makes every node host K users' stake (aggregate-user
// modeling; 1000 nodes x 500 = the paper's 500k-user configuration).
// --sweep-threads spreads independent sweep points across OS threads
// (share-nothing; results identical to one thread). The JSON report records
// wall seconds, wall seconds per round, executed events, and events/sec per
// sweep point.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sim_runner.h"

using namespace algorand;
using namespace algorand::bench;

namespace {

struct Options {
  std::vector<size_t> nodes = {100, 200, 500};
  uint64_t rounds = 3;
  std::vector<size_t> workers = {1};  // Engine shard workers.
  size_t users_per_group = 1;
  size_t sweep_threads = 1;
  uint64_t seed = 1;
  bool help = false;
  bool bad_value = false;  // A malformed number: usage error, exit 2.
  std::string out = "scaling.json";
  // Durable-store A/B: every node writes its disk log under DIR/n<count>/.
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kBatched;
};

bool ParseFlag(int argc, char** argv, int* i, const char* name, std::string* value) {
  const char* arg = argv[*i];
  std::string prefix = std::string("--") + name;
  if (strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  const char* rest = arg + prefix.size();
  if (*rest == '=') {
    *value = rest + 1;
    return true;
  }
  if (*rest == '\0' && *i + 1 < argc) {
    *value = argv[*i + 1];
    ++*i;
    return true;
  }
  return false;
}

std::vector<size_t> ParseSizeList(const std::string& spec) {
  std::vector<size_t> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(static_cast<size_t>(std::stoul(item)));
    }
  }
  return out;
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    try {
      if (ParseFlag(argc, argv, &i, "nodes", &v)) {
        opt.nodes = ParseSizeList(v);
      } else if (ParseFlag(argc, argv, &i, "rounds", &v)) {
        opt.rounds = std::stoull(v);
      } else if (ParseFlag(argc, argv, &i, "workers", &v)) {
        opt.workers = ParseSizeList(v);
      } else if (ParseFlag(argc, argv, &i, "users-per-group", &v)) {
        opt.users_per_group = static_cast<size_t>(std::stoul(v));
      } else if (ParseFlag(argc, argv, &i, "sweep-threads", &v)) {
        opt.sweep_threads = static_cast<size_t>(std::stoul(v));
      } else if (ParseFlag(argc, argv, &i, "seed", &v)) {
        opt.seed = std::stoull(v);
      } else if (ParseFlag(argc, argv, &i, "out", &v)) {
        opt.out = v;
      } else if (ParseFlag(argc, argv, &i, "data-dir", &v)) {
        opt.data_dir = v;
      } else if (ParseFlag(argc, argv, &i, "fsync", &v)) {
        if (auto policy = ParseFsyncPolicy(v)) {
          opt.fsync = *policy;
        } else {
          opt.help = true;
        }
      } else {
        opt.help = true;
      }
    } catch (const std::logic_error&) {
      // std::sto* throw invalid_argument / out_of_range on a malformed number.
      fprintf(stderr, "bad numeric value in %s\n", argv[i]);
      opt.bad_value = true;
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (opt.help || opt.bad_value || opt.nodes.empty() || opt.workers.empty() ||
      opt.users_per_group == 0) {
    printf(
        "usage: bench_simscale [flags]\n"
        "  --nodes=A,B,C        node counts to sweep (default 100,200,500)\n"
        "  --rounds=N           rounds per point (default 3)\n"
        "  --workers=A,B,C      engine shard-worker counts to sweep (default 1)\n"
        "  --users-per-group=K  users hosted per node (aggregate-user\n"
        "                       modeling; total users = nodes*K; default 1)\n"
        "  --sweep-threads=N    independent sweep points run on N OS threads\n"
        "                       (default 1)\n"
        "  --seed=N             rng seed (default 1)\n"
        "  --data-dir=DIR       durable block store per node under DIR (A/B\n"
        "                       the cost of disk logging on the sim hot path)\n"
        "  --fsync=POLICY       store fsync policy: every_round, batched, off\n"
        "  --out=FILE           JSON report path (default scaling.json)\n");
    return opt.bad_value ? 2 : opt.help ? 1 : 0;
  }

  Banner("simscale", "simulator scaling (engine benchmark, not a paper figure)",
         "events/sec roughly flat as node count grows; wall-clock ~linear in events");

  std::vector<RunSpec> specs;
  for (size_t n : opt.nodes) {
    for (size_t w : opt.workers) {
      RunSpec spec;
      spec.n_nodes = n;
      spec.rounds = opt.rounds;
      spec.seed = opt.seed;
      spec.sim_workers = w;
      spec.users_per_group = opt.users_per_group;
      if (!opt.data_dir.empty()) {
        spec.data_dir = opt.data_dir + "/n" + std::to_string(n) + "w" + std::to_string(w);
        spec.store_fsync = opt.fsync;
      }
      specs.push_back(spec);
    }
  }
  std::vector<RunResult> results = RunScenariosParallel(specs, opt.sweep_threads);

  printf("%-8s %-8s %-10s %-10s %-12s %-12s %-12s %-10s %-8s\n", "nodes", "workers", "users",
         "wall(s)", "wall/round", "events", "events/sec", "med-lat(s)", "safety");
  std::string json = "{\n  \"store\": \"";
  json += opt.data_dir.empty() ? "none" : FsyncPolicyName(opt.fsync);
  json += "\",\n  \"rounds\": " + std::to_string(opt.rounds);
  json += ",\n  \"seed\": " + std::to_string(opt.seed);
  json += ",\n  \"users_per_group\": " + std::to_string(opt.users_per_group);
  json += ",\n  \"points\": [\n";
  bool all_ok = true;
  // Determinism cross-check: every worker count at one node count must
  // execute exactly the same number of events.
  std::map<size_t, uint64_t> events_by_nodes;
  bool determinism_ok = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    const size_t users = specs[i].n_nodes * specs[i].users_per_group;
    double per_round = r.wall_seconds / static_cast<double>(opt.rounds);
    double eps = r.wall_seconds > 0 ? static_cast<double>(r.executed_events) / r.wall_seconds : 0;
    all_ok = all_ok && r.completed && r.safety_ok;
    auto [it, inserted] = events_by_nodes.emplace(specs[i].n_nodes, r.executed_events);
    if (!inserted && it->second != r.executed_events) {
      determinism_ok = false;
      fprintf(stderr,
              "DETERMINISM MISMATCH: nodes=%zu workers=%zu executed %llu events, expected "
              "%llu\n",
              specs[i].n_nodes, specs[i].sim_workers,
              static_cast<unsigned long long>(r.executed_events),
              static_cast<unsigned long long>(it->second));
    }
    printf("%-8zu %-8zu %-10zu %-10.2f %-12.2f %-12llu %-12.0f %-10.1f %-8s%s\n",
           specs[i].n_nodes, specs[i].sim_workers, users, r.wall_seconds, per_round,
           static_cast<unsigned long long>(r.executed_events), eps, r.latency.median,
           r.safety_ok ? "ok" : "VIOLATED", r.completed ? "" : "  [incomplete]");
    char buf[512];
    snprintf(buf, sizeof(buf),
             "    {\"nodes\": %zu, \"workers\": %zu, \"users\": %zu, \"wall_seconds\": %.3f, "
             "\"wall_seconds_per_round\": %.3f, \"executed_events\": %llu, "
             "\"events_per_sec\": %.0f, \"median_round_latency_s\": %.2f, \"completed\": %s, "
             "\"safety_ok\": %s}%s\n",
             specs[i].n_nodes, specs[i].sim_workers, users, r.wall_seconds, per_round,
             static_cast<unsigned long long>(r.executed_events), eps, r.latency.median,
             r.completed ? "true" : "false", r.safety_ok ? "true" : "false",
             i + 1 < specs.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"parallel_event_counts_identical\": ";
  json += determinism_ok ? "true" : "false";
  json += "\n}\n";

  std::ofstream out(opt.out, std::ios::binary);
  if (out) {
    out << json;
    printf("report: %s\n", opt.out.c_str());
  } else {
    fprintf(stderr, "error: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  Note("sim crypto + verification cache (the paper's methodology); committee sizes fixed");
  if (!determinism_ok) {
    fprintf(stderr, "error: engine worker counts disagreed on executed_events\n");
    return 3;
  }
  return all_ok ? 0 : 2;
}
