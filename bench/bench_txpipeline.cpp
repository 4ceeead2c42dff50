// Transaction-pipeline throughput: committed tx/sec through the full
// mempool → batch-verify → conflict-partitioned-apply path, at an account
// table of millions of entries and 1 MB blocks (§10.2 measures committed
// throughput of exactly such blocks).
//
//   $ ./bench/bench_txpipeline --accounts=1000000 --workers=0,2,4 --rounds=3
//         --out=BENCH_txn.json [--real-crypto] [--seed=N]
//
// --workers sweeps EXEC worker counts for the block applier (ledger/exec.h):
// 0 = the sequential tier-1 path, N >= 1 = conflict partitions applied
// through a worker pool. Every worker count must commit the bit-identical
// chain and account state — the report cross-checks chain tips, account
// fingerprints, and committed counts across all points and exits 3 on any
// mismatch (the harness-level twin of txpipeline_test's A/B).
// --accounts adds that many key-less filler accounts of stake 1 to genesis,
// so lookups run against a realistically-sized table; the paying clients and
// consensus nodes ride on top of them. Sim crypto is the default (the
// paper's replace-crypto-with-sleeps methodology — this benchmark measures
// the pipeline, not ed25519); --real-crypto signs and verifies for real.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/sim_harness.h"

using namespace algorand;
using namespace algorand::bench;

namespace {

struct Options {
  size_t accounts = 1'000'000;
  std::vector<size_t> workers = {0, 2};
  uint64_t rounds = 3;
  size_t n_nodes = 6;
  size_t clients = 64;
  size_t load = 0;  // tx/round; 0 = sized to fill a block.
  uint64_t block_bytes = 1 << 20;
  uint64_t seed = 1;
  bool real_crypto = false;
  bool help = false;
  std::string out = "BENCH_txn.json";
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
    if (ParseFlag(argc, argv, &i, "accounts", &v)) {
      opt.accounts = static_cast<size_t>(std::stoull(v));
    } else if (ParseFlag(argc, argv, &i, "workers", &v)) {
      opt.workers = ParseSizeList(v);
    } else if (ParseFlag(argc, argv, &i, "rounds", &v)) {
      opt.rounds = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "nodes", &v)) {
      opt.n_nodes = static_cast<size_t>(std::stoul(v));
    } else if (ParseFlag(argc, argv, &i, "clients", &v)) {
      opt.clients = static_cast<size_t>(std::stoul(v));
    } else if (ParseFlag(argc, argv, &i, "load", &v)) {
      opt.load = static_cast<size_t>(std::stoull(v));
    } else if (ParseFlag(argc, argv, &i, "block-bytes", &v)) {
      opt.block_bytes = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "seed", &v)) {
      opt.seed = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "out", &v)) {
      opt.out = v;
    } else if (strcmp(argv[i], "--real-crypto") == 0) {
      opt.real_crypto = true;
    } else {
      opt.help = true;
    }
  }
  return opt;
}

std::string HashHex(const Hash256& h) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < 8; ++i) {  // 8 bytes is plenty for a cross-check id.
    out += kHex[h.data()[i] >> 4];
    out += kHex[h.data()[i] & 0xf];
  }
  return out;
}

struct PointResult {
  size_t exec_workers = 0;
  double wall_seconds = 0;
  uint64_t committed = 0;
  uint64_t accounts = 0;
  bool completed = false;
  bool safety_ok = false;
  Hash256 tip;
  Hash256 fingerprint;
};

PointResult RunPoint(const Options& opt, size_t exec_workers) {
  HarnessConfig cfg;
  cfg.n_nodes = opt.n_nodes;
  cfg.rng_seed = opt.seed;
  cfg.use_sim_crypto = !opt.real_crypto;
  cfg.verify_workers = 0;  // Isolate the exec sweep from the batch-verify fan-out.
  cfg.exec_workers = static_cast<int>(exec_workers);
  // Consensus stake stays with the nodes; clients and fillers must be
  // noise-level weight. Non-voting stake directly shrinks expected committee
  // weight below tau, and even ~15% of it makes BA* time out into the
  // empty-block fallback on marginal rounds.
  cfg.stake_per_user = 50'000'000;
  cfg.tx_clients = opt.clients;
  cfg.client_stake = 50'000;
  cfg.filler_accounts = opt.accounts;
  cfg.params.block_size_bytes = opt.block_bytes;
  const size_t block_capacity = opt.block_bytes / Transaction::kWireSize;
  cfg.tx_load_per_round = opt.load > 0 ? opt.load : block_capacity;
  // The pool must absorb a full round of load on top of leftovers.
  cfg.params.mempool_capacity = 4 * cfg.tx_load_per_round;

  PointResult res;
  res.exec_workers = exec_workers;
  auto t0 = std::chrono::steady_clock::now();
  SimHarness h(cfg);
  h.Start();
  res.completed = h.RunRounds(opt.rounds, Hours(48));
  auto t1 = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.safety_ok = h.CheckSafety().ok;
  res.committed = h.CommittedTxCount();
  res.accounts = h.node(0).ledger().accounts().account_count();
  res.tip = h.node(0).ledger().tip_hash();
  res.fingerprint = h.node(0).ledger().accounts().StateFingerprint();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (opt.help || opt.workers.empty() || opt.rounds == 0 || opt.n_nodes < 2) {
    printf(
        "usage: bench_txpipeline [flags]\n"
        "  --accounts=N      filler accounts in genesis (default 1000000)\n"
        "  --workers=A,B,C   exec worker counts to sweep: 0 = sequential\n"
        "                    apply, N>=1 = conflict-partitioned parallel\n"
        "                    apply (default 0,2)\n"
        "  --rounds=N        consensus rounds per point (default 3)\n"
        "  --nodes=N         consensus nodes (default 6)\n"
        "  --clients=N       paying client accounts (default 64)\n"
        "  --load=N          injected tx per round (default: one block's\n"
        "                    worth, block-bytes / tx wire size)\n"
        "  --block-bytes=N   block payload size (default 1 MB)\n"
        "  --seed=N          rng seed (default 1)\n"
        "  --real-crypto     ed25519 instead of sim crypto\n"
        "  --out=FILE        JSON report path (default BENCH_txn.json)\n");
    return opt.help ? 1 : 0;
  }

  Banner("txpipeline", "committed tx/sec at 1 MB blocks (the throughput unit of §10.2)",
         "identical chains and account state across exec worker counts; tx/sec limited by "
         "the apply pipeline, not the account table");

  std::vector<PointResult> results;
  for (size_t w : opt.workers) {
    results.push_back(RunPoint(opt, w));
  }

  printf("%-8s %-10s %-10s %-12s %-12s %-18s %-10s\n", "workers", "accounts", "wall(s)",
         "committed", "tx/sec", "state-fingerprint", "safety");
  bool all_ok = true;
  bool identical = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    all_ok = all_ok && r.completed && r.safety_ok;
    if (r.tip != results[0].tip || r.fingerprint != results[0].fingerprint ||
        r.committed != results[0].committed) {
      identical = false;
    }
    double tps = r.wall_seconds > 0 ? static_cast<double>(r.committed) / r.wall_seconds : 0;
    printf("%-8zu %-10llu %-10.2f %-12llu %-12.0f %-18s %-10s%s\n", r.exec_workers,
           static_cast<unsigned long long>(r.accounts), r.wall_seconds,
           static_cast<unsigned long long>(r.committed), tps, HashHex(r.fingerprint).c_str(),
           r.safety_ok ? "ok" : "VIOLATED", r.completed ? "" : "  [incomplete]");
  }

  std::string json = "{\n  \"crypto\": \"";
  json += opt.real_crypto ? "ed25519" : "sim";
  json += "\",\n  \"block_bytes\": " + std::to_string(opt.block_bytes);
  json += ",\n  \"rounds\": " + std::to_string(opt.rounds);
  json += ",\n  \"nodes\": " + std::to_string(opt.n_nodes);
  json += ",\n  \"clients\": " + std::to_string(opt.clients);
  json += ",\n  \"seed\": " + std::to_string(opt.seed);
  json += ",\n  \"points\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    double tps = r.wall_seconds > 0 ? static_cast<double>(r.committed) / r.wall_seconds : 0;
    char buf[512];
    snprintf(buf, sizeof(buf),
             "    {\"exec_workers\": %zu, \"accounts\": %llu, \"wall_seconds\": %.3f, "
             "\"committed_txns\": %llu, \"committed_tx_per_sec\": %.0f, \"tip\": \"%s\", "
             "\"state_fingerprint\": \"%s\", \"completed\": %s, \"safety_ok\": %s}%s\n",
             r.exec_workers, static_cast<unsigned long long>(r.accounts), r.wall_seconds,
             static_cast<unsigned long long>(r.committed), tps, HashHex(r.tip).c_str(),
             HashHex(r.fingerprint).c_str(), r.completed ? "true" : "false",
             r.safety_ok ? "true" : "false", i + 1 < results.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"worker_counts_bit_identical\": ";
  json += identical ? "true" : "false";
  json += "\n}\n";

  std::ofstream out_file(opt.out, std::ios::binary);
  if (out_file) {
    out_file << json;
    printf("report: %s\n", opt.out.c_str());
  } else {
    fprintf(stderr, "error: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  Note("single-core hosts show no parallel wall-clock win; the A/B pins correctness, the");
  Note("tx/sec column is the committed-throughput measurement (per point, whole run)");
  if (!identical) {
    fprintf(stderr, "error: exec worker counts disagreed on chain tip / account state\n");
    return 3;
  }
  return all_ok ? 0 : 2;
}
