// Checkpoint / compaction / fast-sync storage benchmark (DESIGN.md §13):
//
//   $ ./bench/bench_store --rounds=2000 --interval=100 --out=BENCH_store.json
//
// Two identical deployments (same seed, same traffic) are built side by
// side — one with ledger checkpoints + log compaction enabled, one with the
// plain append-only WAL — and four A/B measurements are taken:
//
//   1. cold restart: kill a node, restart it from disk. Checkpointed dir
//      restores from the latest checkpoint (ledger in compacted-prefix
//      mode); plain dir replays the full WAL round by round. The paper-style
//      claim under test: checkpoint restore is >= 5x faster at a >= 2k-round
//      chain.
//   2. new-node join: wipe a node and rejoin fresh. With fast-sync it
//      verifies the certificate chain to the peer checkpoint and installs
//      state; without, it block-catches-up from genesis.
//   3. on-disk bytes: compaction prunes segments below the retained
//      checkpoints; the plain run keeps every byte ever appended.
//   4. bit-identity: both deployments (and every restart path) must land on
//      the same tip hash and account-state fingerprint — the benchmark exits
//      3 on any mismatch, so the speedups can't come from skipped work.
//
// Sim crypto (the paper's replace-crypto-with-sleeps methodology): this
// measures the storage layer, not ed25519.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/sim_harness.h"

using namespace algorand;
using namespace algorand::bench;

namespace {

namespace fs = std::filesystem;

struct Options {
  uint64_t rounds = 2000;
  size_t n_nodes = 6;
  uint64_t interval = 100;  // Checkpoint every N final rounds.
  size_t load = 20;         // Injected tx per round.
  uint64_t block_bytes = 8 << 10;
  uint64_t seed = 1;
  bool help = false;
  std::string out = "BENCH_store.json";
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

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argc, argv, &i, "rounds", &v)) {
      opt.rounds = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "nodes", &v)) {
      opt.n_nodes = static_cast<size_t>(std::stoul(v));
    } else if (ParseFlag(argc, argv, &i, "interval", &v)) {
      opt.interval = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "load", &v)) {
      opt.load = static_cast<size_t>(std::stoull(v));
    } else if (ParseFlag(argc, argv, &i, "block-bytes", &v)) {
      opt.block_bytes = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "seed", &v)) {
      opt.seed = std::stoull(v);
    } else if (ParseFlag(argc, argv, &i, "out", &v)) {
      opt.out = v;
    } else {
      opt.help = true;
    }
  }
  return opt;
}

std::string HashHex(const Hash256& h) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < 8; ++i) {
    out += kHex[h.data()[i] >> 4];
    out += kHex[h.data()[i] & 0xf];
  }
  return out;
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

HarnessConfig BaseConfig(const Options& opt, const std::string& dir, bool checkpoints) {
  HarnessConfig cfg;
  cfg.n_nodes = opt.n_nodes;
  cfg.rng_seed = opt.seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = opt.block_bytes;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  cfg.verify_workers = 0;
  cfg.exec_workers = 0;
  // Consensus stake must dwarf client stake: non-voting weight shrinks
  // expected committee weight below tau and rounds decay into timeout
  // fallbacks (see bench_txpipeline.cpp).
  cfg.stake_per_user = 50'000'000;
  cfg.tx_clients = 16;
  cfg.client_stake = 50'000;
  cfg.tx_load_per_round = opt.load;
  cfg.params.mempool_capacity = 4 * std::max<size_t>(opt.load, 1);
  cfg.data_dir = dir;
  cfg.store_fsync = FsyncPolicy::kBatched;
  cfg.store_background_writer = true;  // The production configuration.
  if (checkpoints) {
    cfg.params.checkpoint_interval = opt.interval;
    cfg.params.fastsync_enabled = true;
  }
  return cfg;
}

struct SideResult {
  double build_wall_seconds = 0;
  uint64_t disk_bytes_node0 = 0;
  double restart_seconds = 0;
  uint64_t restart_base_round = 0;
  double join_wall_seconds = 0;
  double join_sim_seconds = 0;
  uint64_t fastsync_completed = 0;
  uint64_t fastsync_links = 0;
  uint64_t compaction_runs = 0;
  uint64_t compaction_bytes_reclaimed = 0;
  uint64_t checkpoints_written = 0;
  bool safety_ok = false;
  bool converged = true;
  Hash256 tip;
  Hash256 fingerprint;
};

// Builds the chain, then measures (a) cold restart of node 0 from its disk
// state and (b) a wiped fresh rejoin of node 1 to convergence.
SideResult RunSide(const Options& opt, const std::string& dir, bool checkpoints) {
  fs::remove_all(dir);
  HarnessConfig cfg = BaseConfig(opt, dir, checkpoints);
  SideResult res;

  auto t0 = std::chrono::steady_clock::now();
  SimHarness h(cfg);
  h.Start();
  res.converged = h.RunRounds(opt.rounds, Hours(24 * 365));
  auto t1 = std::chrono::steady_clock::now();
  res.build_wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.tip = h.node(2).ledger().tip_hash();
  res.fingerprint = h.node(2).ledger().accounts().StateFingerprint();
  res.disk_bytes_node0 = DirBytes(dir + "/node-0");

  // (a) Cold restart: checkpointed side restores from the sidecar,
  // plain side replays the whole WAL. RestartNode wall time is dominated by
  // Node::RestoreFromStore.
  h.KillNode(0);
  auto r0 = std::chrono::steady_clock::now();
  h.RestartNode(0, /*keep_disk=*/true);
  auto r1 = std::chrono::steady_clock::now();
  res.restart_seconds = std::chrono::duration<double>(r1 - r0).count();
  res.restart_base_round = h.node(0).ledger().base_round();

  // (b) Fresh rejoin: node 1 loses its disk and catches up to the live tip —
  // certificate-chain fast-sync when enabled, full block catch-up otherwise.
  uint64_t target = h.node(2).ledger().chain_length();
  h.KillNode(1);
  auto j0 = std::chrono::steady_clock::now();
  SimTime sim0 = h.sim().now();
  h.RestartNode(1, /*keep_disk=*/false);
  SimTime deadline = h.sim().now() + Hours(4);
  while (h.node(1).ledger().chain_length() < target && h.sim().now() < deadline) {
    h.sim().RunUntil(h.sim().now() + Seconds(2));
  }
  auto j1 = std::chrono::steady_clock::now();
  res.join_wall_seconds = std::chrono::duration<double>(j1 - j0).count();
  res.join_sim_seconds = ToSeconds(h.sim().now() - sim0);
  res.converged = res.converged && h.node(1).ledger().chain_length() >= target;
  res.fastsync_completed = h.node(1).fastsyncs_completed();

  auto m = h.AggregateMetrics();
  res.fastsync_links = m.counters["catchup.fastsync_links_verified"];
  res.compaction_runs = m.counters["store.compaction_runs"];
  res.compaction_bytes_reclaimed = m.counters["store.compaction_bytes_reclaimed"];
  res.checkpoints_written = m.counters["store.checkpoints_written"];
  res.safety_ok = h.CheckSafety().ok;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (opt.help || opt.rounds == 0 || opt.n_nodes < 3 || opt.interval == 0) {
    printf(
        "usage: bench_store [flags]\n"
        "  --rounds=N       chain length to build per side (default 2000)\n"
        "  --nodes=N        consensus nodes (default 6, min 3)\n"
        "  --interval=N     checkpoint every N final rounds (default 100)\n"
        "  --load=N         injected tx per round (default 20)\n"
        "  --block-bytes=N  block payload size (default 8192)\n"
        "  --seed=N         rng seed (default 1)\n"
        "  --out=FILE       JSON report path (default BENCH_store.json)\n");
    return opt.help ? 1 : 0;
  }

  Banner("store", "checkpoint restart + cert-chain fast-sync vs full WAL replay (DESIGN.md §13)",
         "restart from checkpoint >= 5x faster than full replay at a >= 2k-round chain; "
         "compaction shrinks the on-disk log; all paths land on bit-identical state");

  std::string base = fs::temp_directory_path().string() + "/algorand_bench_store";
  printf("building two %llu-round deployments (%zu nodes, %zu tx/round)...\n",
         static_cast<unsigned long long>(opt.rounds), opt.n_nodes, opt.load);
  SideResult ckpt = RunSide(opt, base + "_ckpt", /*checkpoints=*/true);
  SideResult plain = RunSide(opt, base + "_plain", /*checkpoints=*/false);

  bool identical = ckpt.tip == plain.tip && ckpt.fingerprint == plain.fingerprint;
  double restart_speedup =
      ckpt.restart_seconds > 0 ? plain.restart_seconds / ckpt.restart_seconds : 0;
  double disk_ratio = ckpt.disk_bytes_node0 > 0
                          ? static_cast<double>(plain.disk_bytes_node0) /
                                static_cast<double>(ckpt.disk_bytes_node0)
                          : 0;

  printf("\n%-26s %-14s %-14s\n", "", "checkpointed", "plain-wal");
  Row("%-26s %-14.1f %-14.1f", "build wall (s)", ckpt.build_wall_seconds,
      plain.build_wall_seconds);
  Row("%-26s %-14.4f %-14.4f", "cold restart (s)", ckpt.restart_seconds,
      plain.restart_seconds);
  Row("%-26s %-14llu %-14llu", "restart base round",
      static_cast<unsigned long long>(ckpt.restart_base_round),
      static_cast<unsigned long long>(plain.restart_base_round));
  Row("%-26s %-14.1f %-14.1f", "fresh join wall (s)", ckpt.join_wall_seconds,
      plain.join_wall_seconds);
  Row("%-26s %-14.1f %-14.1f", "fresh join sim (s)", ckpt.join_sim_seconds,
      plain.join_sim_seconds);
  Row("%-26s %-14llu %-14llu", "node-0 disk bytes",
      static_cast<unsigned long long>(ckpt.disk_bytes_node0),
      static_cast<unsigned long long>(plain.disk_bytes_node0));
  Row("%-26s %-14llu %-14s", "checkpoints written",
      static_cast<unsigned long long>(ckpt.checkpoints_written), "-");
  Row("%-26s %-14llu %-14s", "compaction runs",
      static_cast<unsigned long long>(ckpt.compaction_runs), "-");
  Row("%-26s %-14llu %-14s", "bytes reclaimed",
      static_cast<unsigned long long>(ckpt.compaction_bytes_reclaimed), "-");
  Row("%-26s %-14llu %-14llu", "fast-syncs completed",
      static_cast<unsigned long long>(ckpt.fastsync_completed),
      static_cast<unsigned long long>(plain.fastsync_completed));
  printf("\nrestart speedup: %.1fx   disk reduction: %.2fx   bit-identical: %s\n",
         restart_speedup, disk_ratio, identical ? "yes" : "NO");

  char buf[2048];
  snprintf(buf, sizeof(buf),
           "{\n"
           "  \"rounds\": %llu,\n"
           "  \"nodes\": %zu,\n"
           "  \"checkpoint_interval\": %llu,\n"
           "  \"tx_per_round\": %zu,\n"
           "  \"block_bytes\": %llu,\n"
           "  \"seed\": %llu,\n"
           "  \"checkpointed\": {\"build_wall_seconds\": %.2f, \"restart_seconds\": %.4f, "
           "\"restart_base_round\": %llu, \"join_wall_seconds\": %.2f, "
           "\"join_sim_seconds\": %.1f, \"disk_bytes_node0\": %llu, "
           "\"checkpoints_written\": %llu, \"compaction_runs\": %llu, "
           "\"compaction_bytes_reclaimed\": %llu, \"fastsyncs_completed\": %llu, "
           "\"fastsync_links_verified\": %llu, \"tip\": \"%s\", \"fingerprint\": \"%s\", "
           "\"safety_ok\": %s, \"converged\": %s},\n"
           "  \"plain_wal\": {\"build_wall_seconds\": %.2f, \"restart_seconds\": %.4f, "
           "\"restart_base_round\": %llu, \"join_wall_seconds\": %.2f, "
           "\"join_sim_seconds\": %.1f, \"disk_bytes_node0\": %llu, \"tip\": \"%s\", "
           "\"fingerprint\": \"%s\", \"safety_ok\": %s, \"converged\": %s},\n"
           "  \"restart_speedup\": %.2f,\n"
           "  \"disk_reduction\": %.3f,\n"
           "  \"bit_identical\": %s\n"
           "}\n",
           static_cast<unsigned long long>(opt.rounds), opt.n_nodes,
           static_cast<unsigned long long>(opt.interval), opt.load,
           static_cast<unsigned long long>(opt.block_bytes),
           static_cast<unsigned long long>(opt.seed), ckpt.build_wall_seconds,
           ckpt.restart_seconds, static_cast<unsigned long long>(ckpt.restart_base_round),
           ckpt.join_wall_seconds, ckpt.join_sim_seconds,
           static_cast<unsigned long long>(ckpt.disk_bytes_node0),
           static_cast<unsigned long long>(ckpt.checkpoints_written),
           static_cast<unsigned long long>(ckpt.compaction_runs),
           static_cast<unsigned long long>(ckpt.compaction_bytes_reclaimed),
           static_cast<unsigned long long>(ckpt.fastsync_completed),
           static_cast<unsigned long long>(ckpt.fastsync_links), HashHex(ckpt.tip).c_str(),
           HashHex(ckpt.fingerprint).c_str(), ckpt.safety_ok ? "true" : "false",
           ckpt.converged ? "true" : "false", plain.build_wall_seconds,
           plain.restart_seconds, static_cast<unsigned long long>(plain.restart_base_round),
           plain.join_wall_seconds, plain.join_sim_seconds,
           static_cast<unsigned long long>(plain.disk_bytes_node0),
           HashHex(plain.tip).c_str(), HashHex(plain.fingerprint).c_str(),
           plain.safety_ok ? "true" : "false", plain.converged ? "true" : "false",
           restart_speedup, disk_ratio, identical ? "true" : "false");

  std::ofstream out_file(opt.out, std::ios::binary);
  if (out_file) {
    out_file << buf;
    printf("report: %s\n", opt.out.c_str());
  } else {
    fprintf(stderr, "error: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  Note("restart wall time is Node::RestoreFromStore: checkpoint install vs full WAL replay;");
  Note("the bit-identical flag pins that every fast path landed on the replay state exactly");
  if (!identical) {
    fprintf(stderr, "error: checkpointed and plain deployments disagreed on tip/state\n");
    return 3;
  }
  return ckpt.safety_ok && plain.safety_ok && ckpt.converged && plain.converged ? 0 : 2;
}
