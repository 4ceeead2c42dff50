// sim_cli: a parameterized command-line driver for the Algorand simulator —
// the knob-turning tool for running your own experiments without writing
// code.
//
//   $ ./examples/sim_cli --users=100 --rounds=5 --block-kb=1024
//         --malicious=0.1 --tau-step=200 --seed=7   (one command line)
//
// Prints one row per round (latency percentiles across honest users) plus a
// summary with safety status, phase breakdown, and per-user bandwidth.
// --metrics-json=FILE dumps the merged cross-node MetricsRegistry snapshot;
// --trace-jsonl=FILE dumps the BA* round tracer (one JSON event per line).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/sim_harness.h"
#include "src/netsim/adversary.h"
#include "src/obs/safety_auditor.h"
#include "src/obs/stats_reporter.h"
#include "src/obs/trace_collector.h"

using namespace algorand;

namespace {

struct CliOptions {
  size_t users = 100;
  uint64_t rounds = 3;
  uint64_t block_kb = 1024;
  double malicious = 0.0;
  double tau_step = 100;
  double tau_final = 300;
  double tau_proposer = 26;
  uint64_t seed = 1;
  double uplink_mbit = 20;
  int verify_workers = -1;
  int exec_workers = -1;
  // Synthetic payment load: tx per round injected across tx_clients client
  // accounts. 0 = no load (blocks carry only padding, the historical mode).
  size_t tx_load = 0;
  size_t tx_clients = 16;
  size_t workers = 1;          // Engine shard workers.
  size_t users_per_group = 1;  // Users hosted per node (aggregation).
  bool real_crypto = false;
  bool uniform_latency = false;
  bool help = false;
  std::string metrics_json;
  std::string trace_jsonl;
  // Live introspection, safety auditing, and cross-node latency waterfalls.
  double report_interval_ms = 0;  // 0 = no periodic reports.
  std::string report_file;        // Empty = stdout.
  bool audit = false;
  bool waterfall = false;
  std::string waterfall_json;
  // Chaos knobs: crash schedule "node:crash_s:restart_s[:fresh][,...]" and
  // uniform per-transmission loss probability.
  std::string crash_schedule;
  double loss_rate = 0.0;
  // "start_s:duration_s": partition the first n/2 nodes away from the rest
  // for the given window, then heal. Implies --audit.
  std::string partition;
  // Durability: per-node disk logs under DIR; restarts replay from disk.
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kBatched;
  // Checkpoints + fast-sync (DESIGN.md §13): periodic ledger-state
  // checkpoints every N final rounds (0 = off; needs --data-dir), and
  // checkpoint fast-sync for fresh joiners instead of genesis replay.
  uint64_t checkpoint_interval = 0;
  bool fast_sync = false;
};

// "3:20:50" -> node 3 crashes at t=20s, restarts from its disk log at t=50s.
// "3:20:50:fresh" restarts with its data dir wiped (fresh join);
// "3:20:0" never restarts. Returns false on malformed input.
bool ParseCrashSchedule(const std::string& spec,
                        std::vector<HarnessConfig::CrashEvent>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    HarnessConfig::CrashEvent ev;
    int node = 0;
    double crash_s = 0;
    double restart_s = 0;
    char tail[8] = {0};
    int matched = sscanf(item.c_str(), "%d:%lf:%lf:%7s", &node, &crash_s, &restart_s, tail);
    if (matched < 3 || node < 0 || crash_s < 0) {
      return false;
    }
    ev.node = static_cast<size_t>(node);
    ev.crash_at = Seconds(crash_s);
    ev.restart_at = Seconds(restart_s);
    ev.keep_disk = !(matched == 4 && strcmp(tail, "fresh") == 0);
    out->push_back(ev);
  }
  return true;
}

// Accepts both `--name=value` and `--name value`. On a match, *value is set
// and *i advances past any consumed extra argument.
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

CliOptions Parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    try {
      if (ParseFlag(argc, argv, &i, "users", &v)) {
        opt.users = static_cast<size_t>(std::stoul(v));
      } else if (ParseFlag(argc, argv, &i, "rounds", &v)) {
        opt.rounds = std::stoull(v);
      } else if (ParseFlag(argc, argv, &i, "block-kb", &v)) {
        opt.block_kb = std::stoull(v);
      } else if (ParseFlag(argc, argv, &i, "malicious", &v)) {
        opt.malicious = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "tau-step", &v)) {
        opt.tau_step = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "tau-final", &v)) {
        opt.tau_final = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "tau-proposer", &v)) {
        opt.tau_proposer = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "seed", &v)) {
        opt.seed = std::stoull(v);
      } else if (ParseFlag(argc, argv, &i, "uplink-mbit", &v)) {
        opt.uplink_mbit = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "verify-workers", &v)) {
        opt.verify_workers = std::stoi(v);
      } else if (ParseFlag(argc, argv, &i, "exec-workers", &v)) {
        opt.exec_workers = std::stoi(v);
      } else if (ParseFlag(argc, argv, &i, "tx-load", &v)) {
        opt.tx_load = static_cast<size_t>(std::stoull(v));
      } else if (ParseFlag(argc, argv, &i, "tx-clients", &v)) {
        opt.tx_clients = static_cast<size_t>(std::stoul(v));
      } else if (ParseFlag(argc, argv, &i, "workers", &v)) {
        opt.workers = static_cast<size_t>(std::stoul(v));
      } else if (ParseFlag(argc, argv, &i, "users-per-group", &v)) {
        opt.users_per_group = static_cast<size_t>(std::stoul(v));
      } else if (ParseFlag(argc, argv, &i, "metrics-json", &v)) {
        opt.metrics_json = v;
      } else if (ParseFlag(argc, argv, &i, "trace-jsonl", &v)) {
        opt.trace_jsonl = v;
      } else if (ParseFlag(argc, argv, &i, "report-interval", &v)) {
        opt.report_interval_ms = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "report-file", &v)) {
        opt.report_file = v;
      } else if (ParseFlag(argc, argv, &i, "waterfall-json", &v)) {
        opt.waterfall_json = v;
      } else if (strcmp(argv[i], "--audit") == 0) {
        opt.audit = true;
      } else if (strcmp(argv[i], "--waterfall") == 0) {
        opt.waterfall = true;
      } else if (ParseFlag(argc, argv, &i, "crash-schedule", &v)) {
        opt.crash_schedule = v;
      } else if (ParseFlag(argc, argv, &i, "loss-rate", &v)) {
        opt.loss_rate = std::stod(v);
      } else if (ParseFlag(argc, argv, &i, "partition", &v)) {
        opt.partition = v;
        opt.audit = true;  // A partition run is only meaningful under audit.
      } else if (ParseFlag(argc, argv, &i, "data-dir", &v)) {
        opt.data_dir = v;
      } else if (ParseFlag(argc, argv, &i, "checkpoint-interval", &v)) {
        opt.checkpoint_interval = std::stoull(v);
      } else if (strcmp(argv[i], "--fast-sync") == 0) {
        opt.fast_sync = true;
      } else if (ParseFlag(argc, argv, &i, "fsync", &v)) {
        if (auto policy = ParseFsyncPolicy(v)) {
          opt.fsync = *policy;
        } else {
          fprintf(stderr, "bad --fsync=%s (want every_round, batched or off)\n", v.c_str());
          opt.help = true;
        }
      } else if (strcmp(argv[i], "--real-crypto") == 0) {
        opt.real_crypto = true;
      } else if (strcmp(argv[i], "--uniform-latency") == 0) {
        opt.uniform_latency = true;
      } else {
        opt.help = true;
      }
    } catch (const std::logic_error&) {
      // std::sto* throw invalid_argument / out_of_range on a malformed number.
      fprintf(stderr, "bad numeric value in %s\n", argv[i]);
      opt.help = true;
    }
  }
  return opt;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << contents;
  return static_cast<bool>(out);
}

void PrintHelp() {
  printf(
      "usage: sim_cli [flags]\n"
      "  --users=N           simulated users (default 100)\n"
      "  --rounds=N          rounds to run (default 3)\n"
      "  --block-kb=N        block size in KB (default 1024)\n"
      "  --malicious=F       equivocating stake fraction 0..0.3 (default 0)\n"
      "  --tau-step=F        expected committee size (default 100)\n"
      "  --tau-final=F       expected final-step committee (default 300)\n"
      "  --tau-proposer=F    expected proposers (default 26)\n"
      "  --uplink-mbit=F     per-user uplink in Mbit/s (default 20)\n"
      "  --verify-workers=N  verification worker threads; 0 = inline,\n"
      "                      default reads ALGORAND_VERIFY_WORKERS\n"
      "  --exec-workers=N    block-apply worker threads; 0 = sequential apply,\n"
      "                      default reads ALGORAND_EXEC_WORKERS. Any N\n"
      "                      commits bit-identical state to 0\n"
      "  --tx-load=N         inject N signed payments per round (default 0 =\n"
      "                      padded blocks only); the run fails unless the\n"
      "                      chain actually commits transactions\n"
      "  --tx-clients=N      client accounts carrying the payment load\n"
      "                      (default 16)\n"
      "  --workers=N         event-loop shard workers (default 1). Any N gives\n"
      "                      bit-identical results to N = 1\n"
      "  --users-per-group=K aggregate-user modeling: every node hosts K\n"
      "                      users' stake (total users = --users * K)\n"
      "  --seed=N            deterministic seed (default 1)\n"
      "  --real-crypto       real Ed25519+ECVRF instead of the sim backends\n"
      "  --uniform-latency   50ms uniform links instead of the 20-city model\n"
      "  --metrics-json=FILE write the merged metrics snapshot as JSON\n"
      "  --trace-jsonl=FILE  write the BA* round trace (one JSON event/line)\n"
      "  --report-interval=MS  periodic live stats, one JSON line per interval\n"
      "  --report-file=FILE  where periodic reports go (default stdout)\n"
      "  --audit             run the online SafetyAuditor over the live trace\n"
      "                      stream; violations fail the run (exit 1)\n"
      "  --waterfall         print the per-round latency waterfall joined from\n"
      "                      cross-node trace events (Fig-5 phase breakdown)\n"
      "  --waterfall-json=FILE  write the waterfall as JSON\n"
      "  --crash-schedule=S  chaos: node:crash_s:restart_s[:fresh][,...]\n"
      "                      (restart_s <= crash_s = never restarts); restarts\n"
      "                      that keep their disk need --data-dir\n"
      "  --loss-rate=F       chaos: drop each transmission with prob. F\n"
      "  --partition=S:D     chaos: split the first n/2 nodes from the rest at\n"
      "                      t=S seconds for D seconds, then heal; implies\n"
      "                      --audit, and post-heal non-convergence fails the\n"
      "                      run (exit 1)\n"
      "  --data-dir=DIR      durable block store per node under DIR; crashed\n"
      "                      nodes restart by replaying their disk log\n"
      "  --fsync=POLICY      store fsync policy: every_round, batched (default)\n"
      "                      or off\n"
      "  --checkpoint-interval=N  write a ledger-state checkpoint every N final\n"
      "                      rounds and compact log segments below it (needs\n"
      "                      --data-dir; 0 = off)\n"
      "  --fast-sync         fresh joiners bootstrap from a peer's checkpoint\n"
      "                      via the certificate chain instead of replaying\n"
      "                      every block; a --fast-sync run fails unless a\n"
      "                      fast-sync actually completed and converged\n"
      "flags also accept the space-separated form: --rounds 5\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt = Parse(argc, argv);
  if (opt.help) {
    PrintHelp();
    return 2;
  }

  HarnessConfig cfg;
  cfg.n_nodes = opt.users;
  cfg.rng_seed = opt.seed;
  cfg.params = ProtocolParams::Paper();
  cfg.params.tau_proposer = opt.tau_proposer;
  cfg.params.tau_step = opt.tau_step;
  cfg.params.tau_final = opt.tau_final;
  cfg.params.block_size_bytes = opt.block_kb << 10;
  cfg.net.uplink_bytes_per_sec = opt.uplink_mbit * 1e6 / 8;
  cfg.use_sim_crypto = !opt.real_crypto;
  cfg.verify_workers = opt.verify_workers;
  cfg.exec_workers = opt.exec_workers;
  if (opt.tx_load > 0) {
    cfg.tx_load_per_round = opt.tx_load;
    cfg.tx_clients = std::max<size_t>(2, opt.tx_clients);
    // Keep consensus stake with the nodes: scale node stake up so the client
    // accounts (sized to afford the run's fees) stay at noise-level weight,
    // or committees thin out and rounds stall.
    cfg.stake_per_user = 1'000'000;
    cfg.client_stake =
        std::max<uint64_t>(10'000, opt.rounds * opt.tx_load * 16 / cfg.tx_clients);
    cfg.params.mempool_capacity = std::max<uint64_t>(cfg.params.mempool_capacity,
                                                     4 * opt.tx_load);
  }
  cfg.malicious_fraction = opt.malicious;
  cfg.sim_workers = opt.workers;
  cfg.users_per_group = opt.users_per_group;
  cfg.latency =
      opt.uniform_latency ? HarnessConfig::Latency::kUniform : HarnessConfig::Latency::kCity;
  if (!opt.crash_schedule.empty() &&
      !ParseCrashSchedule(opt.crash_schedule, &cfg.crash_schedule)) {
    fprintf(stderr, "bad --crash-schedule (want node:crash_s:restart_s[:fresh][,...])\n");
    return 2;
  }
  cfg.data_dir = opt.data_dir;
  cfg.store_fsync = opt.fsync;
  if (opt.checkpoint_interval > 0 && opt.data_dir.empty()) {
    fprintf(stderr, "--checkpoint-interval needs --data-dir (checkpoints live in the store)\n");
    return 2;
  }
  cfg.params.checkpoint_interval = opt.checkpoint_interval;
  for (const HarnessConfig::CrashEvent& ev : cfg.crash_schedule) {
    if (ev.keep_disk && ev.restart_at > ev.crash_at && opt.data_dir.empty()) {
      fprintf(stderr,
              "--crash-schedule restarts node %zu from disk, which needs --data-dir "
              "(or mark it :fresh)\n",
              ev.node);
      return 2;
    }
  }
  cfg.params.fastsync_enabled = opt.fast_sync;

  const std::string engine = std::to_string(std::max<size_t>(1, cfg.sim_workers)) + "-worker";
  printf("algorand-sim: %llu users (%zu nodes x %zu users/group, %.0f%% malicious), "
         "%llu KB blocks, tau_step=%.0f tau_final=%.0f, %s crypto, %s engine, seed %llu\n\n",
         static_cast<unsigned long long>(cfg.n_nodes) *
             static_cast<unsigned long long>(cfg.users_per_group),
         cfg.n_nodes, cfg.users_per_group, opt.malicious * 100,
         static_cast<unsigned long long>(opt.block_kb), cfg.params.tau_step,
         cfg.params.tau_final, opt.real_crypto ? "real" : "sim", engine.c_str(),
         static_cast<unsigned long long>(opt.seed));

  SimHarness h(cfg);
  if (opt.loss_rate > 0) {
    h.SetNetworkAdversary(
        std::make_unique<LossyAdversary>(opt.loss_rate, opt.seed, cfg.n_nodes));
  }

  // Network partition: split the first n/2 nodes from the rest for the given
  // window, then heal. The interesting question is what happens afterwards —
  // the run fails unless both sides reconverge and the auditor stays silent.
  double partition_start_s = 0;
  double partition_duration_s = 0;
  if (!opt.partition.empty()) {
    if (opt.loss_rate > 0) {
      fprintf(stderr, "--partition and --loss-rate both claim the network adversary slot\n");
      return 2;
    }
    if (sscanf(opt.partition.c_str(), "%lf:%lf", &partition_start_s,
               &partition_duration_s) != 2 ||
        partition_start_s < 0 || partition_duration_s <= 0) {
      fprintf(stderr, "bad --partition=%s (want start_s:duration_s)\n", opt.partition.c_str());
      return 2;
    }
    std::set<NodeId> group_a;
    for (size_t i = 0; i < cfg.n_nodes / 2; ++i) {
      group_a.insert(static_cast<NodeId>(i));
    }
    h.SetNetworkAdversary(std::make_unique<PartitionAdversary>(
        group_a, Seconds(partition_start_s),
        Seconds(partition_start_s + partition_duration_s)));
  }

  // Online safety auditing: consume the trace stream live, with the quorum
  // thresholds this run actually uses.
  SafetyAuditorConfig audit_cfg;
  audit_cfg.step_threshold = cfg.params.StepThreshold();
  audit_cfg.final_threshold = cfg.params.FinalThreshold();
  SafetyAuditor auditor(audit_cfg);
  if (opt.audit) {
    auditor.AttachMetrics(&h.global_metrics());  // audit.* counters in dumps.
    h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });
  }

  // Periodic live introspection (simulated time): one JSON line per interval.
  std::ofstream report_stream;
  std::unique_ptr<StatsReporter> reporter;
  if (opt.report_interval_ms > 0) {
    std::ostream* out = &std::cout;
    if (!opt.report_file.empty()) {
      report_stream.open(opt.report_file, std::ios::binary);
      if (!report_stream) {
        fprintf(stderr, "report: cannot open %s\n", opt.report_file.c_str());
        return 2;
      }
      out = &report_stream;
    }
    reporter = std::make_unique<StatsReporter>(
        &h.sim(), FromSeconds(opt.report_interval_ms / 1e3),
        [&h]() -> StatsReporter::Sample {
          uint64_t tip = 0;
          uint64_t min_tip = UINT64_MAX;
          double alive = 0;
          for (size_t i = 0; i < h.node_count(); ++i) {
            if (!h.node_alive(i)) {
              continue;
            }
            alive += 1;
            uint64_t len = h.node(i).ledger().chain_length();
            tip = std::max(tip, len);
            min_tip = std::min(min_tip, len);
          }
          double sim_s = ToSeconds(h.sim().now());
          return {{"tip", static_cast<double>(tip)},
                  {"min_tip", min_tip == UINT64_MAX ? 0.0 : static_cast<double>(min_tip)},
                  {"alive", alive},
                  {"rounds_per_sec", sim_s > 0 ? static_cast<double>(tip) / sim_s : 0.0},
                  {"events", static_cast<double>(h.sim().executed_events())},
                  {"trace_recorded", static_cast<double>(h.tracer().recorded())},
                  {"trace_dropped", static_cast<double>(h.tracer().dropped())}};
        },
        out);
    reporter->Start();
  }

  h.Start();
  auto wall_start = std::chrono::steady_clock::now();
  bool done = h.RunRounds(opt.rounds, Hours(24));
  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (reporter != nullptr) {
    reporter->Stop();
  }

  printf("%-7s %-9s %-9s %-9s %-9s %-9s\n", "round", "min(s)", "p25(s)", "med(s)", "p75(s)",
         "max(s)");
  for (uint64_t r = 1; r <= opt.rounds; ++r) {
    Summary s = Summarize(h.RoundLatencies(r));
    if (s.count == 0) {
      printf("%-7llu (incomplete)\n", static_cast<unsigned long long>(r));
      continue;
    }
    printf("%-7llu %-9.1f %-9.1f %-9.1f %-9.1f %-9.1f\n", static_cast<unsigned long long>(r),
           s.min, s.p25, s.median, s.p75, s.max);
  }

  auto phases = h.MeanPhaseBreakdown(1, opt.rounds);
  auto safety = h.CheckSafety();
  bool chains_ok = h.ChainsConsistent();
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < h.node_count(); ++i) {
    total_bytes += h.network().traffic(static_cast<NodeId>(i)).bytes_sent;
  }
  printf("\nphases: proposal %.1fs | BA* w/o final %.1fs | final %.1fs\n", phases.proposal,
         phases.ba_without_final, phases.final_step);
  // Per hosted user, so aggregate runs (--users-per-group) stay comparable.
  printf("bandwidth: %.1f MB sent per user per round\n",
         static_cast<double>(total_bytes) / static_cast<double>(h.total_users()) /
             static_cast<double>(opt.rounds) / 1e6);
  printf("completed: %s | safety: %s | chains consistent: %s\n", done ? "yes" : "NO",
         safety.ok ? "holds" : safety.violation.c_str(), chains_ok ? "yes" : "no");
  uint64_t events = h.sim().executed_events();
  printf("engine: %s | wall %.2fs | %llu events | %.0f events/sec\n",
         engine.c_str(),
         wall_s, static_cast<unsigned long long>(events),
         wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0);

  // Chaos convergence: every live node (including restarted ones) must be
  // within one round of the longest honest chain.
  bool converged = true;
  if (!cfg.crash_schedule.empty()) {
    uint64_t max_len = 0;
    for (size_t i = h.malicious_count(); i < h.node_count(); ++i) {
      if (h.node_alive(i)) {
        max_len = std::max<uint64_t>(max_len, h.node(i).ledger().chain_length());
      }
    }
    for (size_t i = h.malicious_count(); i < h.node_count(); ++i) {
      if (h.node_alive(i) && h.node(i).ledger().chain_length() + 1 < max_len) {
        converged = false;
        printf("convergence: node %zu at round %llu, tip %llu\n", i,
               static_cast<unsigned long long>(h.node(i).ledger().chain_length() - 1),
               static_cast<unsigned long long>(max_len - 1));
      }
    }
    MetricsSnapshot chaos = h.AggregateMetrics();
    if (!opt.data_dir.empty()) {
      // Restarts went through the disk log; a crash-restart run that never
      // replayed a round did not exercise it.
      printf("store: fsync=%s | %llu records, %llu fsyncs, %llu replayed rounds\n",
             FsyncPolicyName(opt.fsync),
             static_cast<unsigned long long>(chaos.counters["store.records_written"]),
             static_cast<unsigned long long>(chaos.counters["store.fsyncs"]),
             static_cast<unsigned long long>(chaos.counters["store.replay_rounds"]));
    }
    printf("chaos: kills %llu restarts %llu | catchup sessions %llu completed %llu "
           "blocks %llu timeouts %llu rotations %llu | converged: %s\n",
           static_cast<unsigned long long>(chaos.counters["restart.kills"]),
           static_cast<unsigned long long>(chaos.counters["restart.restarts"]),
           static_cast<unsigned long long>(chaos.counters["catchup.sessions"]),
           static_cast<unsigned long long>(chaos.counters["catchup.completed"]),
           static_cast<unsigned long long>(chaos.counters["catchup.blocks_applied"]),
           static_cast<unsigned long long>(chaos.counters["catchup.timeouts"]),
           static_cast<unsigned long long>(chaos.counters["catchup.peer_rotations"]),
           converged ? "yes" : "NO");
  }

  // Post-heal convergence: after the partition window every honest node must
  // sit within one round of the longest honest chain, on a consistent chain.
  if (!opt.partition.empty()) {
    uint64_t max_len = 0;
    for (size_t i = h.malicious_count(); i < h.node_count(); ++i) {
      max_len = std::max<uint64_t>(max_len, h.node(i).ledger().chain_length());
    }
    for (size_t i = h.malicious_count(); i < h.node_count(); ++i) {
      if (h.node(i).ledger().chain_length() + 1 < max_len) {
        converged = false;
        printf("partition: node %zu stuck at tip %llu (longest %llu)\n", i,
               static_cast<unsigned long long>(h.node(i).ledger().chain_length() - 1),
               static_cast<unsigned long long>(max_len - 1));
      }
    }
    converged = converged && chains_ok;
    printf("partition: split nodes 0..%zu at %.0fs for %.0fs | post-heal converged: %s\n",
           cfg.n_nodes / 2 - 1, partition_start_s, partition_duration_s,
           converged ? "yes" : "NO");
  }

  bool dumps_ok = true;
  if (opt.waterfall || !opt.waterfall_json.empty()) {
    TraceCollector collector;
    std::vector<TraceEvent> events = h.tracer().Events();
    collector.AddEvents(events);
    std::vector<RoundWaterfall> waterfalls = collector.Waterfalls();
    if (opt.waterfall) {
      printf("\nlatency waterfall (joined from %zu trace events across %zu nodes):\n%s",
             events.size(), h.node_count(), TraceCollector::ToText(waterfalls).c_str());
    }
    if (!opt.waterfall_json.empty()) {
      if (WriteFile(opt.waterfall_json, TraceCollector::ToJson(waterfalls))) {
        printf("waterfall: wrote %zu rounds to %s\n", waterfalls.size(),
               opt.waterfall_json.c_str());
      } else {
        fprintf(stderr, "waterfall: failed to write %s\n", opt.waterfall_json.c_str());
        dumps_ok = false;
      }
    }
  }
  if (!opt.metrics_json.empty()) {
    MetricsSnapshot snapshot = h.AggregateMetrics();
    if (WriteFile(opt.metrics_json, snapshot.ToJson())) {
      printf("metrics: wrote %zu counters, %zu histograms to %s\n", snapshot.counters.size(),
             snapshot.histograms.size(), opt.metrics_json.c_str());
    } else {
      fprintf(stderr, "metrics: failed to write %s\n", opt.metrics_json.c_str());
      dumps_ok = false;
    }
  }
  if (!opt.trace_jsonl.empty()) {
    if (WriteFile(opt.trace_jsonl, h.tracer().ToJsonl())) {
      printf("trace: wrote %llu events (%llu dropped) to %s\n",
             static_cast<unsigned long long>(h.tracer().recorded() - h.tracer().dropped()),
             static_cast<unsigned long long>(h.tracer().dropped()), opt.trace_jsonl.c_str());
    } else {
      fprintf(stderr, "trace: failed to write %s\n", opt.trace_jsonl.c_str());
      dumps_ok = false;
    }
  }
  if (reporter != nullptr) {
    printf("report: %llu interval lines\n",
           static_cast<unsigned long long>(reporter->lines_emitted()));
  }
  bool audit_ok = true;
  if (opt.audit) {
    audit_ok = auditor.ok();
    printf("%s", auditor.Report().c_str());
  }

  // With --tx-load, an all-empty chain means the pipeline silently stalled;
  // fail the run so scripts catch it.
  bool txload_ok = true;
  if (opt.tx_load > 0) {
    const uint64_t committed = h.CommittedTxCount(h.malicious_count());
    txload_ok = committed > 0;
    printf("txload: %zu tx/round across %zu clients | committed %llu transactions%s\n",
           opt.tx_load, cfg.tx_clients, static_cast<unsigned long long>(committed),
           txload_ok ? "" : "  [NONE COMMITTED]");
  }

  // Checkpoint/compaction and fast-sync accounting. A --fast-sync run fails
  // unless some fresh node actually completed the checkpoint bootstrap —
  // silently falling back to full replay would pass convergence but not
  // exercise the path under test.
  bool fastsync_ok = true;
  if (opt.checkpoint_interval > 0 || opt.fast_sync) {
    MetricsSnapshot snap = h.AggregateMetrics();
    if (opt.checkpoint_interval > 0) {
      printf("checkpoints: every %llu final rounds | %llu written (%llu MB) | "
             "compaction runs %llu, segments removed %llu, %.1f MB reclaimed\n",
             static_cast<unsigned long long>(opt.checkpoint_interval),
             static_cast<unsigned long long>(snap.counters["store.checkpoints_written"]),
             static_cast<unsigned long long>(snap.counters["store.checkpoint_bytes"] >> 20),
             static_cast<unsigned long long>(snap.counters["store.compaction_runs"]),
             static_cast<unsigned long long>(snap.counters["store.compaction_segments_removed"]),
             static_cast<double>(snap.counters["store.compaction_bytes_reclaimed"]) / 1e6);
    }
    if (opt.fast_sync) {
      uint64_t sessions = snap.counters["catchup.fastsync_sessions"];
      uint64_t completed = snap.counters["catchup.fastsync_completed"];
      fastsync_ok = sessions == 0 || completed >= 1;
      printf("fastsync: sessions %llu completed %llu failed %llu | %llu links verified, "
             "%.1f MB state fetched | %s\n",
             static_cast<unsigned long long>(sessions),
             static_cast<unsigned long long>(completed),
             static_cast<unsigned long long>(snap.counters["catchup.fastsync_failed"]),
             static_cast<unsigned long long>(snap.counters["catchup.fastsync_links_verified"]),
             static_cast<double>(snap.counters["catchup.fastsync_bytes"]) / 1e6,
             fastsync_ok ? "ok" : "NO COMPLETED FAST-SYNC");
    }
  }

  // Durability runs additionally require byte-identical chains on common
  // rounds: replayed-from-disk state must never diverge from the network.
  bool durable_ok = opt.data_dir.empty() || chains_ok;
  return done && safety.ok && converged && dumps_ok && durable_ok && audit_ok && txload_ok &&
                 fastsync_ok
             ? 0
             : 1;
}
