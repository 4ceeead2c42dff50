#include "src/check/model_checker.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>

#include "src/core/certificate.h"
#include "src/core/context.h"
#include "src/core/messages.h"
#include "src/core/sim_harness.h"
#include "src/check/test_bugs.h"
#include "src/netsim/adversary.h"
#include "src/obs/safety_auditor.h"

namespace algorand {

namespace {

template <typename Bytes>
uint64_t Prefix64(const Bytes& h) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | h.data()[i];
  }
  return v;
}

// The harness configuration every schedule runs under: the small, fast,
// fully deterministic shape the tier-1 tests use (one engine worker, inline
// verification, sim crypto, uniform latency).
HarnessConfig MakeHarnessConfig(const CheckConfig& cfg) {
  HarnessConfig hc;
  hc.n_nodes = cfg.n_nodes;
  hc.rng_seed = cfg.harness_seed;
  hc.params = ProtocolParams::ScaledCommittees(0.02);
  hc.params.block_size_bytes = 4 * 1024;
  hc.params.max_steps = 9;
  hc.params.recovery_interval = Minutes(10);
  hc.latency = HarnessConfig::Latency::kUniform;
  hc.uniform_latency = Millis(50);
  hc.uniform_jitter = Millis(20);
  hc.use_sim_crypto = true;
  hc.verify_workers = 0; // Inline verification: bit-identical replays.
  hc.malicious_fraction = cfg.malicious_fraction;
  hc.grinding_count = cfg.grinding_count;
  hc.grind_withhold = cfg.grind_withhold;
  if (cfg.seeded_bug) {
    hc.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                         const Ed25519KeyPair& key, const GenesisConfig& genesis,
                         const ProtocolParams& params, CryptoSuite crypto,
                         AdversaryCoordinator*) -> std::unique_ptr<Node> {
      if (id != 0) {
        return nullptr;  // Default node type.
      }
      return std::make_unique<ForcedFinalNode>(id, sim, gossip, key, genesis, params, crypto);
    };
  }
  return hc;
}

// kDelivery choice points: the Simulation dequeue hook.
class DeliveryChoiceHook : public ScheduleChoiceHook {
 public:
  DeliveryChoiceHook(Strategy* strategy, SimTime window, size_t max_candidates)
      : strategy_(strategy), window_(window), max_candidates_(max_candidates) {}

  SimTime Window() const override { return window_; }
  size_t MaxCandidates() const override { return max_candidates_; }
  size_t ChooseNext(SimTime, size_t count) override {
    return strategy_->Choose(ChoiceKind::kDelivery, static_cast<uint32_t>(count));
  }

 private:
  Strategy* strategy_;
  SimTime window_;
  size_t max_candidates_;
};

// kCrash choice points: a periodic probe that may kill one alive node or
// restart one checker-killed node. At most one node is down at a time, and at
// most `budget` fault events fire per schedule, so schedules stay mostly live.
struct CrashProbeState {
  SimHarness* harness = nullptr;
  Strategy* strategy = nullptr;
  SimTime interval = 0;
  size_t budget = 0;
  std::vector<size_t> down;  // Nodes the probe killed (eligible for restart).
};

void ScheduleCrashProbe(CrashProbeState* st) {
  if (st->budget == 0 && st->down.empty()) {
    return;  // Nothing left to do (never strand a killed node).
  }
  st->harness->sim().Schedule(st->interval, [st] {
    SimHarness& h = *st->harness;
    std::vector<size_t> kills;
    if (st->budget > 0 && st->down.empty()) {
      for (size_t i = 0; i < h.node_count(); ++i) {
        // Only honest nodes are crash candidates: the invariants judge
        // honest chains, and a crashed adversary is merely a silent one.
        if (h.node_alive(i) && !h.is_malicious(i)) {
          kills.push_back(i);
        }
      }
    }
    std::vector<size_t> restarts = st->budget > 0 ? st->down : std::vector<size_t>{};
    const uint32_t options = static_cast<uint32_t>(1 + kills.size() + restarts.size());
    uint32_t chosen = st->strategy->Choose(ChoiceKind::kCrash, options);
    if (chosen > 0 && chosen <= kills.size()) {
      const size_t victim = kills[chosen - 1];
      h.KillNode(victim);
      st->down.push_back(victim);
      --st->budget;
    } else if (chosen > static_cast<uint32_t>(kills.size())) {
      const size_t idx = chosen - 1 - kills.size();
      const size_t victim = restarts[idx];
      h.RestartNode(victim);
      st->down.erase(st->down.begin() + static_cast<long>(idx));
      --st->budget;
    }
    if (st->budget == 0 && !st->down.empty()) {
      // Out of budget with a node still dead: bring it back for free so the
      // schedule can finish (a permanently dead node is a liveness question,
      // not the safety question the checker asks).
      for (size_t victim : st->down) {
        h.RestartNode(victim);
      }
      st->down.clear();
    }
    ScheduleCrashProbe(st);
  });
}

}  // namespace

std::string ScheduleOutcome::Fingerprint() const {
  std::ostringstream out;
  out << "completed=" << (completed ? 1 : 0) << ";safety=" << (safety_ok ? 1 : 0)
      << ";events=" << executed_events << ";equiv=" << equivocations << ";tips=";
  for (size_t i = 0; i < tips.size(); ++i) {
    out << (i == 0 ? "" : ",") << tips[i];
  }
  out << ";tiph=";
  char buf[20];
  for (size_t i = 0; i < tip_prefixes.size(); ++i) {
    snprintf(buf, sizeof(buf), "%s%016" PRIx64, i == 0 ? "" : ",", tip_prefixes[i]);
    out << buf;
  }
  out << ";violations=" << violations.size();
  for (const std::string& v : violations) {
    out << "|" << v;
  }
  return out.str();
}

ModelChecker::ModelChecker(CheckConfig config) : config_(config) {
  if (config_.max_crash_events == 0) {
    return;
  }
  // One directory per checker, so checkers running side by side (ctest -j)
  // never share a store.
  std::error_code ec;
  std::string dir = (std::filesystem::temp_directory_path(ec) / "algorand-check-XXXXXX").string();
  if (mkdtemp(dir.data()) != nullptr) {
    store_dir_ = dir;
  } else {
    fprintf(stderr, "model_checker: mkdtemp failed; crashed nodes restart from genesis\n");
  }
}

ModelChecker::~ModelChecker() {
  if (!store_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }
}

ScheduleOutcome ModelChecker::RunOne(const ChoiceTrace& prefix) {
  PrefixStrategy strategy(prefix, config_.max_choice_points);
  ScheduleOutcome out = RunWithStrategy(&strategy);
  out.diverged = strategy.diverged();
  return out;
}

ScheduleOutcome ModelChecker::RunWithStrategy(Strategy* strategy) {
  HarnessConfig hc = MakeHarnessConfig(config_);
  if (!store_dir_.empty()) {
    // Every schedule starts from empty disks: a replay must see the same
    // bytes the recorded run saw.
    hc.data_dir = store_dir_ + "/run";
    std::error_code ec;
    std::filesystem::remove_all(hc.data_dir, ec);
    std::filesystem::create_directory(hc.data_dir, ec);
    hc.store_fsync = FsyncPolicy::kOff;
    hc.store_background_writer = false;
  }
  ScheduleOutcome out;

  size_t adversary_budget = config_.adversary_max_decisions;
  // One recorded decision per (voter pk prefix, round): gossip relays
  // retransmit a vote along every path, so deciding per transmission both
  // burns the budget on duplicates and makes drops invisible (another copy
  // arrives anyway). Memoizing the choice extends it to all relay copies,
  // which keeps the schedule replayable while giving drops real teeth.
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> vote_decisions;
  CrashProbeState crash;

  SafetyAuditorConfig acfg;
  acfg.step_threshold = hc.params.StepThreshold();
  acfg.final_threshold = hc.params.FinalThreshold();
  acfg.final_step_code = kStepFinal;
  SafetyAuditor auditor(acfg);

  SimHarness h(hc);
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });

  DeliveryChoiceHook hook(strategy, config_.window, config_.max_candidates);
  h.sim().set_choice_hook(&hook);

  if (config_.adversary_max_decisions > 0) {
    h.SetNetworkAdversary(std::make_unique<HookedAdversary>(
        [this, strategy, &adversary_budget, &vote_decisions](
            NodeId, NodeId to, const MessagePtr& msg, SimTime) -> AdversaryAction {
          // The adversary concentrates its falsification power on one victim
          // (node 0 — honest nodes are symmetric in this harness) and on the
          // final-step votes that decide whether the round closes FINAL or
          // tentative — the quorum the safety invariants hinge on. Spending
          // decisions on round-opening votes or spreading them across
          // destinations dilutes the budget before anything interesting is
          // in flight.
          if (to != 0 || KindOf(*msg) != MessageKind::kVote) {
            return AdversaryAction::Deliver();
          }
          const auto* vote = static_cast<const VoteMessage*>(msg.get());
          if (vote->step != kStepFinal) {
            return AdversaryAction::Deliver();
          }
          const std::pair<uint64_t, uint64_t> key{Prefix64(vote->pk), vote->round};
          auto it = vote_decisions.find(key);
          uint32_t decision = 0;
          if (it != vote_decisions.end()) {
            decision = it->second;  // Relay copy: replay the recorded choice.
          } else if (adversary_budget > 0) {
            --adversary_budget;
            decision = strategy->Choose(ChoiceKind::kAdversary, 3);
            vote_decisions.emplace(key, decision);
          }
          switch (decision) {
            case 1:
              return AdversaryAction::Drop();
            case 2:
              return AdversaryAction::Delay(config_.adversary_delay);
            default:
              return AdversaryAction::Deliver();
          }
        }));
  }

  h.Start();

  if (config_.max_crash_events > 0) {
    crash.harness = &h;
    crash.strategy = strategy;
    crash.interval = config_.crash_probe_interval;
    crash.budget = config_.max_crash_events;
    ScheduleCrashProbe(&crash);
  }

  out.completed = h.RunRounds(config_.rounds, config_.deadline);
  h.sim().set_choice_hook(nullptr);

  // --- Verdicts -----------------------------------------------------------
  out.executed_events = h.sim().executed_events();
  out.equivocations = auditor.equivocations();
  for (size_t i = 0; i < h.node_count(); ++i) {
    const Ledger& l = h.node(i).ledger();
    out.tips.push_back(l.chain_length());
    out.tip_prefixes.push_back(Prefix64(l.tip_hash()));
  }

  for (const std::string& v : auditor.violations()) {
    out.violations.push_back("auditor: " + v);
  }
  if (auditor.violation_count() > auditor.violations().size()) {
    out.violations.push_back(
        "auditor: +" +
        std::to_string(auditor.violation_count() - auditor.violations().size()) + " more");
  }

  SimHarness::SafetyReport safety = h.CheckSafety();
  if (!safety.ok) {
    out.violations.push_back("cross-node: " + safety.violation);
  }

  // Certificate quorums: every certificate backing a chain block must
  // revalidate (signatures, sortition proofs, > T*tau weighted votes) against
  // the node's own ledger. Stale certificates from truncated forks (their
  // block no longer on the chain) are skipped — they back nothing.
  for (size_t i = 0; i < h.node_count(); ++i) {
    if (h.is_malicious(i)) {
      continue;
    }
    const Node& node = h.node(i);
    const Ledger& l = node.ledger();
    auto check_certs = [&](const std::map<uint64_t, Certificate>& certs, const char* label) {
      for (const auto& [r, cert] : certs) {
        if (r == 0 || r >= l.chain_length()) {
          continue;
        }
        if (cert.block_hash != l.BlockAtRound(r).Hash()) {
          continue;  // Stale fork certificate; backs no chain block.
        }
        if (!ValidateCertificate(cert, ContextAt(l, hc.params, r), hc.params, h.vrf(),
                                 h.signer())) {
          out.violations.push_back("certificate: node " + std::to_string(i) + " round " +
                                   std::to_string(r) + " " + label +
                                   " certificate fails quorum validation");
        }
      }
    };
    check_certs(node.certificates(), "step");
    check_certs(node.final_certificates(), "final");
  }

  out.safety_ok = out.violations.empty();
  out.trace = strategy->trace();
  return out;
}

ModelChecker::ExploreResult ModelChecker::RunExhaustive(
    uint64_t max_schedules, const std::function<void(const ExploreResult&)>& progress) {
  ExploreResult res;
  ChoiceTrace prefix;
  for (;;) {
    ScheduleOutcome out = RunOne(prefix);
    ++res.schedules;
    if (!out.completed) {
      ++res.incomplete;
    }
    if (!out.safety_ok) {
      ++res.violations;
      if (!res.first_violation) {
        res.first_violation = out;
      }
    }
    if (progress && res.schedules % 1000 == 0) {
      progress(res);
    }
    std::optional<ChoiceTrace> next = NextDfsPrefix(out.trace);
    if (!next) {
      res.exhausted = true;
      break;
    }
    if (max_schedules != 0 && res.schedules >= max_schedules) {
      break;
    }
    prefix = std::move(*next);
  }
  return res;
}

ModelChecker::ExploreResult ModelChecker::RunRandom(
    uint64_t schedules, uint64_t seed,
    const std::function<void(const ExploreResult&)>& progress) {
  ExploreResult res;
  DeterministicRng batch(seed, "check-batch");
  for (uint64_t i = 0; i < schedules; ++i) {
    RandomStrategy strategy(batch.NextU64(), config_.max_choice_points);
    ScheduleOutcome out = RunWithStrategy(&strategy);
    ++res.schedules;
    if (!out.completed) {
      ++res.incomplete;
    }
    if (!out.safety_ok) {
      ++res.violations;
      if (!res.first_violation) {
        res.first_violation = out;
      }
    }
    if (progress && res.schedules % 1000 == 0) {
      progress(res);
    }
  }
  return res;
}

ChoiceTrace ModelChecker::Minimize(const ChoiceTrace& trace) {
  // Probes run a mutated prefix; a mutation reroutes the schedule, so the
  // untouched tail of the prefix may no longer line up with the choice points
  // the rerouted run presents (PrefixStrategy reports that as divergence).
  // Whenever a probe still violates we therefore adopt the run's RECORDED
  // trace — the self-consistent completion of the mutated prefix — so the
  // final result always replays without divergence.
  auto probe = [this](const ChoiceTrace& t, ChoiceTrace* recorded) {
    ScheduleOutcome out = RunOne(t);
    *recorded = out.trace;
    return !out.safety_ok;
  };

  // Phase 1: shortest violating prefix (everything beyond a prefix runs with
  // default choices, so a length-L prefix is a complete schedule).
  ChoiceTrace best = trace;
  for (size_t len = 0; len <= trace.choices.size(); ++len) {
    ChoiceTrace t;
    t.choices.assign(trace.choices.begin(),
                     trace.choices.begin() + static_cast<long>(len));
    ChoiceTrace recorded;
    if (probe(t, &recorded)) {
      best = std::move(recorded);
      break;
    }
  }

  // Phase 2: reset each surviving non-default choice to the default when the
  // violation persists without it. `best` is always a full recorded trace, so
  // it can grow as mutations reroute the run — index against its live size.
  for (size_t i = 0; i < best.choices.size(); ++i) {
    if (best.choices[i].chosen == 0) {
      continue;
    }
    ChoiceTrace t = best;
    t.choices[i].chosen = 0;
    ChoiceTrace recorded;
    if (probe(t, &recorded)) {
      best = std::move(recorded);
    }
  }

  // Trailing defaults are implied by prefix semantics.
  while (!best.choices.empty() && best.choices.back().chosen == 0) {
    best.choices.pop_back();
  }
  return best;
}

bool ModelChecker::WriteCounterexample(const std::string& path, const CheckConfig& config,
                                       const ScheduleOutcome& outcome) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# algorand model-checker counterexample\n";
  out << "nodes=" << config.n_nodes << "\n";
  out << "rounds=" << config.rounds << "\n";
  out << "seed=" << config.harness_seed << "\n";
  out << "window=" << config.window << "\n";
  out << "max_candidates=" << config.max_candidates << "\n";
  out << "depth=" << config.max_choice_points << "\n";
  out << "adv_decisions=" << config.adversary_max_decisions << "\n";
  out << "adv_delay=" << config.adversary_delay << "\n";
  out << "crash_events=" << config.max_crash_events << "\n";
  out << "crash_interval=" << config.crash_probe_interval << "\n";
  out << "deadline=" << config.deadline << "\n";
  out << "malicious=" << config.malicious_fraction << "\n";
  out << "grinding=" << config.grinding_count << "\n";
  out << "grind_withhold=" << (config.grind_withhold ? 1 : 0) << "\n";
  out << "seeded_bug=" << (config.seeded_bug ? 1 : 0) << "\n";
  for (const std::string& v : outcome.violations) {
    out << "violation=" << v << "\n";
  }
  out << "fingerprint=" << outcome.Fingerprint() << "\n";
  out << "trace=" << outcome.trace.Serialize() << "\n";
  return static_cast<bool>(out);
}

std::optional<ModelChecker::Counterexample> ModelChecker::ReadCounterexample(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  Counterexample ce;
  bool have_trace = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "nodes") {
      ce.config.n_nodes = std::stoull(value);
    } else if (key == "rounds") {
      ce.config.rounds = std::stoull(value);
    } else if (key == "seed") {
      ce.config.harness_seed = std::stoull(value);
    } else if (key == "window") {
      ce.config.window = std::stoll(value);
    } else if (key == "max_candidates") {
      ce.config.max_candidates = std::stoull(value);
    } else if (key == "depth") {
      ce.config.max_choice_points = std::stoull(value);
    } else if (key == "adv_decisions") {
      ce.config.adversary_max_decisions = std::stoull(value);
    } else if (key == "adv_delay") {
      ce.config.adversary_delay = std::stoll(value);
    } else if (key == "crash_events") {
      ce.config.max_crash_events = std::stoull(value);
    } else if (key == "crash_interval") {
      ce.config.crash_probe_interval = std::stoll(value);
    } else if (key == "deadline") {
      ce.config.deadline = std::stoll(value);
    } else if (key == "malicious") {
      ce.config.malicious_fraction = std::stod(value);
    } else if (key == "grinding") {
      ce.config.grinding_count = std::stoull(value);
    } else if (key == "grind_withhold") {
      ce.config.grind_withhold = value == "1";
    } else if (key == "seeded_bug") {
      ce.config.seeded_bug = value == "1";
    } else if (key == "fingerprint") {
      ce.fingerprint = value;
    } else if (key == "trace") {
      std::optional<ChoiceTrace> trace = ChoiceTrace::Parse(value);
      if (!trace) {
        return std::nullopt;
      }
      ce.trace = std::move(*trace);
      have_trace = true;
    }
  }
  if (!have_trace) {
    return std::nullopt;
  }
  return ce;
}

}  // namespace algorand
