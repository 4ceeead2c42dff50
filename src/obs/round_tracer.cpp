#include "src/obs/round_tracer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace algorand {
namespace {

// Nanosecond-resolution seconds: nine decimals, so ParseTraceEventJson
// recovers the exact SimTime (runs shorter than ~104 days stay below the
// double mantissa limit).
void AppendTime(std::string* out, const char* key, SimTime t) {
  char buf[64];
  int n = snprintf(buf, sizeof(buf), ",\"%s\":%.9f", key, ToSeconds(t));
  out->append(buf, static_cast<size_t>(n));
}

SimTime SecondsToSimTime(double s) { return static_cast<SimTime>(std::llround(s * 1e9)); }

bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = strtoull(token.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseHex64(const std::string& token, uint64_t* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = strtoull(token.c_str(), &end, 16);
  return end != nullptr && *end == '\0';
}

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0';
}

// Missing keys default to their zero value; present keys must parse.
bool FieldU64(const std::map<std::string, std::string>& kv, const char* key, uint64_t* out) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    *out = 0;
    return true;
  }
  return ParseU64(it->second, out);
}

bool FieldBool(const std::map<std::string, std::string>& kv, const char* key, bool* out) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    *out = false;
    return true;
  }
  if (it->second == "true") {
    *out = true;
    return true;
  }
  if (it->second == "false") {
    *out = false;
    return true;
  }
  return false;
}

bool FieldTime(const std::map<std::string, std::string>& kv, const char* key, SimTime* out) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    *out = 0;
    return true;
  }
  double seconds = 0;
  if (!ParseDouble(it->second, &seconds)) {
    return false;
  }
  *out = SecondsToSimTime(seconds);
  return true;
}

}  // namespace

bool operator==(const TraceEvent& x, const TraceEvent& y) {
  return x.at == y.at && x.node == y.node && x.round == y.round && x.kind == y.kind &&
         x.step == y.step && x.a == y.a && x.b == y.b && x.value_prefix == y.value_prefix &&
         x.flag == y.flag;
}

RoundTracer::RoundTracer(size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void RoundTracer::Record(const TraceEvent& event) {
  Observer observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool overwrote = total_ >= ring_.size();
    ring_[static_cast<size_t>(total_ % ring_.size())] = event;
    ++total_;
    if (recorded_counter_ != nullptr) {
      recorded_counter_->Increment();
    }
    if (overwrote && dropped_counter_ != nullptr) {
      dropped_counter_->Increment();
    }
    if (occupancy_gauge_ != nullptr) {
      occupancy_gauge_->Set(
          static_cast<int64_t>(total_ < ring_.size() ? total_ : ring_.size()));
    }
    observer = observer_;
  }
  // Outside the ring lock: the observer (e.g. SafetyAuditor) may take its own
  // locks or record follow-up metrics.
  if (observer) {
    observer(event);
  }
}

uint64_t RoundTracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t RoundTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

void RoundTracer::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    recorded_counter_ = nullptr;
    dropped_counter_ = nullptr;
    occupancy_gauge_ = nullptr;
    return;
  }
  recorded_counter_ = &registry->GetCounter("trace.recorded");
  dropped_counter_ = &registry->GetCounter("trace.dropped");
  occupancy_gauge_ = &registry->GetGauge("trace.ring_occupancy");
}

void RoundTracer::SetObserver(Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

std::vector<TraceEvent> RoundTracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  uint64_t kept = total_ < ring_.size() ? total_ : ring_.size();
  out.reserve(static_cast<size_t>(kept));
  uint64_t start = total_ - kept;
  for (uint64_t i = start; i < total_; ++i) {
    out.push_back(ring_[static_cast<size_t>(i % ring_.size())]);
  }
  return out;
}

const char* RoundTracer::KindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRoundStart: return "round_start";
    case TraceKind::kSortition: return "sortition";
    case TraceKind::kStepEnter: return "step_enter";
    case TraceKind::kStepExit: return "step_exit";
    case TraceKind::kReductionDone: return "reduction_done";
    case TraceKind::kCoinFlip: return "coin_flip";
    case TraceKind::kBinaryDecided: return "binary_decided";
    case TraceKind::kRoundEnd: return "round_end";
    case TraceKind::kRecoveryEnter: return "recovery_enter";
    case TraceKind::kCatchupStart: return "catchup_start";
    case TraceKind::kCatchupBatch: return "catchup_batch";
    case TraceKind::kCatchupDone: return "catchup_done";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRestart: return "restart";
    case TraceKind::kProposalGossiped: return "proposal_gossiped";
    case TraceKind::kBlockReceived: return "block_received";
  }
  return "unknown";
}

std::optional<TraceKind> RoundTracer::KindFromName(std::string_view name) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(TraceKind::kBlockReceived); ++k) {
    auto kind = static_cast<TraceKind>(k);
    if (name == KindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::string TraceEventToJson(const TraceEvent& ev) {
  std::string out;
  char buf[256];
  int n = snprintf(buf, sizeof(buf), "{\"t\":%.9f,\"node\":%u,\"round\":%llu,\"ev\":\"%s\"",
                   ToSeconds(ev.at), ev.node, static_cast<unsigned long long>(ev.round),
                   RoundTracer::KindName(ev.kind));
  out.append(buf, static_cast<size_t>(n));
  if (ev.step != 0) {
    n = snprintf(buf, sizeof(buf), ",\"step\":%u", ev.step);
    out.append(buf, static_cast<size_t>(n));
  }
  switch (ev.kind) {
    case TraceKind::kRoundStart:
      n = snprintf(buf, sizeof(buf), ",\"chain\":%llu", static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kSortition:
      n = snprintf(buf, sizeof(buf), ",\"votes\":%llu,\"role\":\"%s\"",
                   static_cast<unsigned long long>(ev.a),
                   ev.b == kTraceRoleProposer ? "proposer" : "committee");
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kStepExit:
      n = snprintf(buf, sizeof(buf), ",\"votes\":%llu,\"timed_out\":%s",
                   static_cast<unsigned long long>(ev.a), ev.flag ? "true" : "false");
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kCoinFlip:
      n = snprintf(buf, sizeof(buf), ",\"coin\":%llu", static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kBinaryDecided:
      n = snprintf(buf, sizeof(buf), ",\"binary_steps\":%llu",
                   static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kRoundEnd:
      n = snprintf(buf, sizeof(buf), ",\"final\":%s,\"empty\":%s,\"hung\":%s",
                   (ev.flag & kTraceFinal) ? "true" : "false",
                   (ev.flag & kTraceEmpty) ? "true" : "false",
                   (ev.flag & kTraceHung) ? "true" : "false");
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kRecoveryEnter:
      n = snprintf(buf, sizeof(buf), ",\"attempt\":%llu,\"cause\":%llu",
                   static_cast<unsigned long long>(ev.a), static_cast<unsigned long long>(ev.b));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kCatchupStart:
      n = snprintf(buf, sizeof(buf), ",\"target\":%llu",
                   static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kCatchupBatch:
      n = snprintf(buf, sizeof(buf), ",\"applied\":%llu,\"peer\":%llu",
                   static_cast<unsigned long long>(ev.a),
                   static_cast<unsigned long long>(ev.b));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kCatchupDone:
      n = snprintf(buf, sizeof(buf), ",\"gained\":%llu",
                   static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kRestart:
      n = snprintf(buf, sizeof(buf), ",\"from_snapshot\":%s", ev.flag ? "true" : "false");
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kProposalGossiped:
      n = snprintf(buf, sizeof(buf), ",\"votes\":%llu", static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      break;
    case TraceKind::kBlockReceived:
      n = snprintf(buf, sizeof(buf), ",\"origin\":%llu", static_cast<unsigned long long>(ev.a));
      out.append(buf, static_cast<size_t>(n));
      AppendTime(&out, "emitted", static_cast<SimTime>(ev.b));
      break;
    default:
      break;
  }
  if (ev.value_prefix != 0) {
    n = snprintf(buf, sizeof(buf), ",\"value\":\"%016llx\"",
                 static_cast<unsigned long long>(ev.value_prefix));
    out.append(buf, static_cast<size_t>(n));
  }
  out += "}";
  return out;
}

std::string RoundTracer::ToJsonl() const {
  std::string out;
  for (const TraceEvent& ev : Events()) {
    out += TraceEventToJson(ev);
    out += "\n";
  }
  return out;
}

std::optional<std::map<std::string, std::string>> ParseFlatJsonObject(std::string_view line) {
  std::map<std::string, std::string> kv;
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') {
    return std::nullopt;
  }
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      if (i >= line.size() || line[i] != '"') {
        return std::nullopt;
      }
      ++i;
      size_t key_start = i;
      while (i < line.size() && line[i] != '"') {
        ++i;
      }
      if (i >= line.size()) {
        return std::nullopt;
      }
      std::string key(line.substr(key_start, i - key_start));
      ++i;
      skip_ws();
      if (i >= line.size() || line[i] != ':') {
        return std::nullopt;
      }
      ++i;
      skip_ws();
      std::string value;
      if (i < line.size() && line[i] == '"') {
        ++i;
        size_t val_start = i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;  // Keep escapes raw; trace values never need them.
          }
          ++i;
        }
        if (i >= line.size()) {
          return std::nullopt;
        }
        value = std::string(line.substr(val_start, i - val_start));
        ++i;
      } else {
        size_t val_start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}') {
          ++i;
        }
        if (i >= line.size()) {
          return std::nullopt;
        }
        size_t val_end = i;
        while (val_end > val_start &&
               (line[val_end - 1] == ' ' || line[val_end - 1] == '\t')) {
          --val_end;
        }
        if (val_end == val_start) {
          return std::nullopt;
        }
        value = std::string(line.substr(val_start, val_end - val_start));
      }
      if (!kv.emplace(std::move(key), std::move(value)).second) {
        return std::nullopt;  // Duplicate key.
      }
      skip_ws();
      if (i >= line.size()) {
        return std::nullopt;
      }
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      return std::nullopt;
    }
  }
  skip_ws();
  if (i != line.size()) {
    return std::nullopt;
  }
  return kv;
}

std::optional<TraceEvent> ParseTraceEventJson(std::string_view line) {
  auto parsed = ParseFlatJsonObject(line);
  if (!parsed) {
    return std::nullopt;
  }
  const auto& kv = *parsed;
  auto ev_it = kv.find("ev");
  if (ev_it == kv.end()) {
    return std::nullopt;
  }
  auto kind = RoundTracer::KindFromName(ev_it->second);
  if (!kind) {
    return std::nullopt;
  }
  TraceEvent ev;
  ev.kind = *kind;
  uint64_t u = 0;
  if (!FieldTime(kv, "t", &ev.at) || !FieldU64(kv, "node", &u)) {
    return std::nullopt;
  }
  ev.node = static_cast<uint32_t>(u);
  if (!FieldU64(kv, "round", &ev.round) || !FieldU64(kv, "step", &u)) {
    return std::nullopt;
  }
  ev.step = static_cast<uint32_t>(u);
  if (auto it = kv.find("value"); it != kv.end()) {
    if (!ParseHex64(it->second, &ev.value_prefix)) {
      return std::nullopt;
    }
  }
  bool flag = false;
  switch (ev.kind) {
    case TraceKind::kRoundStart:
      if (!FieldU64(kv, "chain", &ev.a)) return std::nullopt;
      break;
    case TraceKind::kSortition: {
      if (!FieldU64(kv, "votes", &ev.a)) return std::nullopt;
      auto it = kv.find("role");
      ev.b = (it != kv.end() && it->second == "committee") ? kTraceRoleCommittee
                                                           : kTraceRoleProposer;
      break;
    }
    case TraceKind::kStepExit:
      if (!FieldU64(kv, "votes", &ev.a) || !FieldBool(kv, "timed_out", &flag)) {
        return std::nullopt;
      }
      ev.flag = flag ? 1 : 0;
      break;
    case TraceKind::kCoinFlip:
      if (!FieldU64(kv, "coin", &ev.a)) return std::nullopt;
      break;
    case TraceKind::kBinaryDecided:
      if (!FieldU64(kv, "binary_steps", &ev.a)) return std::nullopt;
      break;
    case TraceKind::kRoundEnd: {
      bool final_flag = false;
      bool empty_flag = false;
      bool hung_flag = false;
      if (!FieldBool(kv, "final", &final_flag) || !FieldBool(kv, "empty", &empty_flag) ||
          !FieldBool(kv, "hung", &hung_flag)) {
        return std::nullopt;
      }
      ev.flag = static_cast<uint8_t>((final_flag ? kTraceFinal : 0) |
                                     (empty_flag ? kTraceEmpty : 0) |
                                     (hung_flag ? kTraceHung : 0));
      break;
    }
    case TraceKind::kRecoveryEnter:
      if (!FieldU64(kv, "attempt", &ev.a) || !FieldU64(kv, "cause", &ev.b)) return std::nullopt;
      break;
    case TraceKind::kCatchupStart:
      if (!FieldU64(kv, "target", &ev.a)) return std::nullopt;
      break;
    case TraceKind::kCatchupBatch:
      if (!FieldU64(kv, "applied", &ev.a) || !FieldU64(kv, "peer", &ev.b)) {
        return std::nullopt;
      }
      break;
    case TraceKind::kCatchupDone:
      if (!FieldU64(kv, "gained", &ev.a)) return std::nullopt;
      break;
    case TraceKind::kRestart:
      if (!FieldBool(kv, "from_snapshot", &flag)) return std::nullopt;
      ev.flag = flag ? 1 : 0;
      break;
    case TraceKind::kProposalGossiped:
      if (!FieldU64(kv, "votes", &ev.a)) return std::nullopt;
      break;
    case TraceKind::kBlockReceived: {
      if (!FieldU64(kv, "origin", &ev.a)) return std::nullopt;
      SimTime emitted = 0;
      if (!FieldTime(kv, "emitted", &emitted)) return std::nullopt;
      ev.b = static_cast<uint64_t>(emitted);
      break;
    }
    case TraceKind::kStepEnter:
    case TraceKind::kReductionDone:
    case TraceKind::kCrash:
      break;
  }
  return ev;
}

std::optional<std::vector<TraceEvent>> ParseTraceJsonl(std::string_view text) {
  std::vector<TraceEvent> events;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) {
      continue;
    }
    auto ev = ParseTraceEventJson(line);
    if (!ev) {
      return std::nullopt;
    }
    events.push_back(*ev);
  }
  return events;
}

}  // namespace algorand
