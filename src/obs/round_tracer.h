// RoundTracer: structured per-node BA* event traces.
//
// The paper describes BA* as a sequence of observable per-user steps
// (propose, reduce, binary steps with an occasional coin flip, the final
// determination); formal-verification work on Algorand leans on exactly such
// per-step event sequences. The tracer records them as compact fixed-size
// events in a bounded ring buffer — a Byzantine flood or a very long run
// overwrites the oldest events instead of growing memory — and dumps JSONL
// (one event per line) for offline analysis. The JSONL schema round-trips:
// ParseTraceJsonl recovers the exact event stream, so offline tools (the
// trace_audit CLI, the CI gates) consume the same data the live observers
// see.
#ifndef ALGORAND_SRC_OBS_ROUND_TRACER_H_
#define ALGORAND_SRC_OBS_ROUND_TRACER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time_units.h"
#include "src/obs/metrics.h"

namespace algorand {

enum class TraceKind : uint8_t {
  kRoundStart = 0,     // a = round's chain length (tip round).
  kSortition = 1,      // a = weighted votes won (0: not selected), b = role.
  kStepEnter = 2,      // step = wire step code entered.
  kStepExit = 3,       // a = weighted votes for the winning value, flag = timed out.
  kReductionDone = 4,  // value = reduction output.
  kCoinFlip = 5,       // a = coin bit.
  kBinaryDecided = 6,  // a = BinaryBA* steps used, value = decided hash.
  kRoundEnd = 7,       // flag bits: 1 final, 2 empty, 4 hung.
  kRecoveryEnter = 8,  // a = recovery attempt, b = cause (kTraceRecovery*),
                       // round = session code.
  kCatchupStart = 9,   // a = target round, round = tip round at start.
  kCatchupBatch = 10,  // a = blocks applied, b = responding peer.
  kCatchupDone = 11,   // a = rounds gained, round = new tip round.
  kCrash = 12,         // round = chain length at crash (harness-injected).
  kRestart = 13,       // flag = restarted from snapshot (1) or fresh (0).
  // Causal block-lifecycle events (cross-node latency waterfalls).
  kProposalGossiped = 14,  // a = proposer's weighted votes, value = block hash.
  kBlockReceived = 15,     // a = origin node, b = origination time (ns),
                           // value = block hash; first valid receipt only.
};

// Role codes for kSortition events.
constexpr uint64_t kTraceRoleProposer = 0;
constexpr uint64_t kTraceRoleCommittee = 1;

// Flag bits for kRoundEnd.
constexpr uint8_t kTraceFinal = 1;
constexpr uint8_t kTraceEmpty = 2;
constexpr uint8_t kTraceHung = 4;

// Causes for kRecoveryEnter's b: why this recovery attempt started.
constexpr uint64_t kTraceRecoveryClockCheck = 0;  // Periodic check: hung or fork suspected.
constexpr uint64_t kTraceRecoveryJoined = 1;      // Joined a newer session seen on the wire.
constexpr uint64_t kTraceRecoveryRetryHung = 2;   // Retry: the last attempt's BA* hung.
constexpr uint64_t kTraceRecoveryRetryUnknownFork = 3;    // Retry: agreed on an unseen fork.
constexpr uint64_t kTraceRecoveryRetryReplaceFailed = 4;  // Retry: the agreed fork did not apply.

// Origin sentinel for kBlockReceived when the message carried no trace
// context (mirrors TraceContext::origin's unset value).
constexpr uint64_t kTraceNoOrigin = 0xffffffffull;

// Round codes with the top bit set are §8.2 recovery-session codes, not
// chain rounds (mirrors kRecoveryRoundBit in src/core/messages.h; redeclared
// here so the obs layer stays dependency-free).
constexpr uint64_t kTraceRecoverySessionBit = 1ULL << 63;

struct TraceEvent {
  SimTime at = 0;
  uint32_t node = 0;
  uint64_t round = 0;  // Chain round, or recovery session code (top bit set).
  TraceKind kind = TraceKind::kRoundStart;
  uint32_t step = 0;         // Wire step code where applicable.
  uint64_t a = 0;            // Kind-specific detail (votes, steps, coin...).
  uint64_t b = 0;
  uint64_t value_prefix = 0; // First 8 bytes (big-endian) of the relevant hash.
  uint8_t flag = 0;
};

bool operator==(const TraceEvent& x, const TraceEvent& y);

class RoundTracer {
 public:
  // Called for every recorded event, after it is stored in the ring: the
  // live consumption hook (SafetyAuditor, custom probes). Runs on the
  // recording thread; keep it cheap.
  using Observer = std::function<void(const TraceEvent&)>;

  explicit RoundTracer(size_t capacity = 1 << 16);

  void Record(const TraceEvent& event);

  // Events in recording order (oldest surviving first).
  std::vector<TraceEvent> Events() const;

  size_t capacity() const { return ring_.size(); }
  uint64_t recorded() const;                    // Total ever recorded.
  uint64_t dropped() const;                     // Overwritten by wraparound.

  // Mirrors ring health into `registry`: "trace.recorded" and
  // "trace.dropped" counters (each ring overwrite counts as one drop) plus a
  // "trace.ring_occupancy" gauge. Pass nullptr to detach.
  void AttachMetrics(MetricsRegistry* registry);

  // Registers the live observer (empty function clears it).
  void SetObserver(Observer observer);

  // One JSON object per line:
  // {"t":1.25,"node":3,"round":2,"ev":"step_exit","step":4,"votes":87,...}
  std::string ToJsonl() const;

  static const char* KindName(TraceKind kind);
  // Reverse of KindName; nullopt for unknown names.
  static std::optional<TraceKind> KindFromName(std::string_view name);

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  uint64_t total_ = 0;  // Next write index = total_ % ring_.size().
  Counter* recorded_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Gauge* occupancy_gauge_ = nullptr;
  Observer observer_;
};

// Serializes one event exactly as a ToJsonl line (without the newline).
std::string TraceEventToJson(const TraceEvent& event);

// Parses one flat JSON object — string/number/bool values, no nesting — into
// key -> raw value token ("votes" -> "87", "ev" -> "step_exit" unquoted).
// Nullopt on malformed input. Shared by the trace parser and tests that
// validate JSON-lines output (e.g. the periodic stats reporter).
std::optional<std::map<std::string, std::string>> ParseFlatJsonObject(std::string_view line);

// Parses one ToJsonl line back into the exact event it was dumped from;
// nullopt on malformed input or unknown event names.
std::optional<TraceEvent> ParseTraceEventJson(std::string_view line);

// Parses a whole JSONL dump (blank lines skipped); nullopt if any line fails.
std::optional<std::vector<TraceEvent>> ParseTraceJsonl(std::string_view text);

}  // namespace algorand

#endif  // ALGORAND_SRC_OBS_ROUND_TRACER_H_
