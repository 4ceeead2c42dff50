// BA* (§7) as an event-driven state machine.
//
// The paper presents BA* as blocking pseudocode: CommitteeVote() then
// CountVotes() with a deadline. Here each CountVotes becomes a wait state —
// a tally that completes as soon as some value crosses the vote threshold or
// a timer fires — so thousands of nodes interleave inside one discrete-event
// simulation. The transitions are a line-by-line translation of
// Algorithm 3 (BA*), Algorithm 7 (Reduction) and Algorithm 8 (BinaryBA*),
// including the vote-ahead-three-steps rule, the special `final` vote in
// binary step 1, and the common-coin fallback in every third step.
//
// BaStar is deliberately network-agnostic: the environment callback casts
// committee votes (sortition + signing + gossip live in the Node), and OnVote
// feeds back every verified vote for this round, whatever step it belongs
// to — early votes buffer in their step's tally until the machine gets there.
// The tallies are the round's one index of counted votes: the common coin and
// the host's certificates read them, and nothing reads them once the round's
// block is appended, so a finished machine releases them.
#ifndef ALGORAND_SRC_CORE_BA_STAR_H_
#define ALGORAND_SRC_CORE_BA_STAR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/time_units.h"
#include "src/core/messages.h"
#include "src/core/params.h"
#include "src/core/vote_counter.h"

namespace algorand {

// Services BaStar needs from its host (the Node, or a test harness).
class BaEnvironment {
 public:
  virtual ~BaEnvironment() = default;
  // Runs committee sortition for (round, step_code) with expected committee
  // size tau and, if selected, signs and gossips a vote for `value`.
  virtual void CastVote(uint32_t step_code, double tau, const Hash256& value) = 0;
  virtual void ScheduleAfter(SimTime delay, std::function<void()> fn) = 0;
  virtual SimTime Now() const = 0;
};

struct BaResult {
  Hash256 value;
  bool final = false;          // Final vs tentative consensus (§7.4).
  bool hung = false;           // Exceeded MaxSteps; recovery required (§8.2).
  int binary_steps = 0;        // BinaryBA* steps executed.
  uint32_t deciding_step = 0;  // Wire step whose votes certify the value.
  SimTime reduction_done_at = 0;
  SimTime binary_done_at = 0;
  SimTime final_done_at = 0;
};

// Observability callout emitted at BA* step transitions. The host translates
// these into tracer events and step-latency histograms; BaStar itself stays
// free of any metrics dependency.
struct BaStepEvent {
  enum class Kind {
    kStepEnter,      // Entered a CountVotes wait on `step`.
    kStepExit,       // Left the wait: value decided or timeout.
    kReductionDone,  // Reduction output chosen; `value` feeds BinaryBA*.
    kCoinFlip,       // Step-3 common coin consulted; `coin` is the bit.
    kBinaryDecided,  // BinaryBA* reached consensus on `value`.
  };
  Kind kind = Kind::kStepEnter;
  uint32_t step = 0;       // Wire step code.
  SimTime at = 0;
  SimTime entered_at = 0;  // kStepExit: when the wait began.
  uint64_t votes = 0;      // kStepExit: weighted votes for the winning value.
  bool timed_out = false;  // kStepExit: wait expired without a leader.
  int coin = 0;            // kCoinFlip.
  int binary_steps = 0;    // kBinaryDecided.
  Hash256 value{};
};

class BaStar {
 public:
  using CompletionHandler = std::function<void(const BaResult&)>;
  using StepObserver = std::function<void(const BaStepEvent&)>;

  BaStar(const ProtocolParams& params, BaEnvironment* env, CompletionHandler on_complete);

  // Optional: receives a BaStepEvent at every step transition. Set before
  // Start().
  void set_observer(StepObserver observer) { observer_ = std::move(observer); }

  // Begins the round with the node's candidate block hash (from block
  // proposal) and the canonical empty-block hash for this round.
  void Start(const Hash256& proposed_hash, const Hash256& empty_hash);

  // Feeds a signature- and sortition-verified vote of this machine's round,
  // counted in vote->step's tally. Weight is the voter's sub-user count;
  // per-pk dedup happens in the tally.
  void OnVote(const StepTally::VotePtr& vote, uint64_t weight);
  // Adapter for callers that hold the fields, not a message.
  void OnVote(uint32_t step_code, const PublicKey& pk, uint64_t weight, const Hash256& value,
              const VrfOutput& sorthash) {
    OnVote(StepTally::Wrap(step_code, pk, value, sorthash), weight);
  }

  // Tally access (certificate assembly, common-coin tests). Null if the step
  // received no votes.
  const StepTally* TallyFor(uint32_t step_code) const;

  // Votes counted per step code.
  using StepSizes = std::map<uint32_t, size_t>;
  // Frees every tally and returns their sizes. For a machine that is parked
  // but may still have frames on the stack: none of them reads a tally after
  // the completion handler returns.
  StepSizes ReleaseTallies();
  // Sizes each step's tally, when its first vote arrives, for a little more
  // than `sizes` lists for that step (a previous machine's counts).
  void ReserveTallies(StepSizes sizes) { reserve_ = std::move(sizes); }
  // Heap bytes the tallies hold (StepTally::memory_bytes summed).
  size_t TallyBytes() const;

 private:
  using WaitContinuation = std::function<void(std::optional<Hash256>)>;

  // Enters a CountVotes wait on `step_code` with the given weighted-vote
  // threshold and timeout.
  void WaitCountVotes(uint32_t step_code, double threshold, SimTime timeout,
                      WaitContinuation k);
  void CompleteWait(std::optional<Hash256> value);

  void StartBinary(const Hash256& hblock);
  void BinaryStepA();
  void BinaryStepB();
  void BinaryStepC();
  // Consensus reached in BinaryBA*: vote ahead three steps and move to the
  // final-step count.
  void FinishBinary(const Hash256& value, uint32_t deciding_step, bool from_first_step);
  void VoteAheadThreeSteps(const Hash256& value);
  bool CheckMaxSteps();

  uint32_t CurrentBinaryCode() const { return BinaryStepCode(bba_step_); }

  void Emit(const BaStepEvent& event) {
    if (observer_) {
      observer_(event);
    }
  }

  ProtocolParams params_;
  BaEnvironment* env_;
  CompletionHandler on_complete_;
  StepObserver observer_;

  std::map<uint32_t, StepTally> tallies_;
  StepSizes reserve_;

  BaResult result_;

  Hash256 proposed_;    // Candidate from block proposal (may equal empty_).
  Hash256 empty_;       // Canonical empty-block hash for the round.
  Hash256 block_hash_;  // BinaryBA*'s non-empty candidate (reduction output).
  Hash256 r_;           // The running vote value in BinaryBA*.
  int bba_step_ = 0;    // 1-based BinaryBA* step counter.

  // Wait state.
  bool waiting_ = false;
  uint32_t wait_step_ = 0;
  double wait_threshold_ = 0;
  SimTime wait_entered_at_ = 0;
  uint64_t wait_epoch_ = 0;  // Invalidates stale timers.
  WaitContinuation wait_k_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_BA_STAR_H_
