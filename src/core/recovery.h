// Fork recovery (§8.2): when the network hangs or forks, users stop at the
// last final block f and run a separate BA* — with a fresh seed and the
// weights as of f — on which fork to adopt. RecoverySession is one node's
// side of that: the clock-driven check and the join rule that start a
// session, the session's context and its empty fallback, recovery proposals
// (kept in a ProposalBook, so the backed candidate is the best priority over
// every proposal seen, whatever their order), and the adoption of the agreed
// fork. It reaches the node only through the RecoveryHost interface, so a
// unit test can fake the node.
#ifndef ALGORAND_SRC_CORE_RECOVERY_H_
#define ALGORAND_SRC_CORE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/ba_star.h"
#include "src/core/context.h"
#include "src/core/messages.h"
#include "src/core/params.h"
#include "src/core/proposal_book.h"
#include "src/ledger/ledger.h"
#include "src/netsim/gossip.h"
#include "src/obs/round_tracer.h"

namespace algorand {

// What a RecoverySession needs from the node it runs in.
class RecoveryHost {
 public:
  virtual SimTime Now() const = 0;
  // The periodic check's timer: ungated, it outlives rounds and sessions (a
  // halted host drops it).
  virtual void ScheduleRecoveryCheck(SimTime at, std::function<void()> fn) = 0;
  // Epoch-gated: the timer dies when the host begins another agreement or
  // leaves the session (the same timer BaEnvironment gives BA*).
  virtual void ScheduleAfter(SimTime delay, std::function<void()> fn) = 0;
  // Hung (BA* ran out of steps) or fork evidence observed.
  virtual bool NeedsRecovery() const = 0;
  // Fast-sync or block catch-up owns the node.
  virtual bool Syncing() const = 0;
  virtual void Gossip(const MessagePtr& msg) = 0;
  // The host's one BA* slot. BeginAgreement parks the active machine and
  // makes a fresh one that votes in `ctx` (which must outlive it) and reports
  // to `done`; StartAgreement starts the active machine.
  virtual void BeginAgreement(const RoundContext& ctx, BaStar::CompletionHandler done) = 0;
  virtual void StartAgreement(const Hash256& candidate, const Hash256& empty) = 0;
  // The ledger now holds the adopted fork from `first_replaced_round` up:
  // mirror it to the store, drop what the switch made stale, clear the hung
  // flag and fork suspicions, and resume agreement at the new tip.
  virtual void Recovered(uint64_t first_replaced_round) = 0;
  virtual void TraceRecovery(TraceKind kind, uint64_t a, uint64_t b) = 0;

 protected:
  ~RecoveryHost() = default;
};

class RecoverySession {
 public:
  // `ledger` is read for the final prefix and replaced from it on adoption.
  RecoverySession(RecoveryHost* host, Ledger* ledger, const Ed25519KeyPair& key,
                  const ProtocolParams& params, const VrfBackend& vrf,
                  const SignerBackend& signer);
  // Timers, BA* callbacks and the session context hold `this`.
  RecoverySession(const RecoverySession&) = delete;
  RecoverySession& operator=(const RecoverySession&) = delete;

  // Arms the periodic check: every node wakes at multiples of the recovery
  // interval and enters a session if the host needs recovery.
  void ScheduleCheck();

  bool active() const { return active_; }
  uint64_t recoveries_completed() const { return completed_; }
  // The context this session's votes and proposals are judged in; its round
  // is the session code, kRecoveryRoundBit | window << 8 | attempt.
  const RoundContext& context() const { return ctx_; }
  // context() if `code` is the active session's, else null.
  const RoundContext* ContextFor(uint64_t code) const {
    return active_ && code == ctx_.round ? &ctx_ : nullptr;
  }

  // Joins a newer session seen on the wire: a stuck node whose retries
  // drifted out of step with the majority adopts their session code.
  void MaybeJoin(uint64_t code);
  // Checks a proposal and takes it as a candidate, in one pass. It is judged
  // in the session as it stands (kDeliverOnly if no active session can judge
  // it), may then make the node join its session, and is checked once in the
  // joined session if the earlier one could not judge it. Returns the relay
  // verdict of the first judgement.
  GossipVerdict Receive(const std::shared_ptr<const RecoveryProposalMessage>& msg);
  // Leaves the session without adopting anything (catch-up preempts it, or
  // the node halted). The periodic check keeps running.
  void Stop() { active_ = false; }

 private:
  // Starts attempt `attempt_` of window `window_`; `cause` is the trace's
  // kTraceRecovery* code.
  void Enter(uint64_t cause);
  // A fresh attempt with a rehashed seed (fresh proposers and committees).
  void Retry(uint64_t cause);
  void MaybePropose();
  void OnAgreed(const BaResult& result);
  // Checks a proposal against the active session: signature, sortition (its
  // weight goes to `*votes`) and chain linkage.
  GossipVerdict Judge(const RecoveryProposalMessage& msg, uint64_t* votes) const;

  RecoveryHost& host_;
  Ledger& ledger_;
  const Ed25519KeyPair& key_;
  const ProtocolParams& params_;
  const VrfBackend& vrf_;
  const SignerBackend& signer_;

  bool active_ = false;
  // Pinned when a session is entered (at an aligned clock boundary, or from
  // the joined code) so retries stay in one code space on every node even
  // when their attempt timers drift across a boundary.
  uint64_t window_ = 0;
  uint32_t attempt_ = 0;
  uint64_t anchor_round_ = 0;  // Last common final round f.
  AccountTable accounts_;      // Weights as of round f.
  RoundContext ctx_;           // round = session code, prev_hash = H(block f).
  Block empty_;                // Fallback: empty block extending round f.
  Hash256 empty_hash_;
  // Candidates by the hash of their top block, the value BA* agrees on. A
  // proposer that offers two different chains in one session is banned.
  ProposalBook book_;
  uint64_t completed_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_RECOVERY_H_
