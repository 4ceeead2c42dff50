#include "src/core/ba_star.h"

namespace algorand {

BaStar::BaStar(const ProtocolParams& params, BaEnvironment* env, CompletionHandler on_complete)
    : params_(params), env_(env), on_complete_(std::move(on_complete)) {}

const StepTally* BaStar::TallyFor(uint32_t step_code) const {
  auto it = tallies_.find(step_code);
  return it == tallies_.end() ? nullptr : &it->second;
}

BaStar::StepSizes BaStar::ReleaseTallies() {
  StepSizes sizes;
  for (const auto& [step, tally] : tallies_) {
    sizes.emplace(step, tally.entries().size());
  }
  tallies_.clear();
  return sizes;
}

size_t BaStar::TallyBytes() const {
  size_t bytes = 0;
  for (const auto& [step, tally] : tallies_) {
    bytes += tally.memory_bytes();
  }
  return bytes;
}

void BaStar::OnVote(const StepTally::VotePtr& vote, uint64_t weight) {
  const uint32_t step_code = vote->step;
  auto [it, fresh] = tallies_.try_emplace(step_code);
  StepTally& tally = it->second;
  if (auto hint = fresh ? reserve_.find(step_code) : reserve_.end(); hint != reserve_.end()) {
    // An eighth of headroom: a step's count varies a little between rounds,
    // and one vote past the reserve would double the array.
    tally.reserve(hint->second + hint->second / 8);
  }
  if (!tally.AddVote(vote, weight)) {
    return;
  }
  if (waiting_ && step_code == wait_step_) {
    auto leader = tally.Leader(wait_threshold_);
    if (leader) {
      CompleteWait(leader);
    }
  }
}

void BaStar::WaitCountVotes(uint32_t step_code, double threshold, SimTime timeout,
                            WaitContinuation k) {
  waiting_ = true;
  wait_step_ = step_code;
  wait_threshold_ = threshold;
  wait_entered_at_ = env_->Now();
  wait_k_ = std::move(k);
  uint64_t epoch = ++wait_epoch_;

  if (observer_) {
    BaStepEvent ev;
    ev.kind = BaStepEvent::Kind::kStepEnter;
    ev.step = step_code;
    ev.at = wait_entered_at_;
    Emit(ev);
  }

  // Votes that arrived before we entered this step may already decide it.
  auto it = tallies_.find(step_code);
  if (it != tallies_.end()) {
    auto leader = it->second.Leader(threshold);
    if (leader) {
      CompleteWait(leader);
      return;
    }
  }
  env_->ScheduleAfter(timeout, [this, epoch] {
    if (waiting_ && wait_epoch_ == epoch) {
      CompleteWait(std::nullopt);
    }
  });
}

void BaStar::CompleteWait(std::optional<Hash256> value) {
  waiting_ = false;
  if (observer_) {
    BaStepEvent ev;
    ev.kind = BaStepEvent::Kind::kStepExit;
    ev.step = wait_step_;
    ev.at = env_->Now();
    ev.entered_at = wait_entered_at_;
    ev.timed_out = !value.has_value();
    if (value) {
      ev.value = *value;
      auto it = tallies_.find(wait_step_);
      ev.votes = it == tallies_.end() ? 0 : it->second.CountFor(*value);
    }
    Emit(ev);
  }
  WaitContinuation k = std::move(wait_k_);
  wait_k_ = nullptr;
  k(value);
}

void BaStar::Start(const Hash256& proposed_hash, const Hash256& empty_hash) {
  proposed_ = proposed_hash;
  empty_ = empty_hash;

  // --- Reduction (Algorithm 7) ---
  // Step 1: gossip the block hash. Other users may still be waiting for
  // block proposals, so allow lambda_block + lambda_step.
  env_->CastVote(kStepReduction1, params_.tau_step, proposed_);
  WaitCountVotes(kStepReduction1, params_.StepThreshold(),
                 params_.lambda_block + params_.lambda_step,
                 [this](std::optional<Hash256> r1) {
                   // Step 2: re-gossip the popular hash, or the empty hash on
                   // timeout.
                   Hash256 vote = r1.value_or(empty_);
                   env_->CastVote(kStepReduction2, params_.tau_step, vote);
                   WaitCountVotes(kStepReduction2, params_.StepThreshold(), params_.lambda_step,
                                  [this](std::optional<Hash256> r2) {
                                    result_.reduction_done_at = env_->Now();
                                    StartBinary(r2.value_or(empty_));
                                  });
                 });
}

void BaStar::StartBinary(const Hash256& hblock) {
  if (observer_) {
    BaStepEvent ev;
    ev.kind = BaStepEvent::Kind::kReductionDone;
    ev.at = env_->Now();
    ev.value = hblock;
    Emit(ev);
  }
  // BinaryBA* (Algorithm 8): consensus on hblock or the empty hash.
  block_hash_ = hblock;
  r_ = hblock;
  bba_step_ = 1;
  BinaryStepA();
}

bool BaStar::CheckMaxSteps() {
  if (bba_step_ <= params_.max_steps) {
    return false;
  }
  // HangForever(): no consensus; the caller's recovery protocol (§8.2) must
  // restore liveness. We surface the hang instead of blocking.
  result_.hung = true;
  result_.binary_steps = bba_step_ - 1;
  result_.binary_done_at = env_->Now();
  result_.final_done_at = env_->Now();
  on_complete_(result_);
  return true;
}

void BaStar::BinaryStepA() {
  if (CheckMaxSteps()) {
    return;
  }
  const uint32_t code = CurrentBinaryCode();
  env_->CastVote(code, params_.tau_step, r_);
  WaitCountVotes(code, params_.StepThreshold(), params_.lambda_step,
                 [this, code](std::optional<Hash256> r) {
                   if (!r.has_value()) {
                     r_ = block_hash_;
                   } else {
                     r_ = *r;
                     if (r_ != empty_) {
                       FinishBinary(r_, code, /*from_first_step=*/bba_step_ == 1);
                       return;
                     }
                   }
                   ++bba_step_;
                   BinaryStepB();
                 });
}

void BaStar::BinaryStepB() {
  if (CheckMaxSteps()) {
    return;
  }
  const uint32_t code = CurrentBinaryCode();
  env_->CastVote(code, params_.tau_step, r_);
  WaitCountVotes(code, params_.StepThreshold(), params_.lambda_step,
                 [this, code](std::optional<Hash256> r) {
                   if (!r.has_value()) {
                     r_ = empty_;
                   } else {
                     r_ = *r;
                     if (r_ == empty_) {
                       FinishBinary(r_, code, /*from_first_step=*/false);
                       return;
                     }
                   }
                   ++bba_step_;
                   BinaryStepC();
                 });
}

void BaStar::BinaryStepC() {
  if (CheckMaxSteps()) {
    return;
  }
  const uint32_t code = CurrentBinaryCode();
  env_->CastVote(code, params_.tau_step, r_);
  WaitCountVotes(code, params_.StepThreshold(), params_.lambda_step,
                 [this, code](std::optional<Hash256> r) {
                   if (!r.has_value()) {
                     // Common coin breaks adversarial vote-splitting: flip
                     // toward block_hash or empty based on the lowest
                     // sortition hash seen this step (Algorithm 9).
                     int coin = 0;
                     if (params_.common_coin_enabled) {
                       const StepTally* tally = TallyFor(code);
                       coin = tally ? tally->CommonCoin() : 0;
                     }
                     if (observer_) {
                       BaStepEvent ev;
                       ev.kind = BaStepEvent::Kind::kCoinFlip;
                       ev.step = code;
                       ev.at = env_->Now();
                       ev.coin = coin;
                       Emit(ev);
                     }
                     r_ = (coin == 0) ? block_hash_ : empty_;
                   } else {
                     r_ = *r;
                   }
                   ++bba_step_;
                   BinaryStepA();
                 });
}

void BaStar::VoteAheadThreeSteps(const Hash256& value) {
  // Carry departing-node votes into the next three steps so stragglers can
  // still cross the threshold (§7.4 "getting unstuck" prelude).
  for (int s = bba_step_ + 1; s <= bba_step_ + 3; ++s) {
    env_->CastVote(BinaryStepCode(s), params_.tau_step, value);
  }
}

void BaStar::FinishBinary(const Hash256& value, uint32_t deciding_step, bool from_first_step) {
  if (observer_) {
    BaStepEvent ev;
    ev.kind = BaStepEvent::Kind::kBinaryDecided;
    ev.step = deciding_step;
    ev.at = env_->Now();
    ev.binary_steps = bba_step_;
    ev.value = value;
    Emit(ev);
  }
  VoteAheadThreeSteps(value);
  if (from_first_step && params_.final_step_enabled) {
    // Consensus in the very first step can be declared final if the final
    // committee confirms it (§7.4).
    env_->CastVote(kStepFinal, params_.tau_final, value);
  }
  result_.value = value;
  result_.binary_steps = bba_step_;
  result_.deciding_step = deciding_step;
  result_.binary_done_at = env_->Now();

  if (!params_.final_step_enabled) {
    // Ablation: no finality determination; everything stays tentative.
    result_.final = false;
    result_.final_done_at = env_->Now();
    on_complete_(result_);
    return;
  }

  // --- Final/tentative determination (Algorithm 3) ---
  WaitCountVotes(kStepFinal, params_.FinalThreshold(), params_.lambda_step,
                 [this](std::optional<Hash256> rf) {
                   result_.final = rf.has_value() && *rf == result_.value;
                   result_.final_done_at = env_->Now();
                   on_complete_(result_);
                 });
}

}  // namespace algorand
