#include "src/core/proposal_book.h"

namespace algorand {

void ProposalBook::Clear() {
  have_best_ = false;
  best_at_ = 0;
  bodies_.clear();
  body_of_.clear();
  banned_.clear();
}

void ProposalBook::OfferPriority(const PublicKey& pk, const Hash256& priority, SimTime now) {
  if (banned_.contains(pk) || !Leads(priority)) {
    return;
  }
  have_best_ = true;
  best_priority_ = priority;
  best_pk_ = pk;
  best_at_ = now;
}

ProposalBook::Offer ProposalBook::OfferBody(const PublicKey& pk, const Hash256& hash,
                                            const MessagePtr& msg, const Hash256& priority,
                                            SimTime now) {
  if (banned_.contains(pk)) {
    return Offer::kBanned;
  }
  auto [it, first] = body_of_.try_emplace(pk, hash);
  if (!first && it->second != hash) {
    body_of_.erase(it);
    banned_.insert(pk);
    if (have_best_ && best_pk_ == pk) {
      have_best_ = false;  // Forget the equivocator's priority.
      return Offer::kLeaderBanned;
    }
    return Offer::kEquivocated;
  }
  bodies_.try_emplace(hash, Received{msg, now});
  OfferPriority(pk, priority, now);  // A body implies its own priority.
  return Offer::kStored;
}

const Hash256* ProposalBook::LeaderBody() const {
  if (!have_best_) {
    return nullptr;
  }
  auto it = body_of_.find(best_pk_);
  return it == body_of_.end() ? nullptr : &it->second;
}

}  // namespace algorand
