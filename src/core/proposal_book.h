// ProposalBook: one round's (or one recovery attempt's) block proposals,
// kept by the rules of §6: the best priority and when it was seen, each
// proposer's body, the message that carried each body and when it arrived,
// and the proposers banned for sending two different bodies (§10.4). A body
// is held as the message that carried it, so the book copies no block. The
// caller reads the relay rules (Leads, Outranked) before it offers a message.
#ifndef ALGORAND_SRC_CORE_PROPOSAL_BOOK_H_
#define ALGORAND_SRC_CORE_PROPOSAL_BOOK_H_

#include <unordered_map>
#include <unordered_set>

#include "src/common/time_units.h"
#include "src/core/sortition.h"
#include "src/netsim/message.h"

namespace algorand {

class ProposalBook {
 public:
  // What an offered body did to the book.
  enum class Offer : uint8_t {
    kStored,        // Recorded (a body the book holds already counts again).
    kBanned,        // Its proposer is banned: not recorded.
    kEquivocated,   // Its proposer's second body: the proposer is now banned.
    kLeaderBanned,  // kEquivocated by the best-priority proposer.
  };

  // Forgets everything: a new round or attempt begins.
  void Clear();

  // True if `priority` leads: nothing is known yet, or it beats the best.
  bool Leads(const Hash256& priority) const {
    return !have_best_ || PriorityBeats(priority, best_priority_);
  }
  // True if a strictly better priority than `priority` is known.
  bool Outranked(const Hash256& priority) const {
    return have_best_ && PriorityBeats(best_priority_, priority);
  }

  // Records `pk`'s priority, seen at `now`, unless `pk` is banned.
  void OfferPriority(const PublicKey& pk, const Hash256& priority, SimTime now);
  // Records `pk`'s body `hash`, carried by `msg`, and the priority it implies.
  // A proposer's first body stays stored after a ban: agreement may already
  // be under way on it, and peers that fetch it must find it here.
  Offer OfferBody(const PublicKey& pk, const Hash256& hash, const MessagePtr& msg,
                  const Hash256& priority, SimTime now);
  // Stores a body whatever its proposer's standing: BA* agreed on it
  // (Algorithm 3's BlockOfHash).
  void Keep(const Hash256& hash, const MessagePtr& msg, SimTime now) {
    bodies_.try_emplace(hash, Received{msg, now});
  }

  // The hash of the best-priority proposer's body, if it has arrived.
  const Hash256* LeaderBody() const;
  // The message that carried body `hash`, or null.
  template <typename T>
  const T* Find(const Hash256& hash) const {
    auto it = bodies_.find(hash);
    return it == bodies_.end() ? nullptr : static_cast<const T*>(it->second.msg.get());
  }
  // When body `hash` arrived (0: not held).
  SimTime ReceivedAt(const Hash256& hash) const {
    auto it = bodies_.find(hash);
    return it == bodies_.end() ? 0 : it->second.at;
  }
  bool have_best() const { return have_best_; }
  SimTime best_at() const { return best_at_; }  // Last improvement (0: none).

 private:
  struct Received {
    MessagePtr msg;
    SimTime at = 0;
  };

  bool have_best_ = false;
  Hash256 best_priority_;
  PublicKey best_pk_;
  SimTime best_at_ = 0;
  std::unordered_map<Hash256, Received, FixedBytesHasher> bodies_;
  std::unordered_map<PublicKey, Hash256, FixedBytesHasher> body_of_;
  std::unordered_set<PublicKey, FixedBytesHasher> banned_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_PROPOSAL_BOOK_H_
