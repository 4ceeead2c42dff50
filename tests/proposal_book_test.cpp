// ProposalBook alone: the §6 rules for one round's proposals — the best
// priority, each proposer's body, equivocation bans and which bodies stay
// fetchable — without a node, a network or a simulator.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/messages.h"
#include "src/core/proposal_book.h"
#include "src/crypto/sha256.h"

namespace algorand {
namespace {

PublicKey Key(const std::string& name) { return Sha256::Hash("pk " + name); }

// Priorities compare as hashes: a smaller one beats a larger one.
Hash256 Priority(uint8_t first_byte) {
  Hash256 p;
  p[0] = first_byte;
  return p;
}

// A block message from `proposer`; `stamp` tells its bodies apart.
std::shared_ptr<const BlockMessage> Body(const PublicKey& proposer, SimTime stamp) {
  auto msg = std::make_shared<BlockMessage>();
  msg->block.round = 7;
  msg->block.proposer = proposer;
  msg->block.timestamp = stamp;
  return msg;
}

ProposalBook::Offer Offer(ProposalBook* book, const std::shared_ptr<const BlockMessage>& msg,
                          const Hash256& priority, SimTime now) {
  return book->OfferBody(msg->block.proposer, msg->DedupId(), msg, priority, now);
}

TEST(ProposalBookTest, TheBestPriorityLeadsAndItsBodyIsTheCandidate) {
  ProposalBook book;
  const PublicKey a = Key("a");
  const PublicKey b = Key("b");
  EXPECT_TRUE(book.Leads(Priority(9)));
  EXPECT_FALSE(book.Outranked(Priority(9)));
  book.OfferPriority(a, Priority(5), 10);
  EXPECT_TRUE(book.have_best());
  EXPECT_EQ(book.best_at(), 10);
  EXPECT_EQ(book.LeaderBody(), nullptr) << "a's body has not arrived";
  EXPECT_FALSE(book.Leads(Priority(5))) << "a tie does not lead";
  EXPECT_TRUE(book.Outranked(Priority(6)));

  // b's body is held but does not lead; a's body, once here, is the candidate.
  const auto body_b = Body(b, 1);
  EXPECT_EQ(Offer(&book, body_b, Priority(6), 20), ProposalBook::Offer::kStored);
  EXPECT_EQ(book.LeaderBody(), nullptr);
  EXPECT_EQ(book.best_at(), 10);
  const auto body_a = Body(a, 2);
  EXPECT_EQ(Offer(&book, body_a, Priority(5), 30), ProposalBook::Offer::kStored);
  ASSERT_NE(book.LeaderBody(), nullptr);
  EXPECT_EQ(*book.LeaderBody(), body_a->DedupId());
  EXPECT_EQ(book.ReceivedAt(body_a->DedupId()), 30);
  EXPECT_EQ(book.ReceivedAt(body_b->DedupId()), 20);
  // The book holds the very message that carried each body: no copy.
  EXPECT_EQ(book.Find<BlockMessage>(body_b->DedupId()), body_b.get());

  // A better priority implied by a body takes the lead with its arrival time.
  const PublicKey c = Key("c");
  const auto body_c = Body(c, 3);
  EXPECT_EQ(Offer(&book, body_c, Priority(1), 40), ProposalBook::Offer::kStored);
  EXPECT_EQ(*book.LeaderBody(), body_c->DedupId());
  EXPECT_EQ(book.best_at(), 40);

  book.Clear();
  EXPECT_FALSE(book.have_best());
  EXPECT_EQ(book.Find<BlockMessage>(body_c->DedupId()), nullptr);
}

TEST(ProposalBookTest, ABannedProposersFirstBodyIsStillServed) {
  ProposalBook book;
  const PublicKey p = Key("p");
  const auto first = Body(p, 1);
  const auto second = Body(p, 2);
  const auto third = Body(p, 3);
  book.OfferPriority(Key("q"), Priority(1), 5);  // Someone else leads.
  EXPECT_EQ(Offer(&book, first, Priority(4), 10), ProposalBook::Offer::kStored);
  EXPECT_EQ(Offer(&book, first, Priority(4), 11), ProposalBook::Offer::kStored)
      << "the same body again is no equivocation";
  EXPECT_EQ(Offer(&book, second, Priority(4), 12), ProposalBook::Offer::kEquivocated);
  EXPECT_EQ(Offer(&book, third, Priority(4), 13), ProposalBook::Offer::kBanned);
  // A block request for the first body finds it; the later ones were dropped.
  EXPECT_EQ(book.Find<BlockMessage>(first->DedupId()), first.get());
  EXPECT_EQ(book.ReceivedAt(first->DedupId()), 10);
  EXPECT_EQ(book.Find<BlockMessage>(second->DedupId()), nullptr);
  EXPECT_EQ(book.Find<BlockMessage>(third->DedupId()), nullptr);
  // A non-leader's equivocation leaves the best priority alone.
  EXPECT_TRUE(book.have_best());
  EXPECT_EQ(book.best_at(), 5);
}

TEST(ProposalBookTest, TheAgreedBodyIsKeptWhileItIsFetched) {
  ProposalBook book;
  const PublicKey p = Key("p");
  const auto first = Body(p, 1);
  const auto agreed = Body(p, 2);
  EXPECT_EQ(Offer(&book, first, Priority(3), 10), ProposalBook::Offer::kStored);
  EXPECT_EQ(Offer(&book, Body(p, 3), Priority(3), 11), ProposalBook::Offer::kLeaderBanned);
  // BA* agreed on another of p's bodies; the fetched copy is refused as a
  // candidate but kept, so the round can end on it.
  EXPECT_EQ(Offer(&book, agreed, Priority(3), 20), ProposalBook::Offer::kBanned);
  EXPECT_EQ(book.Find<BlockMessage>(agreed->DedupId()), nullptr);
  book.Keep(agreed->DedupId(), agreed, 20);
  EXPECT_EQ(book.Find<BlockMessage>(agreed->DedupId()), agreed.get());
  EXPECT_EQ(book.LeaderBody(), nullptr) << "kept, but never a candidate";
  EXPECT_FALSE(book.have_best());
}

// The leader's equivocation forgets the best priority: the book has no
// candidate left, and kLeaderBanned is the node's cue to take the empty
// block at once while it waits for the leader's body.
TEST(ProposalBookTest, TheLeadersEquivocationForgetsTheBestPriority) {
  ProposalBook book;
  const PublicKey leader = Key("leader");
  const PublicKey other = Key("other");
  book.OfferPriority(leader, Priority(1), 10);
  EXPECT_EQ(Offer(&book, Body(other, 1), Priority(2), 11), ProposalBook::Offer::kStored);
  EXPECT_EQ(Offer(&book, Body(leader, 2), Priority(1), 12), ProposalBook::Offer::kStored);
  ASSERT_NE(book.LeaderBody(), nullptr);
  EXPECT_EQ(Offer(&book, Body(leader, 3), Priority(1), 13), ProposalBook::Offer::kLeaderBanned);
  EXPECT_FALSE(book.have_best());
  EXPECT_EQ(book.LeaderBody(), nullptr);
  // The banned leader's priority no longer counts; the next one leads anew.
  book.OfferPriority(leader, Priority(1), 14);
  EXPECT_FALSE(book.have_best());
  EXPECT_TRUE(book.Leads(Priority(200)));
  book.OfferPriority(other, Priority(2), 15);
  ASSERT_NE(book.LeaderBody(), nullptr);
  EXPECT_EQ(*book.LeaderBody(), Body(other, 1)->DedupId());
}

}  // namespace
}  // namespace algorand
