// StepTally tests: weighted counting, per-pk dedup, streaming leader
// semantics, and the common coin.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vote_counter.h"
#include "tests/reference_tally.h"

namespace algorand {
namespace {

PublicKey Pk(int i) {
  PublicKey pk;
  pk[0] = static_cast<uint8_t>(i);
  pk[1] = static_cast<uint8_t>(i >> 8);
  return pk;
}

VrfOutput Sorthash(int i) {
  VrfOutput h;
  h[0] = static_cast<uint8_t>(i);
  h[9] = static_cast<uint8_t>(i * 3);
  return h;
}

Hash256 Value(int i) {
  Hash256 v;
  v[0] = static_cast<uint8_t>(i);
  return v;
}

TEST(StepTallyTest, CountsWeights) {
  StepTally t;
  EXPECT_TRUE(t.AddVote(Pk(1), 3, Value(1), Sorthash(1)));
  EXPECT_TRUE(t.AddVote(Pk(2), 2, Value(1), Sorthash(2)));
  EXPECT_TRUE(t.AddVote(Pk(3), 1, Value(2), Sorthash(3)));
  EXPECT_EQ(t.CountFor(Value(1)), 5u);
  EXPECT_EQ(t.CountFor(Value(2)), 1u);
  EXPECT_EQ(t.CountFor(Value(9)), 0u);
  EXPECT_EQ(t.total_weight(), 6u);
  EXPECT_EQ(t.voter_count(), 3u);
}

TEST(StepTallyTest, RejectsDuplicateVoter) {
  StepTally t;
  EXPECT_TRUE(t.AddVote(Pk(1), 1, Value(1), Sorthash(1)));
  EXPECT_FALSE(t.AddVote(Pk(1), 1, Value(2), Sorthash(1)));  // Equivocation.
  EXPECT_EQ(t.CountFor(Value(2)), 0u);
}

TEST(StepTallyTest, RejectsZeroWeight) {
  StepTally t;
  EXPECT_FALSE(t.AddVote(Pk(1), 0, Value(1), Sorthash(1)));
  EXPECT_EQ(t.voter_count(), 0u);
}

TEST(StepTallyTest, LeaderRequiresStrictlyMoreThanThreshold) {
  StepTally t;
  t.AddVote(Pk(1), 5, Value(1), Sorthash(1));
  EXPECT_FALSE(t.Leader(5.0).has_value());  // 5 > 5 is false.
  t.AddVote(Pk(2), 1, Value(1), Sorthash(2));
  auto leader = t.Leader(5.0);
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(*leader, Value(1));
}

TEST(StepTallyTest, LeaderFollowsArrivalOrderOnAdversarialTies) {
  // Two values cross the threshold; the one that crossed first (in arrival
  // order) wins, matching the streaming CountVotes loop.
  StepTally t;
  t.AddVote(Pk(1), 3, Value(1), Sorthash(1));
  t.AddVote(Pk(2), 4, Value(2), Sorthash(2));  // Value 2 crosses at weight 4.
  t.AddVote(Pk(3), 2, Value(1), Sorthash(3));  // Value 1 crosses at weight 5.
  auto leader = t.Leader(3.5);
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(*leader, Value(2));
}

// The streaming CountVotes definition, replayed from scratch.
std::optional<Hash256> ReplayLeader(const std::vector<StepTally::Entry>& entries,
                                    double threshold) {
  std::map<Hash256, uint64_t> running;
  for (const StepTally::Entry& e : entries) {
    if (static_cast<double>(running[e.value()] += e.weight) > threshold) {
      return e.value();
    }
  }
  return std::nullopt;
}

TEST(StepTallyTest, ResumedLeaderMatchesReplayAtEveryPrefix) {
  // Randomized vote streams (repeat voters, zero weights, competing values),
  // with Leader() asked after every vote under a threshold that sometimes
  // changes and sometimes returns to an earlier value: the resumed scan must
  // equal a from-scratch replay of the prefix every time.
  DeterministicRng rng(23);
  const double thresholds[] = {2.5, 6.0, 9.0, 14.0};
  for (int trial = 0; trial < 200; ++trial) {
    StepTally t;
    double threshold = thresholds[rng.UniformU64(4)];
    for (int i = 0; i < 40; ++i) {
      t.AddVote(Pk(static_cast<int>(rng.UniformU64(30))), rng.UniformU64(4),
                Value(static_cast<int>(rng.UniformU64(3))), Sorthash(i));
      if (rng.UniformU64(5) == 0) {
        threshold = thresholds[rng.UniformU64(4)];
      }
      ASSERT_EQ(t.Leader(threshold), ReplayLeader(t.entries(), threshold))
          << "trial " << trial << " vote " << i << " threshold " << threshold;
      // Asking again (a repeat call) changes nothing.
      ASSERT_EQ(t.Leader(threshold), ReplayLeader(t.entries(), threshold));
    }
  }
}

TEST(StepTallyTest, EmptyTallyHasNoLeaderAndCoinZero) {
  StepTally t;
  EXPECT_FALSE(t.Leader(0.0).has_value());
  EXPECT_EQ(t.CommonCoin(), 0);
}

TEST(StepTallyTest, CommonCoinIsDeterministic) {
  StepTally a, b;
  for (int i = 0; i < 10; ++i) {
    a.AddVote(Pk(i), 2, Value(1), Sorthash(i));
    b.AddVote(Pk(i), 2, Value(1), Sorthash(i));
  }
  EXPECT_EQ(a.CommonCoin(), b.CommonCoin());
}

TEST(StepTallyTest, CommonCoinIndependentOfArrivalOrder) {
  StepTally a, b;
  for (int i = 0; i < 8; ++i) {
    a.AddVote(Pk(i), 1, Value(1), Sorthash(i));
  }
  for (int i = 7; i >= 0; --i) {
    b.AddVote(Pk(i), 1, Value(1), Sorthash(i));
  }
  EXPECT_EQ(a.CommonCoin(), b.CommonCoin());
}

TEST(StepTallyTest, CommonCoinRoughlyUnbiased) {
  // Across many single-voter tallies with different sorthashes, the coin
  // should land on both sides a reasonable number of times.
  int zeros = 0;
  for (int i = 0; i < 200; ++i) {
    StepTally t;
    t.AddVote(Pk(i), 1, Value(1), Sorthash(i));
    zeros += (t.CommonCoin() == 0);
  }
  EXPECT_GT(zeros, 60);
  EXPECT_LT(zeros, 140);
}

using VotePtr = std::shared_ptr<const VoteMessage>;

// Certificate selection as a node made it over the copy-based tally, from
// its store of the step's verified votes: each voter's first stored vote is
// the one the tally counted; walk
// the tally's entries for `value` until their weight exceeds `needed`.
std::vector<const VoteMessage*> ReferenceCertificate(const ReferenceTally& tally,
                                                     const std::vector<VotePtr>& stored,
                                                     const Hash256& value, double needed) {
  std::unordered_map<PublicKey, const VoteMessage*, FixedBytesHasher> counted;
  for (const VotePtr& vote : stored) {
    counted.try_emplace(vote->pk, vote.get());
  }
  std::vector<const VoteMessage*> out;
  double total = 0;
  for (const ReferenceTally::Entry& e : tally.entries()) {
    if (e.value != value) {
      continue;
    }
    out.push_back(counted.at(e.pk));
    if ((total += static_cast<double>(e.weight)) > needed) {
      break;
    }
  }
  return out;
}

// The same selection over the compact tally: its entries hold the messages.
std::vector<const VoteMessage*> Certificate(const StepTally& tally, const Hash256& value,
                                            double needed) {
  std::vector<const VoteMessage*> out;
  double total = 0;
  for (const StepTally::Entry& e : tally.entries()) {
    if (e.value() != value) {
      continue;
    }
    out.push_back(e.vote.get());
    if ((total += static_cast<double>(e.weight)) > needed) {
      break;
    }
  }
  return out;
}

TEST(StepTallyTest, CompactTallyMatchesCopyingReferenceAtEveryPrefix) {
  // Random vote streams (repeat voters, zero weights, 1-8 values, weights
  // 1-5) fed to the compact tally as shared messages and to the reference as
  // copied fields. After every vote both agree on the leader at several
  // thresholds, every value's count, the common coin, the total weight and
  // the certificate votes for each value.
  DeterministicRng rng(32);
  const double thresholds[] = {0.5, 3.0, 6.85, 11.0, 20.5};
  for (int trial = 0; trial < 150; ++trial) {
    const int values = 1 + static_cast<int>(rng.UniformU64(8));
    const int voters = 4 + static_cast<int>(rng.UniformU64(40));
    StepTally tally;
    ReferenceTally reference;
    std::vector<VotePtr> stored;
    for (int i = 0; i < 60; ++i) {
      auto vote = std::make_shared<VoteMessage>();
      vote->pk = Pk(static_cast<int>(rng.UniformU64(voters)));
      vote->value = Value(1 + static_cast<int>(rng.UniformU64(values)));
      vote->sorthash = Sorthash(static_cast<int>(rng.UniformU64(1000)));
      const uint64_t weight = rng.UniformU64(8) == 0 ? 0 : 1 + rng.UniformU64(5);
      if (weight > 0) {
        stored.push_back(vote);  // A node stored every verified vote (weight > 0).
      }
      ASSERT_EQ(tally.AddVote(vote, weight),
                reference.AddVote(vote->pk, weight, vote->value, vote->sorthash))
          << "trial " << trial << " vote " << i;
      ASSERT_EQ(tally.total_weight(), reference.total_weight());
      ASSERT_EQ(tally.CommonCoin(), reference.CommonCoin());
      for (double threshold : thresholds) {
        ASSERT_EQ(tally.Leader(threshold), reference.Leader(threshold))
            << "trial " << trial << " vote " << i << " threshold " << threshold;
      }
      for (int v = 0; v <= values + 1; ++v) {
        ASSERT_EQ(tally.CountFor(Value(v)), reference.CountFor(Value(v)));
        for (double needed : thresholds) {
          ASSERT_EQ(Certificate(tally, Value(v), needed),
                    ReferenceCertificate(reference, stored, Value(v), needed))
              << "trial " << trial << " vote " << i << " value " << v;
        }
      }
    }
    ASSERT_EQ(tally.entries().size(), reference.entries().size());
    for (size_t k = 0; k < tally.entries().size(); ++k) {
      const StepTally::Entry& e = tally.entries()[k];
      const ReferenceTally::Entry& r = reference.entries()[k];
      EXPECT_EQ(e.pk(), r.pk);
      EXPECT_EQ(e.value(), r.value);
      EXPECT_EQ(e.sorthash(), r.sorthash);
      EXPECT_EQ(e.weight, r.weight);
      EXPECT_EQ(e.running, r.running);
    }
  }
}

TEST(StepTallyTest, EntryIsCompact) {
  // A counted vote costs one shared pointer, its weight, its running count
  // and an interned value id: at most 40 bytes, against 144 for a copy of
  // pk, value and sorthash.
  EXPECT_LE(sizeof(StepTally::Entry), 40u);
  StepTally t;
  t.reserve(100);
  const size_t reserved = t.memory_bytes();
  EXPECT_GE(reserved, 100 * sizeof(StepTally::Entry));
  for (int i = 0; i < 100; ++i) {
    t.AddVote(Pk(i), 1, Value(i % 3), Sorthash(i));
  }
  // Three values: the value table grows, the reserved arrays do not.
  EXPECT_LE(t.memory_bytes(), reserved + 4 * (sizeof(Hash256) + sizeof(uint64_t)));
}

TEST(StepTallyTest, EntriesPreserveArrivalOrder) {
  StepTally t;
  t.AddVote(Pk(3), 1, Value(1), Sorthash(3));
  t.AddVote(Pk(1), 1, Value(1), Sorthash(1));
  t.AddVote(Pk(2), 1, Value(1), Sorthash(2));
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.entries()[0].pk(), Pk(3));
  EXPECT_EQ(t.entries()[1].pk(), Pk(1));
  EXPECT_EQ(t.entries()[2].pk(), Pk(2));
}

}  // namespace
}  // namespace algorand
