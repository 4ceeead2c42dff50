// StepTally tests: weighted counting, per-pk dedup, streaming leader
// semantics, and the common coin.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vote_counter.h"

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
    if (static_cast<double>(running[e.value] += e.weight) > threshold) {
      return e.value;
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

TEST(StepTallyTest, EntriesPreserveArrivalOrder) {
  StepTally t;
  t.AddVote(Pk(3), 1, Value(1), Sorthash(3));
  t.AddVote(Pk(1), 1, Value(1), Sorthash(1));
  t.AddVote(Pk(2), 1, Value(1), Sorthash(2));
  ASSERT_EQ(t.entries().size(), 3u);
  EXPECT_EQ(t.entries()[0].pk, Pk(3));
  EXPECT_EQ(t.entries()[1].pk, Pk(1));
  EXPECT_EQ(t.entries()[2].pk, Pk(2));
}

}  // namespace
}  // namespace algorand
