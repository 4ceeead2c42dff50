// Unit tests for the BA* state machine, driven by a fake environment with
// synthetic votes (no network, no sortition).
#include <gtest/gtest.h>

#include <vector>

#include "src/core/ba_star.h"
#include "src/core/vote_counter.h"
#include "src/netsim/simulation.h"

namespace algorand {
namespace {

struct FakeEnv : BaEnvironment {
  struct Cast {
    uint32_t step;
    double tau;
    Hash256 value;
  };

  void CastVote(uint32_t step_code, double tau, const Hash256& value) override {
    casts.push_back({step_code, tau, value});
  }
  void ScheduleAfter(SimTime delay, std::function<void()> fn) override {
    sim.Schedule(delay, std::move(fn));
  }
  SimTime Now() const override { return sim.now(); }

  bool DidCast(uint32_t step, const Hash256& value) const {
    for (const Cast& c : casts) {
      if (c.step == step && c.value == value) {
        return true;
      }
    }
    return false;
  }

  Simulation sim;
  std::vector<Cast> casts;
};

PublicKey Pk(int i) {
  PublicKey pk;
  pk[0] = static_cast<uint8_t>(i);
  pk[1] = static_cast<uint8_t>(i >> 8);
  return pk;
}

VrfOutput Sorthash(int i) {
  VrfOutput h;
  h[0] = static_cast<uint8_t>(i * 37 + 1);
  h[5] = static_cast<uint8_t>(i);
  return h;
}

// Small committees keep thresholds tiny: tau_step = 10, T = 0.685 -> need
// weighted votes > 6.85 (i.e. 7). tau_final = 20, T_final = 0.74 -> > 14.8.
ProtocolParams TestParams() {
  ProtocolParams p = ProtocolParams::Paper();
  p.tau_step = 10;
  p.tau_final = 20;
  p.max_steps = 9;
  return p;
}

struct BaFixture {
  BaFixture() : params(TestParams()) {
    ba = std::make_unique<BaStar>(params, &env, [this](const BaResult& r) {
      completed = true;
      result = r;
    });
    block[0] = 0xaa;
    empty[0] = 0xee;
  }

  // Feeds `n` unit-weight votes for `value` in `step`.
  void Votes(uint32_t step, const Hash256& value, int n, int first_voter = 0) {
    for (int i = 0; i < n; ++i) {
      ba->OnVote(step, Pk(first_voter + i), 1, value, Sorthash(first_voter + i));
    }
  }

  ProtocolParams params;
  FakeEnv env;
  std::unique_ptr<BaStar> ba;
  bool completed = false;
  BaResult result;
  Hash256 block, empty;
};

TEST(BaStarTest, HappyPathReachesFinalConsensus) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  // Committee votes arrive for reduction step 1 and 2, then binary step 1,
  // then the final step.
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(BinaryStepCode(1), f.block, 8);
  f.Votes(kStepFinal, f.block, 16);
  ASSERT_TRUE(f.completed);
  EXPECT_EQ(f.result.value, f.block);
  EXPECT_TRUE(f.result.final);
  EXPECT_FALSE(f.result.hung);
  EXPECT_EQ(f.result.binary_steps, 1);
  EXPECT_EQ(f.result.deciding_step, BinaryStepCode(1));
}

TEST(BaStarTest, CastsOwnVotesPerStep) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  EXPECT_TRUE(f.env.DidCast(kStepReduction1, f.block));
  f.Votes(kStepReduction1, f.block, 8);
  EXPECT_TRUE(f.env.DidCast(kStepReduction2, f.block));
  f.Votes(kStepReduction2, f.block, 8);
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(1), f.block));
}

TEST(BaStarTest, ConsensusInFirstStepTriggersFinalVoteAndVoteAhead) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(BinaryStepCode(1), f.block, 8);
  // Vote-ahead for the next three steps plus the special final vote.
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(2), f.block));
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(3), f.block));
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(4), f.block));
  EXPECT_TRUE(f.env.DidCast(kStepFinal, f.block));
}

TEST(BaStarTest, ConsensusBeyondFirstStepIsNeverFinal) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  // Step 1 times out; step 2... timeouts roll r to block_hash then empty.
  // Feed step 4 (a new step A: steps are 1=A,2=B,3=C,4=A) with block votes.
  // Steps time out at 20 s, 40 s, 60 s; at 61 s the machine sits in step 4.
  f.env.sim.RunUntil(Seconds(61));
  f.Votes(BinaryStepCode(4), f.block, 8);
  // Even with enough final votes the result must be tentative: the final
  // vote is only cast from binary step 1.
  f.Votes(kStepFinal, f.block, 16);
  ASSERT_TRUE(f.completed);
  EXPECT_EQ(f.result.value, f.block);
  EXPECT_TRUE(f.result.final);  // Final votes did arrive (cast by others).
  EXPECT_GT(f.result.binary_steps, 1);
}

TEST(BaStarTest, NoFinalVotesMeansTentative) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(BinaryStepCode(1), f.block, 8);
  EXPECT_FALSE(f.completed);       // Waiting on the final-step count.
  f.env.sim.RunUntil(Minutes(5));  // Final step times out.
  ASSERT_TRUE(f.completed);
  EXPECT_EQ(f.result.value, f.block);
  EXPECT_FALSE(f.result.final);
}

TEST(BaStarTest, FinalVotesForDifferentValueMeansTentative) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(BinaryStepCode(1), f.block, 8);
  f.Votes(kStepFinal, f.empty, 16);  // Final quorum on a different value.
  ASSERT_TRUE(f.completed);
  EXPECT_FALSE(f.result.final);
}

TEST(BaStarTest, ReductionTimeoutFallsBackToEmpty) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  // Nobody votes in reduction step 1: after the timeout the machine must
  // vote for the empty hash in reduction step 2.
  f.env.sim.RunUntil(f.params.lambda_block + f.params.lambda_step + Seconds(1));
  EXPECT_TRUE(f.env.DidCast(kStepReduction2, f.empty));
}

TEST(BaStarTest, ConsensusOnEmptyInStepB) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.empty, 8);
  f.Votes(kStepReduction2, f.empty, 8);
  // Binary step 1 (A): empty crosses threshold -> no return, moves to B.
  f.Votes(BinaryStepCode(1), f.empty, 8);
  // Step 2 (B): empty again -> return empty.
  f.Votes(BinaryStepCode(2), f.empty, 8);
  f.env.sim.RunUntil(Minutes(5));  // Final count times out.
  ASSERT_TRUE(f.completed);
  EXPECT_EQ(f.result.value, f.empty);
  EXPECT_FALSE(f.result.final);
  EXPECT_EQ(f.result.binary_steps, 2);
  EXPECT_EQ(f.result.deciding_step, BinaryStepCode(2));
}

TEST(BaStarTest, HangsAfterMaxStepsWithoutVotes) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.env.sim.RunUntil(Hours(2));  // Everything times out, all steps consumed.
  ASSERT_TRUE(f.completed);
  EXPECT_TRUE(f.result.hung);
  EXPECT_GE(f.result.binary_steps, f.params.max_steps - 1);
}

TEST(BaStarTest, EarlyVotesBufferUntilStepEntered) {
  BaFixture f;
  // All votes arrive before Start (e.g. this node lagged behind).
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(BinaryStepCode(1), f.block, 8);
  f.Votes(kStepFinal, f.block, 16);
  EXPECT_FALSE(f.completed);
  f.ba->Start(f.block, f.empty);
  ASSERT_TRUE(f.completed);
  EXPECT_TRUE(f.result.final);
  EXPECT_EQ(f.result.value, f.block);
}

TEST(BaStarTest, DuplicateVotersCountedOnce) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  // Seven votes from the same pk must not cross the 6.85 threshold.
  for (int i = 0; i < 7; ++i) {
    f.ba->OnVote(kStepReduction1, Pk(1), 1, f.block, Sorthash(1));
  }
  EXPECT_FALSE(f.completed);
  const StepTally* tally = f.ba->TallyFor(kStepReduction1);
  ASSERT_NE(tally, nullptr);
  EXPECT_EQ(tally->CountFor(f.block), 1u);
}

TEST(BaStarTest, WeightedVotesCountWithMultiplicity) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  // One committee member selected 7 times crosses the threshold alone.
  f.ba->OnVote(kStepReduction1, Pk(1), 7, f.block, Sorthash(1));
  const StepTally* tally = f.ba->TallyFor(kStepReduction1);
  EXPECT_EQ(tally->CountFor(f.block), 7u);
  ASSERT_FALSE(f.completed);
  f.ba->OnVote(kStepReduction1, Pk(2), 1, f.block, Sorthash(2));
  EXPECT_TRUE(f.env.DidCast(kStepReduction2, f.block));
}

TEST(BaStarTest, TimeoutInStepAVotesCandidateNext) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  // Binary step 1 times out: per Algorithm 8 the next vote is block_hash.
  f.env.sim.RunUntil(f.env.sim.now() + f.params.lambda_step + Seconds(1));
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(2), f.block));
}

TEST(BaStarTest, TimeoutInStepBVotesEmptyNext) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.env.sim.RunUntil(Hours(1));  // Time out steps A then B then C...
  // After B's timeout the machine votes empty in step C.
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(3), f.empty));
}

// Parks the fixture's machine the way Node::BeginAgreement does, from inside
// its own completion handler: a fresh machine takes the slot, the old one
// stays alive (its frames are still on the stack) and releases its tallies.
struct ParkingFixture : BaFixture {
  ParkingFixture() {
    ba = std::make_unique<BaStar>(params, &env, [this](const BaResult& r) {
      completed = true;
      result = r;
      parked = std::move(ba);
      ba = std::make_unique<BaStar>(params, &env, [](const BaResult&) {});
      ba->ReserveTallies(parked->ReleaseTallies());
      parked_bytes = parked->TallyBytes();
    });
  }
  std::unique_ptr<BaStar> parked;
  size_t parked_bytes = 1;
};

TEST(BaStarTest, ReleaseInsideCallbackWhenTheDecidingVoteArrives) {
  // The final-step quorum's last vote arrives through OnVote and completes
  // the machine, whose handler parks it and frees its tallies while OnVote's
  // frame is still on the stack. Sanitizer builds fail here if any frame
  // reads a released tally.
  ParkingFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(BinaryStepCode(1), f.block, 8);
  f.Votes(kStepFinal, f.block, 14);  // One short of > 14.8.
  ASSERT_FALSE(f.completed);
  f.Votes(kStepFinal, f.block, 1, /*first_voter=*/14);
  ASSERT_TRUE(f.completed);
  EXPECT_TRUE(f.result.final);
  EXPECT_EQ(f.parked_bytes, 0u);
  EXPECT_EQ(f.parked->TallyFor(kStepFinal), nullptr);
  // The machine in the slot counts from scratch.
  f.Votes(kStepReduction1, f.block, 3, /*first_voter=*/100);
  ASSERT_NE(f.ba->TallyFor(kStepReduction1), nullptr);
  EXPECT_EQ(f.ba->TallyFor(kStepReduction1)->voter_count(), 3u);
}

TEST(BaStarTest, ReleaseInsideCallbackWhenFinalVotesAreAlreadyIn) {
  // The final-step votes arrive before binary step 1 decides, so the
  // deciding binary vote enters FinishBinary's wait, which completes at once
  // from the buffered tally: the handler frees the tallies under the
  // WaitCountVotes, FinishBinary, step-continuation and OnVote frames.
  ParkingFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  f.Votes(kStepFinal, f.block, 16);
  f.Votes(BinaryStepCode(1), f.block, 6);  // One short of > 6.85.
  ASSERT_FALSE(f.completed);
  f.Votes(BinaryStepCode(1), f.block, 1, /*first_voter=*/6);
  ASSERT_TRUE(f.completed);
  EXPECT_TRUE(f.result.final);
  EXPECT_EQ(f.result.deciding_step, BinaryStepCode(1));
  EXPECT_EQ(f.parked_bytes, 0u);
  EXPECT_EQ(f.parked->TallyFor(BinaryStepCode(1)), nullptr);
}

TEST(BaStarTest, ReleasedSizesReserveTheNextMachinesTallies) {
  BaFixture f;
  f.Votes(kStepReduction1, f.block, 40);
  f.Votes(kStepFinal, f.block, 8);
  const BaStar::StepSizes sizes = f.ba->ReleaseTallies();
  EXPECT_EQ(sizes, (BaStar::StepSizes{{kStepReduction1, 40}, {kStepFinal, 8}}));
  EXPECT_EQ(f.ba->TallyBytes(), 0u);
  BaStar next(f.params, &f.env, [](const BaResult&) {});
  next.ReserveTallies(sizes);
  next.OnVote(kStepReduction1, Pk(1), 1, f.block, Sorthash(1));
  const size_t reserved = next.TallyBytes();
  EXPECT_GE(reserved, 40 * sizeof(StepTally::Entry));
  for (int i = 2; i <= 40; ++i) {
    next.OnVote(kStepReduction1, Pk(i), 1, f.block, Sorthash(i));
  }
  EXPECT_EQ(next.TallyBytes(), reserved);  // No regrowth up to the reserve.
}

TEST(BaStarTest, CoinStepFollowsCommonCoin) {
  BaFixture f;
  f.ba->Start(f.block, f.empty);
  f.Votes(kStepReduction1, f.block, 8);
  f.Votes(kStepReduction2, f.block, 8);
  // Let step A and B time out, then feed step C (code 3) with a single
  // below-threshold vote whose sorthash determines the coin.
  SimTime t0 = f.env.sim.now();
  f.env.sim.RunUntil(t0 + 2 * f.params.lambda_step + Seconds(1));  // A, B timed out.
  VrfOutput coin_hash = Sorthash(42);
  f.ba->OnVote(BinaryStepCode(3), Pk(42), 1, f.block, coin_hash);
  // Compute the expected coin from a mirror tally.
  StepTally mirror;
  mirror.AddVote(Pk(42), 1, f.block, coin_hash);
  int coin = mirror.CommonCoin();
  f.env.sim.RunUntil(f.env.sim.now() + f.params.lambda_step + Seconds(1));  // C times out.
  const Hash256 expected = coin == 0 ? f.block : f.empty;
  EXPECT_TRUE(f.env.DidCast(BinaryStepCode(4), expected));
}

}  // namespace
}  // namespace algorand
