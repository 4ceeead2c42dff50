// Cryptographic sortition tests (§5): selection statistics, proportionality,
// Sybil-splitting invariance, prove/verify agreement, and priorities.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sortition.h"
#include "src/crypto/vrf.h"

namespace algorand {

// Prints a backend parameter by name rather than by address, so the
// discovered test names do not change from one build to the next.
// Found by argument-dependent lookup, hence outside the unnamed namespace.
static void PrintTo(const VrfBackend* backend, std::ostream* os) { *os << backend->name(); }

namespace {

Ed25519KeyPair KeyFromRng(DeterministicRng* rng) {
  FixedBytes<32> seed;
  rng->FillBytes(seed.data(), 32);
  return Ed25519KeyFromSeed(seed);
}

VrfOutput OutputFromRng(DeterministicRng* rng) {
  VrfOutput out;
  rng->FillBytes(out.data(), out.size());
  return out;
}

SeedBytes SeedFromRng(DeterministicRng* rng) {
  SeedBytes s;
  rng->FillBytes(s.data(), s.size());
  return s;
}

TEST(HashToFractionTest, RangeAndMonotonicity) {
  VrfOutput zero;
  EXPECT_EQ(HashToFraction(zero), 0.0L);

  VrfOutput max;
  for (size_t i = 0; i < max.size(); ++i) {
    max[i] = 0xff;
  }
  EXPECT_LT(HashToFraction(max), 1.0L);
  EXPECT_GT(HashToFraction(max), 0.9999L);

  VrfOutput half;
  half[0] = 0x80;
  EXPECT_EQ(HashToFraction(half), 0.5L);
}

TEST(SelectSubUsersTest, ZeroWeightNeverSelected) {
  DeterministicRng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SelectSubUsers(OutputFromRng(&rng), 0, 0.5), 0u);
  }
}

TEST(SelectSubUsersTest, ZeroProbabilityNeverSelected) {
  DeterministicRng rng(2);
  EXPECT_EQ(SelectSubUsers(OutputFromRng(&rng), 1000, 0.0), 0u);
}

TEST(SelectSubUsersTest, ProbabilityOneSelectsAll) {
  DeterministicRng rng(3);
  EXPECT_EQ(SelectSubUsers(OutputFromRng(&rng), 17, 1.0), 17u);
}

TEST(SelectSubUsersTest, NeverExceedsWeight) {
  DeterministicRng rng(4);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(SelectSubUsers(OutputFromRng(&rng), 5, 0.9), 5u);
  }
}

TEST(SelectSubUsersTest, ExpectationMatchesBinomialMean) {
  // E[j] should be w*p. 20k uniform draws give a tight estimate.
  DeterministicRng rng(5);
  const uint64_t w = 100;
  const double p = 0.02;  // mean 2.
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(SelectSubUsers(OutputFromRng(&rng), w, p));
  }
  double mean = sum / n;
  // sigma of the estimate: sqrt(w p (1-p) / n) ~ 0.01.
  EXPECT_NEAR(mean, w * p, 0.06);
}

TEST(SelectSubUsersTest, VarianceMatchesBinomial) {
  DeterministicRng rng(6);
  const uint64_t w = 50;
  const double p = 0.1;
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double j = static_cast<double>(SelectSubUsers(OutputFromRng(&rng), w, p));
    sum += j;
    sumsq += j * j;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(var, w * p * (1 - p), 0.25);
}

TEST(SelectSubUsersTest, SybilSplittingDoesNotAmplify) {
  // B(k1;n1,p) + B(k2;n2,p) convolves to B(k1+k2;n1+n2,p): splitting weight w
  // into two pseudonyms leaves the total selected count distribution
  // unchanged. Compare empirical means of whole vs. split users.
  DeterministicRng rng(7);
  const double p = 0.01;
  const int n = 20000;
  double whole = 0, split = 0;
  for (int i = 0; i < n; ++i) {
    whole += static_cast<double>(SelectSubUsers(OutputFromRng(&rng), 200, p));
    split += static_cast<double>(SelectSubUsers(OutputFromRng(&rng), 120, p)) +
             static_cast<double>(SelectSubUsers(OutputFromRng(&rng), 80, p));
  }
  EXPECT_NEAR(whole / n, split / n, 0.1);
}

TEST(SelectSubUsersTest, TinyProbabilityLargeWeightIsStable) {
  // Exercises the log-space recurrence: w*p = 2 with w = 2e6.
  DeterministicRng rng(8);
  const uint64_t w = 2000000;
  const double p = 1e-6;
  double sum = 0;
  const int n = 3000;
  uint64_t max_j = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t j = SelectSubUsers(OutputFromRng(&rng), w, p);
    sum += static_cast<double>(j);
    max_j = std::max(max_j, j);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.15);
  EXPECT_LT(max_j, 20u);  // Poisson(2) tail.
}

TEST(SelectSubUsersTest, DeterministicGivenHash) {
  DeterministicRng rng(9);
  VrfOutput h = OutputFromRng(&rng);
  EXPECT_EQ(SelectSubUsers(h, 100, 0.05), SelectSubUsers(h, 100, 0.05));
}

TEST(SelectSubUsersTest, MonotoneInHashFraction) {
  // A larger hash fraction can only select >= sub-users (the CDF walk).
  VrfOutput lo, hi;
  lo[0] = 0x10;
  hi[0] = 0xf0;
  EXPECT_LE(SelectSubUsers(lo, 100, 0.3), SelectSubUsers(hi, 100, 0.3));
}

class SortitionBackendTest : public ::testing::TestWithParam<const VrfBackend*> {};

const EcVrf kEc;
const SimVrf kSim;

TEST_P(SortitionBackendTest, VerifyMatchesProve) {
  const VrfBackend& vrf = *GetParam();
  DeterministicRng rng(10);
  SeedBytes seed = SeedFromRng(&rng);
  for (int i = 0; i < 5; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    SortitionResult res =
        RunSortition(vrf, kp, seed, /*tau=*/500, Role::kCommittee, /*round=*/7, /*step=*/i,
                     /*weight=*/1000, /*total_weight=*/10000);
    uint64_t votes = VerifySortition(vrf, kp.public_key, res.hash, res.proof, seed, 500,
                                     Role::kCommittee, 7, static_cast<uint32_t>(i), 1000, 10000);
    EXPECT_EQ(votes, res.votes);
  }
}

TEST_P(SortitionBackendTest, VerifyRejectsWrongRole) {
  const VrfBackend& vrf = *GetParam();
  DeterministicRng rng(11);
  SeedBytes seed = SeedFromRng(&rng);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  SortitionResult res = RunSortition(vrf, kp, seed, 500, Role::kCommittee, 7, 1, 1000, 10000);
  EXPECT_EQ(VerifySortition(vrf, kp.public_key, res.hash, res.proof, seed, 500, Role::kProposer, 7,
                            1, 1000, 10000),
            0u);
}

TEST_P(SortitionBackendTest, VerifyRejectsWrongRoundStepSeed) {
  const VrfBackend& vrf = *GetParam();
  DeterministicRng rng(12);
  SeedBytes seed = SeedFromRng(&rng);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  SortitionResult res = RunSortition(vrf, kp, seed, 500, Role::kCommittee, 7, 1, 1000, 10000);
  ASSERT_GT(res.votes, 0u);  // weight 1000/10000, tau 500 -> expect 50; j=0 vanishingly unlikely.
  EXPECT_EQ(VerifySortition(vrf, kp.public_key, res.hash, res.proof, seed, 500, Role::kCommittee,
                            8, 1, 1000, 10000),
            0u);
  EXPECT_EQ(VerifySortition(vrf, kp.public_key, res.hash, res.proof, seed, 500, Role::kCommittee,
                            7, 2, 1000, 10000),
            0u);
  SeedBytes other_seed = SeedFromRng(&rng);
  EXPECT_EQ(VerifySortition(vrf, kp.public_key, res.hash, res.proof, other_seed, 500,
                            Role::kCommittee, 7, 1, 1000, 10000),
            0u);
}

TEST_P(SortitionBackendTest, VerifyRejectsWrongKey) {
  const VrfBackend& vrf = *GetParam();
  DeterministicRng rng(13);
  SeedBytes seed = SeedFromRng(&rng);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  Ed25519KeyPair other = KeyFromRng(&rng);
  SortitionResult res = RunSortition(vrf, kp, seed, 500, Role::kCommittee, 7, 1, 1000, 10000);
  EXPECT_EQ(VerifySortition(vrf, other.public_key, res.hash, res.proof, seed, 500,
                            Role::kCommittee, 7, 1, 1000, 10000),
            0u);
}

TEST_P(SortitionBackendTest, SelectionProportionalToWeight) {
  // A user with 3x the stake should collect ~3x the sub-user selections
  // across many (round, step) draws.
  const VrfBackend& vrf = *GetParam();
  DeterministicRng rng(14);
  SeedBytes seed = SeedFromRng(&rng);
  Ed25519KeyPair small = KeyFromRng(&rng);
  Ed25519KeyPair big = KeyFromRng(&rng);
  const uint64_t total = 40000;
  uint64_t small_votes = 0, big_votes = 0;
  const int rounds = 400;
  for (int r = 0; r < rounds; ++r) {
    small_votes += RunSortition(vrf, small, seed, 100, Role::kCommittee,
                                static_cast<uint64_t>(r), 0, 1000, total)
                       .votes;
    big_votes += RunSortition(vrf, big, seed, 100, Role::kCommittee, static_cast<uint64_t>(r), 0,
                              3000, total)
                     .votes;
  }
  // Expected: small 2.5/round -> 1000 total; big 7.5/round -> 3000 total.
  double ratio = static_cast<double>(big_votes) / static_cast<double>(small_votes);
  EXPECT_NEAR(ratio, 3.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Backends, SortitionBackendTest, ::testing::Values(&kEc, &kSim),
                         [](const ::testing::TestParamInfo<const VrfBackend*>& info) {
                           return std::string(info.param->name());
                         });

TEST(SortitionTest, ZeroTotalWeightSelectsNobody) {
  DeterministicRng rng(15);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  SeedBytes seed = SeedFromRng(&rng);
  SimVrf vrf;
  SortitionResult res = RunSortition(vrf, kp, seed, 100, Role::kCommittee, 1, 1, 0, 0);
  EXPECT_EQ(res.votes, 0u);
}

TEST(SortitionAlphaTest, DistinctInputsDistinctAlpha) {
  SeedBytes seed;
  auto a = SortitionAlpha(seed, Role::kCommittee, 1, 2);
  auto b = SortitionAlpha(seed, Role::kCommittee, 1, 3);
  auto c = SortitionAlpha(seed, Role::kCommittee, 2, 2);
  auto d = SortitionAlpha(seed, Role::kProposer, 1, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(b, c);
}

TEST(PriorityTest, PriorityIsMinOverSubUsers) {
  DeterministicRng rng(16);
  VrfOutput h = OutputFromRng(&rng);
  Hash256 p1 = ProposalPriority(h, 1);
  Hash256 p5 = ProposalPriority(h, 5);
  // More sub-users can only improve (lower) the priority value.
  EXPECT_LE(p5, p1);
}

TEST(PriorityTest, DeterministicAndDistinct) {
  DeterministicRng rng(17);
  VrfOutput h1 = OutputFromRng(&rng);
  VrfOutput h2 = OutputFromRng(&rng);
  EXPECT_EQ(ProposalPriority(h1, 3), ProposalPriority(h1, 3));
  EXPECT_NE(ProposalPriority(h1, 3), ProposalPriority(h2, 3));
}

TEST(PriorityTest, BeatsComparatorIsStrictOrder) {
  Hash256 a, b;
  a[0] = 1;
  b[0] = 2;
  EXPECT_TRUE(PriorityBeats(a, b));
  EXPECT_FALSE(PriorityBeats(b, a));
  EXPECT_FALSE(PriorityBeats(a, a));
}

// --- Cached-vs-uncached CDF equivalence ---
//
// The LRU CDF tables must be invisible: every (hash, weight, p) must select
// exactly the same sub-user count through the cache as through the raw
// recurrence, or deterministic replays diverge.

TEST(SortitionCdfCacheTest, CachedMatchesUncachedAcrossParameterSweep) {
  DeterministicRng rng(11);
  const uint64_t weights[] = {1, 2, 10, 100, 1000, 50000};
  const double ps[] = {1e-7, 1e-4, 0.01, 0.3, 0.97};
  for (uint64_t w : weights) {
    for (double p : ps) {
      for (int i = 0; i < 200; ++i) {
        VrfOutput h = OutputFromRng(&rng);
        ASSERT_EQ(SelectSubUsers(h, w, p), SelectSubUsersUncached(h, w, p))
            << "weight=" << w << " p=" << p << " trial=" << i;
      }
    }
  }
}

TEST(SortitionCdfCacheTest, CachedMatchesUncachedOnTruncatedTables) {
  // weight * p far past kSortitionCdfMaxTableEntries: the precomputed table
  // is truncated and the lookup resumes the recurrence from the stored tail.
  const uint64_t w = 100000;
  const double p = 0.5;
  DeterministicRng rng(13);
  for (int i = 0; i < 25; ++i) {
    VrfOutput h = OutputFromRng(&rng);
    uint64_t cached = SelectSubUsers(h, w, p);
    ASSERT_EQ(cached, SelectSubUsersUncached(h, w, p)) << "trial=" << i;
    // Sanity: the selections land far beyond the table (mean w*p = 50000).
    EXPECT_GT(cached, kSortitionCdfMaxTableEntries);
  }
}

TEST(SortitionCdfCacheTest, CachedMatchesUncachedAtScenarioTauThresholds) {
  // The exact (weight, p) pairs the model checker's threshold-equivocation
  // scenario runs at: 8 nodes x 1000 stake (W = 8000) under
  // ScaledCommittees(0.02), so p = tau/W for tau_proposer 5, tau_step 40,
  // tau_final 200 — the committee draws whose CDF boundaries the at-threshold
  // attack leans on. A cached/uncached disagreement here would let a replayed
  // counterexample elect a different committee than the recorded run.
  DeterministicRng rng(23);
  const uint64_t weights[] = {1000, 8000};
  const double ps[] = {5.0 / 8000.0, 40.0 / 8000.0, 200.0 / 8000.0};
  for (uint64_t w : weights) {
    for (double p : ps) {
      for (int i = 0; i < 400; ++i) {
        VrfOutput h = OutputFromRng(&rng);
        ASSERT_EQ(SelectSubUsers(h, w, p), SelectSubUsersUncached(h, w, p))
            << "weight=" << w << " p=" << p << " trial=" << i;
      }
    }
  }
}

TEST(SortitionCdfCacheTest, RepeatLookupsHitTheCache) {
  DeterministicRng rng(19);
  VrfOutput h = OutputFromRng(&rng);
  // A parameter pair no other test uses, so the first lookup is a miss.
  const uint64_t w = 777;
  const double p = 0.0123;
  SortitionCdfCacheStats before = GetSortitionCdfCacheStats();
  SelectSubUsers(h, w, p);
  SortitionCdfCacheStats mid = GetSortitionCdfCacheStats();
  EXPECT_GE(mid.misses, before.misses + 1);
  SelectSubUsers(OutputFromRng(&rng), w, p);
  SortitionCdfCacheStats after = GetSortitionCdfCacheStats();
  EXPECT_GE(after.hits, mid.hits + 1);
  EXPECT_EQ(after.misses, mid.misses);
  EXPECT_GT(after.entries, 0u);
}

}  // namespace
}  // namespace algorand
