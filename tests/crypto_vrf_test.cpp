// ECVRF and SimVrf behavioural tests: prove/verify round trips, uniqueness,
// tamper rejection, backend equivalence of the interface contract.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/rng.h"
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

class VrfBackendTest : public ::testing::TestWithParam<const VrfBackend*> {};

const EcVrf kEcVrf;
const SimVrf kSimVrf;

TEST_P(VrfBackendTest, ProveVerifyRoundTrip) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(200);
  for (int i = 0; i < 5; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    auto alpha = BytesOfString("round-" + std::to_string(i));
    VrfResult res = vrf->Prove(kp, alpha);
    auto verified = vrf->Verify(kp.public_key, alpha, res.proof);
    ASSERT_TRUE(verified.has_value());
    EXPECT_EQ(*verified, res.output);
  }
}

TEST_P(VrfBackendTest, OutputIsDeterministic) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(201);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto alpha = BytesOfString("same input");
  VrfResult a = vrf->Prove(kp, alpha);
  VrfResult b = vrf->Prove(kp, alpha);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.proof, b.proof);
}

TEST_P(VrfBackendTest, DifferentInputsGiveDifferentOutputs) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(202);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  std::set<VrfOutput> outputs;
  for (int i = 0; i < 20; ++i) {
    auto alpha = BytesOfString("alpha-" + std::to_string(i));
    outputs.insert(vrf->Prove(kp, alpha).output);
  }
  EXPECT_EQ(outputs.size(), 20u);
}

TEST_P(VrfBackendTest, DifferentKeysGiveDifferentOutputs) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(203);
  auto alpha = BytesOfString("shared alpha");
  std::set<VrfOutput> outputs;
  for (int i = 0; i < 20; ++i) {
    outputs.insert(vrf->Prove(KeyFromRng(&rng), alpha).output);
  }
  EXPECT_EQ(outputs.size(), 20u);
}

TEST_P(VrfBackendTest, VerifyRejectsWrongAlpha) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(204);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfResult res = vrf->Prove(kp, BytesOfString("alpha A"));
  EXPECT_FALSE(vrf->Verify(kp.public_key, BytesOfString("alpha B"), res.proof).has_value());
}

TEST_P(VrfBackendTest, VerifyRejectsWrongKey) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(205);
  Ed25519KeyPair kp1 = KeyFromRng(&rng);
  Ed25519KeyPair kp2 = KeyFromRng(&rng);
  auto alpha = BytesOfString("alpha");
  VrfResult res = vrf->Prove(kp1, alpha);
  EXPECT_FALSE(vrf->Verify(kp2.public_key, alpha, res.proof).has_value());
}

TEST_P(VrfBackendTest, VerifyRejectsTamperedProof) {
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(206);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto alpha = BytesOfString("tamper");
  VrfResult res = vrf->Prove(kp, alpha);
  for (size_t i = 0; i < res.proof.size(); i += 11) {
    VrfProof bad = res.proof;
    bad[i] ^= 0x01;
    EXPECT_FALSE(vrf->Verify(kp.public_key, alpha, bad).has_value()) << "flip at byte " << i;
  }
}

TEST_P(VrfBackendTest, OutputBitsLookUniform) {
  // Count ones across many outputs; expect close to half. This is a smoke
  // test of the "essentially uniformly distributed" property sortition needs.
  const VrfBackend* vrf = GetParam();
  DeterministicRng rng(207);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  int ones = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    VrfOutput out = vrf->Prove(kp, BytesOfString("uniform-" + std::to_string(i))).output;
    for (size_t b = 0; b < out.size(); ++b) {
      ones += __builtin_popcount(out[b]);
      total += 8;
    }
  }
  double frac = static_cast<double>(ones) / total;
  EXPECT_NEAR(frac, 0.5, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Backends, VrfBackendTest, ::testing::Values(&kEcVrf, &kSimVrf),
                         [](const ::testing::TestParamInfo<const VrfBackend*>& info) {
                           return std::string(info.param->name());
                         });

TEST(EcVrfTest, ProofIsEightyBytes) {
  DeterministicRng rng(210);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfResult res = EcVrfProve(kp, BytesOfString("size"));
  EXPECT_EQ(res.proof.size(), 80u);
  EXPECT_EQ(res.output.size(), 64u);
}

TEST(EcVrfTest, VerifyRejectsAllZeroProof) {
  DeterministicRng rng(211);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfProof zero;
  EXPECT_FALSE(EcVrfVerify(kp.public_key, BytesOfString("x"), zero).has_value());
}

TEST(EcVrfTest, ProofsFromDifferentMessagesDiffer) {
  DeterministicRng rng(212);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfResult a = EcVrfProve(kp, BytesOfString("m1"));
  VrfResult b = EcVrfProve(kp, BytesOfString("m2"));
  EXPECT_NE(a.proof, b.proof);
}

// The double-scalar verify must agree with the legacy four-multiplication
// verify: same beta on valid proofs, same rejection on corrupted ones.
TEST(EcVrfTest, LegacyDecisionParity) {
  DeterministicRng rng(214);
  for (int i = 0; i < 3; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    auto alpha = BytesOfString("parity-" + std::to_string(i));
    VrfResult res = EcVrfProve(kp, alpha);
    auto fast = EcVrfVerify(kp.public_key, alpha, res.proof);
    auto legacy = EcVrfVerifyLegacy(kp.public_key, alpha, res.proof);
    ASSERT_TRUE(fast.has_value());
    ASSERT_TRUE(legacy.has_value());
    EXPECT_EQ(*fast, *legacy);
    EXPECT_EQ(*fast, res.output);
    // Corrupt each of the proof's three components in turn: Gamma (0..31),
    // c (32..47), s (48..79).
    for (size_t b : {size_t{0}, size_t{33}, size_t{50}, size_t{79}}) {
      VrfProof bad = res.proof;
      bad[b] ^= 1;
      EXPECT_EQ(EcVrfVerify(kp.public_key, alpha, bad).has_value(),
                EcVrfVerifyLegacy(kp.public_key, alpha, bad).has_value())
          << "corruption at byte " << b;
      EXPECT_FALSE(EcVrfVerify(kp.public_key, alpha, bad).has_value())
          << "corruption at byte " << b;
    }
    // Wrong alpha and wrong key must reject identically.
    auto wrong_alpha = BytesOfString("other");
    EXPECT_FALSE(EcVrfVerify(kp.public_key, wrong_alpha, res.proof).has_value());
    EXPECT_FALSE(EcVrfVerifyLegacy(kp.public_key, wrong_alpha, res.proof).has_value());
    Ed25519KeyPair other = KeyFromRng(&rng);
    EXPECT_EQ(EcVrfVerify(other.public_key, alpha, res.proof).has_value(),
              EcVrfVerifyLegacy(other.public_key, alpha, res.proof).has_value());
  }
}

TEST(SimVrfTest, MatchesKeyedHashContract) {
  // SimVrf output must depend only on (pk, alpha), so two key pairs with the
  // same public key (impossible in practice, but the contract matters for
  // caching) verify against each other's outputs.
  DeterministicRng rng(213);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  SimVrf vrf;
  VrfResult res = vrf.Prove(kp, BytesOfString("contract"));
  auto again = vrf.Verify(kp.public_key, BytesOfString("contract"), res.proof);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, res.output);
}

}  // namespace
}  // namespace algorand
