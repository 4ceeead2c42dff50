// Adversarial certificate tests: forged votes, non-committee voters,
// duplicate voters, threshold boundaries (§8.3); and the certificates nodes
// hold after a harness round: their bytes, and the votes they share.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/core/catchup.h"
#include "src/core/certificate.h"
#include "src/core/fastsync.h"
#include "src/core/sim_harness.h"
#include "src/crypto/sha256.h"
#include "tests/certificate_edit.h"

namespace algorand {
namespace {

const Ed25519Signer kSigner;
const SimVrf kVrf;  // Deterministic and cheap; certificate logic is the same.

struct CertFixture {
  CertFixture() {
    DeterministicRng rng(1234, "cert-keys");
    for (int i = 0; i < 60; ++i) {
      FixedBytes<32> seed;
      rng.FillBytes(seed.data(), 32);
      keys.push_back(Ed25519KeyFromSeed(seed));
    }
    params = ProtocolParams::Paper();
    params.tau_step = 40;    // Threshold 27.4.
    params.tau_final = 100;  // Threshold 74.

    ctx.round = 5;
    DeterministicRng srng(1234, "cert-seed");
    srng.FillBytes(ctx.seed.data(), ctx.seed.size());
    ctx.prev_hash[0] = 0x77;
    ctx.total_weight = 60 * 1000;
    ctx.weight_of = [](const PublicKey&) { return 1000u; };

    value[0] = 0x42;
  }

  // Builds a valid certificate for `step` by collecting genuinely selected
  // committee members until the threshold is passed.
  Certificate BuildValid(uint32_t step, double tau, double threshold) {
    Certificate cert;
    cert.round = ctx.round;
    cert.step = step;
    cert.block_hash = value;
    double total = 0;
    for (const auto& key : keys) {
      SortitionResult sort = RunSortition(kVrf, key, ctx.seed, tau, Role::kCommittee, ctx.round,
                                          step, 1000, ctx.total_weight);
      if (sort.votes == 0) {
        continue;
      }
      cert.votes.push_back(std::make_shared<const VoteMessage>(MakeVote(
          key, ctx.round, step, sort.hash, sort.proof, ctx.prev_hash, value, kSigner)));
      total += static_cast<double>(sort.votes);
      if (total > threshold) {
        break;
      }
    }
    return cert;
  }

  std::vector<Ed25519KeyPair> keys;
  ProtocolParams params;
  RoundContext ctx;
  Hash256 value;
};

TEST(CertificateTest, ValidCertificatePasses) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  EXPECT_TRUE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, ValidFinalCertificatePasses) {
  CertFixture f;
  Certificate cert = f.BuildValid(kStepFinal, f.params.tau_final, f.params.FinalThreshold());
  EXPECT_TRUE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsWrongRound) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  RoundContext other = f.ctx;
  other.round = 6;
  EXPECT_FALSE(ValidateCertificate(cert, other, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsWrongPrevHash) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  RoundContext other = f.ctx;
  other.prev_hash[0] ^= 1;
  EXPECT_FALSE(ValidateCertificate(cert, other, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsForgedSignature) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  ForgeVote(&cert, cert.votes.size() - 1);
  EXPECT_FALSE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsNonCommitteeVoter) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  // Re-sign a vote with credentials from a different step (valid VRF, wrong
  // context): sortition verification must fail.
  const auto& key = f.keys[0];
  SortitionResult wrong_step = RunSortition(kVrf, key, f.ctx.seed, f.params.tau_step,
                                            Role::kCommittee, f.ctx.round, 4, 1000,
                                            f.ctx.total_weight);
  cert.votes.back() = std::make_shared<const VoteMessage>(MakeVote(
      key, f.ctx.round, 3, wrong_step.hash, wrong_step.proof, f.ctx.prev_hash, f.value, kSigner));
  EXPECT_FALSE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsDuplicateVoters) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  cert.votes.push_back(cert.votes.front());
  EXPECT_FALSE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsMixedValues) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  // Also breaks the signature, but the value check fires first either way.
  EditVote(&cert, cert.votes.size() - 1, [](VoteMessage& v) { v.value[0] ^= 1; });
  EXPECT_FALSE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsBelowThreshold) {
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  // Keep only the first vote: far below the threshold.
  cert.votes.resize(1);
  EXPECT_FALSE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, RejectsFinalCertWithStepCommittee) {
  // Votes selected for an ordinary step cannot certify the final step: the
  // final step's sortition uses tau_final, so the proofs don't verify there.
  CertFixture f;
  Certificate cert = f.BuildValid(3, f.params.tau_step, f.params.StepThreshold());
  cert.step = kStepFinal;
  for (size_t i = 0; i < cert.votes.size(); ++i) {
    // Breaks signatures too; both checks protect.
    EditVote(&cert, i, [](VoteMessage& v) { v.step = kStepFinal; });
  }
  EXPECT_FALSE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

TEST(CertificateTest, WeightsOfHeavyUsersCountMultiply) {
  // A certificate can be carried by few heavy voters: give one key most of
  // the stake so it gets many sub-votes.
  CertFixture f;
  f.ctx.weight_of = [&f](const PublicKey& pk) {
    return pk == f.keys[0].public_key ? 50000u : 100u;
  };
  f.ctx.total_weight = 50000 + 59 * 100;
  Certificate cert;
  cert.round = f.ctx.round;
  cert.step = 3;
  cert.block_hash = f.value;
  SortitionResult sort = RunSortition(kVrf, f.keys[0], f.ctx.seed, f.params.tau_step,
                                      Role::kCommittee, f.ctx.round, 3, 50000,
                                      f.ctx.total_weight);
  ASSERT_GT(sort.votes, static_cast<uint64_t>(f.params.StepThreshold()));
  cert.votes.push_back(std::make_shared<const VoteMessage>(MakeVote(
      f.keys[0], f.ctx.round, 3, sort.hash, sort.proof, f.ctx.prev_hash, f.value, kSigner)));
  EXPECT_TRUE(ValidateCertificate(cert, f.ctx, f.params, kVrf, kSigner));
}

// A 10-node run through round 1 (sim crypto, uniform latency, seed 41).
// A certificate's simulated wire size is its serialized size, vote count and
// each vote's length prefix included, and so is that of every message that
// carries certificates: a catch-up response adds only its blocks' simulated
// padding, and fast-sync links carry certificates as serialized bytes.
TEST(CertificateTest, WireSizeIsTheSerializedSize) {
  CertFixture f;
  EXPECT_EQ(Certificate{}.WireSize(), Certificate{}.Serialize().size());
  const Certificate cert = f.BuildValid(2, f.params.tau_step, f.params.StepThreshold());
  const Certificate final_cert =
      f.BuildValid(kStepFinal, f.params.tau_final, f.params.FinalThreshold());
  ASSERT_GE(cert.votes.size(), 2u);
  EXPECT_EQ(cert.WireSize(), cert.Serialize().size());
  EXPECT_EQ(final_cert.WireSize(), final_cert.Serialize().size());

  Block padded = Block::MakeEmpty(5, f.ctx.prev_hash, SeedBytes{});
  padded.padding_bytes = 1000;
  for (bool with_final : {false, true}) {
    CatchupResponseMessage resp;
    resp.entries.push_back({padded, cert});
    resp.entries.push_back({Block::MakeEmpty(6, padded.Hash(), SeedBytes{}), Certificate{}});
    if (with_final) {
      resp.final_cert = final_cert;
    }
    EXPECT_EQ(resp.WireSize(), resp.Serialize().size() + padded.padding_bytes) << with_final;
  }

  FastSyncLinksResponse links;
  ChainLink link;
  link.round = 5;
  link.cert = cert.Serialize();
  links.links.push_back(link.SerializePayload());
  links.links.push_back(ChainLink{}.SerializePayload());
  EXPECT_EQ(links.WireSize(), links.Serialize().size());
}

HarnessConfig RoundOneConfig() {
  HarnessConfig cfg;
  cfg.n_nodes = 10;
  cfg.rng_seed = 41;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 8 * 1024;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.use_sim_crypto = true;
  cfg.verify_workers = 0;
  return cfg;
}

// SHA-256 of node 0's round-1 certificate bytes, recorded while
// certificates still held copies of their votes.
constexpr char kGoldenRoundOneCertificate[] =
    "5e6ad40e23c49bd7ee592051fb432b773a169a533004f2eef3e91a3a6775ccaa";

TEST(CertificateTest, HarnessCertificateKeepsItsBytesAndRoundTrips) {
  SimHarness h(RoundOneConfig());
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  const Certificate& cert = h.node(0).certificates().at(1);
  const std::vector<uint8_t> bytes = cert.Serialize();
  EXPECT_EQ(Sha256::Hash(bytes).ToHex(), kGoldenRoundOneCertificate);

  std::optional<Certificate> decoded = Certificate::Deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->round, cert.round);
  EXPECT_EQ(decoded->step, cert.step);
  EXPECT_EQ(decoded->block_hash, cert.block_hash);
  ASSERT_EQ(decoded->votes.size(), cert.votes.size());
  for (size_t i = 0; i < cert.votes.size(); ++i) {
    EXPECT_EQ(decoded->votes[i]->Serialize(), cert.votes[i]->Serialize()) << "vote " << i;
  }
  EXPECT_EQ(decoded->Serialize(), bytes);
}

TEST(CertificateTest, HonestNodesCertifyTheSameVoteObjects) {
  SimHarness h(RoundOneConfig());
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  // The first vote object seen for each voter, and how many certificates
  // name that voter.
  std::map<PublicKey, const VoteMessage*> first;
  std::map<PublicKey, size_t> named;
  for (size_t i = 0; i < h.node_count(); ++i) {
    const Certificate& cert = h.node(i).certificates().at(1);
    ASSERT_FALSE(cert.votes.empty()) << "node " << i;
    for (const auto& vote : cert.votes) {
      auto [it, inserted] = first.emplace(vote->pk, vote.get());
      EXPECT_EQ(it->second, vote.get()) << "node " << i << " holds its own copy of a vote";
      ++named[vote->pk];
    }
  }
  // Voters certified by more than one node make the comparison bite.
  size_t shared = 0;
  for (const auto& [pk, count] : named) {
    shared += count > 1 ? 1 : 0;
  }
  EXPECT_GT(shared, 0u);
}

}  // namespace
}  // namespace algorand
