// Wire-message tests: serialization round trips, signatures, dedup identity,
// and the paper's claims about message sizes.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/catchup.h"
#include "src/core/certificate.h"
#include "src/core/messages.h"
#include "src/core/wire_codec.h"

namespace algorand {
namespace {

const Ed25519Signer kSigner;

Ed25519KeyPair KeyFromRng(DeterministicRng* rng) {
  FixedBytes<32> seed;
  rng->FillBytes(seed.data(), 32);
  return Ed25519KeyFromSeed(seed);
}

TEST(StepCodesTest, EncodingIsInjective) {
  EXPECT_NE(kStepReduction1, kStepReduction2);
  EXPECT_EQ(BinaryStepCode(1), kStepBinaryBase);
  EXPECT_EQ(BinaryStepCode(2), kStepBinaryBase + 1);
  EXPECT_LT(BinaryStepCode(150), kStepFinal);
}

TEST(VoteMessageTest, SerializeRoundTrip) {
  DeterministicRng rng(1);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfOutput sorthash;
  rng.FillBytes(sorthash.data(), sorthash.size());
  VrfProof proof;
  rng.FillBytes(proof.data(), proof.size());
  Hash256 prev, value;
  prev[0] = 1;
  value[0] = 2;

  VoteMessage v = MakeVote(kp, 7, kStepReduction1, sorthash, proof, prev, value, kSigner);
  auto bytes = v.Serialize();
  auto back = VoteMessage::Deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pk, kp.public_key);
  EXPECT_EQ(back->round, 7u);
  EXPECT_EQ(back->step, kStepReduction1);
  EXPECT_EQ(back->value, value);
  EXPECT_EQ(back->DedupId(), v.DedupId());
}

TEST(VoteMessageTest, SignatureCoversAllVotedFields) {
  DeterministicRng rng(2);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfOutput sorthash;
  VrfProof proof;
  Hash256 prev, value;
  VoteMessage v = MakeVote(kp, 1, 3, sorthash, proof, prev, value, kSigner);
  EXPECT_TRUE(kSigner.Verify(v.pk, v.SignedBody(), v.signature));
  VoteMessage tampered = v;
  tampered.value[0] ^= 1;
  EXPECT_FALSE(kSigner.Verify(tampered.pk, tampered.SignedBody(), tampered.signature));
  tampered = v;
  tampered.round += 1;
  EXPECT_FALSE(kSigner.Verify(tampered.pk, tampered.SignedBody(), tampered.signature));
  tampered = v;
  tampered.step += 1;
  EXPECT_FALSE(kSigner.Verify(tampered.pk, tampered.SignedBody(), tampered.signature));
  tampered = v;
  tampered.prev_hash[0] ^= 1;
  EXPECT_FALSE(kSigner.Verify(tampered.pk, tampered.SignedBody(), tampered.signature));
}

TEST(VoteMessageTest, WireSizeIsSmall) {
  // The paper gossips votes as small messages (~200-300 bytes plus framing).
  VoteMessage v;
  EXPECT_LE(v.WireSize(), 350u);
  EXPECT_GE(v.WireSize(), 200u);
}

TEST(VoteMessageTest, DeserializeRejectsTruncation) {
  VoteMessage v;
  auto bytes = v.Serialize();
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(VoteMessage::Deserialize(bytes).has_value());
}

TEST(VoteMessageTest, DistinctVotesDistinctDedupIds) {
  DeterministicRng rng(3);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfOutput sorthash;
  VrfProof proof;
  Hash256 prev, a, b;
  a[0] = 1;
  b[0] = 2;
  VoteMessage va = MakeVote(kp, 1, 3, sorthash, proof, prev, a, kSigner);
  VoteMessage vb = MakeVote(kp, 1, 3, sorthash, proof, prev, b, kSigner);
  EXPECT_NE(va.DedupId(), vb.DedupId());
}

TEST(PriorityMessageTest, SerializeRoundTripAndSize) {
  DeterministicRng rng(4);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfOutput sorthash;
  rng.FillBytes(sorthash.data(), sorthash.size());
  VrfProof proof;
  PriorityMessage m = MakePriorityMessage(kp, 9, sorthash, proof, 3, kSigner);
  auto back = PriorityMessage::Deserialize(m.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->round, 9u);
  EXPECT_EQ(back->sub_users, 3u);
  // "The first kind of message is small (about 200 Bytes)" (§6).
  EXPECT_LE(m.WireSize(), 300u);
}

TEST(PriorityMessageTest, SignatureCoversCredentials) {
  DeterministicRng rng(5);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  VrfOutput sorthash;
  VrfProof proof;
  PriorityMessage m = MakePriorityMessage(kp, 9, sorthash, proof, 3, kSigner);
  EXPECT_TRUE(kSigner.Verify(m.pk, m.SignedBody(), m.signature));
  m.sub_users = 99;
  EXPECT_FALSE(kSigner.Verify(m.pk, m.SignedBody(), m.signature));
}

TEST(BlockMessageTest, DedupIdIsBlockHash) {
  BlockMessage m;
  m.block.round = 5;
  EXPECT_EQ(m.DedupId(), m.block.Hash());
  EXPECT_EQ(m.WireSize(), m.block.WireSize());
}

TEST(BlockRequestTest, DedupDistinguishesRequesters) {
  BlockRequestMessage a, b;
  a.round = b.round = 3;
  a.requester = 1;
  b.requester = 2;
  EXPECT_NE(a.DedupId(), b.DedupId());
}

TEST(CertificateTest, WireSizeSumsVotes) {
  Certificate cert;
  EXPECT_EQ(cert.WireSize(), 8u + 4 + 32 + 4);  // Round, step, hash, vote count.
  cert.votes.push_back(std::make_shared<const VoteMessage>());
  uint64_t one = cert.WireSize();
  EXPECT_EQ(one, 48 + 4 + VoteMessage::kWireSize);  // Each vote is length-prefixed.
  cert.votes.push_back(std::make_shared<const VoteMessage>());
  EXPECT_EQ(cert.WireSize(), 2 * (one - 48) + 48);
}

// --- Wire-size constants vs actual serialization ---
//
// Fixed-layout messages report kWireSize without serializing; these asserts
// keep the constants honest if a field is ever added.

TEST(WireSizeConstantsTest, MatchSerializedSizes) {
  VoteMessage v;
  EXPECT_EQ(VoteMessage::kWireSize, v.Serialize().size());
  EXPECT_EQ(v.WireSize(), v.Serialize().size());

  PriorityMessage p;
  EXPECT_EQ(PriorityMessage::kWireSize, p.Serialize().size());
  EXPECT_EQ(p.WireSize(), p.Serialize().size());

  BlockRequestMessage r;
  EXPECT_EQ(BlockRequestMessage::kWireSize, r.Serialize().size());
  EXPECT_EQ(r.WireSize(), r.Serialize().size());

  CatchupRequestMessage c;
  EXPECT_EQ(CatchupRequestMessage::kWireSize, c.Serialize().size());
  EXPECT_EQ(c.WireSize(), c.Serialize().size());
}

// --- Memoized message identity ---

TEST(MessageMemoTest, DedupIdIsStableAndCopiesRecompute) {
  DeterministicRng rng(23);
  VoteMessage v;
  v.round = 5;
  v.step = 2;
  rng.FillBytes(v.pk.data(), v.pk.size());
  Hash256 id = v.DedupId();
  EXPECT_EQ(v.DedupId(), id);  // Memoized value is stable.

  // A copy starts with a cold cache: mutating it before the first DedupId
  // call must yield the new identity, not the source's memo.
  VoteMessage changed = v;
  changed.round = 6;
  EXPECT_NE(changed.DedupId(), id);

  VoteMessage same = v;
  EXPECT_EQ(same.DedupId(), id);

  // Same contract through assignment onto an already-warm message.
  VoteMessage target;
  target.DedupId();
  target = changed;
  target.round = 7;
  EXPECT_NE(target.DedupId(), changed.DedupId());
}

TEST(MessageMemoTest, EncodedWireIsMemoizedPerMessage) {
  VoteMessage v;
  v.round = 3;
  const std::vector<uint8_t>& a = EncodeMessageCached(v);
  const std::vector<uint8_t>& b = EncodeMessageCached(v);
  EXPECT_EQ(&a, &b);  // Second call returns the same buffer, no re-encode.
  EXPECT_EQ(a, EncodeMessage(v));
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace algorand
