#include "src/core/messages.h"

#include "src/crypto/sha256.h"

namespace algorand {

std::vector<uint8_t> VoteMessage::SignedBody() const {
  Writer w;
  w.U64(round);
  w.U32(step);
  w.Fixed(sorthash);
  w.Fixed(sort_proof);
  w.Fixed(prev_hash);
  w.Fixed(value);
  return w.Take();
}

std::vector<uint8_t> VoteMessage::Serialize() const {
  Writer w;
  w.Fixed(pk);
  w.Raw(SignedBody());
  w.Fixed(signature);
  return w.Take();
}

std::optional<VoteMessage> VoteMessage::Deserialize(std::span<const uint8_t> data) {
  return DecodeExactly<VoteMessage>(data, [](Reader& r, VoteMessage& m) {
    m.pk = r.Fixed<32>();
    m.round = r.U64();
    m.step = r.U32();
    m.sorthash = r.Fixed<64>();
    m.sort_proof = r.Fixed<80>();
    m.prev_hash = r.Fixed<32>();
    m.value = r.Fixed<32>();
    m.signature = r.Fixed<64>();
  });
}

std::vector<uint8_t> PriorityMessage::SignedBody() const {
  Writer w;
  w.U64(round);
  w.Fixed(sorthash);
  w.Fixed(sort_proof);
  w.U64(sub_users);
  return w.Take();
}

std::vector<uint8_t> PriorityMessage::Serialize() const {
  Writer w;
  w.Fixed(pk);
  w.Raw(SignedBody());
  w.Fixed(signature);
  return w.Take();
}

std::optional<PriorityMessage> PriorityMessage::Deserialize(std::span<const uint8_t> data) {
  return DecodeExactly<PriorityMessage>(data, [](Reader& r, PriorityMessage& m) {
    m.pk = r.Fixed<32>();
    m.round = r.U64();
    m.sorthash = r.Fixed<64>();
    m.sort_proof = r.Fixed<80>();
    m.sub_users = r.U64();
    m.signature = r.Fixed<64>();
  });
}

std::optional<BlockMessage> BlockMessage::Deserialize(std::span<const uint8_t> data) {
  std::optional<Block> block = Block::Deserialize(data);
  if (!block) {
    return std::nullopt;
  }
  BlockMessage m;
  m.block = std::move(*block);
  return m;
}

std::vector<uint8_t> BlockRequestMessage::Serialize() const {
  Writer w;
  w.U64(round);
  w.Fixed(block_hash);
  w.U32(requester);
  return w.Take();
}

std::optional<BlockRequestMessage> BlockRequestMessage::Deserialize(
    std::span<const uint8_t> data) {
  return DecodeExactly<BlockRequestMessage>(data, [](Reader& r, BlockRequestMessage& m) {
    m.round = r.U64();
    m.block_hash = r.Fixed<32>();
    m.requester = r.U32();
  });
}

std::optional<TransactionMessage> TransactionMessage::Deserialize(std::span<const uint8_t> data) {
  Reader r(data);
  auto tx = Transaction::Deserialize(&r);
  if (!tx || !r.AtEnd()) {
    return std::nullopt;
  }
  TransactionMessage m;
  m.tx = std::move(*tx);
  return m;
}

std::vector<uint8_t> RecoveryProposalMessage::SignedBody() const {
  Writer w;
  w.U64(code);
  w.Fixed(sorthash);
  w.Fixed(sort_proof);
  w.Fixed(block.Hash());
  w.U32(static_cast<uint32_t>(suffix.size()));
  for (const Block& b : suffix) {
    w.Fixed(b.Hash());
  }
  return w.Take();
}

uint64_t RecoveryProposalMessage::ComputeWireSize() const {
  uint64_t size = 32 + 8 + 64 + 80 + 64 + block.WireSize();
  for (const Block& b : suffix) {
    size += b.WireSize();
  }
  return size;
}

Hash256 RecoveryProposalMessage::ComputeDedupId() const { return Sha256::Hash(SignedBody()); }

std::vector<uint8_t> RecoveryProposalMessage::Serialize() const {
  Writer w;
  w.Fixed(pk);
  w.U64(code);
  w.Fixed(sorthash);
  w.Fixed(sort_proof);
  w.Bytes(block.Serialize());
  w.U32(static_cast<uint32_t>(suffix.size()));
  for (const Block& b : suffix) {
    w.Bytes(b.Serialize());
  }
  w.Fixed(signature);
  return w.Take();
}

std::optional<RecoveryProposalMessage> RecoveryProposalMessage::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  RecoveryProposalMessage m;
  m.pk = r.Fixed<32>();
  m.code = r.U64();
  m.sorthash = r.Fixed<64>();
  m.sort_proof = r.Fixed<80>();
  auto block_bytes = r.Bytes();
  auto block = Block::Deserialize(block_bytes);
  if (!block) {
    return std::nullopt;
  }
  m.block = std::move(*block);
  uint32_t n = r.U32();
  if (!r.ok() || n > data.size()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    auto sb = r.Bytes();
    auto suffix_block = Block::Deserialize(sb);
    if (!suffix_block) {
      return std::nullopt;
    }
    m.suffix.push_back(std::move(*suffix_block));
  }
  m.signature = r.Fixed<64>();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

VoteMessage MakeVote(const Ed25519KeyPair& key, uint64_t round, uint32_t step,
                     const VrfOutput& sorthash, const VrfProof& sort_proof,
                     const Hash256& prev_hash, const Hash256& value, const SignerBackend& signer) {
  VoteMessage m;
  m.pk = key.public_key;
  m.round = round;
  m.step = step;
  m.sorthash = sorthash;
  m.sort_proof = sort_proof;
  m.prev_hash = prev_hash;
  m.value = value;
  m.signature = signer.Sign(key, m.SignedBody());
  return m;
}

PriorityMessage MakePriorityMessage(const Ed25519KeyPair& key, uint64_t round,
                                    const VrfOutput& sorthash, const VrfProof& sort_proof,
                                    uint64_t sub_users, const SignerBackend& signer) {
  PriorityMessage m;
  m.pk = key.public_key;
  m.round = round;
  m.sorthash = sorthash;
  m.sort_proof = sort_proof;
  m.sub_users = sub_users;
  m.signature = signer.Sign(key, m.SignedBody());
  return m;
}

}  // namespace algorand
