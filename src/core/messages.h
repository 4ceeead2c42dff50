// Wire messages of the Algorand protocol.
//
// Step numbering on the wire: the two Reduction steps and the special `final`
// step get reserved codes; BinaryBA* steps 1..MaxSteps map to codes starting
// at kStepBinaryBase. Committees are selected per (round, wire step), so any
// injective encoding works as long as every node uses the same one.
#ifndef ALGORAND_SRC_CORE_MESSAGES_H_
#define ALGORAND_SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signer.h"
#include "src/ledger/block.h"
#include "src/netsim/message.h"

namespace algorand {

// Recovery sessions (§8.2) vote with round numbers that have the top bit
// set, so they can never collide with ordinary chain rounds.
constexpr uint64_t kRecoveryRoundBit = 1ULL << 63;

constexpr uint32_t kStepReduction1 = 1;
constexpr uint32_t kStepReduction2 = 2;
constexpr uint32_t kStepBinaryBase = 3;  // BinaryBA* step s -> code s + 2.
constexpr uint32_t kStepFinal = 0xffffffff;

inline uint32_t BinaryStepCode(int step) { return kStepBinaryBase + static_cast<uint32_t>(step) - 1; }

// Every protocol message kind: the classes below, plus the catch-up
// (catchup.h) and fast-sync (fastsync.h) requests and responses. The value is
// SimMessage::kind(), the wire codec's 1-byte frame tag and the index of the
// gossip per-kind counters, so it is wire format: never renumber.
enum class MessageKind : uint8_t {
  kVote = 1,
  kPriority = 2,
  kBlock = 3,
  kBlockRequest = 4,
  kRecoveryProposal = 5,
  kTransaction = 6,
  kCatchupRequest = 7,
  kCatchupResponse = 8,
  kFastSyncManifestRequest = 9,
  kFastSyncManifestResponse = 10,
  kFastSyncLinksRequest = 11,
  kFastSyncLinksResponse = 12,
  kFastSyncChunkRequest = 13,
  kFastSyncChunkResponse = 14,
};

inline MessageKind KindOf(const SimMessage& msg) { return static_cast<MessageKind>(msg.kind()); }

// Base of every protocol message class: names the class's kind once, as
// `kKind`, and hands it to SimMessage.
template <MessageKind K>
class ProtocolMessage : public SimMessage {
 public:
  static constexpr MessageKind kKind = K;

  ProtocolMessage() : SimMessage(static_cast<uint8_t>(K)) {}

 protected:
  // The defaults: the size and hash of the wire bytes. Messages that are
  // big or hot size themselves by arithmetic; blocks, payments and recovery
  // proposals have a narrower identity.
  uint64_t ComputeWireSize() const override { return Serialize().size(); }
  Hash256 ComputeDedupId() const override { return Sha256::Hash(Serialize()); }
};

// Committee vote (Algorithm 4): the signed payload covers round, step, the
// sortition credentials, the previous-block hash binding the vote to a chain,
// and the value voted for. ~316 bytes on the wire, matching the paper's
// "about 200 bytes" small-message claim.
class VoteMessage : public ProtocolMessage<MessageKind::kVote> {
 public:
  // Fixed layout: pk || round || step || sorthash || sort_proof || prev_hash
  // || value || signature. Tests assert this equals Serialize().size().
  static constexpr uint64_t kWireSize = 32 + 8 + 4 + 64 + 80 + 32 + 32 + 64;

  PublicKey pk;
  uint64_t round = 0;
  uint32_t step = 0;
  VrfOutput sorthash;
  VrfProof sort_proof;
  Hash256 prev_hash;
  Hash256 value;
  Signature signature;

  std::vector<uint8_t> SignedBody() const;
  std::vector<uint8_t> Serialize() const override;
  static std::optional<VoteMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "vote"; }

 protected:
  uint64_t ComputeWireSize() const override { return kWireSize; }
};

// First proposal message (§6): small, carries only the proposer's priority
// credentials so the network quickly learns who won.
class PriorityMessage : public ProtocolMessage<MessageKind::kPriority> {
 public:
  // Fixed layout: pk || round || sorthash || sort_proof || sub_users || sig.
  static constexpr uint64_t kWireSize = 32 + 8 + 64 + 80 + 8 + 64;

  PublicKey pk;
  uint64_t round = 0;
  VrfOutput sorthash;
  VrfProof sort_proof;
  uint64_t sub_users = 0;  // j from sortition; priority is derived.
  Signature signature;

  std::vector<uint8_t> SignedBody() const;
  std::vector<uint8_t> Serialize() const override;
  static std::optional<PriorityMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "priority"; }

 protected:
  uint64_t ComputeWireSize() const override { return kWireSize; }
};

// Second proposal message: the full block (§6). The block embeds the
// proposer's sortition credentials.
class BlockMessage : public ProtocolMessage<MessageKind::kBlock> {
 public:
  Block block;

  std::vector<uint8_t> Serialize() const override { return block.Serialize(); }
  static std::optional<BlockMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "block"; }

 protected:
  uint64_t ComputeWireSize() const override { return block.WireSize(); }
  Hash256 ComputeDedupId() const override { return block.Hash(); }
};

// Request for a block pre-image after BA* agreed on a hash the node never
// received (BlockOfHash in Algorithm 3). Answered point-to-point with a
// BlockMessage.
class BlockRequestMessage : public ProtocolMessage<MessageKind::kBlockRequest> {
 public:
  static constexpr uint64_t kWireSize = 8 + 32 + 4;

  uint64_t round = 0;
  Hash256 block_hash;
  uint32_t requester = 0;  // NodeId to answer to.

  std::vector<uint8_t> Serialize() const override;
  static std::optional<BlockRequestMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "block_req"; }

 protected:
  uint64_t ComputeWireSize() const override { return kWireSize; }
};

// A payment submitted by a client, gossiped to reach whoever proposes the
// next block (Figure 1: "users submit new transactions" via gossip).
class TransactionMessage : public ProtocolMessage<MessageKind::kTransaction> {
 public:
  Transaction tx;

  std::vector<uint8_t> Serialize() const override { return tx.Serialize(); }
  static std::optional<TransactionMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "txn"; }

 protected:
  uint64_t ComputeWireSize() const override { return Transaction::kWireSize; }
  Hash256 ComputeDedupId() const override { return tx.Id(); }
};

// Fork-recovery proposal (§8.2): a "fork proposer" proposes an empty block
// whose predecessor is the longest fork it observed, shipping the chain
// suffix (blocks after the last common final round) so nodes on other forks
// can validate its length and switch.
class RecoveryProposalMessage : public ProtocolMessage<MessageKind::kRecoveryProposal> {
 public:
  PublicKey pk;
  uint64_t code = 0;  // Recovery session code (epoch/attempt derived).
  VrfOutput sorthash;
  VrfProof sort_proof;
  Block block;                // Empty block extending the proposed fork.
  std::vector<Block> suffix;  // Blocks from the final prefix to the fork tip.
  Signature signature;

  std::vector<uint8_t> SignedBody() const;
  std::vector<uint8_t> Serialize() const override;
  static std::optional<RecoveryProposalMessage> Deserialize(std::span<const uint8_t> data);
  const char* TypeName() const override { return "recovery"; }

 protected:
  uint64_t ComputeWireSize() const override;
  Hash256 ComputeDedupId() const override;
};

// Builds and signs a vote.
VoteMessage MakeVote(const Ed25519KeyPair& key, uint64_t round, uint32_t step,
                     const VrfOutput& sorthash, const VrfProof& sort_proof,
                     const Hash256& prev_hash, const Hash256& value, const SignerBackend& signer);

// Builds and signs a priority announcement.
PriorityMessage MakePriorityMessage(const Ed25519KeyPair& key, uint64_t round,
                                    const VrfOutput& sorthash, const VrfProof& sort_proof,
                                    uint64_t sub_users, const SignerBackend& signer);

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_MESSAGES_H_
