// Certificate-chain fast-sync (§8.3 made O(recent)): instead of fetching and
// re-executing every block since genesis, a fresh node downloads a peer's
// latest checkpoint manifest, walks the certificate chain genesis -> B link
// by link (block hashes + deciding certificates, no block bodies), fetches
// the checkpoint payload in chunks, validates the account fingerprint
// against the manifest, installs the state, and rejoins normal catch-up for
// the suffix past B.
//
// Trust argument (DESIGN.md §13): links are checked for vote signatures and
// binding (VerifyChainLink), not for historical quorum weight; the first
// post-checkpoint certificate, which catch-up validates in full against the
// installed state, anchors it.
//
// All six messages are point-to-point (requester/responder addressed), never
// relayed, mirroring the catch-up protocol's shape.
#ifndef ALGORAND_SRC_CORE_FASTSYNC_H_
#define ALGORAND_SRC_CORE_FASTSYNC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/messages.h"
#include "src/crypto/signer.h"
#include "src/ledger/ledger.h"
#include "src/store/block_store.h"
#include "src/store/checkpoint.h"

namespace algorand {

// A checkpoint payload that passed VerifyCheckpoint, ready for
// Ledger::InstallCheckpoint.
struct VerifiedCheckpoint {
  CheckpointManifest manifest;
  Block tip;
  AccountTable accounts;
  uint64_t seed_base = 0;
  std::vector<SeedBytes> seeds;  // Rounds [seed_base .. manifest.round].
};

// The one checkpoint check of disk restore and fast-sync: the payload decodes,
// its manifest head names `round` and `genesis_hash` (and equals `*head`, the
// manifest fast-sync's link chain vouched for, when given), and its tip block
// and account table hash to the manifest's tip hash and fingerprint.
std::optional<VerifiedCheckpoint> VerifyCheckpoint(std::span<const uint8_t> payload,
                                                   uint64_t round, const Hash256& genesis_hash,
                                                   const CheckpointManifest* head = nullptr);

// Fast-sync's extra check: every seed in the window and the tip's next_seed
// match the verified links (links[j] is round j+1 and carries seed_{j+2}), so
// a certificate pins each one. `genesis` supplies the seeds of rounds 0, 1.
bool SeedsMatchLinks(const VerifiedCheckpoint& checkpoint, const std::vector<ChainLink>& links,
                     const Ledger& genesis);

// `link` is round `round` of the certificate chain after `prev_hash`: its
// certificate names this round and hash, and every vote is validly signed and
// binds to `prev_hash`, so forging a link means forging signatures. Rounds
// without a certificate (fork-recovery suffixes) cannot be vouched for.
bool VerifyChainLink(const ChainLink& link, uint64_t round, const Hash256& prev_hash,
                     const SignerBackend& signer);

// "What is your newest durable checkpoint?" Answered with the manifest.
class FastSyncManifestRequest : public ProtocolMessage<MessageKind::kFastSyncManifestRequest> {
 public:
  uint32_t requester = 0;
  uint64_t seq = 0;  // Per-requester nonce; retries defeat gossip dedup.

  std::vector<uint8_t> Serialize() const override;
  static std::optional<FastSyncManifestRequest> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "fastsync_manifest_req"; }
};

class FastSyncManifestResponse : public ProtocolMessage<MessageKind::kFastSyncManifestResponse> {
 public:
  uint32_t responder = 0;
  uint64_t seq = 0;  // Echo of the request nonce.
  // CheckpointData::kManifestBytes of the payload head (ParseManifest input);
  // empty = the responder holds no checkpoint.
  std::vector<uint8_t> manifest;
  uint64_t payload_bytes = 0;  // Full checkpoint payload size, for chunking.

  std::vector<uint8_t> Serialize() const override;
  static std::optional<FastSyncManifestResponse> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "fastsync_manifest_resp"; }
};

// A window of certificate-chain links [from_round, from_round + limit).
class FastSyncLinksRequest : public ProtocolMessage<MessageKind::kFastSyncLinksRequest> {
 public:
  uint32_t requester = 0;
  uint64_t seq = 0;
  uint64_t from_round = 0;
  uint32_t limit = 0;

  std::vector<uint8_t> Serialize() const override;
  static std::optional<FastSyncLinksRequest> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "fastsync_links_req"; }
};

class FastSyncLinksResponse : public ProtocolMessage<MessageKind::kFastSyncLinksResponse> {
 public:
  uint32_t responder = 0;
  uint64_t seq = 0;
  uint64_t from_round = 0;
  // ChainLink::SerializePayload bytes for consecutive rounds starting at
  // from_round; may be a partial window (responder's history ends sooner).
  std::vector<std::vector<uint8_t>> links;

  std::vector<uint8_t> Serialize() const override;
  static std::optional<FastSyncLinksResponse> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "fastsync_links_resp"; }

 protected:
  uint64_t ComputeWireSize() const override;
};

// A byte range of one checkpoint's payload.
class FastSyncChunkRequest : public ProtocolMessage<MessageKind::kFastSyncChunkRequest> {
 public:
  uint32_t requester = 0;
  uint64_t seq = 0;
  uint64_t round = 0;   // Checkpoint round (from the manifest).
  uint64_t offset = 0;  // Byte offset into the payload.
  uint32_t limit = 0;   // Max bytes wanted (responders clamp).

  std::vector<uint8_t> Serialize() const override;
  static std::optional<FastSyncChunkRequest> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "fastsync_chunk_req"; }
};

class FastSyncChunkResponse : public ProtocolMessage<MessageKind::kFastSyncChunkResponse> {
 public:
  uint32_t responder = 0;
  uint64_t seq = 0;
  uint64_t round = 0;
  uint64_t offset = 0;
  uint64_t total_bytes = 0;  // Full payload size (progress/termination check).
  std::vector<uint8_t> data;  // Empty = round unknown or offset out of range.

  std::vector<uint8_t> Serialize() const override;
  static std::optional<FastSyncChunkResponse> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "fastsync_chunk_resp"; }

 protected:
  uint64_t ComputeWireSize() const override { return 4 + 8 + 8 + 8 + 8 + 4 + data.size(); }
};

// The serving side: pure functions of the responder's store (null = it holds
// no history) and the request. Every request gets an answer, an empty one if
// need be: the requester then rotates to another peer at once instead of
// waiting out its timeout.
std::shared_ptr<FastSyncManifestResponse> ServeFastSyncManifest(
    const BlockStore* store, const FastSyncManifestRequest& req, uint32_t responder);
std::shared_ptr<FastSyncLinksResponse> ServeFastSyncLinks(const BlockStore* store,
                                                          const FastSyncLinksRequest& req,
                                                          uint32_t responder);
std::shared_ptr<FastSyncChunkResponse> ServeFastSyncChunk(const BlockStore* store,
                                                          const FastSyncChunkRequest& req,
                                                          uint32_t responder);

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_FASTSYNC_H_
