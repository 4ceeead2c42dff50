#include "src/core/fastsync.h"

#include "src/common/serialize.h"
#include "src/core/certificate.h"
#include "src/crypto/sha256.h"

namespace algorand {

std::optional<VerifiedCheckpoint> VerifyCheckpoint(std::span<const uint8_t> payload,
                                                   uint64_t round, const Hash256& genesis_hash,
                                                   const CheckpointManifest* head) {
  std::optional<CheckpointData> data = CheckpointData::Deserialize(payload);
  if (!data.has_value() || data->manifest.round != round ||
      data->manifest.genesis_hash != genesis_hash ||
      (head != nullptr && data->manifest != *head) || data->seed_base > round) {
    return std::nullopt;
  }
  std::optional<Block> tip = Block::Deserialize(data->tip_block);
  if (!tip.has_value() || tip->round != round || tip->Hash() != data->manifest.tip_hash) {
    return std::nullopt;
  }
  VerifiedCheckpoint checkpoint;
  checkpoint.manifest = data->manifest;
  checkpoint.tip = std::move(*tip);
  checkpoint.seed_base = data->seed_base;
  checkpoint.seeds = std::move(data->seeds);
  Reader ar(data->accounts);
  if (!checkpoint.accounts.DeserializeFrom(&ar) || !ar.AtEnd() ||
      checkpoint.accounts.StateFingerprint() != data->manifest.fingerprint) {
    return std::nullopt;  // The state does not hash to what the manifest promised.
  }
  return checkpoint;
}

bool SeedsMatchLinks(const VerifiedCheckpoint& checkpoint, const std::vector<ChainLink>& links,
                     const Ledger& genesis) {
  const uint64_t b = checkpoint.manifest.round;
  if (links.size() < b) {
    return false;
  }
  for (size_t i = 0; i < checkpoint.seeds.size(); ++i) {
    uint64_t r = checkpoint.seed_base + i;
    // Link r-1 carries seed_r; rounds 0 and 1 are the genesis window.
    SeedBytes expected = r <= 1 ? genesis.SeedForRound(r) : links[r - 2].next_seed;
    if (checkpoint.seeds[i] != expected) {
      return false;
    }
  }
  return checkpoint.tip.next_seed == links[b - 1].next_seed;
}

bool VerifyChainLink(const ChainLink& link, uint64_t round, const Hash256& prev_hash,
                     const SignerBackend& signer) {
  if (link.round != round || link.cert.empty()) {
    return false;
  }
  std::optional<Certificate> cert = Certificate::Deserialize(link.cert);
  if (!cert.has_value() || cert->round != link.round || cert->block_hash != link.hash ||
      cert->votes.empty()) {
    return false;
  }
  for (const VoteMessage& v : cert->votes) {
    if (v.round != link.round || v.value != link.hash || v.prev_hash != prev_hash ||
        v.step != cert->step || !signer.Verify(v.pk, v.SignedBody(), v.signature)) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> FastSyncManifestRequest::Serialize() const {
  Writer w;
  w.U32(requester);
  w.U64(seq);
  return w.Take();
}

std::optional<FastSyncManifestRequest> FastSyncManifestRequest::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  FastSyncManifestRequest m;
  m.requester = r.U32();
  m.seq = r.U64();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Hash256 FastSyncManifestRequest::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

std::vector<uint8_t> FastSyncManifestResponse::Serialize() const {
  Writer w;
  w.U32(responder);
  w.U64(seq);
  w.Bytes(manifest);
  w.U64(payload_bytes);
  return w.Take();
}

std::optional<FastSyncManifestResponse> FastSyncManifestResponse::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  FastSyncManifestResponse m;
  m.responder = r.U32();
  m.seq = r.U64();
  m.manifest = r.Bytes();
  m.payload_bytes = r.U64();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Hash256 FastSyncManifestResponse::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

std::vector<uint8_t> FastSyncLinksRequest::Serialize() const {
  Writer w;
  w.U32(requester);
  w.U64(seq);
  w.U64(from_round);
  w.U32(limit);
  return w.Take();
}

std::optional<FastSyncLinksRequest> FastSyncLinksRequest::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  FastSyncLinksRequest m;
  m.requester = r.U32();
  m.seq = r.U64();
  m.from_round = r.U64();
  m.limit = r.U32();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Hash256 FastSyncLinksRequest::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

std::vector<uint8_t> FastSyncLinksResponse::Serialize() const {
  Writer w;
  w.U32(responder);
  w.U64(seq);
  w.U64(from_round);
  w.U32(static_cast<uint32_t>(links.size()));
  for (const std::vector<uint8_t>& link : links) {
    w.Bytes(link);
  }
  return w.Take();
}

std::optional<FastSyncLinksResponse> FastSyncLinksResponse::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  FastSyncLinksResponse m;
  m.responder = r.U32();
  m.seq = r.U64();
  m.from_round = r.U64();
  uint32_t n = r.U32();
  if (!r.ok() || n > data.size()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    m.links.push_back(r.Bytes());
    if (!r.ok()) {
      return std::nullopt;
    }
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

uint64_t FastSyncLinksResponse::ComputeWireSize() const {
  uint64_t size = 4 + 8 + 8 + 4;
  for (const std::vector<uint8_t>& link : links) {
    size += 4 + link.size();
  }
  return size;
}

Hash256 FastSyncLinksResponse::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

std::vector<uint8_t> FastSyncChunkRequest::Serialize() const {
  Writer w;
  w.U32(requester);
  w.U64(seq);
  w.U64(round);
  w.U64(offset);
  w.U32(limit);
  return w.Take();
}

std::optional<FastSyncChunkRequest> FastSyncChunkRequest::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  FastSyncChunkRequest m;
  m.requester = r.U32();
  m.seq = r.U64();
  m.round = r.U64();
  m.offset = r.U64();
  m.limit = r.U32();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Hash256 FastSyncChunkRequest::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

std::vector<uint8_t> FastSyncChunkResponse::Serialize() const {
  Writer w;
  w.U32(responder);
  w.U64(seq);
  w.U64(round);
  w.U64(offset);
  w.U64(total_bytes);
  w.Bytes(data);
  return w.Take();
}

std::optional<FastSyncChunkResponse> FastSyncChunkResponse::Deserialize(
    std::span<const uint8_t> bytes) {
  Reader r(bytes);
  FastSyncChunkResponse m;
  m.responder = r.U32();
  m.seq = r.U64();
  m.round = r.U64();
  m.offset = r.U64();
  m.total_bytes = r.U64();
  m.data = r.Bytes();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Hash256 FastSyncChunkResponse::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

}  // namespace algorand
