#include "src/core/fastsync.h"

#include <algorithm>

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
  for (const auto& vote : cert->votes) {
    const VoteMessage& v = *vote;
    if (v.round != link.round || v.value != link.hash || v.prev_hash != prev_hash ||
        v.step != cert->step || !signer.Verify(v.pk, v.SignedBody(), v.signature)) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<FastSyncManifestResponse> ServeFastSyncManifest(
    const BlockStore* store, const FastSyncManifestRequest& req, uint32_t responder) {
  auto resp = std::make_shared<FastSyncManifestResponse>();
  resp->responder = responder;
  resp->seq = req.seq;
  if (store == nullptr) {
    return resp;
  }
  // Newest checkpoint whose payload still loads (a corrupt file steps down
  // to the next older one, mirroring the restore ladder).
  auto ckpts = store->checkpoints();
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    auto payload = store->ReadCheckpointPayload(it->round);
    if (payload == nullptr || payload->size() < CheckpointData::kManifestBytes) {
      continue;
    }
    resp->manifest.assign(payload->begin(), payload->begin() + CheckpointData::kManifestBytes);
    resp->payload_bytes = payload->size();
    break;
  }
  return resp;
}

std::shared_ptr<FastSyncLinksResponse> ServeFastSyncLinks(const BlockStore* store,
                                                          const FastSyncLinksRequest& req,
                                                          uint32_t responder) {
  auto resp = std::make_shared<FastSyncLinksResponse>();
  resp->responder = responder;
  resp->seq = req.seq;
  resp->from_round = req.from_round < 1 ? 1 : req.from_round;
  // Bound the response a single request can make us build.
  const uint32_t limit = std::clamp<uint32_t>(req.limit, 1, 256);
  for (uint64_t r = resp->from_round; store != nullptr && resp->links.size() < limit; ++r) {
    std::optional<ChainLink> link = store->ChainLinkAt(r);
    if (!link.has_value()) {
      break;  // Serve the contiguous prefix we hold (partial window).
    }
    resp->links.push_back(link->SerializePayload());
  }
  return resp;
}

std::shared_ptr<FastSyncChunkResponse> ServeFastSyncChunk(const BlockStore* store,
                                                          const FastSyncChunkRequest& req,
                                                          uint32_t responder) {
  auto resp = std::make_shared<FastSyncChunkResponse>();
  resp->responder = responder;
  resp->seq = req.seq;
  resp->round = req.round;
  resp->offset = req.offset;
  auto payload = store == nullptr ? nullptr : store->ReadCheckpointPayload(req.round);
  if (payload == nullptr) {
    return resp;
  }
  resp->total_bytes = payload->size();
  if (req.offset < payload->size()) {
    const uint64_t limit = std::clamp<uint64_t>(req.limit, 1, uint64_t{1} << 20);
    const uint64_t n = std::min<uint64_t>(limit, payload->size() - req.offset);
    resp->data.assign(payload->begin() + req.offset, payload->begin() + req.offset + n);
  }
  return resp;
}

std::vector<uint8_t> FastSyncManifestRequest::Serialize() const {
  Writer w;
  w.U32(requester);
  w.U64(seq);
  return w.Take();
}

std::optional<FastSyncManifestRequest> FastSyncManifestRequest::Deserialize(
    std::span<const uint8_t> data) {
  return DecodeExactly<FastSyncManifestRequest>(data, [](Reader& r, FastSyncManifestRequest& m) {
    m.requester = r.U32();
    m.seq = r.U64();
  });
}

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
  return DecodeExactly<FastSyncManifestResponse>(data, [](Reader& r, FastSyncManifestResponse& m) {
    m.responder = r.U32();
    m.seq = r.U64();
    m.manifest = r.Bytes();
    m.payload_bytes = r.U64();
  });
}

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
  return DecodeExactly<FastSyncLinksRequest>(data, [](Reader& r, FastSyncLinksRequest& m) {
    m.requester = r.U32();
    m.seq = r.U64();
    m.from_round = r.U64();
    m.limit = r.U32();
  });
}

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
  return DecodeExactly<FastSyncChunkRequest>(data, [](Reader& r, FastSyncChunkRequest& m) {
    m.requester = r.U32();
    m.seq = r.U64();
    m.round = r.U64();
    m.offset = r.U64();
    m.limit = r.U32();
  });
}

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
  return DecodeExactly<FastSyncChunkResponse>(bytes, [](Reader& r, FastSyncChunkResponse& m) {
    m.responder = r.U32();
    m.seq = r.U64();
    m.round = r.U64();
    m.offset = r.U64();
    m.total_bytes = r.U64();
    m.data = r.Bytes();
  });
}

}  // namespace algorand
