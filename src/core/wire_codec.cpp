#include "src/core/wire_codec.h"

namespace algorand {
namespace {

constexpr size_t kEnvelopeSize = 13;  // tag(1) + origin(4 LE) + emitted_at(8 LE).

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(std::span<const uint8_t> in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(std::span<const uint8_t> in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// Decodes one kind's body through its class's Deserialize.
template <typename T>
MessagePtr Decode(std::span<const uint8_t> body) {
  std::optional<T> m = T::Deserialize(body);
  return m ? std::make_shared<T>(std::move(*m)) : nullptr;
}

// One validated case per tag; each case label is the class's own kind, so a
// tag can never decode as another class. Unknown tags fall through to null.
MessagePtr DecodeBody(MessageKind kind, std::span<const uint8_t> body) {
  switch (kind) {
    case VoteMessage::kKind:
      return Decode<VoteMessage>(body);
    case PriorityMessage::kKind:
      return Decode<PriorityMessage>(body);
    case BlockMessage::kKind:
      return Decode<BlockMessage>(body);
    case BlockRequestMessage::kKind:
      return Decode<BlockRequestMessage>(body);
    case RecoveryProposalMessage::kKind:
      return Decode<RecoveryProposalMessage>(body);
    case TransactionMessage::kKind:
      return Decode<TransactionMessage>(body);
    case CatchupRequestMessage::kKind:
      return Decode<CatchupRequestMessage>(body);
    case CatchupResponseMessage::kKind:
      return Decode<CatchupResponseMessage>(body);
    case FastSyncManifestRequest::kKind:
      return Decode<FastSyncManifestRequest>(body);
    case FastSyncManifestResponse::kKind:
      return Decode<FastSyncManifestResponse>(body);
    case FastSyncLinksRequest::kKind:
      return Decode<FastSyncLinksRequest>(body);
    case FastSyncLinksResponse::kKind:
      return Decode<FastSyncLinksResponse>(body);
    case FastSyncChunkRequest::kKind:
      return Decode<FastSyncChunkRequest>(body);
    case FastSyncChunkResponse::kKind:
      return Decode<FastSyncChunkResponse>(body);
  }
  return nullptr;
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const SimMessage& msg) {
  if (msg.kind() < static_cast<uint8_t>(MessageKind::kVote) ||
      msg.kind() > static_cast<uint8_t>(MessageKind::kFastSyncChunkResponse)) {
    return {};
  }
  // The envelope carries the originator's trace context so propagation
  // latency can be joined across processes; UINT32_MAX origin = unstamped.
  const TraceContext& tc = msg.trace_context();
  const std::vector<uint8_t> body = msg.Serialize();
  std::vector<uint8_t> out;
  out.reserve(body.size() + kEnvelopeSize);
  out.push_back(msg.kind());
  PutU32(&out, tc.origin);
  PutU64(&out, tc.emitted_at);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

const std::vector<uint8_t>& EncodeMessageCached(const SimMessage& msg) {
  // The encoder must be a plain function pointer for the memo slot;
  // EncodeMessage is overloaded, so name it through a captureless lambda.
  return msg.EncodedWire(+[](const SimMessage& m) { return EncodeMessage(m); });
}

MessagePtr DecodeMessage(std::span<const uint8_t> payload) {
  if (payload.size() < kEnvelopeSize) {
    return nullptr;
  }
  uint32_t origin = GetU32(payload.subspan(1, 4));
  uint64_t emitted_at = GetU64(payload.subspan(5, 8));
  MessagePtr msg = DecodeBody(static_cast<MessageKind>(payload[0]), payload.subspan(kEnvelopeSize));
  if (msg != nullptr && origin != UINT32_MAX) {
    msg->StampTraceContext(origin, emitted_at);
  }
  return msg;
}

}  // namespace algorand
