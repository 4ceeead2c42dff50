// Wire codec: tags and serializes every protocol message for transports that
// move real bytes (src/tcp). The simulator passes shared pointers around and
// never needs this; the TCP runtime round-trips every message through it.
//
// Frame payload layout:
//   1-byte kind tag || 4-byte LE trace origin || 8-byte LE trace emitted-at
//   || message serialization.
// The kind tag is SimMessage::kind(); the list of kinds (MessageKind) lives
// in messages.h next to the message classes. The 12-byte trace context is
// the message's causal origination stamp (UINT32_MAX origin when unstamped);
// DecodeMessage re-stamps the decoded message so receipt latency joins work
// across processes.
#ifndef ALGORAND_SRC_CORE_WIRE_CODEC_H_
#define ALGORAND_SRC_CORE_WIRE_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/catchup.h"
#include "src/core/fastsync.h"
#include "src/core/messages.h"

namespace algorand {

// Serializes a message with its kind tag. Returns an empty vector for a
// kind outside MessageKind (none exist in-tree).
std::vector<uint8_t> EncodeMessage(const SimMessage& msg);
inline std::vector<uint8_t> EncodeMessage(const MessagePtr& msg) { return EncodeMessage(*msg); }

// Same bytes, memoized on the message: the first call encodes and caches,
// later calls (e.g. relaying one gossip message to many TCP peers) return the
// cached buffer. Requires the usual immutable-after-first-send contract.
const std::vector<uint8_t>& EncodeMessageCached(const SimMessage& msg);
inline const std::vector<uint8_t>& EncodeMessageCached(const MessagePtr& msg) {
  return EncodeMessageCached(*msg);
}

// Parses a tagged payload back into a message; nullptr on an unknown tag or
// malformed input.
MessagePtr DecodeMessage(std::span<const uint8_t> payload);

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_WIRE_CODEC_H_
