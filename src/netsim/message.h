// The type-erased message interface the network simulator transports.
//
// Within a single simulation process, messages travel as shared_ptr to an
// immutable object rather than as serialized bytes: the declared WireSize()
// is what bandwidth accounting charges (for real wire formats this is the
// serialized size; blocks add their simulated padding). DedupId() lets gossip
// agents drop duplicates, as in the paper's "users do not relay the same
// message twice".
//
// Identity is memoized: WireSize, DedupId, and the transport encoding are
// computed at most once per message and then frozen. The contract that makes
// this sound: a message is immutable from the moment it is first
// gossiped/sent; builders fill fields only before that, and copying or
// assigning a message resets the destination's cache, so a mutated copy
// never inherits stale identity. First use may race between the protocol
// thread and verification workers, so publication is a tiny acquire/release
// state machine (empty -> building -> ready) per cached field.
#ifndef ALGORAND_SRC_NETSIM_MESSAGE_H_
#define ALGORAND_SRC_NETSIM_MESSAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"

namespace algorand {

// Compact causal trace context a message carries from its originator: who
// first gossiped it and when (executor nanoseconds). Receivers use it to
// measure true propagation latency across nodes (and, over TCP, across
// processes — the codec carries it in the frame envelope). UINT32_MAX means
// "never stamped" (pre-tracing senders, hand-built test messages).
struct TraceContext {
  uint32_t origin = UINT32_MAX;
  uint64_t emitted_at = 0;

  bool stamped() const { return origin != UINT32_MAX; }
};

class SimMessage {
 public:
  // Produces the tagged transport encoding of a message (see wire_codec.h).
  // A function pointer, not std::function: EncodedWire is called per send and
  // the encoder set is fixed at compile time.
  using WireEncoder = std::vector<uint8_t> (*)(const SimMessage&);

  // `kind` is the message's kind tag: the consensus layer's MessageKind
  // (src/core/messages.h), which is also its wire-codec frame tag. Receivers
  // switch on it instead of probing types.
  explicit SimMessage(uint8_t kind) : memo_(kind) {}
  virtual ~SimMessage() = default;

  uint8_t kind() const { return memo_.kind; }

  // Bytes this message occupies on the wire. First call invokes
  // ComputeWireSize(); later calls return the frozen value.
  uint64_t WireSize() const;

  // Identity for gossip deduplication (content hash), computed once.
  const Hash256& DedupId() const;

  // The tagged transport encoding, computed by `encode` on first use and
  // reused for every subsequent send (the TCP layer fans one buffer out to
  // all neighbours instead of re-serializing per connection). The reference
  // is valid for the message's lifetime. All callers of a given message must
  // pass the same encoder.
  const std::vector<uint8_t>& EncodedWire(WireEncoder encode) const;

  // Causal trace context, set once at origination and frozen (like the other
  // memoized identity fields). StampTraceContext is a no-op after the first
  // call, so relays forwarding a message never overwrite the originator's
  // stamp. trace_context() returns a default (unstamped) context until the
  // stamp is published.
  const TraceContext& trace_context() const;
  void StampTraceContext(uint32_t origin, uint64_t emitted_at) const;

  // Short label for metrics ("vote", "block", ...): the name of kind().
  virtual const char* TypeName() const = 0;

  // The message body the wire codec frames after its tag and trace envelope.
  virtual std::vector<uint8_t> Serialize() const = 0;

 protected:
  // Compute hooks, invoked at most once each by the memoized accessors.
  virtual uint64_t ComputeWireSize() const = 0;
  virtual Hash256 ComputeDedupId() const = 0;

 private:
  enum : uint8_t { kEmpty = 0, kBuilding = 1, kReady = 2 };

  // Runs `fill` under the slot's once-discipline: exactly one caller computes,
  // racing callers spin briefly until the value is published.
  template <typename Fill>
  void Once(std::atomic<uint8_t>* state, Fill&& fill) const;

  // The cache is identity-of-content, not identity-of-object: copies and
  // assigned-to messages start cold, because their content may (or did) just
  // change under the same object. Reset happens while the destination is
  // exclusively owned — sharing starts only once the message is frozen.
  // The kind tag rides along in the padding after the state bytes, so tagging
  // costs no space (every in-flight and certified vote is one such message);
  // it belongs to the class, not the content, so copies keep it and
  // assignment leaves it.
  struct Memo {
    explicit Memo(uint8_t k) : kind(k) {}
    Memo(const Memo& other) noexcept : kind(other.kind) {}
    Memo& operator=(const Memo&) noexcept {
      size_state.store(kEmpty, std::memory_order_relaxed);
      id_state.store(kEmpty, std::memory_order_relaxed);
      wire_state.store(kEmpty, std::memory_order_relaxed);
      trace_state.store(kEmpty, std::memory_order_relaxed);
      encoded.clear();
      trace = TraceContext{};
      return *this;
    }

    std::atomic<uint8_t> size_state{kEmpty};
    std::atomic<uint8_t> id_state{kEmpty};
    std::atomic<uint8_t> wire_state{kEmpty};
    std::atomic<uint8_t> trace_state{kEmpty};
    uint8_t kind;
    uint64_t wire_size = 0;
    Hash256 dedup_id;
    std::vector<uint8_t> encoded;
    TraceContext trace;
  };
  mutable Memo memo_;
};

using MessagePtr = std::shared_ptr<const SimMessage>;

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_MESSAGE_H_
