// Race test for SimMessage's memoized identity facets (WireSize, DedupId,
// EncodedWire, trace context). First use of a facet may race between the
// protocol thread, verification workers, and parallel-engine shards; the
// memo publishes through a tiny acquire/release once-state-machine per
// field. This test hammers cold messages from many concurrent readers so
// the TSan CI job can prove the publication is sound — and, annotations
// aside, that every racing reader observes the same frozen value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/netsim/message.h"

namespace algorand {
namespace {

// A message whose compute hooks do real multi-step work over heap state, so
// an unsynchronized read of a half-built value would be both a TSan report
// and a visible wrong answer.
class ScratchMessage : public SimMessage {
 public:
  explicit ScratchMessage(uint64_t seed) : SimMessage(0), seed_(seed) {
    payload_.resize(256);
    for (size_t i = 0; i < payload_.size(); ++i) {
      payload_[i] = static_cast<uint8_t>(seed >> (i % 8));
    }
  }

  const char* TypeName() const override { return "scratch"; }
  std::vector<uint8_t> Serialize() const override { return {}; }

  static std::atomic<uint64_t> compute_calls;

 protected:
  uint64_t ComputeWireSize() const override {
    compute_calls.fetch_add(1, std::memory_order_relaxed);
    uint64_t sum = 0;
    for (uint8_t b : payload_) {
      sum = sum * 31 + b;
    }
    return 64 + (sum % 1024);
  }

  Hash256 ComputeDedupId() const override {
    compute_calls.fetch_add(1, std::memory_order_relaxed);
    Hash256 h;
    uint64_t acc = seed_;
    for (size_t i = 0; i < h.size(); ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      h[i] = static_cast<uint8_t>(acc >> 56);
    }
    return h;
  }

 private:
  friend std::vector<uint8_t> EncodeScratch(const SimMessage& msg);
  uint64_t seed_;
  std::vector<uint8_t> payload_;
};

std::atomic<uint64_t> ScratchMessage::compute_calls{0};

std::vector<uint8_t> EncodeScratch(const SimMessage& msg) {
  const auto& m = static_cast<const ScratchMessage&>(msg);
  std::vector<uint8_t> out(1 + m.payload_.size());
  out[0] = 0x5c;
  for (size_t i = 0; i < m.payload_.size(); ++i) {
    out[1 + i] = m.payload_[i];
  }
  return out;
}

TEST(MessageMemoRaceTest, ConcurrentFirstUseFreezesOneValue) {
  constexpr int kRounds = 200;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    auto msg = std::make_shared<const ScratchMessage>(0x9e3779b97f4a7c15ULL + round);
    // Reference values from a private warm copy (same content, no sharing).
    ScratchMessage ref(0x9e3779b97f4a7c15ULL + round);
    const uint64_t want_size = ref.WireSize();
    const Hash256 want_id = ref.DedupId();
    const std::vector<uint8_t> want_wire = ref.EncodedWire(&EncodeScratch);

    std::atomic<int> start{0};
    std::vector<std::thread> pool;
    std::vector<int> bad(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        start.fetch_add(1, std::memory_order_relaxed);
        while (start.load(std::memory_order_relaxed) < kThreads) {
          // Spin: maximize the chance every thread hits the cold facets at
          // the same instant.
        }
        for (int i = 0; i < 16; ++i) {
          if (msg->WireSize() != want_size) {
            ++bad[t];
          }
          if (msg->DedupId() != want_id) {
            ++bad[t];
          }
          if (msg->EncodedWire(&EncodeScratch) != want_wire) {
            ++bad[t];
          }
          msg->StampTraceContext(static_cast<uint32_t>(t), 1000 + static_cast<uint64_t>(t));
          const TraceContext& tc = msg->trace_context();
          // Whoever won the stamp race, the result must be internally
          // consistent (origin and timestamp from the same writer) and frozen.
          if (tc.stamped() && tc.emitted_at != 1000 + tc.origin) {
            ++bad[t];
          }
        }
      });
    }
    for (auto& th : pool) {
      th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(bad[t], 0) << "round " << round << " thread " << t;
    }
    // The stamp is set by now; later stamps must not overwrite it.
    const TraceContext frozen = msg->trace_context();
    ASSERT_TRUE(frozen.stamped());
    msg->StampTraceContext(77777, 1);
    EXPECT_EQ(msg->trace_context().origin, frozen.origin);
    EXPECT_EQ(msg->trace_context().emitted_at, frozen.emitted_at);
  }
}

TEST(MessageMemoRaceTest, EachFacetComputesAtMostOncePerMessage) {
  ScratchMessage::compute_calls.store(0, std::memory_order_relaxed);
  auto msg = std::make_shared<const ScratchMessage>(42);
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 64; ++i) {
        (void)msg->WireSize();
        (void)msg->DedupId();
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  // The once-discipline: one compute per facet no matter how many racing
  // readers (2 facets with compute hooks instrumented here).
  EXPECT_EQ(ScratchMessage::compute_calls.load(std::memory_order_relaxed), 2u);
}

TEST(MessageMemoRaceTest, CopyAssignResetsTheCache) {
  ScratchMessage a(1);
  ScratchMessage b(2);
  const Hash256 id_b = b.DedupId();
  (void)b.WireSize();
  (void)a.WireSize();
  b = a;  // Content changed: b's frozen identity must be recomputed.
  EXPECT_EQ(b.WireSize(), a.WireSize());
  EXPECT_EQ(b.DedupId(), a.DedupId());
  EXPECT_NE(b.DedupId(), id_b);
}

}  // namespace
}  // namespace algorand
