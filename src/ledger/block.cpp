#include "src/ledger/block.h"

#include "src/crypto/sha256.h"

namespace algorand {

std::vector<uint8_t> Block::Serialize() const {
  Writer w;
  w.U64(round);
  w.Fixed(prev_hash);
  w.I64(timestamp);
  w.Fixed(proposer);
  w.Fixed(proposer_vrf);
  w.Fixed(proposer_proof);
  w.Fixed(next_seed);
  w.Fixed(next_seed_proof);
  w.U8(is_empty ? 1 : 0);
  w.U64(padding_bytes);
  w.Fixed(padding_digest);
  w.U32(static_cast<uint32_t>(txns.size()));
  for (const Transaction& tx : txns) {
    tx.SerializeTo(&w);
  }
  return w.Take();
}

std::optional<Block> Block::Deserialize(std::span<const uint8_t> data) {
  Reader r(data);
  Block b;
  b.round = r.U64();
  b.prev_hash = r.Fixed<32>();
  b.timestamp = r.I64();
  b.proposer = r.Fixed<32>();
  b.proposer_vrf = r.Fixed<64>();
  b.proposer_proof = r.Fixed<80>();
  b.next_seed = r.Fixed<32>();
  b.next_seed_proof = r.Fixed<80>();
  b.is_empty = r.U8() != 0;
  b.padding_bytes = r.U64();
  b.padding_digest = r.Fixed<32>();
  uint32_t n = r.U32();
  // Bound the count by the bytes actually left in the buffer before
  // reserving: a count the remainder cannot hold is malformed, full stop.
  // (The old bound, data.size() / kWireSize + 1, measured the whole buffer
  // including the ~300-byte header and was off by a couple of transactions.)
  if (!r.ok() || n > r.remaining() / Transaction::kWireSize) {
    return std::nullopt;
  }
  b.txns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto tx = Transaction::Deserialize(&r);
    if (!tx) {
      return std::nullopt;
    }
    b.txns.push_back(std::move(*tx));
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return b;
}

Hash256 Block::Hash() const { return Sha256::Hash(Serialize()); }

uint64_t Block::WireSize() const { return Serialize().size() + padding_bytes; }

SeedBytes Block::DerivedSeed(const SeedBytes& prev_seed, uint64_t round) {
  Writer w;
  w.Fixed(prev_seed);
  w.U64(round + 1);
  Hash256 h = Sha256::Hash(w.buffer());
  return SeedBytes::FromSpan(h.span());
}

Block Block::MakeEmpty(uint64_t round, const Hash256& prev_hash, const SeedBytes& prev_seed) {
  Block b;
  b.round = round;
  b.prev_hash = prev_hash;
  b.is_empty = true;
  b.next_seed = DerivedSeed(prev_seed, round);
  return b;
}

}  // namespace algorand
