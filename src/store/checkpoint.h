// Ledger-state checkpoints (ROADMAP item 3, the §8.3 bootstrapping story
// made O(recent)): a checkpoint captures everything a node needs to resume —
// or a fresh node needs to join — from round B without replaying rounds
// 1..B: the round-B block, the account state it implies (with its
// layout-independent StateFingerprint), and the sortition-seed window the
// seed-refresh rule (§5.2) can still reach back to.
//
// This layer is payload-typed but ledger-agnostic: the tip block and the
// account table travel as opaque serialized sections (Block::Serialize /
// AccountTable::SerializeTo), so src/store still depends only on common/ and
// obs/. Node (src/core) re-types them when installing.
//
// On disk a checkpoint is a sidecar file next to the log segments,
//   ckpt-<round>.ckpt := "ALGOCKP1" | version u32 | payload_len u64
//                        | crc32c(payload) u32 | payload
// written tmp + fsync + rename + dir-fsync so it is atomically either absent
// or complete. A torn or bit-flipped file fails the CRC (or the parse) and
// is treated as absent — restore falls back to an older checkpoint or to
// full WAL replay, never loads silently (PR 5's corruption discipline).
#ifndef ALGORAND_SRC_STORE_CHECKPOINT_H_
#define ALGORAND_SRC_STORE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bytes.h"

namespace algorand {

// Fixed-size head of the serialized payload; cheap to parse without loading
// the (potentially tens-of-MB) account section — the fast-sync manifest.
struct CheckpointManifest {
  uint64_t round = 0;        // B: the checkpointed round.
  Hash256 tip_hash;          // Hash of the round-B block.
  Hash256 fingerprint;       // AccountTable::StateFingerprint at B.
  uint64_t highest_final = 0;  // Highest final round when written (>= B).
  Hash256 genesis_hash;      // Round-0 block hash: refuses cross-chain installs.

  bool operator==(const CheckpointManifest&) const = default;
};

struct CheckpointData {
  CheckpointManifest manifest;

  // Sortition seeds of rounds [seed_base .. round]: the window
  // SortitionSeed() can reach back to from any round > B under the
  // seed-refresh rule, with margin. seeds[i] is the seed of round
  // seed_base + i; the round-(B+1) seed comes from the tip block itself.
  uint64_t seed_base = 0;
  std::vector<SeedBytes> seeds;

  std::vector<uint8_t> tip_block;  // Block::Serialize of the round-B block.
  std::vector<uint8_t> accounts;   // AccountTable::SerializeTo section at B.

  std::vector<uint8_t> Serialize() const;
  static std::optional<CheckpointData> Deserialize(std::span<const uint8_t> data);
  // Parses just the manifest prefix (any Serialize() output, or the first
  // kManifestBytes of one).
  static std::optional<CheckpointManifest> ParseManifest(std::span<const uint8_t> data);

  static constexpr size_t kManifestBytes = 8 + 32 + 32 + 8 + 32;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_STORE_CHECKPOINT_H_
