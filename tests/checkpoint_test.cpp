// Checkpoint + compaction tests at the store layer: payload round-trips,
// sidecar persistence and retention across reopen, segment GC below the
// oldest retained checkpoint (with the chain.log link extraction fast-sync
// depends on), fork-switch truncation above a pruned prefix, and the
// corruption fuzz — truncate and bit-flip every byte of a checkpoint file
// and require the load to yield exactly the original payload or nothing,
// with the WAL fallback intact either way.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "src/store/block_store.h"
#include "src/store/checkpoint.h"
#include "tests/test_dirs.h"

namespace algorand {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) { return FreshTestDir("algorand_ckpt_" + name); }

std::vector<uint8_t> PatternBytes(uint64_t seed, size_t n) {
  std::vector<uint8_t> out(n);
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<uint8_t>(x);
  }
  return out;
}

StoredRound MakeRound(uint64_t round, size_t block_bytes = 64) {
  StoredRound r;
  r.round = round;
  r.kind = 0;  // Final: checkpoints only cover final history.
  std::vector<uint8_t> tip = PatternBytes(round ^ 0xf00d, 32);
  memcpy(r.tip_hash.data(), tip.data(), 32);
  std::vector<uint8_t> seed = PatternBytes(round ^ 0x5eed, 32);
  memcpy(r.next_seed.data(), seed.data(), 32);
  r.block = PatternBytes(round, block_bytes);
  r.cert = PatternBytes(round ^ 0xcafe, 16);
  return r;
}

StoreOptions SyncOptions(const std::string& dir) {
  StoreOptions opts;
  opts.dir = dir;
  opts.background_writer = false;
  opts.fsync = FsyncPolicy::kOff;
  return opts;
}

CheckpointData MakeCheckpointData(uint64_t round) {
  CheckpointData data;
  data.manifest.round = round;
  std::vector<uint8_t> tip = PatternBytes(round ^ 0xf00d, 32);
  memcpy(data.manifest.tip_hash.data(), tip.data(), 32);
  std::vector<uint8_t> fp = PatternBytes(round ^ 0xabba, 32);
  memcpy(data.manifest.fingerprint.data(), fp.data(), 32);
  data.manifest.highest_final = round + 1;
  std::vector<uint8_t> gh = PatternBytes(0x9e9e, 32);
  memcpy(data.manifest.genesis_hash.data(), gh.data(), 32);
  data.seed_base = round > 4 ? round - 4 : 0;
  for (uint64_t r = data.seed_base; r <= round; ++r) {
    SeedBytes s;
    std::vector<uint8_t> bytes = PatternBytes(r ^ 0x5eed, 32);
    memcpy(s.data(), bytes.data(), 32);
    data.seeds.push_back(s);
  }
  data.tip_block = PatternBytes(round ^ 0xb10c, 200);
  data.accounts = PatternBytes(round ^ 0xacc7, 500);
  return data;
}

TEST(CheckpointDataTest, RoundTripsAndParsesManifestPrefix) {
  CheckpointData data = MakeCheckpointData(12);
  std::vector<uint8_t> bytes = data.Serialize();

  auto parsed = CheckpointData::Deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->manifest.round, data.manifest.round);
  EXPECT_EQ(parsed->manifest.tip_hash, data.manifest.tip_hash);
  EXPECT_EQ(parsed->manifest.fingerprint, data.manifest.fingerprint);
  EXPECT_EQ(parsed->manifest.highest_final, data.manifest.highest_final);
  EXPECT_EQ(parsed->manifest.genesis_hash, data.manifest.genesis_hash);
  EXPECT_EQ(parsed->seed_base, data.seed_base);
  EXPECT_EQ(parsed->seeds, data.seeds);
  EXPECT_EQ(parsed->tip_block, data.tip_block);
  EXPECT_EQ(parsed->accounts, data.accounts);

  // The manifest parses from the fixed-size prefix alone (what the
  // fast-sync manifest response carries).
  std::vector<uint8_t> prefix(bytes.begin(),
                              bytes.begin() + CheckpointData::kManifestBytes);
  auto manifest = CheckpointData::ParseManifest(prefix);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->round, data.manifest.round);
  EXPECT_EQ(manifest->tip_hash, data.manifest.tip_hash);

  // Truncated below the manifest size: reject, don't guess.
  prefix.pop_back();
  EXPECT_FALSE(CheckpointData::ParseManifest(prefix).has_value());
  EXPECT_FALSE(CheckpointData::Deserialize(prefix).has_value());
}

TEST(CheckpointStoreTest, SidecarPersistsAcrossReopenAndRetainsNewest) {
  std::string dir = FreshDir("persist");
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 30; ++r) {
    store->AppendRound(MakeRound(r));
  }
  std::vector<uint8_t> payload10 = MakeCheckpointData(10).Serialize();
  std::vector<uint8_t> payload20 = MakeCheckpointData(20).Serialize();
  std::vector<uint8_t> payload30 = MakeCheckpointData(30).Serialize();
  store->AppendCheckpoint(10, [&] { return payload10; });
  store->AppendCheckpoint(20, [&] { return payload20; });
  store->AppendCheckpoint(30, [&] { return payload30; });
  store->Flush();

  // Default retention is 2: the round-10 file is gone, newest two remain.
  auto listed = store->checkpoints();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].round, 20u);
  EXPECT_EQ(listed[1].round, 30u);
  store.reset();

  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  listed = store->checkpoints();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[1].round, 30u);
  auto loaded = store->ReadCheckpointPayload(30);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(*loaded, payload30);
  EXPECT_EQ(store->ReadCheckpointPayload(10), nullptr);  // Pruned by retention.
}

TEST(CheckpointStoreTest, CompactionPrunesSegmentsAndKeepsChainLinks) {
  std::string dir = FreshDir("compact");
  StoreOptions opts = SyncOptions(dir);
  opts.segment_bytes = 512;  // Force frequent segment rolls.
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 40; ++r) {
    store->AppendRound(MakeRound(r));
    if (r == 20 || r == 30) {
      store->AppendCheckpoint(r, [r] { return MakeCheckpointData(r).Serialize(); });
    }
  }
  store->Flush();

  // Segments strictly below the oldest retained checkpoint (round 20) are
  // gone; the index serves retained rounds without scanning.
  uint64_t first = store->first_retained_round();
  EXPECT_GT(first, 1u);
  EXPECT_LE(first, 20u);
  EXPECT_FALSE(store->ReadRound(1).has_value());
  EXPECT_EQ(store->max_round(), 40u);
  for (uint64_t r = first; r <= 40; ++r) {
    ASSERT_TRUE(store->ReadRound(r).has_value()) << "round " << r;
  }
  // Every pruned round still serves its chain link (hash + cert), the
  // fast-sync currency: the block body is gone, the proof of it is not.
  for (uint64_t r = 1; r <= 40; ++r) {
    auto link = store->ChainLinkAt(r);
    ASSERT_TRUE(link.has_value()) << "round " << r;
    EXPECT_EQ(link->round, r);
    EXPECT_EQ(link->hash, MakeRound(r).tip_hash);
    EXPECT_EQ(link->next_seed, MakeRound(r).next_seed);
    EXPECT_EQ(link->cert, MakeRound(r).cert);
  }
  store.reset();

  // Reopen: replay primes at the first retained round (SEGSTART base frame)
  // instead of assuming round 1, and the links survive too.
  store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 40u);
  EXPECT_EQ(store->first_retained_round(), first);
  EXPECT_FALSE(store->ReadRound(1).has_value());
  ASSERT_TRUE(store->ChainLinkAt(1).has_value());
  EXPECT_EQ(store->ChainLinkAt(1)->cert, MakeRound(1).cert);
}

TEST(CheckpointStoreTest, TruncateAbovePrunedCheckpointSurvivesForkSwitch) {
  // Fork recovery truncates the suffix and re-streams a replacement — after
  // compaction has already pruned the prefix. The truncate must not disturb
  // the compacted base or the checkpoint files.
  std::string dir = FreshDir("forkswitch");
  StoreOptions opts = SyncOptions(dir);
  opts.segment_bytes = 512;
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 30; ++r) {
    store->AppendRound(MakeRound(r));
    if (r == 10 || r == 20) {
      store->AppendCheckpoint(r, [r] { return MakeCheckpointData(r).Serialize(); });
    }
  }
  store->Flush();
  uint64_t first = store->first_retained_round();
  EXPECT_GT(first, 1u);

  store->TruncateSuffix(25);  // Fork switch at round 25 (above checkpoint 20).
  for (uint64_t r = 25; r <= 28; ++r) {
    StoredRound replacement = MakeRound(r ^ 0x4444, 64);
    replacement.round = r;
    store->AppendRound(std::move(replacement));
  }
  store->Flush();
  EXPECT_EQ(store->max_round(), 28u);
  store.reset();

  store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 28u);
  EXPECT_EQ(store->first_retained_round(), first);
  // The replacement suffix won; the checkpoints and pruned prefix survived.
  auto got = store->ReadRound(26);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->block, MakeRound(26 ^ 0x4444, 64).block);
  ASSERT_EQ(store->checkpoints().size(), 2u);
  EXPECT_NE(store->ReadCheckpointPayload(20), nullptr);
  EXPECT_FALSE(store->ReadRound(1).has_value());
  EXPECT_TRUE(store->ChainLinkAt(5).has_value());
}

// The corruption fuzz: every truncation length and every bit-flip of a
// checkpoint file must yield either the exact original payload or a clean
// refusal — never a partial or silently-different payload — and must leave
// the WAL rounds (the replay fallback) untouched.
class CheckpointCorruptionFuzz : public ::testing::Test {
 protected:
  void Build(const std::string& name) {
    dir_ = FreshDir(name);
    std::string error;
    auto store = BlockStore::Open(SyncOptions(dir_), &error);
    ASSERT_NE(store, nullptr) << error;
    for (uint64_t r = 1; r <= 12; ++r) {
      store->AppendRound(MakeRound(r));
    }
    payload_ = MakeCheckpointData(8).Serialize();
    store->AppendCheckpoint(8, [&] { return payload_; });
    store->Flush();
    auto listed = store->checkpoints();
    ASSERT_EQ(listed.size(), 1u);
    path_ = listed[0].path;
    store.reset();

    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in);
    original_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(original_.size(), CheckpointData::kManifestBytes);
  }

  void WriteFileBytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Opens the store and requires: checkpoint loads fully intact or not at
  // all, and the WAL fallback still holds every round.
  void ExpectIntactOrAbsent() {
    std::string error;
    auto store = BlockStore::Open(SyncOptions(dir_), &error);
    ASSERT_NE(store, nullptr) << error;  // A bad sidecar never fails Open.
    auto loaded = store->ReadCheckpointPayload(8);
    if (loaded != nullptr) {
      EXPECT_EQ(*loaded, payload_);
    }
    // Fallback intact: full WAL replay is still available bit-for-bit.
    EXPECT_EQ(store->max_round(), 12u);
    for (uint64_t r = 1; r <= 12; ++r) {
      auto got = store->ReadRound(r);
      ASSERT_TRUE(got.has_value()) << "round " << r;
      EXPECT_EQ(got->block, MakeRound(r).block);
      EXPECT_EQ(got->tip_hash, MakeRound(r).tip_hash);
    }
  }

  std::string dir_;
  std::string path_;
  std::vector<uint8_t> payload_;
  std::vector<char> original_;
};

TEST_F(CheckpointCorruptionFuzz, TruncationAtEveryLengthNeverLoadsPartially) {
  Build("fuzz_trunc");
  for (size_t len = 0; len < original_.size(); ++len) {
    WriteFileBytes(std::vector<char>(original_.begin(),
                                     original_.begin() + static_cast<long>(len)));
    {
      SCOPED_TRACE("truncated to " + std::to_string(len));
      ExpectIntactOrAbsent();
      // A truncated file is short of its declared payload length; it must
      // never load (the full-file case is exercised by len == size below).
      std::string error;
      auto store = BlockStore::Open(SyncOptions(dir_), &error);
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->ReadCheckpointPayload(8), nullptr);
    }
  }
  WriteFileBytes(original_);  // And the pristine file still loads.
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir_), &error);
  ASSERT_NE(store, nullptr);
  auto loaded = store->ReadCheckpointPayload(8);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(*loaded, payload_);
}

TEST_F(CheckpointCorruptionFuzz, BitFlipAtEveryByteNeverLoadsSilently) {
  Build("fuzz_flip");
  for (size_t i = 0; i < original_.size(); ++i) {
    std::vector<char> mutated = original_;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    WriteFileBytes(mutated);
    SCOPED_TRACE("bit flipped at offset " + std::to_string(i));
    // Header magic/version/length/CRC flips refuse outright; payload flips
    // fail the CRC. Either way: no partial and no silently-different load.
    std::string error;
    auto store = BlockStore::Open(SyncOptions(dir_), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->ReadCheckpointPayload(8), nullptr);
    EXPECT_EQ(store->max_round(), 12u);
  }
  WriteFileBytes(original_);
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir_), &error);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(store->ReadCheckpointPayload(8), nullptr);
}

}  // namespace
}  // namespace algorand
