// Durable block store tests: framing round-trips, segment roll + GC,
// fsync policies, crash semantics, fork-switch truncation across reopen,
// and the torn-tail fuzz — truncate and bit-flip the last segment at every
// byte offset and require recovery to yield exactly the committed prefix.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "src/store/block_store.h"
#include "tests/test_dirs.h"

namespace algorand {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) { return FreshTestDir("algorand_store_" + name); }

// Deterministic pseudo-random bytes (xorshift), so ReadRound results can be
// compared against regenerated originals.
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
  r.kind = round % 3 == 0 ? 0 : 1;  // Mix final and tentative.
  std::vector<uint8_t> tip = PatternBytes(round ^ 0xf00d, 32);
  memcpy(r.tip_hash.data(), tip.data(), 32);
  r.block = PatternBytes(round, block_bytes);
  r.cert = PatternBytes(round ^ 0xcafe, 16);
  return r;
}

void ExpectRoundEq(const StoredRound& got, const StoredRound& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.tip_hash, want.tip_hash);
  EXPECT_EQ(got.block, want.block);
  EXPECT_EQ(got.cert, want.cert);
}

StoreOptions SyncOptions(const std::string& dir) {
  StoreOptions opts;
  opts.dir = dir;
  opts.background_writer = false;  // Deterministic, single-threaded.
  opts.fsync = FsyncPolicy::kOff;  // Tests exercise framing, not the disk.
  return opts;
}

TEST(BlockStoreTest, FsyncPolicyNamesRoundTrip) {
  for (FsyncPolicy p :
       {FsyncPolicy::kEveryRound, FsyncPolicy::kBatched, FsyncPolicy::kOff}) {
    auto parsed = ParseFsyncPolicy(FsyncPolicyName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").has_value());
}

TEST(BlockStoreTest, EmptyStoreOpensAndReopens) {
  std::string dir = FreshDir("empty");
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 0u);
  EXPECT_EQ(store->next_round(), 1u);
  EXPECT_FALSE(store->ReadRound(1).has_value());
  store.reset();
  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 0u);
}

TEST(BlockStoreTest, RoundTripAcrossReopen) {
  std::string dir = FreshDir("roundtrip");
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 20; ++r) {
    store->AppendRound(MakeRound(r));
    EXPECT_EQ(store->max_round(), r);
    EXPECT_EQ(store->next_round(), r + 1);
  }
  Hash256 tip = store->tip_hash();
  store.reset();

  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 20u);
  EXPECT_EQ(store->replayed_rounds(), 20u);
  EXPECT_EQ(store->tip_hash(), tip);
  for (uint64_t r = 1; r <= 20; ++r) {
    auto got = store->ReadRound(r);
    ASSERT_TRUE(got.has_value()) << "round " << r;
    ExpectRoundEq(*got, MakeRound(r));
  }
  EXPECT_FALSE(store->ReadRound(21).has_value());
}

TEST(BlockStoreTest, SegmentRollAndTruncateGc) {
  std::string dir = FreshDir("segments");
  StoreOptions opts = SyncOptions(dir);
  opts.segment_bytes = 1024;  // Force frequent rolls.
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 60; ++r) {
    store->AppendRound(MakeRound(r));
  }
  size_t files_before = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    files_before += e.is_regular_file();
  }
  EXPECT_GT(files_before, 5u) << "expected multiple segments";

  // Fork switch far back: most segments hold only dead rounds and must be
  // garbage-collected once the truncate record is durable.
  store->TruncateSuffix(10);
  EXPECT_EQ(store->max_round(), 9u);
  size_t files_after = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    files_after += e.is_regular_file();
  }
  EXPECT_LT(files_after, files_before);
  store.reset();

  store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 9u);
  for (uint64_t r = 1; r <= 9; ++r) {
    auto got = store->ReadRound(r);
    ASSERT_TRUE(got.has_value()) << "round " << r;
    ExpectRoundEq(*got, MakeRound(r));
  }
  EXPECT_FALSE(store->ReadRound(10).has_value());
}

TEST(BlockStoreTest, FinalUpgradeFoldsIntoReadAndSurvivesReopen) {
  std::string dir = FreshDir("upgrade");
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 5; ++r) {
    StoredRound sr = MakeRound(r);
    sr.kind = 1;  // All tentative.
    store->AppendRound(std::move(sr));
  }
  EXPECT_EQ(store->highest_final_round(), 0u);
  std::vector<uint8_t> final_cert = PatternBytes(0xfade, 24);
  store->AppendFinalUpgrade(3, final_cert);
  EXPECT_EQ(store->highest_final_round(), 3u);
  auto got = store->ReadRound(3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->final_cert, final_cert);
  store.reset();

  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->highest_final_round(), 3u);
  got = store->ReadRound(3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->final_cert, final_cert);
  got = store->ReadRound(4);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->final_cert.empty());
}

// The ReplaceSuffix-after-reopen scenario (§8.2): a store reopened from disk
// fork-switches — truncate then an alternate suffix — and a second reopen
// must replay the new chain, skipping the garbage-collected dead history.
TEST(BlockStoreTest, ForkSwitchAfterReopenSurvivesSecondReopen) {
  std::string dir = FreshDir("forkswitch");
  StoreOptions opts = SyncOptions(dir);
  opts.segment_bytes = 1024;
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 10; ++r) {
    store->AppendRound(MakeRound(r));
  }
  store.reset();

  // Reopen, then fork-switch: rounds 6..8 are replaced by an alternate
  // history (different blocks, hence different tips).
  store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 10u);
  store->TruncateSuffix(6);
  EXPECT_EQ(store->max_round(), 5u);
  auto alt_round = [](uint64_t r) {
    StoredRound s = MakeRound(r ^ 0x8000);  // Alternate chain contents...
    s.round = r;                            // ...at the same round numbers.
    return s;
  };
  for (uint64_t r = 6; r <= 8; ++r) {
    store->AppendRound(alt_round(r));
  }
  EXPECT_EQ(store->max_round(), 8u);
  Hash256 tip = store->tip_hash();
  store.reset();

  store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 8u);
  EXPECT_EQ(store->tip_hash(), tip);
  for (uint64_t r = 1; r <= 5; ++r) {
    auto got = store->ReadRound(r);
    ASSERT_TRUE(got.has_value()) << "round " << r;
    ExpectRoundEq(*got, MakeRound(r));
  }
  for (uint64_t r = 6; r <= 8; ++r) {
    auto got = store->ReadRound(r);
    ASSERT_TRUE(got.has_value()) << "round " << r;
    ExpectRoundEq(*got, alt_round(r));
  }
  EXPECT_FALSE(store->ReadRound(9).has_value());
}

TEST(BlockStoreTest, FlushThenCrashKeepsEverything) {
  std::string dir = FreshDir("flushcrash");
  StoreOptions opts = SyncOptions(dir);
  opts.background_writer = true;
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 7; ++r) {
    store->AppendRound(MakeRound(r));
  }
  store->Flush();
  store->Crash();
  // Inert after Crash: appends no-op instead of touching closed fds.
  store->AppendRound(MakeRound(8));
  store.reset();

  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), 7u);
}

TEST(BlockStoreTest, CrashWithoutFlushKeepsCommittedPrefix) {
  std::string dir = FreshDir("crashprefix");
  StoreOptions opts = SyncOptions(dir);
  opts.background_writer = true;
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t r = 1; r <= 50; ++r) {
    store->AppendRound(MakeRound(r));
  }
  store->Crash();  // Queued-but-unwritten operations die, like SIGKILL.
  store.reset();

  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  uint64_t max = store->max_round();
  EXPECT_LE(max, 50u);
  for (uint64_t r = 1; r <= max; ++r) {
    auto got = store->ReadRound(r);
    ASSERT_TRUE(got.has_value()) << "round " << r;
    ExpectRoundEq(*got, MakeRound(r));
  }
}

TEST(BlockStoreTest, FsyncPoliciesAllRecover) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kEveryRound, FsyncPolicy::kBatched, FsyncPolicy::kOff}) {
    std::string dir = FreshDir(std::string("policy_") + FsyncPolicyName(policy));
    StoreOptions opts = SyncOptions(dir);
    opts.fsync = policy;
    MetricsRegistry metrics;
    std::string error;
    auto store = BlockStore::Open(opts, &error);
    ASSERT_NE(store, nullptr) << error;
    store->AttachMetrics(&metrics);
    for (uint64_t r = 1; r <= 10; ++r) {
      store->AppendRound(MakeRound(r));
    }
    store.reset();
    uint64_t fsyncs = metrics.Snapshot().counters["store.fsyncs"];
    if (policy == FsyncPolicy::kEveryRound) {
      // Payload fsync'd before each commit frame: at least one per round.
      EXPECT_GE(fsyncs, 10u);
    }

    store = BlockStore::Open(opts, &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->max_round(), 10u) << FsyncPolicyName(policy);
  }
}

// --- Torn-tail fuzz -------------------------------------------------------

// Minimal frame scanner mirroring the on-disk format, used to compute the
// exact committed prefix for each truncation point. Any mismatch with the
// store's own recovery is a bug in one of them.
struct CommitStep {
  uint64_t end_offset = 0;  // Offset just past the commit frame.
  uint64_t max_round = 0;   // Highest committed round once it applies.
};

struct SegmentScan {
  uint64_t base_max = 0;  // Highest round committed before this segment.
  std::vector<CommitStep> steps;
  uint64_t size = 0;
};

SegmentScan ScanLastSegment(const std::string& path, uint64_t prior_max) {
  SegmentScan scan;
  scan.base_max = prior_max;
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  scan.size = file.size();
  uint64_t off = 8;  // Segment header.
  uint64_t staged_max = prior_max;
  uint64_t cur_max = prior_max;
  while (off + 10 <= file.size()) {
    EXPECT_EQ(file[off], 0xa7u) << "frame magic at " << off;
    uint8_t type = file[off + 1];
    uint32_t len = 0;
    memcpy(&len, file.data() + off + 2, 4);  // Little-endian test host.
    uint64_t end = off + 10 + len;
    EXPECT_LE(end, file.size()) << "frame overruns file";
    if (end > file.size()) {
      break;
    }
    if (type == 1) {  // Round record: payload starts with the round number.
      uint64_t round = 0;
      memcpy(&round, file.data() + off + 10, 8);
      staged_max = round;
    } else if (type == 4) {  // Commit.
      cur_max = staged_max;
      scan.steps.push_back({end, cur_max});
    }
    off = end;
  }
  EXPECT_EQ(off, file.size()) << "pristine segment must end on a frame";
  return scan;
}

// Builds a pristine multi-segment store and returns the path of its last
// segment plus the regenerable round contents.
std::string BuildFuzzStore(const std::string& dir, uint64_t* out_rounds) {
  StoreOptions opts = SyncOptions(dir);
  opts.segment_bytes = 1200;  // Several ops per segment, several segments.
  std::string error;
  auto store = BlockStore::Open(opts, &error);
  EXPECT_NE(store, nullptr) << error;
  const uint64_t kRounds = 30;
  for (uint64_t r = 1; r <= kRounds; ++r) {
    store->AppendRound(MakeRound(r));
  }
  store.reset();
  *out_rounds = kRounds;
  std::string last;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string() > fs::path(last).filename().string()) {
      last = e.path().string();
    }
  }
  EXPECT_FALSE(last.empty());
  return last;
}

void VerifyCommittedPrefix(const std::string& dir, uint64_t expect_max,
                           uint64_t full_rounds) {
  std::string error;
  auto store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), expect_max);
  EXPECT_EQ(store->next_round(), expect_max + 1);
  for (uint64_t r = 1; r <= expect_max; ++r) {
    auto got = store->ReadRound(r);
    ASSERT_TRUE(got.has_value()) << "round " << r;
    ExpectRoundEq(*got, MakeRound(r));
  }
  if (expect_max > 0) {
    EXPECT_EQ(store->tip_hash(), MakeRound(expect_max).tip_hash);
  }
  for (uint64_t r = expect_max + 1; r <= full_rounds; ++r) {
    EXPECT_FALSE(store->ReadRound(r).has_value()) << "round " << r;
  }
  // The repaired log must accept new appends and survive another reopen.
  store->AppendRound(MakeRound(expect_max + 1));
  store.reset();
  store = BlockStore::Open(SyncOptions(dir), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->max_round(), expect_max + 1);
}

TEST(BlockStoreFuzzTest, TruncateLastSegmentAtEveryByteOffset) {
  std::string pristine = FreshDir("fuzz_trunc_pristine");
  uint64_t rounds = 0;
  std::string last_path = BuildFuzzStore(pristine, &rounds);
  std::string last_name = fs::path(last_path).filename().string();

  // A round record frame begins with its round number; the first one in the
  // last segment tells us what was committed in earlier segments.
  SegmentScan scan = ScanLastSegment(
      last_path, /*prior_max=*/[&] {
        std::ifstream in(last_path, std::ios::binary);
        std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
        uint64_t off = 8;
        while (off + 10 <= file.size()) {
          uint32_t len = 0;
          memcpy(&len, file.data() + off + 2, 4);
          if (file[off + 1] == 1) {
            uint64_t round = 0;
            memcpy(&round, file.data() + off + 10, 8);
            return round - 1;
          }
          off += 10 + len;
        }
        return uint64_t{0};
      }());
  ASSERT_GE(scan.steps.size(), 2u) << "fuzz store too small to be interesting";
  ASSERT_EQ(scan.steps.back().max_round, rounds);

  std::string work = ::testing::TempDir() + "algorand_store_fuzz_trunc_work";
  for (uint64_t cut = 0; cut <= scan.size; ++cut) {
    fs::remove_all(work);
    fs::copy(pristine, work);
    fs::resize_file(work + "/" + last_name, cut);
    uint64_t expect = scan.base_max;
    for (const CommitStep& step : scan.steps) {
      if (step.end_offset <= cut) {
        expect = step.max_round;
      }
    }
    SCOPED_TRACE("cut=" + std::to_string(cut));
    VerifyCommittedPrefix(work, expect, rounds);
    if (::testing::Test::HasFailure()) {
      break;  // One offset's diagnostics is enough; don't spam thousands.
    }
  }
  fs::remove_all(work);
  fs::remove_all(pristine);
}

TEST(BlockStoreFuzzTest, BitFlipLastSegmentAtEveryByteOffset) {
  std::string pristine = FreshDir("fuzz_flip_pristine");
  uint64_t rounds = 0;
  std::string last_path = BuildFuzzStore(pristine, &rounds);
  std::string last_name = fs::path(last_path).filename().string();
  uint64_t size = fs::file_size(last_path);

  std::string work = ::testing::TempDir() + "algorand_store_fuzz_flip_work";
  for (uint64_t pos = 0; pos < size; ++pos) {
    fs::remove_all(work);
    fs::copy(pristine, work);
    {
      std::fstream f(work + "/" + last_name,
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(static_cast<std::streamoff>(pos));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1u << (pos % 8)));
      f.seekp(static_cast<std::streamoff>(pos));
      f.write(&byte, 1);
    }
    SCOPED_TRACE("pos=" + std::to_string(pos));
    // A flipped bit may hit dead space never read back, an uncommitted
    // suffix, or a committed frame — recovery must never crash, never serve
    // corrupt data, and always yield some committed prefix of the original.
    std::string error;
    auto store = BlockStore::Open(SyncOptions(work), &error);
    ASSERT_NE(store, nullptr) << error;
    uint64_t max = store->max_round();
    EXPECT_LE(max, rounds);
    for (uint64_t r = 1; r <= max; ++r) {
      auto got = store->ReadRound(r);
      // A flip inside a committed round's payload is caught by the frame CRC
      // at read time; absent reads are acceptable there, corrupt ones never.
      if (got.has_value()) {
        ExpectRoundEq(*got, MakeRound(r));
      }
    }
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  fs::remove_all(work);
  fs::remove_all(pristine);
}

}  // namespace
}  // namespace algorand
