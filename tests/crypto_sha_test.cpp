// Known-answer and property tests for SHA-256 / SHA-512, and parity between
// the scalar and SHA-NI SHA-256 compression bodies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/internal/sha256_compress.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha512.h"

namespace algorand {
namespace {

using CompressFn = void (*)(uint32_t*, const uint8_t*, size_t);

// One-shot SHA-256 through a chosen compression body, independent of
// Sha256's buffering. Whole blocks go to the body in runs of at most
// `run_blocks`, then the padded tail (FIPS 180-4 §5.1.1) in one call.
Hash256 HashWith(CompressFn compress, std::span<const uint8_t> msg, size_t run_blocks = 1 << 20) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t whole = msg.size() / 64;
  for (size_t done = 0; done < whole;) {
    size_t n = std::min(run_blocks, whole - done);
    compress(state, msg.data() + 64 * done, n);
    done += n;
  }
  uint8_t tail[128] = {};
  const size_t rem = msg.size() % 64;
  if (rem > 0) {
    std::memcpy(tail, msg.data() + 64 * whole, rem);
  }
  tail[rem] = 0x80;
  const size_t tail_blocks = rem < 56 ? 1 : 2;
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (size_t i = 0; i < 8; ++i) {
    tail[64 * tail_blocks - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  compress(state, tail, tail_blocks);
  Hash256 out;
  for (size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::vector<uint8_t> RandomBytes(DeterministicRng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  if (n > 0) {
    rng->FillBytes(out.data(), n);
  }
  return out;
}

std::span<const uint8_t> AsBytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

#define SKIP_WITHOUT_SHA_NI()                                \
  if (!internal::Sha256ShaNiAvailable()) {                   \
    GTEST_SKIP() << "CPU lacks the SHA extensions (sha_ni)"; \
  }

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  // NIST FIPS 180-4 example vector.
  EXPECT_EQ(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(h.Finish().ToHex(), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The scalar body is the reference. It runs here even on hosts where Sha256
// itself dispatches to SHA-NI.
TEST(Sha256BodiesTest, ScalarBodyKnownAnswers) {
  auto scalar = internal::Sha256CompressScalar;
  EXPECT_EQ(HashWith(scalar, AsBytes("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashWith(scalar, AsBytes("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      HashWith(scalar, AsBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  std::string million(1000000, 'a');
  EXPECT_EQ(HashWith(scalar, AsBytes(million)).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256BodiesTest, DispatchedHashMatchesScalarOnRandomMessages) {
  DeterministicRng rng(11);
  for (size_t len = 0; len <= 1024; ++len) {
    std::vector<uint8_t> msg = RandomBytes(&rng, len);
    ASSERT_EQ(Sha256::Hash(msg), HashWith(internal::Sha256CompressScalar, msg)) << "len " << len;
  }
}

TEST(Sha256BodiesTest, ShaNiMatchesScalarOnRandomMessages) {
  SKIP_WITHOUT_SHA_NI();
  DeterministicRng rng(12);
  for (size_t len = 0; len <= 1024; ++len) {
    std::vector<uint8_t> msg = RandomBytes(&rng, len);
    ASSERT_EQ(HashWith(internal::Sha256CompressShaNi, msg),
              HashWith(internal::Sha256CompressScalar, msg))
        << "len " << len;
  }
}

TEST(Sha256BodiesTest, ShaNiMatchesScalarOnOneMebibyte) {
  SKIP_WITHOUT_SHA_NI();
  DeterministicRng rng(13);
  std::vector<uint8_t> msg = RandomBytes(&rng, 1 << 20);
  const Hash256 scalar = HashWith(internal::Sha256CompressScalar, msg);
  EXPECT_EQ(HashWith(internal::Sha256CompressShaNi, msg), scalar);
  EXPECT_EQ(Sha256::Hash(msg), scalar);
}

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(Sha512::Hash("").ToHex(),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(Sha512::Hash("abc").ToHex(),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  EXPECT_EQ(Sha512::Hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                         "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")
                .ToHex(),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, MillionA) {
  Sha512 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(h.Finish().ToHex(),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// Incremental hashing must agree with one-shot hashing across all chunkings.
class ShaIncrementalTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShaIncrementalTest, Sha256ChunkedMatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 500; ++i) {
    msg.push_back(static_cast<char>('a' + (i % 26)));
  }
  size_t chunk = GetParam();
  Sha256 h;
  for (size_t i = 0; i < msg.size(); i += chunk) {
    h.Update(std::string_view(msg).substr(i, chunk));
  }
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg));
}

// The same chunkings drive both bodies: chunk / 64 whole blocks per call.
std::string IncrementalMessage() {
  std::string msg;
  for (int i = 0; i < 1500; ++i) {
    msg.push_back(static_cast<char>('a' + (i * 7 % 26)));
  }
  return msg;
}

TEST_P(ShaIncrementalTest, Sha256ChunkedMatchesScalarBody) {
  const std::string msg = IncrementalMessage();
  size_t chunk = GetParam();
  Sha256 h;
  for (size_t i = 0; i < msg.size(); i += chunk) {
    h.Update(std::string_view(msg).substr(i, chunk));
  }
  EXPECT_EQ(h.Finish(), HashWith(internal::Sha256CompressScalar, AsBytes(msg),
                                 std::max<size_t>(1, chunk / 64)));
}

TEST_P(ShaIncrementalTest, Sha256ShaNiBodyMatchesScalarBody) {
  SKIP_WITHOUT_SHA_NI();
  const std::string msg = IncrementalMessage();
  const size_t run = std::max<size_t>(1, GetParam() / 64);
  EXPECT_EQ(HashWith(internal::Sha256CompressShaNi, AsBytes(msg), run),
            HashWith(internal::Sha256CompressScalar, AsBytes(msg), run));
}

TEST_P(ShaIncrementalTest, Sha512ChunkedMatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 700; ++i) {
    msg.push_back(static_cast<char>('A' + (i % 26)));
  }
  size_t chunk = GetParam();
  Sha512 h;
  for (size_t i = 0; i < msg.size(); i += chunk) {
    h.Update(std::string_view(msg).substr(i, chunk));
  }
  EXPECT_EQ(h.Finish(), Sha512::Hash(msg));
}

INSTANTIATE_TEST_SUITE_P(Chunkings, ShaIncrementalTest,
                         ::testing::Values(1, 3, 7, 55, 56, 63, 64, 65, 111, 112, 127, 128, 129,
                                           256));

// Boundary lengths around the padding edge cases.
class ShaPaddingBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShaPaddingBoundaryTest, DigestsDifferAtAdjacentLengths) {
  size_t n = GetParam();
  std::string a(n, 'x');
  std::string b(n + 1, 'x');
  EXPECT_NE(Sha256::Hash(a), Sha256::Hash(b));
  EXPECT_NE(Sha512::Hash(a), Sha512::Hash(b));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ShaPaddingBoundaryTest,
                         ::testing::Values(0, 54, 55, 56, 57, 63, 64, 65, 110, 111, 112, 113, 119,
                                           127, 128, 129));

TEST(ShaTest, DistinctInputsDistinctDigests) {
  // Tiny sanity sweep: 200 distinct short strings, no collisions.
  std::vector<Hash256> seen;
  for (int i = 0; i < 200; ++i) {
    seen.push_back(Sha256::Hash("input-" + std::to_string(i)));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace algorand
