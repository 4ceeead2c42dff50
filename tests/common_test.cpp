// Unit tests for src/common: byte types, flat set, hex, serialization, RNG,
// stats.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_set.h"
#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/common/stats.h"
#include "src/common/time_units.h"

namespace algorand {
namespace {

TEST(FixedBytesTest, DefaultIsZero) {
  Hash256 h;
  EXPECT_TRUE(h.is_zero());
  EXPECT_EQ(h.prefix_u64(), 0u);
}

TEST(FixedBytesTest, OrderingIsLexicographic) {
  Hash256 a, b;
  a[0] = 1;
  b[0] = 2;
  EXPECT_LT(a, b);
  b[0] = 1;
  EXPECT_EQ(a, b);
  a[31] = 5;
  EXPECT_GT(a, b);
}

TEST(FixedBytesTest, HexRoundTrip) {
  Hash256 h;
  for (size_t i = 0; i < h.size(); ++i) {
    h[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  Hash256 back = Hash256::FromHex(h.ToHex());
  EXPECT_EQ(h, back);
}

TEST(FixedBytesTest, FromHexRejectsWrongLength) {
  EXPECT_TRUE(Hash256::FromHex("abcd").is_zero());
  EXPECT_TRUE(Hash256::FromHex("zz").is_zero());
}

TEST(FixedBytesTest, PrefixU64IsBigEndian) {
  Hash256 h;
  h[0] = 0x01;
  h[7] = 0xff;
  EXPECT_EQ(h.prefix_u64(), 0x01000000000000ffULL);
}

TEST(FixedBytesTest, UsableAsUnorderedKey) {
  std::set<Hash256> s;
  Hash256 a;
  a[3] = 9;
  s.insert(a);
  s.insert(Hash256());
  EXPECT_EQ(s.size(), 2u);
}

// Keys that share their first 8 bytes hash identically (FixedBytesHasher
// reads only the prefix), so they pile into one probe chain.
Hash256 SharedPrefixKey(uint32_t i) {
  Hash256 k;
  k[0] = 0xab;
  k[28] = static_cast<uint8_t>(i >> 24);
  k[29] = static_cast<uint8_t>(i >> 16);
  k[30] = static_cast<uint8_t>(i >> 8);
  k[31] = static_cast<uint8_t>(i);
  return k;
}

TEST(FlatSetTest, CollidingPrefixesProbeAndCompareFullKeys) {
  FlatSet<Hash256> set;
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_EQ(SharedPrefixKey(i).prefix_u64(), SharedPrefixKey(0).prefix_u64());
    EXPECT_TRUE(set.insert(SharedPrefixKey(i)));
  }
  EXPECT_EQ(set.size(), 200u);
  for (uint32_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(set.contains(SharedPrefixKey(i)));
    EXPECT_FALSE(set.insert(SharedPrefixKey(i)));  // Already present.
  }
  // Same prefix, never inserted: walks the whole chain and misses.
  EXPECT_FALSE(set.contains(SharedPrefixKey(200)));
  EXPECT_FALSE(set.contains(SharedPrefixKey(1u << 20)));
  EXPECT_EQ(set.size(), 200u);
}

TEST(FlatSetTest, GrowthKeepsEveryKeyAndMatchesReference) {
  DeterministicRng rng(41);
  FlatSet<Hash256> set;
  std::set<Hash256> reference;
  std::vector<Hash256> inserted;
  size_t last_capacity = set.capacity();
  size_t growths = 0;
  for (int i = 0; i < 20000; ++i) {
    Hash256 k;
    if (!inserted.empty() && rng.UniformU64(4) == 0) {
      k = inserted[rng.UniformU64(inserted.size())];  // A repeat.
    } else {
      rng.FillBytes(k.data(), 2);  // Narrow keys: plenty of repeats too.
      rng.FillBytes(k.data() + 30, 2);
    }
    EXPECT_EQ(set.insert(k), reference.insert(k).second);
    inserted.push_back(k);
    if (set.capacity() != last_capacity) {
      ++growths;
      last_capacity = set.capacity();
    }
    ASSERT_LE(set.size() * 4, set.capacity() * 3);  // Load stays <= 3/4.
  }
  EXPECT_GT(growths, 5u);
  EXPECT_EQ(set.size(), reference.size());
  for (const Hash256& k : reference) {
    EXPECT_TRUE(set.contains(k));
  }
  for (int i = 0; i < 1000; ++i) {
    Hash256 k;
    rng.FillBytes(k.data(), k.size());
    EXPECT_EQ(set.contains(k), reference.count(k) != 0);
  }
}

TEST(FlatSetTest, ClearKeepsCapacity) {
  FlatSet<Hash256> set;
  EXPECT_FALSE(set.contains(SharedPrefixKey(1)));  // Empty, no storage yet.
  for (uint32_t i = 0; i < 1000; ++i) {
    set.insert(SharedPrefixKey(i));
  }
  const size_t capacity = set.capacity();
  ASSERT_GE(capacity, 1000u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_FALSE(set.contains(SharedPrefixKey(7)));
  // The next generation refills without growing.
  for (uint32_t i = 5000; i < 6000; ++i) {
    EXPECT_TRUE(set.insert(SharedPrefixKey(i)));
  }
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_FALSE(set.contains(SharedPrefixKey(7)));
  EXPECT_TRUE(set.contains(SharedPrefixKey(5500)));
}

TEST(FlatSetTest, SwapExchangesGenerations) {
  FlatSet<Hash256> a;
  FlatSet<Hash256> b;
  a.insert(SharedPrefixKey(1));
  a.insert(SharedPrefixKey(2));
  b.insert(SharedPrefixKey(3));
  std::swap(a, b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(a.contains(SharedPrefixKey(3)));
  EXPECT_TRUE(b.contains(SharedPrefixKey(1)));
  EXPECT_FALSE(a.contains(SharedPrefixKey(1)));
}

// Backward-shift erase against a std::map, with keys that share one prefix
// (one probe chain) mixed with random ones, through growth and heavy erase.
TEST(FlatMapTest, EraseKeepsChainsAndMatchesReference) {
  DeterministicRng rng(43);
  FlatMap<Hash256, uint32_t> map;
  std::map<Hash256, uint32_t> reference;
  std::vector<Hash256> keys;
  for (uint32_t i = 0; i < 300; ++i) {
    keys.push_back(SharedPrefixKey(i));
    Hash256 k;
    rng.FillBytes(k.data(), k.size());
    keys.push_back(k);
  }
  for (int op = 0; op < 20000; ++op) {
    const Hash256& k = keys[rng.UniformU64(keys.size())];
    const uint32_t v = static_cast<uint32_t>(op);
    if (rng.UniformU64(3) == 0) {
      EXPECT_EQ(map.erase(k), reference.erase(k) == 1);
    } else {
      EXPECT_EQ(map.insert(k, v), reference.emplace(k, v).second);
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  for (const Hash256& k : keys) {
    auto it = reference.find(k);
    const uint32_t* v = map.find(k);
    ASSERT_EQ(v != nullptr, it != reference.end());
    if (v != nullptr) {
      EXPECT_EQ(*v, it->second);
    }
  }
  // Erasing everything leaves every probe chain empty.
  for (const auto& [k, v] : reference) {
    EXPECT_TRUE(map.erase(k));
  }
  EXPECT_EQ(map.size(), 0u);
  for (const Hash256& k : keys) {
    EXPECT_FALSE(map.contains(k));
  }
}

// reserve() sizes to any capacity, not only a power of two. Within it,
// find-or-insert, erase and the slot walk agree with a std::map, and the
// table never grows: at most `n` keys are live at once.
TEST(FlatMapTest, ReservedCapacityMatchesReference) {
  DeterministicRng rng(47);
  for (size_t n : {1, 3, 10, 100, 1000, 3001}) {
    FlatMap<Hash256, uint32_t> map;
    map.reserve(n);
    const size_t capacity = map.capacity();
    EXPECT_GE(capacity * 3, n * 4);  // The smallest capacity at <= 3/4 load.
    EXPECT_LT((capacity - 1) * 3, n * 4);
    std::vector<Hash256> keys;
    for (uint32_t i = 0; i < n; ++i) {
      Hash256 k = SharedPrefixKey(i);
      if (i % 2 == 1) {
        rng.FillBytes(k.data(), k.size());
      }
      keys.push_back(k);
    }
    std::map<Hash256, uint32_t> reference;
    for (size_t op = 0; op < 8 * n; ++op) {
      const Hash256& k = keys[rng.UniformU64(keys.size())];
      const uint32_t v = static_cast<uint32_t>(op);
      switch (rng.UniformU64(3)) {
        case 0: {
          const auto [stored, inserted] = map.try_emplace(k, v);
          const auto it = reference.try_emplace(k, v);
          EXPECT_EQ(inserted, it.second);
          EXPECT_EQ(stored, it.first->second);
          break;
        }
        case 1:
          map[k] += 1;  // Value-initialized first when absent.
          reference[k] += 1;
          break;
        default:
          EXPECT_EQ(map.erase(k), reference.erase(k) == 1);
      }
      ASSERT_EQ(map.size(), reference.size());
    }
    EXPECT_EQ(map.capacity(), capacity);
    map.reserve(n / 2);  // Never shrinks.
    EXPECT_EQ(map.capacity(), capacity);
    // The walk visits every entry once.
    std::map<Hash256, uint32_t> walked;
    size_t visits = 0;
    map.for_each([&](const auto& e) {
      walked.emplace(e.key, e.value);
      ++visits;
    });
    EXPECT_EQ(visits, reference.size());
    EXPECT_EQ(walked, reference);
  }
}

// Keys that share a prefix share a home slot, so each table below holds two
// probe chains, one per prefix, which merge where they meet. A chain that
// runs past the last slot continues at slot 0; the slot-order walk then
// starts with neither chain's first key. Erasing in a random order must keep
// every remaining key reachable, also where a moved entry's home lies before
// the wrap and the hole after it.
TEST(FlatMapTest, EraseAcrossTheWrapAroundKeepsChains) {
  DeterministicRng rng(53);
  size_t wrapped = 0;
  for (uint8_t prefix = 0; prefix < 16; prefix += 2) {
    for (uint32_t n = 3; n < 40; ++n) {
      FlatMap<Hash256, uint32_t> map;
      map.reserve(n);
      auto key = [prefix](uint32_t i) {
        Hash256 k = SharedPrefixKey(i);
        k[0] = static_cast<uint8_t>(prefix + i % 2);
        return k;
      };
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE(map.insert(key(i), i));
      }
      std::vector<uint32_t> walk;
      map.for_each([&walk](const auto& e) { walk.push_back(e.value); });
      ASSERT_EQ(walk.size(), n);
      if (walk.front() > 1) {
        ++wrapped;
      }
      std::vector<uint32_t> order(n);
      for (uint32_t i = 0; i < n; ++i) {
        order[i] = i;
      }
      rng.Shuffle(&order);
      std::set<uint32_t> live(order.begin(), order.end());
      for (uint32_t victim : order) {
        ASSERT_TRUE(map.erase(key(victim)));
        live.erase(victim);
        for (uint32_t i = 0; i < n; ++i) {
          const uint32_t* v = map.find(key(i));
          ASSERT_EQ(v != nullptr, live.count(i) == 1) << "n=" << n << " key " << i;
          if (v != nullptr) {
            EXPECT_EQ(*v, i);
          }
        }
      }
      EXPECT_EQ(map.size(), 0u);
    }
  }
  EXPECT_GT(wrapped, 20u);
}

TEST(HexTest, EncodeKnown) {
  std::vector<uint8_t> v = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(v), "0001abff");
}

TEST(HexTest, DecodeKnown) {
  auto v = HexDecode("0001ABff");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, (std::vector<uint8_t>{0x00, 0x01, 0xab, 0xff}));
}

TEST(HexTest, DecodeRejectsOddLength) { EXPECT_FALSE(HexDecode("abc").has_value()); }

TEST(HexTest, DecodeRejectsNonHex) { EXPECT_FALSE(HexDecode("zz").has_value()); }

TEST(HexTest, EmptyRoundTrip) {
  auto v = HexDecode("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
  EXPECT_EQ(HexEncode(*v), "");
}

TEST(SerializeTest, IntegerRoundTrip) {
  Writer w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);

  Reader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, FixedRoundTrip) {
  Hash256 h;
  h[0] = 0x42;
  h[31] = 0x24;
  Writer w;
  w.Fixed(h);
  Reader r(w.buffer());
  EXPECT_EQ(r.Fixed<32>(), h);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, BytesRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  Writer w;
  w.Bytes(payload);
  Reader r(w.buffer());
  EXPECT_EQ(r.Bytes(), payload);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, ReaderDetectsTruncation) {
  Writer w;
  w.U32(7);
  std::vector<uint8_t> buf = w.buffer();
  buf.pop_back();
  Reader r(buf);
  (void)r.U32();
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, ReaderDetectsOversizedBytesLength) {
  Writer w;
  w.U32(1000);  // Claims 1000 bytes follow; none do.
  Reader r(w.buffer());
  (void)r.Bytes();
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, AtEndFailsWithLeftover) {
  Writer w;
  w.U8(1);
  w.U8(2);
  Reader r(w.buffer());
  (void)r.U8();
  EXPECT_FALSE(r.AtEnd());
}

TEST(SerializeTest, FailedReaderReturnsZeroes) {
  Reader r{std::span<const uint8_t>()};
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_TRUE(r.Fixed<32>().is_zero());
  EXPECT_FALSE(r.ok());
}

TEST(RngTest, DeterministicFromSeed) {
  DeterministicRng a(1234);
  DeterministicRng b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  DeterministicRng a(1);
  DeterministicRng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, LabelledStreamsDiffer) {
  DeterministicRng a(7, "alpha");
  DeterministicRng b(7, "beta");
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformU64InRange) {
  DeterministicRng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformU64CoversRange) {
  DeterministicRng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.UniformU64(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusive) {
  DeterministicRng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  DeterministicRng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  DeterministicRng rng(77);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  DeterministicRng rng(78);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ShufflePreservesElements) {
  DeterministicRng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, FillBytesDeterministic) {
  DeterministicRng a(11), b(11);
  uint8_t x[33], y[33];
  a.FillBytes(x, sizeof(x));
  b.FillBytes(y, sizeof(y));
  EXPECT_EQ(0, memcmp(x, y, sizeof(x)));
}

TEST(StatsTest, SummaryOfKnownValues) {
  Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.p25, 2);
  EXPECT_DOUBLE_EQ(s.p75, 4);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_EQ(s.count, 5u);
}

TEST(StatsTest, SummaryEmpty) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0);
}

TEST(StatsTest, SingleValue) {
  Summary s = Summarize({42});
  EXPECT_DOUBLE_EQ(s.min, 42);
  EXPECT_DOUBLE_EQ(s.max, 42);
  EXPECT_DOUBLE_EQ(s.median, 42);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0.25), 2.5);
}

TEST(TimeUnitsTest, Conversions) {
  EXPECT_EQ(Seconds(2), 2 * kSecond);
  EXPECT_EQ(Minutes(1), 60 * kSecond);
  EXPECT_EQ(Millis(1500), kSecond + 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_EQ(FromSeconds(2.5), Seconds(2) + Millis(500));
}

TEST(BytesTest, AppendBytesAndBytesOfString) {
  std::vector<uint8_t> out = BytesOfString("ab");
  AppendBytes(&out, BytesOfString("cd"));
  EXPECT_EQ(out, (std::vector<uint8_t>{'a', 'b', 'c', 'd'}));
}

}  // namespace
}  // namespace algorand
