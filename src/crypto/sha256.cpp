#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/internal/sha256_compress.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace algorand {
namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Chosen once per process. Zero-initialised (scalar) until this translation
// unit's initialisers run, so hashing from another static initialiser is
// still correct.
const bool kUseShaNi = internal::Sha256ShaNiAvailable();

}  // namespace

namespace internal {

void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks, size_t n) {
  for (; n > 0; --n, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(_M_X64)
// The SHA extensions run two rounds per sha256rnds2 and the message schedule
// in sha256msg1/msg2. They want the state split as ABEF/CDGH, so the state
// is shuffled into that form once and stays in two xmm registers for all n
// blocks. On bulk input it runs ~9x the scalar body (BENCH_crypto.json).
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(uint32_t state[8],
                                                              const uint8_t* blocks, size_t n) {
  const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[q % 4] holds schedule words 4q..4q+3 of quad-round q.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i w;
      if (q < 4) {
        w = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * q)),
                             byteswap);
      } else {
        w = _mm_sha256msg1_epu32(msg[q % 4], msg[(q + 1) % 4]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(msg[(q + 3) % 4], msg[(q + 2) % 4], 4));
        w = _mm_sha256msg2_epu32(w, msg[(q + 3) % 4]);
      }
      msg[q % 4] = w;
      __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool Sha256ShaNiAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
#else
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t n) {
  Sha256CompressScalar(state, blocks, n);
}
bool Sha256ShaNiAvailable() { return false; }
#endif

}  // namespace internal

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Compress(const uint8_t* blocks, size_t n) {
  if (kUseShaNi) {
    internal::Sha256CompressShaNi(state_, blocks, n);
  } else {
    internal::Sha256CompressScalar(state_, blocks, n);
  }
}

Sha256& Sha256::Update(std::span<const uint8_t> data) {
  if (data.empty()) {
    return *this;  // Also avoids memcpy from a null span (UB even at size 0).
  }
  length_ += data.size();
  size_t i = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    i = take;
    if (buf_len_ == 64) {
      Compress(buf_, 1);
      buf_len_ = 0;
    }
  }
  if (size_t whole = (data.size() - i) / 64; whole > 0) {
    Compress(data.data() + i, whole);
    i += 64 * whole;
  }
  if (i < data.size()) {
    std::memcpy(buf_ + buf_len_, data.data() + i, data.size() - i);
    buf_len_ += data.size() - i;
  }
  return *this;
}

Hash256 Sha256::Finish() {
  // The buffered tail, the 0x80 marker, zeros, and the big-endian bit length
  // fill one block, or two when fewer than 9 bytes are left in the first.
  const uint64_t bit_len = length_ * 8;
  uint8_t tail[128] = {};
  std::memcpy(tail, buf_, buf_len_);
  tail[buf_len_] = 0x80;
  const size_t blocks = buf_len_ < 56 ? 1 : 2;
  for (size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Compress(tail, blocks);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * static_cast<size_t>(i)] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * static_cast<size_t>(i) + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * static_cast<size_t>(i) + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * static_cast<size_t>(i) + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::Hash(std::span<const uint8_t> data) { return Sha256().Update(data).Finish(); }

Hash256 Sha256::Hash(std::string_view s) { return Sha256().Update(s).Finish(); }

}  // namespace algorand
