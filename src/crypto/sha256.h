// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper uses SHA-256 as its hash function H for block hashes, priorities,
// seeds, and the common coin. Incremental interface plus one-shot helpers.
// Compression runs on the x86 SHA extensions where the CPU has them and on a
// portable scalar body otherwise (src/crypto/internal/sha256_compress.h).
#ifndef ALGORAND_SRC_CRYPTO_SHA256_H_
#define ALGORAND_SRC_CRYPTO_SHA256_H_

#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace algorand {

class Sha256 {
 public:
  Sha256();

  Sha256& Update(std::span<const uint8_t> data);
  Sha256& Update(std::string_view s) {
    return Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }

  // Finalizes and returns the digest. The object must not be reused after.
  Hash256 Finish();

  static Hash256 Hash(std::span<const uint8_t> data);
  static Hash256 Hash(std::string_view s);

 private:
  // Absorbs n whole 64-byte blocks with the body chosen for this CPU.
  void Compress(const uint8_t* blocks, size_t n);

  uint32_t state_[8];
  uint64_t length_ = 0;  // Total bytes absorbed.
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_SHA256_H_
