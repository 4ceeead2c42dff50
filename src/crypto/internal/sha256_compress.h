// The two SHA-256 compression bodies behind Sha256 (FIPS 180-4 §6.2.2).
//
// Sha256 picks one of them once per process: the SHA-NI body where the CPU
// has the SHA extensions, the portable scalar body everywhere else. Both are
// exposed here so tests can hold them to bit-identical output on any host;
// the scalar body is the reference.
#ifndef ALGORAND_SRC_CRYPTO_INTERNAL_SHA256_COMPRESS_H_
#define ALGORAND_SRC_CRYPTO_INTERNAL_SHA256_COMPRESS_H_

#include <cstddef>
#include <cstdint>

namespace algorand {
namespace internal {

// Absorbs n consecutive 64-byte blocks into the eight-word chaining state.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks, size_t n);

// Same contract, using the x86 SHA extensions. Call it only when
// Sha256ShaNiAvailable() is true; on non-x86 builds it is the scalar body.
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t n);

// Whether this CPU can run Sha256CompressShaNi.
bool Sha256ShaNiAvailable();

}  // namespace internal
}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_INTERNAL_SHA256_COMPRESS_H_
