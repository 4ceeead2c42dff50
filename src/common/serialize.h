// Bounds-checked binary serialization.
//
// All wire structures in this project (transactions, blocks, votes,
// certificates) serialize through Writer/Reader. The format is little-endian
// fixed-width integers plus length-prefixed byte strings; it is deliberately
// simple so message sizes are easy to reason about (the paper cares about the
// ~200-byte vote message and the 1 MB block).
#ifndef ALGORAND_SRC_COMMON_SERIALIZE_H_
#define ALGORAND_SRC_COMMON_SERIALIZE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"

namespace algorand {

class Writer {
 public:
  Writer() = default;

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { WriteLE(v, 2); }
  void U32(uint32_t v) { WriteLE(v, 4); }
  void U64(uint64_t v) { WriteLE(v, 8); }
  void I64(int64_t v) { WriteLE(static_cast<uint64_t>(v), 8); }

  template <size_t N>
  void Fixed(const FixedBytes<N>& b) {
    buf_.insert(buf_.end(), b.data(), b.data() + N);
  }

  // Length-prefixed (u32) byte string.
  void Bytes(std::span<const uint8_t> bytes) {
    U32(static_cast<uint32_t>(bytes.size()));
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  // Raw bytes with no length prefix (caller knows the framing).
  void Raw(std::span<const uint8_t> bytes) { buf_.insert(buf_.end(), bytes.begin(), bytes.end()); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void WriteLE(uint64_t v, int nbytes) {
    for (int i = 0; i < nbytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

// Reader returns std::nullopt-style failure through ok(); every accessor
// returns a zero value after the first out-of-bounds read, and ok() goes
// false, so callers can decode a full struct and check ok() once at the end.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8() { return static_cast<uint8_t>(ReadLE(1)); }
  uint16_t U16() { return static_cast<uint16_t>(ReadLE(2)); }
  uint32_t U32() { return static_cast<uint32_t>(ReadLE(4)); }
  uint64_t U64() { return ReadLE(8); }
  int64_t I64() { return static_cast<int64_t>(ReadLE(8)); }

  template <size_t N>
  FixedBytes<N> Fixed() {
    FixedBytes<N> out;
    if (!Check(N)) {
      return out;
    }
    std::memcpy(out.data(), data_.data() + pos_, N);
    pos_ += N;
    return out;
  }

  std::vector<uint8_t> Bytes() {
    uint32_t n = U32();
    std::vector<uint8_t> out;
    if (!Check(n)) {
      return out;
    }
    out.assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
               data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::vector<uint8_t> Raw(size_t n) {
    std::vector<uint8_t> out;
    if (!Check(n)) {
      return out;
    }
    out.assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
               data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  // Marks the reader failed if any input is left over (strict decode).
  bool AtEnd() {
    if (pos_ != data_.size()) {
      ok_ = false;
    }
    return ok_;
  }

 private:
  bool Check(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint64_t ReadLE(int nbytes) {
    if (!Check(static_cast<size_t>(nbytes))) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < nbytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    }
    pos_ += static_cast<size_t>(nbytes);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Strict decode of a flat record: `read(reader, out)` fills a default-made T
// field by field; nullopt after a short read or with bytes left over.
template <typename T, typename ReadFn>
std::optional<T> DecodeExactly(std::span<const uint8_t> data, ReadFn read) {
  Reader r(data);
  T out;
  read(r, out);
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_SERIALIZE_H_
