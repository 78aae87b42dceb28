#pragma once
// Wire-format encode/decode buffers.
//
// All protocol data units (application messages, REQUEST/DECISION control
// messages, recovery PDUs) are serialized through these buffers with
// explicit big-endian (network order) fixed-width fields. Sizes reported in
// the Table 1 reproduction are byte counts of these encodings — nothing is
// estimated.
//
// Writer never fails (grows its vector); Reader is bounds-checked and
// reports malformed input through DecodeError rather than UB. The
// fixed-width fields are inline; codec.hpp's vector helpers move whole
// vectors through extend()/take() — one bounds check or one growth per
// vector, not one per element — with byte-identical output.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace urcgc::wire {

inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

[[nodiscard]] inline std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { bytes_.reserve(reserve); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { store_be16(extend(2), v); }
  void u32(std::uint32_t v) { store_be32(extend(4), v); }
  void u64(std::uint64_t v) {
    std::uint8_t* p = extend(8);
    store_be32(p, static_cast<std::uint32_t>(v >> 32));
    store_be32(p + 4, static_cast<std::uint32_t>(v));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw byte string.
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);

  /// Appends `n` zero bytes for the caller to fill and returns their
  /// start (valid until the next write).
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

enum class DecodeError {
  kTruncated,       // read past end of buffer
  kTrailingBytes,   // finish() with unconsumed input
  kBadValue,        // field decoded but semantically invalid
};

[[nodiscard]] std::string_view to_string(DecodeError err);

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t, DecodeError> u8() {
    std::span<const std::uint8_t> s;
    if (!take(1, s)) return Unexpected(DecodeError::kTruncated);
    return s[0];
  }
  [[nodiscard]] Result<std::uint16_t, DecodeError> u16() {
    std::span<const std::uint8_t> s;
    if (!take(2, s)) return Unexpected(DecodeError::kTruncated);
    return load_be16(s.data());
  }
  [[nodiscard]] Result<std::uint32_t, DecodeError> u32() {
    std::span<const std::uint8_t> s;
    if (!take(4, s)) return Unexpected(DecodeError::kTruncated);
    return load_be32(s.data());
  }
  [[nodiscard]] Result<std::uint64_t, DecodeError> u64() {
    std::span<const std::uint8_t> s;
    if (!take(8, s)) return Unexpected(DecodeError::kTruncated);
    return (static_cast<std::uint64_t>(load_be32(s.data())) << 32) |
           load_be32(s.data() + 4);
  }
  [[nodiscard]] Result<std::int32_t, DecodeError> i32() {
    auto v = u32();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int32_t>(v.value());
  }
  [[nodiscard]] Result<std::int64_t, DecodeError> i64() {
    auto v = u64();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int64_t>(v.value());
  }
  [[nodiscard]] Result<bool, DecodeError> boolean();
  [[nodiscard]] Result<std::vector<std::uint8_t>, DecodeError> bytes();
  [[nodiscard]] Result<std::string, DecodeError> str();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Consumes the next `n` bytes as one span; false (consuming nothing)
  /// when fewer remain.
  [[nodiscard]] bool take(std::size_t n, std::span<const std::uint8_t>& out) {
    if (data_.size() - pos_ < n) return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  /// Succeeds iff the whole input has been consumed.
  [[nodiscard]] Status<DecodeError> finish() const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace urcgc::wire
