#pragma once
// Codec helpers layered on Writer/Reader: Mid, sequence vectors and other
// aggregates shared by several PDUs. The per-member control vectors
// (put/get_seqs32, _u8s, _bools) move in bulk: the writer grows once per
// vector, and the reader takes the whole span once its length pre-check
// passes — the pre-check is the only way a vector read can fail, so the
// error kinds are those of an element-at-a-time codec.

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "wire/buffer.hpp"

namespace urcgc::wire {

inline void put_mid(Writer& w, const Mid& mid) {
  w.i32(mid.origin);
  w.i64(mid.seq);
}

[[nodiscard]] inline Result<Mid, DecodeError> get_mid(Reader& r) {
  auto origin = r.i32();
  if (!origin) return Unexpected(origin.error());
  auto seq = r.i64();
  if (!seq) return Unexpected(seq.error());
  return Mid{origin.value(), seq.value()};
}

inline void put_mids(Writer& w, const std::vector<Mid>& mids) {
  w.u32(static_cast<std::uint32_t>(mids.size()));
  for (const auto& mid : mids) put_mid(w, mid);
}

[[nodiscard]] inline Result<std::vector<Mid>, DecodeError> get_mids(Reader& r) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  // Each Mid costs 12 bytes on the wire; reject counts the buffer cannot hold
  // before allocating (defends against hostile length prefixes).
  if (count.value() * 12ULL > r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  std::vector<Mid> mids;
  mids.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto mid = get_mid(r);
    if (!mid) return Unexpected(mid.error());
    mids.push_back(mid.value());
  }
  return mids;
}

inline void put_seqs(Writer& w, const std::vector<Seq>& seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (Seq s : seqs) w.i64(s);
}

[[nodiscard]] inline Result<std::vector<Seq>, DecodeError> get_seqs(Reader& r) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  if (count.value() * 8ULL > r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  std::vector<Seq> seqs;
  seqs.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto s = r.i64();
    if (!s) return Unexpected(s.error());
    seqs.push_back(s.value());
  }
  return seqs;
}

/// Compact sequence vector: u32 per entry. Protocol sequence numbers are
/// per-originator counters that stay far below 2^32 in any realistic run;
/// the in-memory type stays 64-bit.
inline void put_seqs32(Writer& w, const std::vector<Seq>& seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  std::uint8_t* p = w.extend(4 * seqs.size());
  for (Seq s : seqs) {
    store_be32(p, static_cast<std::uint32_t>(s));
    p += 4;
  }
}

[[nodiscard]] inline Result<std::vector<Seq>, DecodeError> get_seqs32(
    Reader& r) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  std::span<const std::uint8_t> bytes;
  if (!r.take(count.value() * 4ULL, bytes)) {
    return Unexpected(DecodeError::kTruncated);
  }
  std::vector<Seq> seqs(count.value());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    seqs[i] = static_cast<Seq>(load_be32(bytes.data() + 4 * i));
  }
  return seqs;
}

inline void put_u8s(Writer& w, const std::vector<std::uint8_t>& values) {
  w.u32(static_cast<std::uint32_t>(values.size()));
  std::copy(values.begin(), values.end(), w.extend(values.size()));
}

[[nodiscard]] inline Result<std::vector<std::uint8_t>, DecodeError> get_u8s(
    Reader& r) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  std::span<const std::uint8_t> bytes;
  if (!r.take(count.value(), bytes)) {
    return Unexpected(DecodeError::kTruncated);
  }
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

inline void put_bools(Writer& w, const std::vector<bool>& values) {
  // Bit-packed: matches the paper's per-process state bitmaps.
  w.u32(static_cast<std::uint32_t>(values.size()));
  std::uint8_t* p = w.extend((values.size() + 7) / 8);  // zero-filled
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i]) {
      p[i / 8] = static_cast<std::uint8_t>(p[i / 8] | (1u << (i % 8)));
    }
  }
}

[[nodiscard]] inline Result<std::vector<bool>, DecodeError> get_bools(
    Reader& r) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  // Widen before rounding up: in 32-bit arithmetic a hostile count near
  // 2^32 wraps (count + 7) to a tiny value, defeating the truncation guard
  // and reserving gigabytes below. The other get_* pre-checks multiply by
  // a ULL element size, which already promotes to 64 bits.
  const std::uint64_t nbytes =
      (static_cast<std::uint64_t>(count.value()) + 7) / 8;
  std::span<const std::uint8_t> bytes;
  if (!r.take(nbytes, bytes)) return Unexpected(DecodeError::kTruncated);
  std::vector<bool> values(count.value());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = ((bytes[i / 8] >> (i % 8)) & 1u) != 0;
  }
  return values;
}

}  // namespace urcgc::wire
