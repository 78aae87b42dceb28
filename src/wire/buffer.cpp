#include "wire/buffer.hpp"

namespace urcgc::wire {

void Writer::bytes(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

std::string_view to_string(DecodeError err) {
  switch (err) {
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kTrailingBytes: return "trailing bytes";
    case DecodeError::kBadValue: return "bad value";
  }
  return "?";
}

Result<bool, DecodeError> Reader::boolean() {
  auto v = u8();
  if (!v) return Unexpected(v.error());
  if (v.value() > 1) return Unexpected(DecodeError::kBadValue);
  return v.value() == 1;
}

Result<std::vector<std::uint8_t>, DecodeError> Reader::bytes() {
  auto len = u32();
  if (!len) return Unexpected(len.error());
  std::span<const std::uint8_t> s;
  if (!take(len.value(), s)) return Unexpected(DecodeError::kTruncated);
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

Result<std::string, DecodeError> Reader::str() {
  auto len = u32();
  if (!len) return Unexpected(len.error());
  std::span<const std::uint8_t> s;
  if (!take(len.value(), s)) return Unexpected(DecodeError::kTruncated);
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

Status<DecodeError> Reader::finish() const {
  if (pos_ != data_.size()) return Unexpected(DecodeError::kTrailingBytes);
  return {};
}

}  // namespace urcgc::wire
