// Little-endian binary encoding helpers for the scheduler wire protocol.
//
// Writer appends -- either into its own buffer or into a caller-supplied
// scratch buffer so hot paths can reuse one allocation across messages;
// it can also patch a previously reserved length field in place
// (single-pass framing).  Reader is strictly bounds-checked and throws
// xartrek::Error on truncation (never reads past the buffer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace xartrek {

// Canonical little-endian packing for the writer.
inline void put_le_u16(unsigned char* dst, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) dst[i] = (v >> (8 * i)) & 0xFF;
}
inline void put_le_u32(unsigned char* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = (v >> (8 * i)) & 0xFF;
}
inline void put_le_u64(unsigned char* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = (v >> (8 * i)) & 0xFF;
}

/// Append-only little-endian writer.  Default-constructed it owns its
/// buffer (finish with `take`); constructed over an external vector it
/// appends there, letting callers keep one scratch buffer alive across
/// many messages.  Not copyable or movable: the external-buffer mode
/// holds a pointer into the caller's vector, and the owning mode a
/// pointer into itself.
class BinaryWriter {
 public:
  BinaryWriter() : out_(&owned_) {}
  explicit BinaryWriter(std::vector<std::byte>& out) : out_(&out) {}
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void u8(std::uint8_t v) { out_->push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    unsigned char b[2];
    put_le_u16(b, v);
    append(b, sizeof(b));
  }
  void u32(std::uint32_t v) {
    unsigned char b[4];
    put_le_u32(b, v);
    append(b, sizeof(b));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    put_le_u64(b, v);
    append(b, sizeof(b));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length-prefixed string (<= 64 KiB).
  void str(std::string_view s) {
    XAR_EXPECTS(s.size() <= 0xFFFF);
    u16(static_cast<std::uint16_t>(s.size()));
    append(reinterpret_cast<const unsigned char*>(s.data()), s.size());
  }

  /// Overwrite 4 bytes at `offset` (reserved earlier, e.g. with
  /// `u32(0)`) with the little-endian encoding of `v`.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    XAR_EXPECTS(offset + 4 <= out_->size());
    put_le_u32(reinterpret_cast<unsigned char*>(out_->data() + offset), v);
  }

  /// Only valid for a writer that owns its buffer.
  [[nodiscard]] std::vector<std::byte> take() {
    XAR_EXPECTS(out_ == &owned_);
    return std::move(owned_);
  }
  [[nodiscard]] std::size_t size() const { return out_->size(); }

 private:
  void append(const unsigned char* data, std::size_t n) {
    const auto* p = reinterpret_cast<const std::byte*>(data);
    out_->insert(out_->end(), p, p + n);
  }

  std::vector<std::byte> owned_;
  std::vector<std::byte>* out_;
};

/// Bounds-checked little-endian reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return std::to_integer<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() {
    const auto lo = u8();
    const auto hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint16_t len = u16();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  /// Length-prefixed string, borrowed: the returned view aliases the
  /// reader's underlying buffer and is valid only while that buffer
  /// lives.  Bounds-checked exactly like str().
  std::string_view str_view() {
    const std::uint16_t len = u16();
    need(len);
    std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_),
                       len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw Error("binary decode: truncated input");
    }
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace xartrek
