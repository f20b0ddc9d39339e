// Binary (de)serialization primitives for the zero-copy snapshot layer
// (common/snapshot.h): explicit little-endian scalar codecs
// (EncodeU32Le/DecodeU32Le/...) and ByteCursor, a bounds-checked
// error-returning reader over an in-memory byte range. ByteCursor follows
// the socket_proto discipline: an on-disk (or on-wire) length is
// attacker-controlled input and is NEVER trusted — every read checks the
// remaining range first and reports failure by return value, so a corrupt
// input is a clean load failure, not a crash or an over-read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace tsd {

// --- explicit little-endian fixed-width scalar codecs ---
//
// Encoded byte-by-byte, so the encoding is little-endian on every host.
// (Bulk array sections in the snapshot layer are memcpy'd native and gated
// by a runtime endianness marker instead — see common/snapshot.h.)

inline void EncodeU32Le(std::uint32_t value, std::byte* out) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  }
}

inline void EncodeU64Le(std::uint64_t value, std::byte* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  }
}

inline std::uint32_t DecodeU32Le(const std::byte* in) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[i]))
             << (8 * i);
  }
  return value;
}

inline std::uint64_t DecodeU64Le(const std::byte* in) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[i]))
             << (8 * i);
  }
  return value;
}

/// True iff this host stores integers little-endian (the only layout the
/// zero-copy array sections can bind without a byte swap).
inline bool HostIsLittleEndian() {
  const std::uint32_t probe = 0x01020304;
  std::byte bytes[4];
  std::memcpy(bytes, &probe, 4);
  return std::to_integer<std::uint8_t>(bytes[0]) == 0x04;
}

/// Bounds-checked forward cursor over an in-memory byte range.
///
/// Every Read* returns false (leaving the output untouched and the cursor
/// where it was) instead of reading past the end — the caller decides how
/// to surface the failure. Nothing here allocates based on input bytes.
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t position() const { return pos_; }

  [[nodiscard]] bool ReadU32Le(std::uint32_t* out) {
    if (remaining() < 4) return false;
    *out = DecodeU32Le(bytes_.data() + pos_);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool ReadU64Le(std::uint64_t* out) {
    if (remaining() < 8) return false;
    *out = DecodeU64Le(bytes_.data() + pos_);
    pos_ += 8;
    return true;
  }

  /// Yields a view of the next `count` bytes without copying.
  [[nodiscard]] bool ReadBytes(std::size_t count,
                               std::span<const std::byte>* out) {
    if (remaining() < count) return false;
    *out = bytes_.subspan(pos_, count);
    pos_ += count;
    return true;
  }

  [[nodiscard]] bool Skip(std::size_t count) {
    if (remaining() < count) return false;
    pos_ += count;
    return true;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tsd
