// Byte-level codecs for the trajectory archive format.
//
// Everything the archive stores goes through these primitives: LEB128
// varints (unsigned), zigzag-mapped varints (signed), little-endian fixed
// 64-bit words, IEEE-754 doubles via their bit pattern, and
// length-prefixed strings. The encoding is platform-independent and fully
// deterministic, so the same run always writes the same archive bytes.
//
// ByteReader is the decoding counterpart designed for untrusted input: it
// never reads past the buffer, never throws on malformed bytes, and folds
// every failure into one sticky ok() flag the caller checks once at the
// end. That is what lets TrajectoryReader treat a truncated or corrupted
// file as "torn tail after the last good record" instead of crashing.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ppsim::io {

using Bytes = std::vector<std::uint8_t>;

inline void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

/// Unsigned LEB128: 7 value bits per byte, high bit = continuation.
inline void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Zigzag maps signed to unsigned so small-magnitude values (of either
/// sign) get short varints: 0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4, ...
inline constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void put_svarint(Bytes& out, std::int64_t v) { put_varint(out, zigzag(v)); }

/// Little-endian fixed 64-bit word.
inline void put_fixed64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_f64(Bytes& out, double v) {
  put_fixed64(out, std::bit_cast<std::uint64_t>(v));
}

/// varint length + raw bytes.
inline void put_string(Bytes& out, std::string_view s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// FNV-1a 64-bit, the archive's per-record checksum. Not cryptographic —
/// it guards against truncation and bit rot, not adversaries.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len,
                           std::uint64_t h = kFnvOffset) noexcept {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a(const Bytes& bytes) noexcept {
  return fnv1a(bytes.data(), bytes.size());
}

inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = kFnvOffset) noexcept {
  return fnv1a(reinterpret_cast<const std::uint8_t*>(s.data()), s.size(), h);
}

/// Bounded, non-throwing decoder over a byte span. Every accessor returns a
/// zero value once a malformed read happens; check ok() after a decode
/// sequence (reads never advance past the end, so a failed parse leaves a
/// usable position for torn-tail reporting).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  bool ok() const noexcept { return ok_; }
  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool at_end() const noexcept { return pos_ == size_; }

  std::uint8_t u8() noexcept {
    if (remaining() < 1) return fail<std::uint8_t>();
    return data_[pos_++];
  }

  std::uint64_t varint() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return fail<std::uint64_t>();
      const std::uint8_t byte = data_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) {
        // Reject non-canonical 10-byte encodings that would shift bits off
        // the top (shift 63 admits only the low bit of the final byte).
        if (shift == 63 && byte > 1) return fail<std::uint64_t>();
        return v;
      }
    }
    return fail<std::uint64_t>();  // > 10 continuation bytes
  }

  std::int64_t svarint() noexcept { return unzigzag(varint()); }

  std::uint64_t fixed64() noexcept {
    if (remaining() < 8) return fail<std::uint64_t>();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() noexcept { return std::bit_cast<double>(fixed64()); }

  std::string string() noexcept {
    const std::uint64_t len = varint();
    if (!ok_ || len > remaining()) return (fail<int>(), std::string{});
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  void skip(std::size_t n) noexcept {
    if (n > remaining()) {
      fail<int>();
      return;
    }
    pos_ += n;
  }

 private:
  template <typename T>
  T fail() noexcept {
    ok_ = false;
    return T{};
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ppsim::io
