// Binary serialization primitives for the snapshot subsystem: a growing
// little-endian byte writer, a bounds-checked reader, and CRC32.
//
// The encoding is deliberately dumb — fixed-width little-endian integers,
// IEEE-754 doubles by bit pattern, length-prefixed strings — because the
// snapshot contract is bit-exactness: a restored engine must continue a run
// producing exactly the bytes the uninterrupted run would. No varints, no
// text formats, no locale anywhere near a double.
//
// Every reader operation validates against the remaining byte count before
// touching memory and throws a typed SerialError on violation, so a
// truncated or bit-flipped snapshot fails decode loudly instead of invoking
// undefined behaviour. Length prefixes are additionally validated against
// the remaining bytes before any allocation, so a corrupt length cannot
// trigger a multi-gigabyte reserve.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace valkyrie::util {

/// Typed decode/validation failure. The snapshot layer surfaces these
/// unchanged, so callers can switch on code() — e.g. the corruption tests
/// assert that truncation yields kTruncated, a flipped payload bit
/// kBadChecksum, a foreign file kBadMagic.
class SerialError : public std::runtime_error {
 public:
  enum class Code : std::uint8_t {
    kTruncated,           // read past the end of the buffer
    kBadMagic,            // not a snapshot file
    kBadVersion,          // snapshot format version not understood
    kBadChecksum,         // section CRC32 mismatch (bit rot / flip)
    kBadSection,          // framing broken: unknown/duplicate/missing section
    kMalformed,           // field-level inconsistency inside a section
    kIncompatible,        // decodes fine but does not match the target
                          // engine (detector hash, platform, script)
    kUnsupportedWorkload, // a live workload has no snapshot support
    kIo,                  // filesystem write/fsync/rename failure in a sink
  };

  SerialError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

namespace detail {

/// Native <-> little-endian for one word: the identity on little-endian
/// hosts, a byteswap otherwise. The conversion is its own inverse, so the
/// same helper serves stores and loads.
template <typename U>
[[nodiscard]] constexpr U to_le(U v) noexcept {
  static_assert(std::is_same_v<U, std::uint32_t> ||
                std::is_same_v<U, std::uint64_t>);
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else if constexpr (sizeof(U) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

template <typename U>
void store_le(std::uint8_t* dst, U v) noexcept {
  v = to_le(v);
  std::memcpy(dst, &v, sizeof(U));
}

template <typename U>
[[nodiscard]] U load_le(const std::uint8_t* src) noexcept {
  U v;
  std::memcpy(&v, src, sizeof(U));
  return to_le(v);
}

/// Copies `words` 8-byte words between native and little-endian order (in
/// either direction): one block copy on little-endian hosts, a per-word
/// byteswap otherwise.
inline void copy_words_le(void* dst, const void* src,
                          std::size_t words) noexcept {
  if (words == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, words * 8);
  } else {
    auto* out = static_cast<std::uint8_t*>(dst);
    const auto* in = static_cast<const std::uint8_t*>(src);
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t w;
      std::memcpy(&w, in + 8 * i, 8);
      store_le(out + 8 * i, w);
    }
  }
}

/// Slicing-by-16 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// kCrcTables[0] is the classic bytewise table, and kCrcTables[s][b] is the
/// CRC of byte b followed by s zero bytes, so sixteen table lookups advance
/// the register over 16 input bytes.
inline constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
  }
  return t;
}();

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span,
/// sixteen bytes per step (slicing-by-16).
[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = detail::kCrcTables;
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint64_t lo = detail::load_le<std::uint64_t>(p) ^ crc;
    const std::uint64_t hi = detail::load_le<std::uint64_t>(p + 8);
    crc = t[15][lo & 0xffu] ^ t[14][(lo >> 8) & 0xffu] ^
          t[13][(lo >> 16) & 0xffu] ^ t[12][(lo >> 24) & 0xffu] ^
          t[11][(lo >> 32) & 0xffu] ^ t[10][(lo >> 40) & 0xffu] ^
          t[9][(lo >> 48) & 0xffu] ^ t[8][lo >> 56] ^
          t[7][hi & 0xffu] ^ t[6][(hi >> 8) & 0xffu] ^
          t[5][(hi >> 16) & 0xffu] ^ t[4][(hi >> 24) & 0xffu] ^
          t[3][(hi >> 32) & 0xffu] ^ t[2][(hi >> 40) & 0xffu] ^
          t[1][(hi >> 48) & 0xffu] ^ t[0][hi >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

/// Appends little-endian primitives to a growing byte buffer. Every field
/// is one resize plus one word store; blocks of doubles (sample histories,
/// feature vectors, f64 spans) are one block copy each.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& sink) : out_(&sink) {}

  [[nodiscard]] std::vector<std::uint8_t>& buffer() noexcept { return *out_; }
  [[nodiscard]] std::size_t size() const noexcept { return out_->size(); }

  /// Reserves room for `extra` more bytes, so a caller that knows its
  /// output size up front never reallocates mid-write.
  void reserve(std::size_t extra) { out_->reserve(out_->size() + extra); }

  void u8(std::uint8_t v) { out_->push_back(v); }

  void u32(std::uint32_t v) { detail::store_le(grow(4), v); }

  void u64(std::uint64_t v) { detail::store_le(grow(8), v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// IEEE-754 bit pattern, so -0.0, NaN payloads and every denormal round
  /// trip exactly.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(grow(data.size()), data.data(), data.size());
  }

  /// Length-prefixed string (u64 length + raw bytes).
  void str(std::string_view s) {
    u64(s.size());
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Records made of nothing but doubles (a double, an HpcSample, a
  /// FeatureVec, ResourceShares), written back to back without a length
  /// prefix: each double is one little-endian u64 bit pattern, exactly as
  /// f64() would write it.
  template <typename Record>
  void f64_records(std::span<const Record> records) {
    static_assert(std::is_trivially_copyable_v<Record> &&
                  sizeof(Record) % sizeof(double) == 0);
    words(records.data(), records.size_bytes() / 8);
  }

  void f64_span(std::span<const double> values) {
    u64(values.size());
    f64_records(values);
  }

  void u64_span(std::span<const std::uint64_t> values) {
    u64(values.size());
    words(values.data(), values.size());
  }

  /// Patches a previously written u64 at `offset` (section length fixup
  /// after the payload is known).
  void patch_u64(std::size_t offset, std::uint64_t v) {
    detail::store_le(out_->data() + offset, v);
  }

 private:
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }

  void words(const void* src, std::size_t count) {
    detail::copy_words_le(grow(count * 8), src, count);
  }

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian reader over a fixed byte span. Every read
/// throws SerialError(kTruncated) rather than walking off the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() { return detail::load_le<std::uint32_t>(take(4)); }

  std::uint64_t u64() { return detail::load_le<std::uint64_t>(take(8)); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() { return u8() != 0; }

  /// A length that must fit in the remaining bytes, with each element
  /// occupying at least `element_size` bytes — validated BEFORE the caller
  /// allocates, so a corrupt length cannot drive a huge reserve.
  std::size_t length(std::size_t element_size = 1) {
    const std::uint64_t n = u64();
    if (element_size != 0 && n > remaining() / element_size) {
      throw SerialError(SerialError::Code::kTruncated,
                        "serial: length prefix exceeds remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::string str() {
    const std::size_t n = length();
    const std::span<const std::uint8_t> raw = bytes(n);
    return {reinterpret_cast<const char*>(raw.data()), raw.size()};
  }

  /// Fills `records` (see ByteWriter::f64_records) with one bounds check
  /// and one block copy.
  template <typename Record>
  void f64_records(std::span<Record> records) {
    static_assert(std::is_trivially_copyable_v<Record> &&
                  sizeof(Record) % sizeof(double) == 0);
    const std::size_t n = records.size_bytes();
    detail::copy_words_le(records.data(), take(n), n / 8);
  }

  std::vector<double> f64_vec() {
    std::vector<double> out(length(8));
    f64_records(std::span<double>(out));
    return out;
  }

  std::vector<std::uint64_t> u64_vec() {
    std::vector<std::uint64_t> out(length(8));
    detail::copy_words_le(out.data(), take(out.size() * 8), out.size());
    return out;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw SerialError(SerialError::Code::kTruncated,
                        "serial: read past end of snapshot buffer");
    }
  }

  /// Bounds-checks and consumes `n` bytes, returning where they start.
  const std::uint8_t* take(std::size_t n) {
    need(n);
    const std::uint8_t* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a over raw bytes — the compatibility-hash primitive detectors use
/// to fingerprint their configuration/parameters in a snapshot.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ULL) noexcept {
  return fnv1a(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, seed);
}

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const double> values,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(bits >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace valkyrie::util
