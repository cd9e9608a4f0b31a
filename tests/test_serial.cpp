// The snapshot byte layer's primitives against independent oracles: the
// sliced CRC32 against a bytewise reference kept in this file, and the
// word-wide writer/reader against the little-endian layout spelled out byte
// by byte. The snapshot format is a pure function of these primitives, so
// they must agree exactly with the per-byte forms they replaced.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "hpc/hpc.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::util {
namespace {

/// Reference CRC-32 (reflected polynomial 0xEDB88320), one table lookup
/// per byte.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::span<const std::uint8_t> as_u8(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32(as_u8("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SlicedEqualsBytewiseAtEveryLengthAndMisalignment) {
  const std::vector<std::uint8_t> buf = random_bytes(257 + 8, 0xc3c1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::span<const std::uint8_t> view(buf.data() + offset, len);
      ASSERT_EQ(crc32(view), crc32_bytewise(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, SlicedEqualsBytewiseOnAMultiMegabyteBuffer) {
  const std::vector<std::uint8_t> buf = random_bytes((3 << 20) + 5, 0xc3c2);
  EXPECT_EQ(crc32(buf), crc32_bytewise(buf));
}

TEST(ByteWriter, WordsAreLittleEndianAtTheByteLevel) {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.u32(0x04030201u);
  out.u64(0x0c0b0a0908070605ULL);
  out.i64(-2);
  out.f64(1.0);  // 0x3ff0000000000000
  out.str("ab");
  out.patch_u64(4, 0x1112131415161718ULL);
  const std::vector<std::uint8_t> expected = {
      0x01, 0x02, 0x03, 0x04,                          // u32
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // patched u64
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64 -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  // f64 1.0
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // str length
      'a',  'b'};
  EXPECT_EQ(bytes, expected);
}

TEST(ByteWriter, ScalarsRoundTripBitExactly) {
  const std::vector<std::uint32_t> u32s = {0, 1, 0x80000000u, 0xdeadbeefu,
                                           0xffffffffu};
  const std::vector<std::uint64_t> u64s = {0, 1, 0x8000000000000000ULL,
                                           0x0123456789abcdefULL,
                                           ~std::uint64_t{0}};
  const std::vector<std::int64_t> i64s = {
      0, -1, 42, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  // -0.0, infinities, quiet/signalling/negative NaNs with payloads, the
  // smallest and largest denormals, and the extremes of the normal range.
  const std::vector<std::uint64_t> f64_bits = {
      0x0000000000000000ULL, 0x8000000000000000ULL, 0x3ff0000000000000ULL,
      0x7ff0000000000000ULL, 0xfff0000000000000ULL, 0x7ff8000000000123ULL,
      0x7ff0000000000001ULL, 0xfff8deadbeef0001ULL, 0x0000000000000001ULL,
      0x800fffffffffffffULL, 0x000fffffffffffffULL, 0x7fefffffffffffffULL,
      0x0010000000000000ULL};

  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  for (const std::uint32_t v : u32s) out.u32(v);
  for (const std::uint64_t v : u64s) out.u64(v);
  for (const std::int64_t v : i64s) out.i64(v);
  for (const std::uint64_t v : f64_bits) out.f64(std::bit_cast<double>(v));
  out.boolean(true);
  out.u8(0xa5);

  ByteReader in(bytes);
  for (const std::uint32_t v : u32s) EXPECT_EQ(in.u32(), v);
  for (const std::uint64_t v : u64s) EXPECT_EQ(in.u64(), v);
  for (const std::int64_t v : i64s) EXPECT_EQ(in.i64(), v);
  for (const std::uint64_t v : f64_bits) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.f64()), v);
  }
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.u8(), 0xa5);
  EXPECT_TRUE(in.done());
}

TEST(ByteWriter, BulkSampleSpansMatchFieldByFieldEncoding) {
  Rng rng(0x5a3);
  std::vector<hpc::HpcSample> history(37);
  for (hpc::HpcSample& sample : history) {
    for (double& v : sample.counts) v = std::bit_cast<double>(rng());
  }
  history[3].counts[0] = -0.0;
  history[4].counts[5] = std::bit_cast<double>(0x7ff8000000000123ULL);
  history[5].counts[11] = std::bit_cast<double>(0x0000000000000001ULL);

  std::vector<std::uint8_t> bulk;
  ByteWriter(bulk).f64_records(std::span<const hpc::HpcSample>(history));
  std::vector<std::uint8_t> per_field;
  ByteWriter fields(per_field);
  for (const hpc::HpcSample& sample : history) {
    for (const double v : sample.counts) fields.f64(v);
  }
  EXPECT_EQ(bulk, per_field);

  std::vector<hpc::HpcSample> back(history.size());
  ByteReader in(bulk);
  in.f64_records(std::span<hpc::HpcSample>(back));
  EXPECT_TRUE(in.done());
  for (std::size_t i = 0; i < history.size(); ++i) {
    for (std::size_t e = 0; e < hpc::kNumEvents; ++e) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(back[i].counts[e]),
                std::bit_cast<std::uint64_t>(history[i].counts[e]))
          << "sample " << i << " event " << e;
    }
  }
}

TEST(ByteWriter, LengthPrefixedSpansRoundTrip) {
  const std::vector<double> doubles = {-0.0, 1.5,
                                       std::bit_cast<double>(1ULL), 3e300};
  const std::vector<std::uint64_t> words = {7, ~std::uint64_t{0}, 0};
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.f64_span(doubles);
  out.u64_span(words);
  out.f64_span({});
  out.u64_span({});

  ByteReader in(bytes);
  const std::vector<double> d = in.f64_vec();
  ASSERT_EQ(d.size(), doubles.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d[i]),
              std::bit_cast<std::uint64_t>(doubles[i]));
  }
  EXPECT_EQ(in.u64_vec(), words);
  EXPECT_TRUE(in.f64_vec().empty());
  EXPECT_TRUE(in.u64_vec().empty());
  EXPECT_TRUE(in.done());
}

TEST(ByteReader, TruncatedBulkHistoryReadThrowsTruncated) {
  std::vector<hpc::HpcSample> history(10);
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.u64(history.size());
  out.f64_records(std::span<const hpc::HpcSample>(history));

  // Drop half a sample: the length prefix no longer fits.
  bytes.resize(bytes.size() - sizeof(hpc::HpcSample) / 2);
  ByteReader prefixed(bytes);
  try {
    (void)prefixed.length(sizeof(hpc::HpcSample));
    FAIL() << "length prefix past the end must throw";
  } catch (const SerialError& e) {
    EXPECT_EQ(e.code(), SerialError::Code::kTruncated);
  }

  // A bulk read past the end throws before consuming anything.
  ByteReader bulk(std::span<const std::uint8_t>(bytes).subspan(8));
  std::vector<hpc::HpcSample> back(history.size());
  try {
    bulk.f64_records(std::span<hpc::HpcSample>(back));
    FAIL() << "bulk read past the end must throw";
  } catch (const SerialError& e) {
    EXPECT_EQ(e.code(), SerialError::Code::kTruncated);
  }
  EXPECT_EQ(bulk.position(), 0u);
}

}  // namespace
}  // namespace valkyrie::util
