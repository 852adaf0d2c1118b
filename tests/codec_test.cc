// The byte codec shared by the on-disk images: CRC32 against its standard
// check value and a byte-wise reference, and the varint/fixed-width
// helpers' round trips.

#include "common/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace slider {
namespace {

/// The textbook bit-at-a-time CRC32 (reflected 0xEDB88320), independent of
/// the table-driven implementation under test.
uint32_t ReferenceCrc32(uint32_t crc, const uint8_t* data, size_t size) {
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(CodecTest, Crc32CheckValue) {
  EXPECT_EQ(Crc32(0, "123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(0, "", 0), 0u);
}

TEST(CodecTest, Crc32MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  std::mt19937 rng(7);
  std::vector<uint8_t> buffer(64 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const uint8_t* p = buffer.data() + offset;
      EXPECT_EQ(Crc32(0, p, length), ReferenceCrc32(0, p, length))
          << "offset " << offset << " length " << length;
      EXPECT_EQ(Crc32(0x12345678u, p, length),
                ReferenceCrc32(0x12345678u, p, length))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

TEST(CodecTest, Crc32ChainsAcrossSplitBuffers) {
  std::mt19937 rng(11);
  std::string data(1000, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  const uint32_t whole = Crc32(0, data.data(), data.size());
  EXPECT_EQ(whole, ReferenceCrc32(0, reinterpret_cast<const uint8_t*>(
                                         data.data()),
                                  data.size()));
  for (size_t a = 0; a <= data.size(); a += 37) {
    for (size_t b = a; b <= data.size(); b += 101) {
      uint32_t crc = Crc32(0, data.data(), a);
      crc = Crc32(crc, data.data() + a, b - a);
      crc = Crc32(crc, data.data() + b, data.size() - b);
      EXPECT_EQ(crc, whole) << "split at " << a << " and " << b;
    }
  }
}

TEST(CodecTest, VarintsAndFixedWidthsRoundTrip) {
  const uint64_t values[] = {0,      1,           127,        128,
                             300,    16383,       16384,      uint64_t{1} << 35,
                             ~uint64_t{0}};
  std::string out;
  for (const uint64_t v : values) PutVarint(&out, v);
  size_t pos = 0;
  for (const uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(out.data(), out.size(), &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, out.size());
  // A continuation byte with nothing after it is a truncated varint.
  size_t truncated = 0;
  uint64_t ignored = 0;
  EXPECT_FALSE(GetVarint("\x80", 1, &truncated, &ignored));

  std::string fixed;
  PutFixed32(&fixed, 0xA1B2C3D4u);
  PutFixed64(&fixed, 0x0102030405060708ull);
  ASSERT_EQ(fixed.size(), 12u);
  EXPECT_EQ(static_cast<uint8_t>(fixed[0]), 0xD4u);  // little-endian
  EXPECT_EQ(GetFixed32(fixed.data()), 0xA1B2C3D4u);
  EXPECT_EQ(GetFixed64(fixed.data() + 4), 0x0102030405060708ull);
}

}  // namespace
}  // namespace slider
