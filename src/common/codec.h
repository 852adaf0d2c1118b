#ifndef SLIDER_COMMON_CODEC_H_
#define SLIDER_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace slider {

/// \brief Byte-level codec helpers shared by the on-disk images: LEB128
/// varints for the delta-compressed snapshot sections and CRC32 for
/// per-record / per-file integrity checks.
///
/// Everything here is deliberately dependency-free and endianness-stable
/// (varints have no byte order; fixed-width fields are encoded explicitly
/// little-endian), so a snapshot written on one machine loads on another.

/// Appends `v` to `out` as an unsigned LEB128 varint (1-10 bytes).
inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Decodes an unsigned LEB128 varint from `data[*pos...size)`. On success
/// advances *pos past the varint and returns true; returns false on
/// truncation or a varint longer than 10 bytes (corruption).
inline bool GetVarint(const char* data, size_t size, size_t* pos,
                      uint64_t* v) {
  uint64_t result = 0;
  unsigned shift = 0;
  size_t i = *pos;
  while (i < size && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(data[i++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *pos = i;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Appends `v` little-endian, fixed width.
inline void PutFixed32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Reads a little-endian fixed-width value (caller checks bounds).
inline uint32_t GetFixed32(const char* data) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return v;
}
inline uint64_t GetFixed64(const char* data) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return v;
}

namespace codec_internal {
/// Slice-by-8 tables for CRC32 (the ubiquitous reflected 0xEDB88320
/// polynomial), generated once at first use: entry [0] is the classic
/// byte-wise table, entry [k][b] the CRC of byte b followed by k zero
/// bytes, so one step folds eight input bytes with eight lookups.
inline const uint32_t (*Crc32Tables())[256] {
  static const auto tables = [] {
    struct Tables { uint32_t entries[8][256]; };
    static Tables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t.entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = t.entries[k - 1][i];
        t.entries[k][i] = (prev >> 8) ^ t.entries[0][prev & 0xFF];
      }
    }
    return t.entries;
  }();
  return tables;
}
}  // namespace codec_internal

/// Extends a running CRC32 over `size` bytes. Start from `crc` 0; the
/// result of one call feeds the next, so a file checksum can be computed
/// across buffered writes. Input words are assembled little-endian byte by
/// byte (GetFixed32), so every host computes the same value as the plain
/// byte-wise algorithm at any alignment.
inline uint32_t Crc32(uint32_t crc, const void* data, size_t size) {
  const uint32_t (*t)[256] = codec_internal::Crc32Tables();
  const char* p = static_cast<const char*>(data);
  crc ^= 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc ^ GetFixed32(p);
    const uint32_t hi = GetFixed32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace slider

#endif  // SLIDER_COMMON_CODEC_H_
