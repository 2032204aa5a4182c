#include "wire/buffer.h"

#include <array>

namespace vsr::wire {
namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: kCrc[0] is the
// classic bytewise table, and kCrc[k][b] is the CRC of byte b followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = BuildCrcTables();

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kCrc[7][lo & 0xffu] ^ kCrc[6][(lo >> 8) & 0xffu] ^
          kCrc[5][(lo >> 16) & 0xffu] ^ kCrc[4][lo >> 24] ^
          kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu] ^
          kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = kCrc[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

}  // namespace vsr::wire
