#include "serialize/binary_io.h"

#include <array>

namespace kw::ser {

namespace {

using CrcTable = std::array<std::uint32_t, 256>;

constexpr CrcTable make_crc_table() {
  CrcTable table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Slicing-by-8: tables[k][b] is the CRC contribution of byte b followed by
// k zero bytes, so eight input bytes fold into the register with eight
// independent lookups instead of a chain of eight dependent ones.
constexpr std::array<CrcTable, 8> make_crc_tables() {
  std::array<CrcTable, 8> tables{};
  tables[0] = make_crc_table();
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<CrcTable, 8> kCrcTables = make_crc_tables();

// Little-endian load; compiles to one mov on little-endian hosts.
[[nodiscard]] std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t len,
                    std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace kw::ser
