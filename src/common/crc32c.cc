#include "common/crc32c.h"

namespace nlidb {

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  // Software CRC32C (Castagnoli, reflected polynomial 0x82F63B78), the
  // same function hardware SSE4.2 crc32 instructions compute.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace nlidb
