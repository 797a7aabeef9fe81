#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aplus {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

}  // namespace

uint32_t Crc32cScalar(const void* data, size_t n, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return ~c;
}

#if defined(__x86_64__)

// One crc32 per 8-byte word after the unaligned head; the instruction's
// latency (3 cycles) bounds this single chain at about 2.7 bytes/cycle.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data, size_t n,
                                                           uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0; --n) c = _mm_crc32_u8(c, *p++);
  uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

#else

uint32_t Crc32cHardware(const void* data, size_t n, uint32_t crc) {
  return Crc32cScalar(data, n, crc);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  static const Crc32cFn impl = Crc32cHardwareAvailable() ? Crc32cHardware : Crc32cScalar;
  return impl(data, n, crc);
}

}  // namespace aplus
