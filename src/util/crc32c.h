#ifndef APLUS_UTIL_CRC32C_H_
#define APLUS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace aplus {

// CRC32C (Castagnoli polynomial, reflected 0x82F63B78), the checksum of
// a sealed segment's header and sections. `crc` is the checksum of the
// bytes before `data`, so a stream checksums piecewise:
// Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a followed by b, na + nb).
// The checksum of no bytes is 0.
//
// Crc32c runs the SSE4.2 `crc32` instruction when the CPU has it and the
// table-driven scalar loop otherwise; the choice is made once, on the
// first call.
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

// The two implementations behind Crc32c. Crc32cHardware may only be
// called when Crc32cHardwareAvailable().
uint32_t Crc32cScalar(const void* data, size_t n, uint32_t crc = 0);
uint32_t Crc32cHardware(const void* data, size_t n, uint32_t crc = 0);
bool Crc32cHardwareAvailable();

}  // namespace aplus

#endif  // APLUS_UTIL_CRC32C_H_
