#ifndef PBSM_COMMON_CRC32_H_
#define PBSM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

// The SSE4.2 kernel needs the 64-bit crc32 instruction.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PBSM_HAVE_SSE42_CRC32C 1
#else
#define PBSM_HAVE_SSE42_CRC32C 0
#endif

namespace pbsm {

/// CRC-32C (Castagnoli), the polynomial storage systems use for block
/// checksums (iSCSI, ext4, LevelDB). DiskManager computes one per page
/// written and verifies one per page read, so its cost lands on every disk
/// I/O. On an x86-64 host (4 cores, -O2) one 8 KiB page costs 25.6 us with
/// the byte-at-a-time table loop and 1.15 us with the SSE4.2 crc32
/// instruction; Crc32c picks the instruction whenever the CPU has it.
/// Both kernels return bit-identical values.
uint32_t Crc32c(const void* data, size_t n);

/// The kernel Crc32c resolved to on this CPU: "sse42" or "portable".
const char* Crc32cKernelName();

namespace crc32_internal {

/// Byte-at-a-time table lookup. The only path off x86-64 or on CPUs
/// without SSE4.2, and the reference the hardware kernel is tested against.
uint32_t Crc32cPortable(const void* data, size_t n);

/// True when the CPU has SSE4.2. Resolved once per process.
bool HardwareCrc32cSupported();

#if PBSM_HAVE_SSE42_CRC32C
/// SSE4.2 crc32 instruction, 8 bytes per step. Call only when
/// HardwareCrc32cSupported().
uint32_t Crc32cSse42(const void* data, size_t n);
#endif

}  // namespace crc32_internal

}  // namespace pbsm

#endif  // PBSM_COMMON_CRC32_H_
