#include "common/crc32.h"

#include <array>
#include <cstring>

#if PBSM_HAVE_SSE42_CRC32C
#include <nmmintrin.h>
#endif

namespace pbsm {
namespace crc32_internal {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // Castagnoli, bit-reversed.

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

#if PBSM_HAVE_SSE42_CRC32C
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                        size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xffffffffu;
}
#endif

bool HardwareCrc32cSupported() {
#if PBSM_HAVE_SSE42_CRC32C
  static const bool cpu_has = __builtin_cpu_supports("sse4.2") != 0;
  return cpu_has;
#else
  return false;
#endif
}

}  // namespace crc32_internal

uint32_t Crc32c(const void* data, size_t n) {
#if PBSM_HAVE_SSE42_CRC32C
  if (crc32_internal::HardwareCrc32cSupported()) {
    return crc32_internal::Crc32cSse42(data, n);
  }
#endif
  return crc32_internal::Crc32cPortable(data, n);
}

const char* Crc32cKernelName() {
  return crc32_internal::HardwareCrc32cSupported() ? "sse42" : "portable";
}

}  // namespace pbsm
