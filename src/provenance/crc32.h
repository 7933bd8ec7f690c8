#ifndef KONDO_PROVENANCE_CRC32_H_
#define KONDO_PROVENANCE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace kondo {

/// CRC-32 (IEEE 802.3, the zlib polynomial 0xEDB88320), slice-by-8:
/// eight table lookups per eight input bytes, then a bytewise tail.
/// Every KEL2 block payload carries its CRC so a flipped bit is detected
/// instead of silently mis-decoding lineage. Self-contained: the container
/// image may not ship zlib.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: `crc` is the value returned by a previous call (start
/// from 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace kondo

#endif  // KONDO_PROVENANCE_CRC32_H_
