// CRC-32 (IEEE 802.3 polynomial, reflected). Used for checkpoint-image and
// wire-protocol integrity checks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace crac {

// Incremental CRC: pass the previous value to continue a running checksum.
// The initial value for a fresh stream is 0. On x86-64 CPUs with PCLMULQDQ
// and SSE4.1, inputs of 64 bytes or more are folded with carry-less
// multiplies; everything else runs the slicing-by-8 table. Both give the
// same value (the zlib/IEEE CRC-32) for every input.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

// The slicing-by-8 table alone: crc32()'s portable path and the reference
// the tests compare it against. Callers use crc32().
std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed = 0) noexcept;

// True when crc32() folds with PCLMULQDQ on this CPU (checked once).
bool crc32_uses_pclmul() noexcept;

}  // namespace crac
