#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crac {
namespace {

// Table-driven CRC32 with 8 tables (slicing-by-8) for throughput: checkpoint
// images can be gigabytes (HYPRE's image in the paper is 2.3 GB).
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  constexpr Tables() : t{} {
    constexpr std::uint32_t kPoly = 0xEDB88320u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};

const Tables kTables{};

// Advances the internal (pre-inverted) CRC state c over size bytes.
std::uint32_t table_update(std::uint32_t c, const unsigned char* p,
                           std::size_t size) noexcept {
  const auto& t = kTables.t;
  while (size >= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  (static_cast<std::uint32_t>(p[1]) << 8) |
                                  (static_cast<std::uint32_t>(p[2]) << 16) |
                                  (static_cast<std::uint32_t>(p[3]) << 24));
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][(lo >> 24) & 0xFF] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^
        t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
// Carry-less-multiply folding in the reflected domain: Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009). Each k is (x^n mod P) bit-reflected and shifted left by
// one, where n is the distance in bits the multiply moves a 64-bit half
// forward. The same constants drive Linux's crc32-pclmul and zlib's
// crc32_simd.
constexpr long long kK1 = 0x154442bd4;  // n = 4*128 + 32: four-lane fold
constexpr long long kK2 = 0x1c6e41596;  // n = 4*128 - 32
constexpr long long kK3 = 0x1751997d0;  // n = 128 + 32: one-lane fold
constexpr long long kK4 = 0x0ccaa009e;  // n = 128 - 32
constexpr long long kK5 = 0x163cd6124;  // n = 64: 96 -> 64 bits
constexpr long long kPolyP = 0x1db710641;  // P(x), reflected, 33 bits
constexpr long long kMu = 0x1f7011641;     // floor(x^64 / P(x)), reflected

#define CRAC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

CRAC_FOLD_TARGET inline __m128i load16(const unsigned char* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Moves x forward by the distance k encodes (low half times k's low
// constant, high half times its high one) and adds in the data it lands on.
CRAC_FOLD_TARGET inline __m128i fold(__m128i x, __m128i k,
                                     __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Advances the internal CRC state c over size bytes; size is a multiple of
// 16 and at least 64.
CRAC_FOLD_TARGET std::uint32_t fold_update(std::uint32_t c,
                                           const unsigned char* p,
                                           std::size_t size) noexcept {
  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  size -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = fold(x0, k1k2, load16(p));
    x1 = fold(x1, k1k2, load16(p + 16));
    x2 = fold(x2, k1k2, load16(p + 32));
    x3 = fold(x3, k1k2, load16(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = fold(x0, k3k4, load16(p));

  // 128 -> 64 bits, then 96 -> 64 (the low 32 bits of each half are live).
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), _mm_set_epi64x(0, kK5),
                           0x00),
      _mm_srli_si128(x0, 4));

  // Barrett reduction to 32 bits.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPolyP);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#undef CRAC_FOLD_TARGET
#endif  // __x86_64__

}  // namespace

bool crc32_uses_pclmul() noexcept {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed) noexcept {
  return ~table_update(~seed, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#if defined(__x86_64__)
  if (size >= 64 && crc32_uses_pclmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    c = fold_update(c, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return ~table_update(c, p, size);
}

}  // namespace crac
