// AVX2 tier. This translation unit is compiled with -mavx2 (see the
// top-level CMakeLists.txt) and must only be entered after the dispatcher
// has confirmed AVX2 via cpuid — nothing here may be called on a non-AVX2
// machine.
//
// XOR: 32-byte lanes, two accumulators per iteration. GF(2^8): the
// split-nibble PSHUFB technique (Plank/Greenan/Miller, "Screaming Fast
// Galois Field Arithmetic"; also ISA-L) — the product c*x is
// lo_table[x & 0xf] ^ hi_table[x >> 4], so VPSHUFB evaluates 32 byte
// products per instruction pair from two 16-entry half-tables.
//
// GF(2^16): the same technique over 16-bit words, per Plank et al. A word's
// product is the XOR of four nibble lookups, each split into its low and
// high output byte — eight 16-entry byte tables per constant, derived from
// the constant inside the call. Each 64-byte step first gathers the low
// bytes of 32 words into one register and their high bytes into another, so
// every PSHUFB serves 32 words.
#include "kern/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace fountain::kern::detail {

namespace {

inline __m256i load(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(std::uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    store(dst + i, _mm256_xor_si256(load(dst + i), load(a + i)));
    store(dst + i + 32,
          _mm256_xor_si256(load(dst + i + 32), load(a + i + 32)));
  }
  for (; i + 32 <= n; i += 32) {
    store(dst + i, _mm256_xor_si256(load(dst + i), load(a + i)));
  }
  if (i < n) scalar_xor(dst + i, a + i, n - i);
}

void xor2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    store(dst + i, _mm256_xor_si256(load(dst + i), _mm256_xor_si256(
                                                       load(a + i),
                                                       load(b + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
}

void xor3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ab = _mm256_xor_si256(load(a + i), load(b + i));
    store(dst + i, _mm256_xor_si256(load(dst + i),
                                    _mm256_xor_si256(ab, load(c + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
}

void xor4(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, const std::uint8_t* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ab = _mm256_xor_si256(load(a + i), load(b + i));
    const __m256i cd = _mm256_xor_si256(load(c + i), load(d + i));
    store(dst + i, _mm256_xor_si256(load(dst + i), _mm256_xor_si256(ab, cd)));
  }
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
  }
}

/// Broadcasts a 16-entry half-table into both 128-bit lanes so VPSHUFB
/// performs the same 16-way lookup in each lane.
inline __m256i half_table(const std::uint8_t* t) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
}

/// prod[j] = ctx.lo[x_j & 0xf] ^ ctx.hi[x_j >> 4] for the 32 bytes of x.
inline __m256i gf_mul32(__m256i x, __m256i lo_tbl, __m256i hi_tbl,
                        __m256i nib_mask) {
  const __m256i lo = _mm256_and_si256(x, nib_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), nib_mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo_tbl, lo),
                          _mm256_shuffle_epi8(hi_tbl, hi));
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const __m256i lo_tbl = half_table(ctx.lo);
  const __m256i hi_tbl = half_table(ctx.hi);
  const __m256i nib_mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i prod = gf_mul32(load(src + i), lo_tbl, hi_tbl, nib_mask);
    store(dst + i, _mm256_xor_si256(load(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

void gf256_scale(std::uint8_t* dst, std::size_t n, const Gf256Ctx& ctx) {
  const __m256i lo_tbl = half_table(ctx.lo);
  const __m256i hi_tbl = half_table(ctx.hi);
  const __m256i nib_mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    store(dst + i, gf_mul32(load(dst + i), lo_tbl, hi_tbl, nib_mask));
  }
  if (i < n) scalar_gf256_scale(dst + i, n - i, ctx);
}

/// Per 128-bit lane: the low bytes of eight 16-bit words to qword 0, their
/// high bytes to qword 1.
inline __m128i split_words128() {
  return _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
}

/// The eight PSHUFB tables of the GF(2^16) multiply by c, broadcast to both
/// lanes: lo[q] / hi[q] map nibble q of a word to the low / high byte of its
/// share of the product.
struct Gf65536Tables {
  __m256i lo[4];
  __m256i hi[4];
};

inline Gf65536Tables gf65536_tables(std::uint16_t c) {
  std::uint16_t basis[16];
  gf65536_basis(c, basis);
  // Word v of the nibble table q is the XOR of the basis products
  // c * x^(4q + b) over the set bits b of v; select[b] is all-ones in the
  // words whose index has bit b set. Built in registers: byte-splitting a
  // table written to memory as 16-bit stores stalls on store forwarding.
  const __m256i index =
      _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  __m256i select[4];
  for (unsigned b = 0; b < 4; ++b) {
    const __m256i bit = _mm256_set1_epi16(static_cast<short>(1u << b));
    select[b] = _mm256_cmpeq_epi16(_mm256_and_si256(index, bit), bit);
  }
  const __m256i split = _mm256_broadcastsi128_si256(split_words128());
  Gf65536Tables out;
  for (unsigned q = 0; q < 4; ++q) {
    __m256i t = _mm256_setzero_si256();
    for (unsigned b = 0; b < 4; ++b) {
      t = _mm256_xor_si256(
          t, _mm256_and_si256(select[b], _mm256_set1_epi16(static_cast<short>(
                                             basis[4 * q + b]))));
    }
    // [lo bytes of words 0..7, 8..15 | high bytes of words 0..7, 8..15].
    const __m256i bytes = _mm256_permute4x64_epi64(
        _mm256_shuffle_epi8(t, split), 0xD8);
    out.lo[q] = _mm256_permute2x128_si256(bytes, bytes, 0x00);
    out.hi[q] = _mm256_permute2x128_si256(bytes, bytes, 0x11);
  }
  return out;
}

/// XOR of the four nibble lookups of one output byte.
inline __m256i lookup4(const __m256i tbl[4], __m256i n0, __m256i n1,
                       __m256i n2, __m256i n3) {
  return _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(tbl[0], n0),
                       _mm256_shuffle_epi8(tbl[1], n1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(tbl[2], n2),
                       _mm256_shuffle_epi8(tbl[3], n3)));
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 std::uint16_t c) {
  if (n < 64) {
    scalar_gf65536_fma(dst, src, n, c);
    return;
  }
  const Gf65536Tables tbl = gf65536_tables(c);
  const __m256i split = _mm256_broadcastsi128_si256(split_words128());
  const __m256i nib_mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    // Per lane, a holds words w0..w7 and b words w16..w23 (lane 1: w8..w15
    // and w24..w31), low bytes in qword 0 and high bytes in qword 1.
    const __m256i a = _mm256_shuffle_epi8(load(src + i), split);
    const __m256i b = _mm256_shuffle_epi8(load(src + i + 32), split);
    const __m256i lo = _mm256_unpacklo_epi64(a, b);
    const __m256i hi = _mm256_unpackhi_epi64(a, b);
    const __m256i n0 = _mm256_and_si256(lo, nib_mask);
    const __m256i n1 = _mm256_and_si256(_mm256_srli_epi64(lo, 4), nib_mask);
    const __m256i n2 = _mm256_and_si256(hi, nib_mask);
    const __m256i n3 = _mm256_and_si256(_mm256_srli_epi64(hi, 4), nib_mask);
    const __m256i prod_lo = lookup4(tbl.lo, n0, n1, n2, n3);
    const __m256i prod_hi = lookup4(tbl.hi, n0, n1, n2, n3);
    // Re-interleave: the low halves are words 0..15, the high halves 16..31.
    store(dst + i, _mm256_xor_si256(load(dst + i),
                                    _mm256_unpacklo_epi8(prod_lo, prod_hi)));
    store(dst + i + 32,
          _mm256_xor_si256(load(dst + i + 32),
                           _mm256_unpackhi_epi8(prod_lo, prod_hi)));
  }
  if (i < n) scalar_gf65536_fma(dst + i, src + i, n - i, c);
}

constexpr Ops kOps = {Isa::kAvx2, &xor1,      &xor2,        &xor3,
                      &xor4,      &gf256_fma, &gf256_scale, &gf65536_fma};

}  // namespace

const Ops* avx2_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without -mavx2 (non-x86 target, or compiler without support)

namespace fountain::kern::detail {
const Ops* avx2_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
