// AVX-512BW tier. This translation unit is compiled with
// -mavx512f -mavx512bw (see the top-level CMakeLists.txt) and must only be
// entered after the dispatcher has confirmed AVX-512BW *and* OS ZMM state
// via cpuid + XCR0 — nothing here may be called otherwise.
//
// XOR: 64-byte lanes, two accumulators per iteration. GF(2^8): the same
// split-nibble technique as the AVX2 tier, widened to VPSHUFB on ZMM
// (AVX-512BW provides the byte shuffle; each 128-bit lane performs the
// 16-way half-table lookup), evaluating 64 byte products per instruction
// pair. Hosts that also have GFNI get the stronger kGfni tier instead —
// VBMI's VPERMB offers no win here because the lookup tables are only 16
// entries, well within a single VPSHUFB lane.
//
// GF(2^16): the AVX2 tier's split-nibble word multiply at 128 bytes per
// step; a final partial step runs on byte-masked loads and stores instead
// of a scalar tail.
#include "kern/kernels_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

namespace fountain::kern::detail {

namespace {

inline __m512i load(const std::uint8_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

inline void store(std::uint8_t* p, __m512i v) {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    store(dst + i, _mm512_xor_si512(load(dst + i), load(a + i)));
    store(dst + i + 64,
          _mm512_xor_si512(load(dst + i + 64), load(a + i + 64)));
  }
  for (; i + 64 <= n; i += 64) {
    store(dst + i, _mm512_xor_si512(load(dst + i), load(a + i)));
  }
  if (i < n) scalar_xor(dst + i, a + i, n - i);
}

void xor2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    store(dst + i,
          _mm512_xor_si512(load(dst + i),
                           _mm512_xor_si512(load(a + i), load(b + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
}

void xor3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i ab = _mm512_xor_si512(load(a + i), load(b + i));
    store(dst + i, _mm512_xor_si512(load(dst + i),
                                    _mm512_xor_si512(ab, load(c + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
}

void xor4(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, const std::uint8_t* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i ab = _mm512_xor_si512(load(a + i), load(b + i));
    const __m512i cd = _mm512_xor_si512(load(c + i), load(d + i));
    store(dst + i, _mm512_xor_si512(load(dst + i), _mm512_xor_si512(ab, cd)));
  }
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
  }
}

/// Broadcasts a 16-entry half-table into all four 128-bit lanes. The maskz
/// form (full mask) is used instead of the plain intrinsic because GCC's
/// unmasked variant merges into _mm512_undefined_epi32 and trips
/// -Wuninitialized; the generated instruction is identical.
inline __m512i half_table(const std::uint8_t* t) {
  return _mm512_maskz_broadcast_i32x4(
      static_cast<__mmask16>(-1),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
}

/// prod[j] = ctx.lo[x_j & 0xf] ^ ctx.hi[x_j >> 4] for the 64 bytes of x.
inline __m512i gf_mul64(__m512i x, __m512i lo_tbl, __m512i hi_tbl,
                        __m512i nib_mask) {
  const __m512i lo = _mm512_and_si512(x, nib_mask);
  const __m512i hi = _mm512_and_si512(
      _mm512_maskz_srli_epi64(static_cast<__mmask8>(-1), x, 4), nib_mask);
  return _mm512_xor_si512(_mm512_shuffle_epi8(lo_tbl, lo),
                          _mm512_shuffle_epi8(hi_tbl, hi));
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const __m512i lo_tbl = half_table(ctx.lo);
  const __m512i hi_tbl = half_table(ctx.hi);
  const __m512i nib_mask = _mm512_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i prod = gf_mul64(load(src + i), lo_tbl, hi_tbl, nib_mask);
    store(dst + i, _mm512_xor_si512(load(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

void gf256_scale(std::uint8_t* dst, std::size_t n, const Gf256Ctx& ctx) {
  const __m512i lo_tbl = half_table(ctx.lo);
  const __m512i hi_tbl = half_table(ctx.hi);
  const __m512i nib_mask = _mm512_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    store(dst + i, gf_mul64(load(dst + i), lo_tbl, hi_tbl, nib_mask));
  }
  if (i < n) scalar_gf256_scale(dst + i, n - i, ctx);
}

/// Per 128-bit lane: the low bytes of eight 16-bit words to qword 0, their
/// high bytes to qword 1.
inline __m128i split_words128() {
  return _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
}

/// The eight PSHUFB tables of the GF(2^16) multiply by c, broadcast to all
/// four lanes: lo[q] / hi[q] map nibble q of a word to the low / high byte
/// of its share of the product.
struct Gf65536Tables {
  __m512i lo[4];
  __m512i hi[4];
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
  const __mmask16 all = static_cast<__mmask16>(-1);
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
    out.lo[q] =
        _mm512_maskz_broadcast_i32x4(all, _mm256_castsi256_si128(bytes));
    out.hi[q] =
        _mm512_maskz_broadcast_i32x4(all, _mm256_extracti128_si256(bytes, 1));
  }
  return out;
}

/// XOR of the four nibble lookups of one output byte.
inline __m512i lookup4(const __m512i tbl[4], __m512i n0, __m512i n1,
                       __m512i n2, __m512i n3) {
  return _mm512_xor_si512(
      _mm512_xor_si512(_mm512_shuffle_epi8(tbl[0], n0),
                       _mm512_shuffle_epi8(tbl[1], n1)),
      _mm512_xor_si512(_mm512_shuffle_epi8(tbl[2], n2),
                       _mm512_shuffle_epi8(tbl[3], n3)));
}

/// Byte mask of the first min(len, 64) bytes.
inline __mmask64 head_mask(std::size_t len) {
  return len >= 64 ? ~__mmask64{0} : (__mmask64{1} << len) - 1;
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 std::uint16_t c) {
  if (n == 0) return;
  const Gf65536Tables tbl = gf65536_tables(c);
  const __m512i split = _mm512_maskz_broadcast_i32x4(
      static_cast<__mmask16>(-1), split_words128());
  const __m512i nib_mask = _mm512_set1_epi8(0x0f);
  // One 128-byte step: per lane, a holds 8 words of the first 64 bytes and
  // b the matching 8 words of the second, low bytes in qword 0 and high
  // bytes in qword 1. Masked-off bytes load as zero and are not stored.
  const auto step = [&](std::size_t i, __mmask64 ma, __mmask64 mb) {
    const __m512i a = _mm512_shuffle_epi8(
        _mm512_maskz_loadu_epi8(ma, src + i), split);
    const __m512i b = _mm512_shuffle_epi8(
        _mm512_maskz_loadu_epi8(mb, src + i + 64), split);
    const __mmask8 all = static_cast<__mmask8>(-1);
    const __m512i lo = _mm512_maskz_unpacklo_epi64(all, a, b);
    const __m512i hi = _mm512_maskz_unpackhi_epi64(all, a, b);
    const __m512i n0 = _mm512_and_si512(lo, nib_mask);
    const __m512i n1 =
        _mm512_and_si512(_mm512_maskz_srli_epi64(all, lo, 4), nib_mask);
    const __m512i n2 = _mm512_and_si512(hi, nib_mask);
    const __m512i n3 =
        _mm512_and_si512(_mm512_maskz_srli_epi64(all, hi, 4), nib_mask);
    const __m512i prod_lo = lookup4(tbl.lo, n0, n1, n2, n3);
    const __m512i prod_hi = lookup4(tbl.hi, n0, n1, n2, n3);
    _mm512_mask_storeu_epi8(
        dst + i, ma,
        _mm512_xor_si512(_mm512_maskz_loadu_epi8(ma, dst + i),
                         _mm512_unpacklo_epi8(prod_lo, prod_hi)));
    _mm512_mask_storeu_epi8(
        dst + i + 64, mb,
        _mm512_xor_si512(_mm512_maskz_loadu_epi8(mb, dst + i + 64),
                         _mm512_unpackhi_epi8(prod_lo, prod_hi)));
  };
  const __mmask64 full = ~__mmask64{0};
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) step(i, full, full);
  if (i < n) step(i, head_mask(n - i), n - i > 64 ? head_mask(n - i - 64) : 0);
}

constexpr Ops kOps = {Isa::kAvx512, &xor1,      &xor2,        &xor3,
                      &xor4,        &gf256_fma, &gf256_scale, &gf65536_fma};

}  // namespace

const Ops* avx512_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without AVX-512BW support

namespace fountain::kern::detail {
const Ops* avx512_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
