// GFNI tier (GFNI + AVX-512BW, 64-byte lanes). Compiled with
// -mgfni -mavx512f -mavx512bw; entered only after the dispatcher has
// confirmed both features plus OS ZMM state.
//
// GF(2^8): VGF2P8AFFINEQB applies an arbitrary 8x8 GF(2) bit-matrix to every
// byte of a ZMM register. Multiplication by a constant c is GF(2)-linear in
// ANY GF(2^8) representation, so the per-constant matrix (precomputed in
// gf::GF256's tables as Gf256Ctx::affine) evaluates 64 products of our
// 0x11D field per instruction — one instruction where the split-nibble
// technique needs five, and with no table broadcasts in the loop. Note
// GF2P8MULB is NOT usable here: it is hardwired to the AES polynomial 0x11B.
//
// GF(2^16): multiplication by a constant c is GF(2)-linear too — a 16x16
// bit-matrix made of four 8x8 blocks (low/high input byte to low/high output
// byte). Each 64-byte step gathers every lane's low bytes into qword 0 and
// high bytes into qword 1, applies [lo->lo | hi->hi] and [lo->hi | hi->lo]
// with two affine instructions, swaps the second product's qwords, XORs,
// and re-interleaves. The four matrices are built inside the call from the
// 16 products c * x^j: one byte gather, then one more affine instruction
// that transposes all four blocks into GF2P8AFFINEQB's row order.
//
// XOR has no GFNI form; the 64-byte XOR kernels mirror the AVX-512BW tier so
// that forcing `FOUNTAIN_FORCE_ISA=gfni` exercises a complete table.
//
// Hosts with VEX-only GFNI (no AVX-512, e.g. Alder Lake) fall back to the
// AVX2 tier; the affine path is worth a dedicated VEX variant only if such
// hosts show up in practice.
#include "kern/kernels_impl.hpp"

#if defined(__GFNI__) && defined(__AVX512F__) && defined(__AVX512BW__)

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

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const __m512i matrix =
      _mm512_set1_epi64(static_cast<long long>(ctx.affine));
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i p0 =
        _mm512_gf2p8affine_epi64_epi8(load(src + i), matrix, 0);
    const __m512i p1 =
        _mm512_gf2p8affine_epi64_epi8(load(src + i + 64), matrix, 0);
    store(dst + i, _mm512_xor_si512(load(dst + i), p0));
    store(dst + i + 64, _mm512_xor_si512(load(dst + i + 64), p1));
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i prod =
        _mm512_gf2p8affine_epi64_epi8(load(src + i), matrix, 0);
    store(dst + i, _mm512_xor_si512(load(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

void gf256_scale(std::uint8_t* dst, std::size_t n, const Gf256Ctx& ctx) {
  const __m512i matrix =
      _mm512_set1_epi64(static_cast<long long>(ctx.affine));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    store(dst + i, _mm512_gf2p8affine_epi64_epi8(load(dst + i), matrix, 0));
  }
  if (i < n) scalar_gf256_scale(dst + i, n - i, ctx);
}

/// Multiply-by-c over GF(2^16) as per-qword GF2P8AFFINEQB matrices, the
/// same in every lane: `same` = [lo->lo | hi->hi], `cross` = [lo->hi |
/// hi->lo]. Qword 0 acts on the low bytes of a lane's words, qword 1 on the
/// high bytes.
struct Gf65536Affine {
  __m512i same;
  __m512i cross;
};

inline Gf65536Affine gf65536_affine(std::uint16_t c) {
  std::uint16_t basis[16];
  gf65536_basis(c, basis);
  // Packed into qwords in registers: a 32-byte load of sixteen 16-bit
  // stores would stall on store forwarding.
  std::uint64_t packed[4];
  for (unsigned i = 0; i < 4; ++i) {
    packed[i] = basis[4 * i] | std::uint64_t{basis[4 * i + 1]} << 16 |
                std::uint64_t{basis[4 * i + 2]} << 32 |
                std::uint64_t{basis[4 * i + 3]} << 48;
  }
  // Row j of a block is the output byte the block takes from c * x^j. Per
  // lane (lane 0: x^0..x^7, lane 1: x^8..x^15), gather the rows of the low
  // output byte into qword 0 and those of the high output byte into qword 1,
  // row j in byte 7 - j.
  const __m256i gather = _mm256_setr_epi8(
      14, 12, 10, 8, 6, 4, 2, 0, 15, 13, 11, 9, 7, 5, 3, 1,  //
      14, 12, 10, 8, 6, 4, 2, 0, 15, 13, 11, 9, 7, 5, 3, 1);
  const __m256i rows = _mm256_shuffle_epi8(
      _mm256_setr_epi64x(static_cast<long long>(packed[0]),
                         static_cast<long long>(packed[1]),
                         static_cast<long long>(packed[2]),
                         static_cast<long long>(packed[3])),
      gather);
  // Byte p of the probe is 1 << (7 - p), so affine(probe, rows) puts bit r of
  // every row into byte 7 - r: the transpose GF2P8AFFINEQB's matrices need
  // (byte 7 - r holds the input-bit mask of output bit r).
  const __m256i probe = _mm256_set1_epi64x(0x0102040810204080LL);
  const __m256i blocks = _mm256_gf2p8affine_epi64_epi8(probe, rows, 0);
  // [lo->lo, lo->hi, hi->lo, hi->hi] -> [lo->lo, hi->hi | lo->hi, hi->lo].
  const __m256i paired = _mm256_permute4x64_epi64(blocks, 0x9C);
  const __mmask16 all = static_cast<__mmask16>(-1);
  return {_mm512_maskz_broadcast_i32x4(all, _mm256_castsi256_si128(paired)),
          _mm512_maskz_broadcast_i32x4(all,
                                       _mm256_extracti128_si256(paired, 1))};
}

/// The 64-byte product c * x of 32 words.
inline __m512i gf65536_mul64(__m512i x, const Gf65536Affine& m,
                             __m512i split, __m512i merge) {
  const __m512i bytes = _mm512_shuffle_epi8(x, split);
  const __m512i same = _mm512_gf2p8affine_epi64_epi8(bytes, m.same, 0);
  const __m512i cross = _mm512_gf2p8affine_epi64_epi8(bytes, m.cross, 0);
  const __m512i prod = _mm512_xor_si512(
      same, _mm512_maskz_shuffle_epi32(static_cast<__mmask16>(-1), cross,
                                       _MM_PERM_BADC));
  return _mm512_shuffle_epi8(prod, merge);
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 std::uint16_t c) {
  if (n == 0) return;
  const Gf65536Affine m = gf65536_affine(c);
  const __mmask16 all = static_cast<__mmask16>(-1);
  // Per lane: low bytes of eight words to qword 0, high bytes to qword 1,
  // and back.
  const __m512i split = _mm512_maskz_broadcast_i32x4(
      all, _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13,
                         15));
  const __m512i merge = _mm512_maskz_broadcast_i32x4(
      all, _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7,
                         15));
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i p0 = gf65536_mul64(load(src + i), m, split, merge);
    const __m512i p1 = gf65536_mul64(load(src + i + 64), m, split, merge);
    store(dst + i, _mm512_xor_si512(load(dst + i), p0));
    store(dst + i + 64, _mm512_xor_si512(load(dst + i + 64), p1));
  }
  for (; i < n; i += 64) {
    // The last one or two 64-byte steps use byte-masked loads and stores:
    // masked-off bytes load as zero and are not written.
    const std::size_t len = n - i;
    const __mmask64 mask =
        len >= 64 ? ~__mmask64{0} : (__mmask64{1} << len) - 1;
    const __m512i prod = gf65536_mul64(_mm512_maskz_loadu_epi8(mask, src + i),
                                       m, split, merge);
    _mm512_mask_storeu_epi8(
        dst + i, mask,
        _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, dst + i), prod));
  }
}

constexpr Ops kOps = {Isa::kGfni, &xor1,      &xor2,        &xor3,
                      &xor4,      &gf256_fma, &gf256_scale, &gf65536_fma};

}  // namespace

const Ops* gfni_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without GFNI/AVX-512 support

namespace fountain::kern::detail {
const Ops* gfni_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
