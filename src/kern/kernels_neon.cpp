// NEON tier (AArch64, where Advanced SIMD is architecturally guaranteed —
// no runtime probe needed). 16-byte XOR lanes; GF(2^8) uses vqtbl1q_u8 for
// the same split-nibble half-table lookup the AVX2 tier performs with
// VPSHUFB. GF(2^16) uses the scalar split-nibble loop.
#include "kern/kernels_impl.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace fountain::kern::detail {

namespace {

void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(a + i)));
  }
  if (i < n) scalar_xor(dst + i, a + i, n - i);
}

void xor2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
}

void xor3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t ab = veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               veorq_u8(ab, vld1q_u8(c + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
}

void xor4(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, const std::uint8_t* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t ab = veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    const uint8x16_t cd = veorq_u8(vld1q_u8(c + i), vld1q_u8(d + i));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), veorq_u8(ab, cd)));
  }
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
  }
}

inline uint8x16_t gf_mul16(uint8x16_t x, uint8x16_t lo_tbl, uint8x16_t hi_tbl,
                           uint8x16_t nib_mask) {
  const uint8x16_t lo = vandq_u8(x, nib_mask);
  const uint8x16_t hi = vshrq_n_u8(x, 4);
  return veorq_u8(vqtbl1q_u8(lo_tbl, lo), vqtbl1q_u8(hi_tbl, hi));
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const uint8x16_t lo_tbl = vld1q_u8(ctx.lo);
  const uint8x16_t hi_tbl = vld1q_u8(ctx.hi);
  const uint8x16_t nib_mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t prod = gf_mul16(vld1q_u8(src + i), lo_tbl, hi_tbl,
                                     nib_mask);
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

void gf256_scale(std::uint8_t* dst, std::size_t n, const Gf256Ctx& ctx) {
  const uint8x16_t lo_tbl = vld1q_u8(ctx.lo);
  const uint8x16_t hi_tbl = vld1q_u8(ctx.hi);
  const uint8x16_t nib_mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, gf_mul16(vld1q_u8(dst + i), lo_tbl, hi_tbl, nib_mask));
  }
  if (i < n) scalar_gf256_scale(dst + i, n - i, ctx);
}

constexpr Ops kOps = {Isa::kNeon, &xor1,      &xor2,        &xor3,
                      &xor4,      &gf256_fma, &gf256_scale,
                      &scalar_gf65536_fma};

}  // namespace

const Ops* neon_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // non-AArch64 build: tier absent

namespace fountain::kern::detail {
const Ops* neon_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
