// Internal: per-tier implementation tables. Each kernels_<isa>.cpp defines
// its accessor; tiers not compiled for the target architecture return
// nullptr so the dispatcher (kernels.cpp) can probe them unconditionally.
// Not installed / not for use outside src/kern.
#pragma once

#include "kern/kernels.hpp"

namespace fountain::kern::detail {

const Ops& scalar_ops();   // always available
const Ops* sse2_ops();     // x86-64 only (SSE2 is the x86-64 baseline)
const Ops* avx2_ops();     // x86-64 built with -mavx2; needs runtime cpuid
const Ops* avx512_ops();   // x86-64 built with -mavx512bw; cpuid + XCR0
const Ops* gfni_ops();     // x86-64 built with -mgfni -mavx512bw; cpuid+XCR0
const Ops* neon_ops();     // AArch64 only

// Shared scalar helpers, also used by the SIMD tiers for sub-register tails.
void scalar_xor(std::uint8_t* dst, const std::uint8_t* a, std::size_t n);
void scalar_gf256_fma(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n, const Gf256Ctx& ctx);
void scalar_gf256_scale(std::uint8_t* dst, std::size_t n, const Gf256Ctx& ctx);
void scalar_gf65536_fma(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n, std::uint16_t c);

// The GF(2^16) set-up below is shared by TUs built with different -m flags,
// so it uses no out-of-line helpers (not even std::array's operator[]) and
// its functions have internal linkage: each tier gets its own copy, and the
// linker can never hand a baseline TU a copy compiled for AVX-512.

/// x^16 * h mod 0x1100B for h < 256: the reduction of the byte that a left
/// shift by at most 8 pushes past bit 15 of a GF(2^16) element.
struct Gf65536Overflow {
  std::uint16_t reduce[256];
};
inline constexpr Gf65536Overflow kGf65536Overflow = [] {
  Gf65536Overflow t{};
  for (std::uint32_t h = 0; h < 256; ++h) {
    std::uint32_t x = h << 16;
    for (unsigned b = 23; b >= 16; --b) {
      if ((x >> b) & 1u) x ^= 0x1100Bu << (b - 16);
    }
    t.reduce[h] = static_cast<std::uint16_t>(x);
  }
  return t;
}();

/// x * x^j over GF(2^16) for j <= 8: a shift plus one overflow lookup.
static inline std::uint16_t gf65536_shift(std::uint16_t x, unsigned j) {
  const std::uint32_t s = std::uint32_t{x} << j;
  return static_cast<std::uint16_t>(s ^ kGf65536Overflow.reduce[s >> 16]);
}

/// The products c * x^j over GF(2^16) (polynomial 0x1100B) for j in
/// [0, 16): column j of the multiply-by-c bit-matrix, from which every tier
/// derives its per-constant tables. Each is a shift of c (j < 8) or of
/// c * x^8 (j >= 8), so the sixteen are computed two dependent steps deep
/// rather than sixteen — this set-up runs once per coefficient, and at
/// symbol sizes near 1 KB it is a large share of a fold.
static inline void gf65536_basis(std::uint16_t c, std::uint16_t basis[16]) {
  const std::uint16_t c8 = gf65536_shift(c, 8);
  for (unsigned j = 0; j < 8; ++j) {
    basis[j] = gf65536_shift(c, j);
    basis[8 + j] = gf65536_shift(c8, j);
  }
}

}  // namespace fountain::kern::detail
