// Systematic Reed-Solomon erasure codec over GF(2^16) in O(n log n), after
// Lin, Chung and Han, "Novel polynomial basis and its application to
// Reed-Solomon erasure codes" (FOCS 2014) — the tail code that closes every
// Tornado cascade. Like the Cauchy codec it is MDS: any k of the k + parity
// symbols rebuild the source, so which index sets decode is unchanged; only
// the parity bytes differ from a Cauchy tail of the same shape.
//
// Points. Field elements are their 16-bit integers (GF(2^16), polynomial
// 0x1100B, standard basis v_i = 2^i), so the subspace V_i spanned by
// v_0..v_{i-1} is the integer range [0, 2^i). With m the smallest power of
// two >= max(k, parity), a codeword is a polynomial D of degree < m
// evaluated at the 2m points [0, 2m): source symbol j sits at point m + j
// (points m + j for j >= k are known zeros), parity symbol p at point p
// (points p >= parity are never sent).
//
// Basis. D is held in the novel basis X_j = prod_{bit i of j} s^_i, where
// s_0(x) = x, s_{i+1}(x) = s_i(x)^2 + s_i(v_i) s_i(x) is the vanishing
// polynomial of V_{i+1}, and s^_i = s_i / s_i(v_i). Because each s^_i is
// GF(2)-linear and vanishes on V_i, evaluating D over a coset w + [0, 2^M)
// splits into butterflies a ^= l*b, b ^= a with skew l = s^_i(w + base) —
// one GF(2^16) multiply-accumulate and one XOR per pair of rows per layer,
// folded through kern::gf65536_fma_block and kern::xor_block.
//
// Encoding is one inverse FFT over the data coset [m, 2m) and one FFT over
// [0, m), truncated to the parity points actually sent. Decoding multiplies
// every known symbol by the erasure locator L(x) = prod_{erased e} (x - e),
// takes the inverse FFT over all 2m points, the formal derivative, and the
// FFT; each erased source value is then (L D)'(e) / L'(e). The logs of L and
// L' at every point come from one XOR-convolution (Walsh-Hadamard transform
// of size 2m) of the erasure indicator with the discrete log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/symbols.hpp"

namespace fountain::gf {

class FftCodec {
 public:
  /// Throws std::invalid_argument if k or parity is zero or the 2m points
  /// exceed GF(2^16).
  FftCodec(std::size_t k, std::size_t parity);

  std::size_t source_count() const { return k_; }
  std::size_t parity_count() const { return parity_; }

  /// Writes all `parity` parity rows; views may be row ranges of larger
  /// matrices. Shapes must match and symbol_size be even
  /// (std::invalid_argument otherwise).
  void encode(util::ConstSymbolView source, util::SymbolView parity_out) const;

  /// Reconstructs the source rows with have_source[j] == false in place,
  /// reading only rows marked present and every listed parity symbol
  /// (duplicates count once). Throws std::invalid_argument on a shape or
  /// payload-size mismatch or when fewer distinct parity symbols than
  /// missing rows are given, std::out_of_range on a parity index >= parity.
  void decode(util::SymbolView source, const std::vector<bool>& have_source,
              const std::vector<std::pair<std::uint32_t, util::ConstByteSpan>>&
                  parity) const;

 private:
  /// Evaluates, in place, the polynomial whose novel-basis coefficients are
  /// the `size` rows at `rows` over the points coset + [0, size); only
  /// outputs [lo, hi) are guaranteed (butterflies feeding nothing else in
  /// that range are skipped).
  void fft(std::uint8_t* rows, std::size_t bytes, std::size_t size,
           std::size_t coset, std::size_t lo, std::size_t hi) const;
  /// Inverse of fft over the full range.
  void ifft(std::uint8_t* rows, std::size_t bytes, std::size_t size,
            std::size_t coset) const;
  /// s^_i(point), point a multiple of 2^(i+1) below 2m.
  std::uint16_t skew(unsigned i, std::size_t point) const {
    return skews_[point + (std::size_t{1} << i) - 1];
  }

  std::size_t k_;
  std::size_t parity_;
  std::size_t m_ = 0;  // half the point count: pow2 >= max(k, parity)
  // Layer-i skews live at index point + 2^i - 1, a residue class per layer.
  std::vector<std::uint16_t> skews_;
  // Formal derivative of s^_i (a constant: s_i is linearized).
  std::vector<std::uint16_t> deriv_;
};

}  // namespace fountain::gf
