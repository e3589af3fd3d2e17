// Systematic Reed-Solomon erasure codec in the style of Rizzo's FEC library
// ("Effective Erasure Codes for Reliable Computer Communication Protocols",
// CCR 1997) — the "Vandermonde" column of the paper's Tables 2 and 3.
//
// The generator is built by Lagrange interpolation: parity symbol i is the
// evaluation, at point y_i, of the degree-(k-1) polynomial interpolating the
// source symbols at points x_0..x_{k-1}. This is mathematically identical to
// Rizzo's V * V_k^{-1} construction but costs O(k^2 + l*k) rather than O(k^3).
// Decoding solves the dense x-by-x system over the missing source symbols
// with Gaussian elimination — the O(x^3) cost that makes Vandermonde codes
// impractical at large k, exactly the effect the paper reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gf/matrix.hpp"
#include "util/symbols.hpp"

namespace fountain::gf {

template <typename Field>
class VandermondeCodec {
 public:
  using Element = typename Field::Element;

  VandermondeCodec(std::size_t k, std::size_t parity) : k_(k), parity_(parity) {
    if (k == 0 || parity == 0) {
      throw std::invalid_argument("VandermondeCodec: k and parity must be > 0");
    }
    if (k + parity > Field::kOrder) {
      throw std::invalid_argument(
          "VandermondeCodec: k + parity exceeds field size");
    }
    build_generator();
  }

  std::size_t source_count() const { return k_; }
  std::size_t parity_count() const { return parity_; }

  /// Computes all parity symbols from the full source block. Takes views so
  /// callers can encode sub-ranges of a larger matrix in place.
  /// Parity-row-major: one cache-blocked multi-row pass per parity symbol
  /// over all k sources (generator rows are contiguous, so they feed
  /// Field::fma_rows directly).
  void encode(util::ConstSymbolView source, util::SymbolView parity_out) const {
    check_shapes(source, parity_out);
    parity_out.fill_zero();
    std::vector<const std::uint8_t*> srcs(k_);
    for (std::size_t j = 0; j < k_; ++j) srcs[j] = source.row(j).data();
    for (std::size_t i = 0; i < parity_; ++i) {
      Field::fma_rows(parity_out.row(i).data(), srcs.data(), gen_.row(i), k_,
                      source.symbol_size());
    }
  }

  /// Encodes a single parity symbol (the streaming-encoder path, where a
  /// specific parity index is requested on demand).
  void encode_one(util::ConstSymbolView source, std::size_t parity_row,
                  util::ByteSpan out) const {
    if (out.size() % Field::kSymbolAlignment != 0) {
      throw std::invalid_argument("VandermondeCodec: symbol alignment");
    }
    std::fill(out.begin(), out.end(), 0);
    std::vector<const std::uint8_t*> srcs(k_);
    for (std::size_t j = 0; j < k_; ++j) srcs[j] = source.row(j).data();
    Field::fma_rows(out.data(), srcs.data(), gen_.row(parity_row), k_,
                    source.symbol_size());
  }

  /// Reconstructs the missing source rows of `source` in place.
  /// `have_source[j]` marks rows already present; `parity` lists received
  /// parity symbols as (parity index, payload). Requires at least as many
  /// parity symbols as missing source symbols.
  void decode(util::SymbolView source, const std::vector<bool>& have_source,
              const std::vector<std::pair<std::uint32_t, util::ConstByteSpan>>&
                  parity) const {
    const auto missing = missing_indices(have_source);
    if (missing.empty()) return;
    const std::size_t x = missing.size();
    if (parity.size() < x) {
      throw std::invalid_argument("VandermondeCodec: not enough parity");
    }

    // rhs_r = parity_r - sum over known sources of gen[p_r][j] * src_j
    const std::size_t bytes = source.symbol_size();
    util::SymbolMatrix rhs(x, bytes);
    Matrix<Field> m(x, x);
    for (std::size_t r = 0; r < x; ++r) {
      const auto [pidx, pdata] = parity[r];
      if (pidx >= parity_) {
        throw std::out_of_range("VandermondeCodec: parity index");
      }
      if (pdata.size() != bytes) {
        throw std::invalid_argument("VandermondeCodec: payload size");
      }
      util::xor_into(rhs.row(r), pdata);
      for (std::size_t c = 0; c < x; ++c) {
        m.at(r, c) = gen_.at(pidx, missing[c]);
      }
    }
    // rhs_r -= known-source contributions: one multi-row pass per parity row
    // over every known source (coefficients gathered from the generator).
    std::vector<const std::uint8_t*> known_srcs;
    std::vector<std::uint32_t> known_cols;
    known_srcs.reserve(k_ - x);
    known_cols.reserve(k_ - x);
    for (std::size_t j = 0; j < k_; ++j) {
      if (!have_source[j]) continue;
      known_srcs.push_back(source.row(j).data());
      known_cols.push_back(static_cast<std::uint32_t>(j));
    }
    std::vector<Element> coeffs(known_srcs.size());
    for (std::size_t r = 0; r < x; ++r) {
      const auto* gen_row = gen_.row(parity[r].first);
      for (std::size_t t = 0; t < known_cols.size(); ++t) {
        coeffs[t] = gen_row[known_cols[t]];
      }
      Field::fma_rows(rhs.row(r).data(), known_srcs.data(), coeffs.data(),
                      known_srcs.size(), bytes);
    }

    const Matrix<Field> minv = m.inverted();
    std::vector<const std::uint8_t*> rhs_rows(x);
    for (std::size_t r = 0; r < x; ++r) rhs_rows[r] = rhs.row(r).data();
    for (std::size_t c = 0; c < x; ++c) {
      auto dst = source.row(missing[c]);
      std::fill(dst.begin(), dst.end(), 0);
      Field::fma_rows(dst.data(), rhs_rows.data(), minv.row(c), x, bytes);
    }
  }

 private:
  void build_generator() {
    // Evaluation points: sources at field elements 0..k-1, parities at
    // k..k+l-1 — all distinct because k + l <= |F|.
    gen_ = Matrix<Field>(parity_, k_);
    // d_j = prod_{m != j} (x_j + x_m)
    std::vector<Element> d(k_, Element{1});
    for (std::size_t j = 0; j < k_; ++j) {
      for (std::size_t mth = 0; mth < k_; ++mth) {
        if (mth == j) continue;
        d[j] = Field::mul(
            d[j], Field::add(static_cast<Element>(j), static_cast<Element>(mth)));
      }
    }
    for (std::size_t i = 0; i < parity_; ++i) {
      const auto y = static_cast<Element>(k_ + i);
      // N_i = prod_m (y_i + x_m)
      Element numerator{1};
      for (std::size_t mth = 0; mth < k_; ++mth) {
        numerator = Field::mul(numerator,
                               Field::add(y, static_cast<Element>(mth)));
      }
      for (std::size_t j = 0; j < k_; ++j) {
        const Element denom =
            Field::mul(Field::add(y, static_cast<Element>(j)), d[j]);
        gen_.at(i, j) = Field::div(numerator, denom);
      }
    }
  }

  void check_shapes(util::ConstSymbolView source,
                    util::ConstSymbolView parity) const {
    if (source.rows() != k_ || parity.rows() != parity_) {
      throw std::invalid_argument("VandermondeCodec: row count mismatch");
    }
    if (source.symbol_size() != parity.symbol_size()) {
      throw std::invalid_argument("VandermondeCodec: symbol size mismatch");
    }
    if (source.symbol_size() % Field::kSymbolAlignment != 0) {
      throw std::invalid_argument("VandermondeCodec: symbol alignment");
    }
  }

  static std::vector<std::uint32_t> missing_indices(
      const std::vector<bool>& have_source) {
    std::vector<std::uint32_t> missing;
    for (std::size_t j = 0; j < have_source.size(); ++j) {
      if (!have_source[j]) missing.push_back(static_cast<std::uint32_t>(j));
    }
    return missing;
  }

  std::size_t k_;
  std::size_t parity_;
  Matrix<Field> gen_;
};

}  // namespace fountain::gf
