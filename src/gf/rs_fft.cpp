#include "gf/rs_fft.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "gf/gf65536.hpp"
#include "kern/kernels.hpp"

namespace fountain::gf {

namespace {

// Multiplicative order of GF(2^16): discrete logs live mod 65535.
constexpr std::uint32_t kLogMod = 65535;

/// Walsh-Hadamard transform mod 65535, in place; a.size() a power of two.
void fwht(std::vector<std::uint32_t>& a) {
  for (std::size_t h = 1; h < a.size(); h *= 2) {
    for (std::size_t i = 0; i < a.size(); i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const std::uint32_t u = a[j];
        const std::uint32_t v = a[j + h];
        a[j] = (u + v) % kLogMod;
        a[j + h] = (u + kLogMod - v) % kLogMod;
      }
    }
  }
}

/// For every point x of [0, n): sum over erased points e of log(x + e), with
/// log(0) taken as 0, mod 65535 — the XOR-convolution of the erasure
/// indicator with the discrete log. That is log L(x) at a known point and
/// log L'(x) = log prod_{e != x} (x + e) at an erased one.
std::vector<std::uint32_t> locator_logs(
    const std::vector<std::uint8_t>& erased) {
  const std::size_t n = erased.size();
  std::vector<std::uint32_t> ind(n);
  std::vector<std::uint32_t> lg(n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    ind[x] = erased[x];
    if (x != 0) lg[x] = GF65536::log(static_cast<GF65536::Element>(x));
  }
  fwht(ind);
  fwht(lg);
  for (std::size_t x = 0; x < n; ++x) {
    ind[x] =
        static_cast<std::uint32_t>(std::uint64_t{ind[x]} * lg[x] % kLogMod);
  }
  fwht(ind);
  // The inverse transform is the forward one over n = 2^t, and
  // 2^-t = 2^(16-t) mod 65535 because 2^16 = 1.
  const std::uint64_t inv_n = std::uint64_t{1}
                              << ((16 - std::countr_zero(n)) % 16);
  for (auto& v : ind) v = static_cast<std::uint32_t>(v * inv_n % kLogMod);
  return ind;
}

// Both halves of a butterfly block are contiguous runs of rows, so one
// layer of a block is one multiply-accumulate and one XOR over whole runs,
// cut into chunks small enough that a chunk pair stays in L1 between the two.
constexpr std::size_t kButterflyChunk = 8192;

}  // namespace

FftCodec::FftCodec(std::size_t k, std::size_t parity)
    : k_(k), parity_(parity) {
  if (k == 0 || parity == 0) {
    throw std::invalid_argument("FftCodec: k and parity must be > 0");
  }
  if (std::max(k, parity) > GF65536::kOrder / 2) {
    throw std::invalid_argument("FftCodec: 2m points exceed GF(2^16)");
  }
  m_ = std::bit_ceil(std::max(k, parity));
  const std::size_t n = 2 * m_;
  const unsigned log_n = static_cast<unsigned>(std::countr_zero(n));
  // sv[b] = s_i(v_b) for the current layer i, starting from s_0(x) = x.
  std::vector<GF65536::Element> sv(log_n);
  for (unsigned b = 0; b < log_n; ++b) {
    sv[b] = static_cast<GF65536::Element>(1u << b);
  }
  std::vector<GF65536::Element> shat(log_n);
  skews_.assign(n, 0);
  deriv_.resize(log_n);
  // Linear coefficient of s_i: the product of V_i's nonzero points.
  GF65536::Element lin = 1;
  for (unsigned i = 0; i < log_n; ++i) {
    const GF65536::Element norm = sv[i];  // nonzero: v_i is not in V_i
    deriv_[i] = GF65536::div(lin, norm);
    for (unsigned b = i + 1; b < log_n; ++b) {
      shat[b] = GF65536::div(sv[b], norm);
    }
    // s^_i at the multiples t * 2^(i+1), by linearity over the bits of t.
    const std::size_t step = std::size_t{1} << (i + 1);
    const std::size_t off = (std::size_t{1} << i) - 1;
    for (std::size_t t = 1; t < n / step; ++t) {
      const unsigned b = i + 1 + static_cast<unsigned>(std::countr_zero(t));
      skews_[t * step + off] = skews_[(t & (t - 1)) * step + off] ^ shat[b];
    }
    // s_{i+1}(x) = s_i(x)^2 + s_i(v_i) s_i(x); its linear term is
    // s_i(v_i) times that of s_i.
    for (unsigned b = 0; b < log_n; ++b) {
      sv[b] = GF65536::mul(sv[b], sv[b]) ^ GF65536::mul(norm, sv[b]);
    }
    lin = GF65536::mul(lin, norm);
  }
}

void FftCodec::fft(std::uint8_t* rows, std::size_t bytes, std::size_t size,
                   std::size_t coset, std::size_t lo, std::size_t hi) const {
  if (size == 1) return;
  const std::size_t half = size / 2;
  const std::size_t run = half * bytes;
  const std::uint16_t l =
      skew(static_cast<unsigned>(std::countr_zero(half)), coset);
  const bool upper = hi > half;  // the upper half's outputs are wanted
  for (std::size_t off = 0; off < run; off += kButterflyChunk) {
    const std::size_t len = std::min(kButterflyChunk, run - off);
    if (l != 0) kern::gf65536_fma_block(rows + off, rows + run + off, len, l);
    if (upper) kern::xor_block(rows + run + off, rows + off, len);
  }
  if (lo < half) fft(rows, bytes, half, coset, lo, std::min(hi, half));
  if (upper) {
    fft(rows + run, bytes, half, coset + half, std::max(lo, half) - half,
        hi - half);
  }
}

void FftCodec::ifft(std::uint8_t* rows, std::size_t bytes, std::size_t size,
                    std::size_t coset) const {
  if (size == 1) return;
  const std::size_t half = size / 2;
  const std::size_t run = half * bytes;
  ifft(rows, bytes, half, coset);
  ifft(rows + run, bytes, half, coset + half);
  const std::uint16_t l =
      skew(static_cast<unsigned>(std::countr_zero(half)), coset);
  for (std::size_t off = 0; off < run; off += kButterflyChunk) {
    const std::size_t len = std::min(kButterflyChunk, run - off);
    kern::xor_block(rows + run + off, rows + off, len);
    if (l != 0) kern::gf65536_fma_block(rows + off, rows + run + off, len, l);
  }
}

void FftCodec::encode(util::ConstSymbolView source,
                      util::SymbolView parity_out) const {
  const std::size_t bytes = source.symbol_size();
  if (source.rows() != k_ || parity_out.rows() != parity_ ||
      parity_out.symbol_size() != bytes || bytes % 2 != 0) {
    throw std::invalid_argument("FftCodec: shape mismatch");
  }
  if (bytes == 0) return;
  // Source rows are the values at points [m, m + k), zeros above: interpolate
  // over that coset, then evaluate at the parity points [0, parity). The
  // transform runs in parity_out itself when it spans all m points.
  util::SymbolMatrix buffer;
  std::uint8_t* work = parity_out.data();
  if (parity_ < m_) {
    buffer = util::SymbolMatrix(m_, bytes);
    work = buffer.data();
  }
  std::memcpy(work, source.data(), k_ * bytes);
  std::memset(work + k_ * bytes, 0, (m_ - k_) * bytes);
  ifft(work, bytes, m_, m_);
  fft(work, bytes, m_, 0, 0, parity_);
  if (work != parity_out.data()) {
    std::memcpy(parity_out.data(), work, parity_ * bytes);
  }
}

void FftCodec::decode(
    util::SymbolView source, const std::vector<bool>& have_source,
    const std::vector<std::pair<std::uint32_t, util::ConstByteSpan>>& parity)
    const {
  const std::size_t bytes = source.symbol_size();
  if (source.rows() != k_ || have_source.size() != k_ || bytes % 2 != 0) {
    throw std::invalid_argument("FftCodec: shape mismatch");
  }
  std::size_t missing = 0;
  std::size_t first = k_;
  std::size_t last = 0;
  for (std::size_t j = 0; j < k_; ++j) {
    if (have_source[j]) continue;
    ++missing;
    first = std::min(first, j);
    last = j;
  }
  if (missing == 0) return;

  // Erasures over all 2m points: parity points until received, missing
  // source points; the zero padding above the source is known.
  const std::size_t n = 2 * m_;
  std::vector<std::uint8_t> erased(n, 0);
  std::fill(erased.begin(), erased.begin() + static_cast<std::ptrdiff_t>(m_),
            1);
  std::size_t received = 0;
  for (const auto& [p, data] : parity) {
    if (p >= parity_) throw std::out_of_range("FftCodec: parity index");
    if (data.size() != bytes) {
      throw std::invalid_argument("FftCodec: payload size");
    }
    if (erased[p] != 0) {
      erased[p] = 0;
      ++received;
    }
  }
  if (received < missing) {
    throw std::invalid_argument("FftCodec: not enough parity");
  }
  for (std::size_t j = 0; j < k_; ++j) erased[m_ + j] = have_source[j] ? 0 : 1;
  const std::vector<std::uint32_t> log_l = locator_logs(erased);

  // work holds (L D)(x) at every point: L(x) times the known value, zero at
  // the erasures where L vanishes. Each point is written once (a duplicate
  // parity entry finds its point already filled).
  util::SymbolMatrix work(n, bytes);
  for (const auto& [p, data] : parity) {
    if (erased[p] != 0) continue;
    erased[p] = 1;
    kern::gf65536_fma_block(work.row(p).data(), data.data(), bytes,
                            GF65536::exp(log_l[p]));
  }
  for (std::size_t j = 0; j < k_; ++j) {
    if (!have_source[j]) continue;
    kern::gf65536_fma_block(work.row(m_ + j).data(), source.row(j).data(),
                            bytes, GF65536::exp(log_l[m_ + j]));
  }
  ifft(work.data(), bytes, n, 0);

  // Formal derivative in place: X_j' = sum over set bits b of j of
  // deriv_[b] X_{j - 2^b}, so row l gathers deriv_[b] times row l + 2^b for
  // every clear bit b of l. Visiting i = 1, 2, ... with w = lowbit(i), the
  // rows [i - w, i) take the still-underived rows [i, i + w): every pair
  // (l, b) exactly once, one contiguous run per step. Row l keeps its own
  // coefficient too, which adds (L D)(x) to the evaluation — zero at every
  // erased point, the only points read below.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t w = i & (~i + 1);
    kern::gf65536_fma_block(work.row(i - w).data(), work.row(i).data(),
                            w * bytes,
                            deriv_[static_cast<unsigned>(std::countr_zero(w))]);
  }

  fft(work.data(), bytes, n, 0, m_ + first, m_ + last + 1);
  for (std::size_t j = first; j <= last; ++j) {
    if (have_source[j]) continue;
    auto out = source.row(j);
    std::memset(out.data(), 0, bytes);
    kern::gf65536_fma_block(out.data(), work.row(m_ + j).data(), bytes,
                            GF65536::exp(kLogMod - log_l[m_ + j]));
  }
}

}  // namespace fountain::gf
