// Standalone throughput of the kernel and field layers at the shape the
// codecs use: 16 source rows of 1 KB folded into one destination row.
// Reported as source bytes folded per second, median of several batches.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "kern/kernels.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRows = 16;
constexpr std::size_t kRowBytes = 1024;

/// Median GB/s of `fold` (one call folds kRows * kRowBytes source bytes).
double gbps(const std::function<void()>& fold) {
  constexpr int kBatches = 7;
  constexpr int kCallsPerBatch = 2000;
  std::array<double, kBatches> rates{};
  fold();  // warm caches and lazily built tables
  for (double& rate : rates) {
    const auto start = Clock::now();
    for (int i = 0; i < kCallsPerBatch; ++i) fold();
    const double s = seconds_between(start, Clock::now());
    rate = static_cast<double>(kCallsPerBatch * kRows * kRowBytes) / s / 1e9;
  }
  std::sort(rates.begin(), rates.end());
  return rates[kBatches / 2];
}

}  // namespace

void run_layer_probes(Report& report) {
  using namespace fountain;
  util::Rng rng(0x9b0be5);
  std::vector<std::uint8_t> rows(kRows * kRowBytes);
  for (auto& b : rows) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> dst(kRowBytes);
  std::array<const std::uint8_t*, kRows> srcs{};
  for (std::size_t i = 0; i < kRows; ++i) srcs[i] = rows.data() + i * kRowBytes;

  report.value("kern.xor_rows_GBps", gbps([&] {
    kern::xor_block_rows(dst.data(), srcs.data(), kRows, kRowBytes);
  }));

  std::array<kern::Gf256Ctx, kRows> ctxs{};
  for (std::size_t i = 0; i < kRows; ++i) {
    ctxs[i] = gf::GF256::mul_ctx(static_cast<gf::GF256::Element>(2 + i));
  }
  report.value("kern.gf256_fma_GBps", gbps([&] {
    kern::gf256_fma_rows(dst.data(), srcs.data(), ctxs.data(), kRows,
                         kRowBytes);
  }));

  std::array<gf::GF65536::Element, kRows> coeffs{};
  for (std::size_t i = 0; i < kRows; ++i) {
    coeffs[i] = static_cast<gf::GF65536::Element>(0x1234 + 977 * i);
  }
  report.value("gf.gf65536_fma_GBps", gbps([&] {
    gf::GF65536::fma_rows(dst.data(), srcs.data(), coeffs.data(), kRows,
                          kRowBytes);
  }));
  report.note("kern.tier", kern::isa_name(kern::active_isa()));
}

}  // namespace perfbench
