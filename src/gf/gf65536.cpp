#include "gf/gf65536.hpp"

#include <cstring>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::gf {

namespace {
constexpr std::uint32_t kPoly = 0x1100B;  // x^16 + x^12 + x^3 + x + 1
}

GF65536::Tables::Tables()
    : exp(new Element[2 * 65535]), log(new std::uint32_t[65536]) {
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 65535; ++i) {
    exp[i] = static_cast<Element>(x);
    log[x] = i;
    x <<= 1;
    if (x & 0x10000) x ^= kPoly;
  }
  for (std::uint32_t i = 65535; i < 2 * 65535; ++i) exp[i] = exp[i - 65535];
  log[0] = 0xffffffff;
}

GF65536::Tables::~Tables() {
  delete[] exp;
  delete[] log;
}

const GF65536::Tables& GF65536::tables() {
  static const Tables t;
  return t;
}

GF65536::Element GF65536::inv(Element a) {
  if (a == 0) throw std::domain_error("GF65536: inverse of zero");
  const auto& t = tables();
  return t.exp[65535 - t.log[a]];
}

GF65536::Element GF65536::div(Element a, Element b) {
  if (b == 0) throw std::domain_error("GF65536: division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + 65535 - t.log[b]];
}

unsigned GF65536::log(Element a) {
  if (a == 0) throw std::domain_error("GF65536: log of zero");
  return tables().log[a];
}

void GF65536::fma_buffer(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, Element c) {
  if (bytes % 2 != 0) {
    throw std::invalid_argument("GF65536: buffer length must be even");
  }
  if (c == 0) return;
  kern::gf65536_fma_block(dst, src, bytes, c);
}

void GF65536::scale_buffer(std::uint8_t* dst, std::size_t bytes, Element c) {
  if (bytes % 2 != 0) {
    throw std::invalid_argument("GF65536: buffer length must be even");
  }
  if (c == 1) return;
  const auto& t = tables();
  if (c == 0) {
    std::memset(dst, 0, bytes);
    return;
  }
  const std::uint32_t logc = t.log[c];
  for (std::size_t i = 0; i < bytes; i += 2) {
    Element w;
    std::memcpy(&w, dst + i, 2);
    if (w == 0) continue;
    w = t.exp[t.log[w] + logc];
    std::memcpy(dst + i, &w, 2);
  }
}

void GF65536::fma_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                       const Element* coeffs, std::size_t count,
                       std::size_t bytes) {
  if (bytes % 2 != 0) {
    throw std::invalid_argument("GF65536: buffer length must be even");
  }
  kern::gf65536_fma_rows(dst, srcs, coeffs, count, bytes);
}

}  // namespace fountain::gf
