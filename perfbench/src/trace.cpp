#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<bool> g_alloc_counting{false};
thread_local AllocCount t_allocs;

void put_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

void put_number(std::FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.17g", v);
  } else {
    std::fputs("null", out);  // run.py treats a missing number as wrong
  }
}

}  // namespace

AllocCount thread_allocs() { return t_allocs; }

void set_alloc_counting(bool on) {
  g_alloc_counting.store(on, std::memory_order_relaxed);
}

int SpanLog::open(const char* name, int parent) {
  spans_.push_back(
      Span{name, parent, seconds_between(origin_, Clock::now()), -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(origin_, Clock::now());
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.parent, s.name, s.start, s.end);
  }
  return std::fclose(out) == 0;
}

void Report::print_json(std::FILE* out) const {
  std::fputs("{\"values\": {", out);
  const char* sep = "";
  for (const auto& [name, v] : values_) {
    std::fputs(sep, out);
    put_string(out, name);
    std::fputs(": ", out);
    put_number(out, v);
    sep = ", ";
  }
  std::fputs("}, \"samples\": {", out);
  sep = "";
  for (const auto& [name, series] : samples_) {
    std::fputs(sep, out);
    put_string(out, name);
    std::fputs(": [", out);
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (i != 0) std::fputs(", ", out);
      put_number(out, series[i]);
    }
    std::fputc(']', out);
    sep = ", ";
  }
  std::fputs("}, \"notes\": {", out);
  sep = "";
  for (const auto& [name, text] : notes_) {
    std::fputs(sep, out);
    put_string(out, name);
    std::fputs(": ", out);
    put_string(out, text);
    sep = ", ";
  }
  std::fputs("}, \"failures\": [", out);
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) std::fputs(", ", out);
    put_string(out, failures_[i]);
  }
  std::fprintf(out, "], \"attempted\": %llu, \"failed\": %llu}\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

bool ObservedSink::on_packet(const fountain::engine::Delivery& d) {
  if (!started_) {
    first_ = Clock::now();
    started_ = true;
  }
  bool done;
  if (timed_) {
    Timed t(log_.calls);
    done = inner_->on_packet(d);
  } else {
    done = inner_->on_packet(d);
  }
  if (done && !recorded_) {
    log_.spans.push_back(seconds_between(first_, Clock::now()));
    recorded_ = true;
  }
  return done;
}

void TimedSource::emit(std::uint64_t round,
                       fountain::engine::PacketBatch& batch) const {
  const auto start = Clock::now();
  inner_->emit(round, batch);
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count();
  nanos_.fetch_add(static_cast<std::uint64_t>(nanos),
                   std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench

// Counting global allocator: the traced run's net.allocs_per_datagram and
// net.alloc_bytes_per_datagram. Every non-aligned form is replaced, so each
// allocation and its release pair up on malloc/free in every build (the
// aligned forms keep the runtime's own matched pair).
void* operator new(std::size_t bytes) {
  if (perfbench::g_alloc_counting.load(std::memory_order_relaxed)) {
    ++perfbench::t_allocs.calls;
    perfbench::t_allocs.bytes += bytes;
  }
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (void* p = std::malloc(bytes)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* operator new[](std::size_t bytes) { return ::operator new(bytes); }

void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return ::operator new(bytes, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
