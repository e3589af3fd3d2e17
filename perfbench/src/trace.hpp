// Measurement plumbing shared by every workload: the clock, per-layer time
// accumulators, the coarse span log, the allocation counter, the result
// record handed to run.py, and the timing decorators the traced run wraps
// around the engine's extension interfaces (LinkModel, PacketSink,
// PacketSource, cc::ReceiverPolicy).
//
// Everything here lives in the benchmark binary; the library is driven only
// through its public entry points. Hot per-call boundaries (one packet, one
// symbol) are aggregated into an Acc — time and calls — because storing a
// span per call would cost more memory than the workload itself; coarse boundaries (set-up phases, transfers, joins,
// session runs) are recorded as spans and written out when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/receiver_policy.hpp"
#include "engine/link.hpp"
#include "engine/packet_source.hpp"
#include "engine/sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Time spent in one layer boundary: total seconds and calls.
struct Acc {
  double seconds = 0.0;
  std::uint64_t calls = 0;

  void add(double s) {
    seconds += s;
    ++calls;
  }
  void merge(const Acc& other) {
    seconds += other.seconds;
    calls += other.calls;
  }
};

/// Adds the lifetime of the guard to `acc`.
class Timed {
 public:
  explicit Timed(Acc& acc) : acc_(acc), start_(Clock::now()) {}
  ~Timed() { acc_.add(seconds_between(start_, Clock::now())); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Acc& acc_;
  Clock::time_point start_;
};

/// Heap allocations made by the calling thread through the benchmark's
/// global operator new, counted only while counting is switched on (the
/// traced run). Thread-local, so a sender thread never pollutes the
/// receiver's per-datagram figure.
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCount thread_allocs();
void set_alloc_counting(bool on);

/// Coarse spans (name, start, end, parent), kept in memory and written as
/// JSON lines when the run ends.
class SpanLog {
 public:
  /// Opens a span; returns its id (the parent argument of child spans).
  int open(const char* name, int parent = -1);
  void close(int id);
  /// One JSON object per line: {"id","parent","name","start_s","end_s"},
  /// times relative to the log's creation. Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Everything one run hands to run.py: named values (metric inputs and
/// informational figures), raw sample series, notes, and failed checks.
class Report {
 public:
  void value(const std::string& name, double v) { values_[name] = v; }
  std::vector<double>& samples(const std::string& name) {
    return samples_[name];
  }
  void note(const std::string& name, const std::string& text) {
    notes_[name] = text;
  }
  /// Records one attempted operation (transfer, join, receiver).
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed correctness check; the run is then not correct.
  void fail(const std::string& what) { failures_.push_back(what); }

  /// One JSON object on one line.
  void print_json(std::FILE* out) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_path;  // where the span log goes; empty: not written
};

/// splitmix64 finalizer: derives independent seeds from (seed, stream).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Upper median (the middle element; for even sizes the higher of the two).
double median(std::vector<double> values);

// ---- Timing decorators for the engine's extension interfaces -------------
// Each decorator has its own tally, so decorators used by different cohort
// workers never share a counter. Link and policy decorators live as long as
// the session, so the caller keeps raw pointers and sums them after
// Session::run; pooled sinks die with run(), so theirs live in a SinkLog.

/// LinkModel decorator in the style of engine::FaultLink: times transfer()
/// and forwards rate declarations and shared-state identity untouched.
class TimedLink final : public fountain::engine::LinkModel {
 public:
  explicit TimedLink(std::unique_ptr<fountain::engine::LinkModel> inner)
      : inner_(std::move(inner)) {}

  fountain::engine::Verdict transfer(fountain::engine::Time now) override {
    Timed t(acc_);
    return inner_->transfer(now);
  }
  void set_subscriber_rate(double packets_per_tick) override {
    inner_->set_subscriber_rate(packets_per_tick);
  }
  const void* shared_state() const override { return inner_->shared_state(); }
  void append_shared_states(std::vector<const void*>& out) const override {
    inner_->append_shared_states(out);
  }

  const Acc& acc() const { return acc_; }

 private:
  std::unique_ptr<fountain::engine::LinkModel> inner_;
  Acc acc_;
};

/// What one pooled ObservedSink records. Owned by the workload, not by the
/// sink: the session destroys its pooled sinks when run() returns.
struct SinkLog {
  std::vector<double> spans;  // rebuild span per completed receiver, s
  Acc calls;                  // on_packet time, when timed
};

/// PacketSink decorator installed through Session::set_sink_factory. Records
/// each simulated receiver's rebuild span (wall time from its first
/// delivered symbol to the sink reporting completion) and — when `timed` —
/// the time of every on_packet call, into `log`.
class ObservedSink final : public fountain::engine::PacketSink {
 public:
  ObservedSink(std::unique_ptr<fountain::engine::PacketSink> inner,
               SinkLog& log, bool timed)
      : inner_(std::move(inner)), log_(log), timed_(timed) {}

  bool on_packet(const fountain::engine::Delivery& d) override;
  bool complete() const override { return inner_->complete(); }
  void reset() override {
    inner_->reset();
    started_ = false;
    recorded_ = false;
  }

 private:
  std::unique_ptr<fountain::engine::PacketSink> inner_;
  SinkLog& log_;
  bool timed_;
  bool started_ = false;
  bool recorded_ = false;
  Clock::time_point first_{};
};

/// PacketSource decorator: times emit(). emit() is const and may run on
/// several cohort workers at once, so the tally is atomic.
class TimedSource final : public fountain::engine::PacketSource {
 public:
  explicit TimedSource(std::shared_ptr<const fountain::engine::PacketSource> inner)
      : inner_(std::move(inner)) {}

  fountain::fec::CodecId codec_id() const override {
    return inner_->codec_id();
  }
  unsigned layer_count() const override { return inner_->layer_count(); }
  double subscribed_rate(unsigned level) const override {
    return inner_->subscribed_rate(level);
  }
  void emit(std::uint64_t round,
            fountain::engine::PacketBatch& batch) const override;

  double seconds() const { return nanos_.load() * 1e-9; }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  std::shared_ptr<const fountain::engine::PacketSource> inner_;
  mutable std::atomic<std::uint64_t> nanos_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// cc::ReceiverPolicy decorator: times on_round(), forwards the rest.
class TimedPolicy final : public fountain::cc::ReceiverPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<fountain::cc::ReceiverPolicy> inner)
      : inner_(std::move(inner)) {}

  void reset(unsigned initial_level, unsigned max_level,
             std::uint64_t seed) override {
    inner_->reset(initial_level, max_level, seed);
  }
  unsigned on_round(const fountain::cc::RoundView& round,
                    unsigned level) override {
    Timed t(acc_);
    return inner_->on_round(round, level);
  }
  void on_forced_level(unsigned level) override {
    inner_->on_forced_level(level);
  }

  const Acc& acc() const { return acc_; }

 private:
  std::unique_ptr<fountain::cc::ReceiverPolicy> inner_;
  Acc acc_;
};

// ---- Workloads (one translation unit each) -------------------------------

void run_bulk(const Options& opt, bool lt, SpanLog& spans, Report& report);
void run_population(const Options& opt, SpanLog& spans, Report& report);
void run_udp(const Options& opt, SpanLog& spans, Report& report);

/// Standalone kernel and field throughput (kern.*, gf.gf65536_fma_GBps) on
/// 16 rows of 1 KB — reported by every traced run.
void run_layer_probes(Report& report);

}  // namespace perfbench
