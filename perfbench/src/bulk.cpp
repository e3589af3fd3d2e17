// bulk_tornado / bulk_lt: one 16 MB file (k = 16384 symbols of 1 KB)
// streamed to one receiver over a seeded random carousel with 10% Bernoulli
// loss, until the receiver holds a byte-identical copy. The code, the file,
// the streaming encoder, the decoder and the carousel order are built in
// set-up; every transfer draws a fresh carousel phase and loss stream from
// (seed, transfer number), so transfer t is the same on every run with the
// same seed. LT streams fresh indices past its nominal n instead of wrapping.
//
// The sender writes symbols in batches of 64 through BlockEncoder::
// write_symbol and the receiver feeds survivors to IncrementalDecoder::
// add_symbol, so the untraced run reads the clock twice per batch, not per
// symbol. The traced run times every call instead, split the way the codec
// spends it: Tornado XOR-cascade symbols versus Reed-Solomon tail symbols.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/tornado.hpp"
#include "lt/decoder.hpp"
#include "lt/lt_code.hpp"
#include "net/loss.hpp"
#include "trace.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"

namespace perfbench {

namespace {

using namespace fountain;

constexpr std::size_t kSourceSymbols = 16384;
constexpr std::size_t kSymbolBytes = 1024;
constexpr double kLoss = 0.10;
constexpr std::size_t kBatch = 64;
/// Set-ups per run (setup_s is their median): Tornado's graph takes
/// seconds to build, LT's set-up milliseconds.
int setup_count(bool lt) { return lt ? 7 : 3; }
/// The code is part of the workload, not of its inputs: one fixed graph
/// seed, so the seed varies only the file, the carousel and the losses.
constexpr std::uint64_t kCodeSeed = 1;

/// Distinct transfers per run: a fixed count for a given --seconds, never a
/// count of whatever fits in the time. A faster commit therefore measures
/// the same transfers — the same rebuild_s_tail percentile and the same
/// reception_ratio — as its parent. An untraced run plays each of them
/// kPasses times: at --seconds 15 that is 2 x 20 Tornado transfers of
/// 1.0-1.4 s each on a 4-core AVX-512 host today (about 50 s; fewer would
/// leave rebuild_s_tail, which needs ten samples beyond it, below p50) and
/// 2 x 49 LT transfers of about 0.13 s.
std::size_t transfer_count(bool lt, double seconds) {
  const double per_second = lt ? 3.25 : 0.5;
  return std::max<std::size_t>(
      20, static_cast<std::size_t>(std::ceil(seconds * per_second)));
}
constexpr int kPasses = 2;

struct BulkState {
  std::unique_ptr<fec::ErasureCode> code;
  const core::Cascade* cascade = nullptr;  // Tornado only
  util::SymbolMatrix file;
  std::unique_ptr<fec::BlockEncoder> encoder;
  std::unique_ptr<fec::IncrementalDecoder> decoder;
  std::vector<std::uint32_t> carousel;  // random order of [0, n)
  double graph_build_s = 0;
  double encoder_setup_s = 0;
};

std::unique_ptr<BulkState> build(bool lt, std::uint64_t seed, SpanLog& spans,
                                 int parent) {
  auto s = std::make_unique<BulkState>();
  const int span = spans.open("setup", parent);
  const auto t0 = Clock::now();
  if (lt) {
    lt::LtParams params;
    params.k = kSourceSymbols;
    params.symbol_size = kSymbolBytes;
    params.seed = kCodeSeed;
    s->code = std::make_unique<lt::LtCode>(params);
  } else {
    auto code = std::make_unique<core::TornadoCode>(core::TornadoParams::tornado_a(
        kSourceSymbols, kSymbolBytes, kCodeSeed));
    s->cascade = &code->cascade();
    s->code = std::move(code);
  }
  const auto t1 = Clock::now();
  s->file = util::SymbolMatrix(kSourceSymbols, kSymbolBytes);
  s->file.fill_random(mix_seed(seed, 2));
  const auto t2 = Clock::now();
  s->encoder = s->code->make_encoder(s->file);
  const auto t3 = Clock::now();
  s->decoder = s->code->make_decoder();
  util::Rng rng(mix_seed(seed, 3));
  s->carousel = rng.permutation(s->code->encoded_count());
  spans.close(span);
  s->graph_build_s = seconds_between(t0, t1);
  s->encoder_setup_s = seconds_between(t2, t3);
  return s;
}

/// Per-layer tallies of the traced transfers.
struct CodecTrace {
  Acc write_xor;   // Tornado: index < node_count(); LT: every write
  Acc write_tail;  // Tornado: RS tail parity, index >= node_count()
  Acc decode;      // every add_symbol call
  double max_call_sum = 0;  // sum over transfers of the longest add_symbol
  std::uint64_t inactivation_attempts = 0;
  std::uint64_t inactivated = 0;
};

struct TransferResult {
  double seconds = 0;
  double encode_s = 0;
  double decode_s = 0;
  std::uint64_t written = 0;
  std::uint64_t consumed = 0;  // add_symbol calls up to completion
  bool completed = false;
  bool ok = false;  // completed with a byte-identical file
};

class Transfers {
 public:
  Transfers(BulkState& state, bool lt, std::uint64_t seed)
      : s_(state),
        lt_(lt),
        seed_(seed),
        n_(state.code->encoded_count()),
        max_symbols_(3 * state.code->encoded_count()),
        scratch_(kBatch, kSymbolBytes) {}

  /// The encoding index the sender emits at stream position `pos` of a
  /// transfer whose carousel starts at `phase` (see phase()).
  std::uint32_t index_at(std::uint64_t phase, std::uint64_t pos) const {
    if (lt_ && pos >= n_) return static_cast<std::uint32_t>(pos);
    return s_.carousel[(phase + pos) % n_];
  }

  std::uint64_t phase(std::size_t t) const {
    util::Rng rng(mix_seed(seed_, 100 + t));
    return rng.below(n_);
  }
  std::uint64_t loss_seed(std::size_t t) const {
    return mix_seed(seed_, 1'000'000 + t);
  }

  TransferResult run(std::size_t t, CodecTrace* trace) {
    TransferResult r;
    const std::uint64_t phase = this->phase(t);
    net::BernoulliLoss loss(kLoss, loss_seed(t));
    s_.decoder->reset();
    bool keep[kBatch];
    std::uint32_t idx[kBatch];
    double max_call = 0;
    bool done = false;
    const auto start = Clock::now();
    for (std::uint64_t pos = 0; !done; pos += kBatch) {
      if (pos >= max_symbols_) return r;  // never completed: ok = false
      for (std::size_t j = 0; j < kBatch; ++j) {
        idx[j] = index_at(phase, pos + j);
        keep[j] = !loss.lost();
      }
      const auto w0 = Clock::now();
      for (std::size_t j = 0; j < kBatch; ++j) {
        if (trace == nullptr) {
          s_.encoder->write_symbol(idx[j], scratch_.row(j));
        } else {
          const bool tail =
              s_.cascade != nullptr && idx[j] >= s_.cascade->node_count();
          Timed timed(tail ? trace->write_tail : trace->write_xor);
          s_.encoder->write_symbol(idx[j], scratch_.row(j));
        }
      }
      const auto w1 = Clock::now();
      for (std::size_t j = 0; j < kBatch && !done; ++j) {
        if (!keep[j]) continue;
        ++r.consumed;
        if (trace == nullptr) {
          done = s_.decoder->add_symbol(idx[j], scratch_.row(j));
        } else {
          const auto c0 = Clock::now();
          done = s_.decoder->add_symbol(idx[j], scratch_.row(j));
          const double call = seconds_between(c0, Clock::now());
          trace->decode.add(call);
          max_call = std::max(max_call, call);
        }
      }
      const auto d1 = Clock::now();
      r.encode_s += seconds_between(w0, w1);
      r.decode_s += seconds_between(w1, d1);
      r.written += kBatch;
    }
    r.completed = true;
    r.ok = util::ConstSymbolView(s_.decoder->source()) ==
           util::ConstSymbolView(s_.file);
    r.seconds = seconds_between(start, Clock::now());
    if (trace != nullptr) {
      trace->max_call_sum += max_call;
      if (const auto* d = dynamic_cast<const lt::LtDataDecoder*>(
              s_.decoder.get())) {
        trace->inactivation_attempts += d->core().attempts();
        trace->inactivated += d->core().inactivated();
      }
    }
    return r;
  }

  /// Replays transfer t's index stream through a fresh structural decoder:
  /// the symbol count at completion must repeat the payload decoder's.
  std::uint64_t structural_count(std::size_t t) const {
    const auto decoder = s_.code->make_structural_decoder();
    const std::uint64_t phase = this->phase(t);
    net::BernoulliLoss loss(kLoss, loss_seed(t));
    std::uint64_t consumed = 0;
    for (std::uint64_t pos = 0; pos < max_symbols_; ++pos) {
      const std::uint32_t index = index_at(phase, pos);
      if (loss.lost()) continue;
      ++consumed;
      if (decoder->add_index(index)) return consumed;
    }
    return 0;
  }

 private:
  BulkState& s_;
  bool lt_;
  std::uint64_t seed_;
  std::uint64_t n_;
  std::uint64_t max_symbols_;
  util::SymbolMatrix scratch_;
};

}  // namespace

void run_bulk(const Options& opt, bool lt, SpanLog& spans, Report& report) {
  const int root = spans.open(lt ? "bulk_lt" : "bulk_tornado");
  std::unique_ptr<BulkState> state;
  std::vector<double> graph_s;
  std::vector<double> encoder_s;
  for (int i = 0; i < setup_count(lt); ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = build(lt, opt.seed, spans, root);
    report.samples("setup_s").push_back(seconds_between(t0, Clock::now()));
    graph_s.push_back(state->graph_build_s);
    encoder_s.push_back(state->encoder_setup_s);
  }
  if (!lt) {
    report.value("core.graph_build_s", median(graph_s));
    report.value("core.encoder_setup_s", median(encoder_s));
  }

  Transfers transfers(*state, lt, opt.seed);
  const double k = static_cast<double>(kSourceSymbols);
  const double source_bytes = k * kSymbolBytes;
  // An untraced run plays its transfers in kPasses passes and keeps each
  // transfer's fastest replay as its rebuild time. The replays of one
  // transfer carry the same stream, so they differ only by interference
  // from a busy host, which only ever adds time; a pass lasts long enough
  // (about 25 s for Tornado) for the replays to fall into different phases
  // of it. The traced run plays one pass and replays each of half as many
  // transfers traced right after its untraced run, so trace.overhead_ratio
  // compares identical streams under the same conditions.
  const int passes = opt.trace ? 1 : kPasses;
  const std::size_t count =
      opt.trace ? transfer_count(lt, opt.seconds) / 2
                : transfer_count(lt, opt.seconds);
  std::vector<TransferResult> results(count);
  CodecTrace trace;
  double traced_total = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t t = 0; t < count; ++t) {
      int span = spans.open("transfer", root);
      const TransferResult r = transfers.run(t, nullptr);
      spans.close(span);
      report.attempt(r.ok);
      if (!r.ok) {
        report.fail("transfer " + std::to_string(t) +
                    (r.completed ? " rebuilt a file that differs"
                                 : " did not complete"));
      } else if (pass > 0 && r.consumed != results[t].consumed) {
        report.fail("transfer " + std::to_string(t) +
                    " did not repeat its first pass");
      }
      if (pass == 0 || r.seconds < results[t].seconds) results[t] = r;
      if (!opt.trace) continue;
      span = spans.open("transfer_traced", root);
      const TransferResult traced = transfers.run(t, &trace);
      spans.close(span);
      if (!traced.ok || traced.consumed != r.consumed) {
        report.fail("traced transfer " + std::to_string(t) +
                    " did not repeat its untraced run");
      }
      traced_total += traced.seconds;
    }
  }
  double ratio = 0;
  for (const TransferResult& r : results) {
    report.samples("rebuild_s").push_back(r.seconds);
    ratio += static_cast<double>(r.consumed) / k;
  }
  ratio /= static_cast<double>(count);
  report.value("reception_ratio", ratio);
  report.value("reception_overhead", ratio - 1.0);
  if (transfers.structural_count(0) != results[0].consumed) {
    report.fail("transfer 0 replayed through the structural decoder "
                "completed at a different symbol count");
  }

  double rebuild_total = 0, encode_total = 0, decode_total = 0;
  std::uint64_t written = 0;
  for (const TransferResult& r : results) {
    rebuild_total += r.seconds;
    encode_total += r.encode_s;
    decode_total += r.decode_s;
    written += r.written;
  }
  const double n = static_cast<double>(count);
  report.value("receivers_per_s", n / rebuild_total);
  report.value("encode_MBps",
               static_cast<double>(written) * kSymbolBytes / encode_total / 1e6);
  report.value("decode_MBps", n * source_bytes / decode_total / 1e6);

  if (!opt.trace) {
    spans.close(root);
    return;
  }

  report.value("trace.overhead_ratio", traced_total / rebuild_total);

  const double calls = static_cast<double>(trace.decode.calls);
  if (lt) {
    report.value("lt.write_s", trace.write_xor.seconds / n);
    report.value("lt.write_calls", trace.write_xor.calls / n);
    report.value("lt.decode_s", trace.decode.seconds / n);
    report.value("lt.add_symbol_calls", calls / n);
    report.value("lt.decode_max_call_s", trace.max_call_sum / n);
    report.value("lt.inactivation_attempts",
                 static_cast<double>(trace.inactivation_attempts) / n);
    report.value("lt.inactivated",
                 static_cast<double>(trace.inactivated) / n);
    spans.close(root);
    return;
  }
  const double write_total = trace.write_xor.seconds + trace.write_tail.seconds;
  report.value("core.write_xor_s", trace.write_xor.seconds / n);
  report.value("core.write_xor_calls", trace.write_xor.calls / n);
  report.value("core.write_tail_s", trace.write_tail.seconds / n);
  report.value("core.write_tail_calls", trace.write_tail.calls / n);
  report.value("core.tail_share_encode", trace.write_tail.seconds / write_total);
  report.value("core.decode_s", trace.decode.seconds / n);
  report.value("core.add_symbol_calls", calls / n);
  report.value("core.decode_max_call_s", trace.max_call_sum / n);
  report.value("core.tail_share_decode",
               trace.max_call_sum / trace.decode.seconds);
  report.value("core.useful_symbol_ratio", k * n / calls);

  // The Reed-Solomon tail on its own: Cascade::tail().encode over
  // tail_size() random rows into parity_count() parity rows.
  const core::Cascade& cascade = *state->cascade;
  util::SymbolMatrix tail_in(cascade.tail_size(), kSymbolBytes);
  tail_in.fill_random(mix_seed(opt.seed, 4));
  util::SymbolMatrix tail_out(cascade.parity_count(), kSymbolBytes);
  const int span = spans.open("tail_encode", root);
  const auto t0 = Clock::now();
  cascade.tail().encode(tail_in, tail_out);
  report.value("gf.tail_encode_s", seconds_between(t0, Clock::now()));
  spans.close(span);
  spans.close(root);
}

}  // namespace perfbench
