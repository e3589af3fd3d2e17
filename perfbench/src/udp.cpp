// udp_loopback: the only workload that crosses the wire layers. A 1 MB file
// in the paper's prototype framing (500-byte payloads behind the 12-byte
// header, k = 2098) is encoded in set-up with the Tornado code that the
// advertised proto::ControlInfo names through fec::CodecRegistry; the client
// builds its own code from the serialized ControlInfo alone.
//
// One sender thread cycles a random carousel over 127.0.0.1 as an open loop
// at a fixed 100k datagrams per second — about three times what the client
// absorbs — re-stamping each pre-encoded datagram's header with a fresh
// serial, and drawing a fresh random order for every pass. It sleeps until
// each datagram is due. (An unpaced or spinning sender made the client's
// per-datagram cost swing by a sixth from run to run.)
// A fixed order would alias with the receiver's near-periodic draining of
// its socket, so a join's duplicate count would hinge on the exact ratio of
// the two threads' speeds instead of on the client's per-packet cost. The main thread is a closed loop of one
// client making sequential joins at whatever carousel phase the previous
// join ended on: receive -> parse_packet -> StatisticalDataClient::on_packet
// until the file is rebuilt, then verify it byte for byte and reset. The
// receiver is the bottleneck — most datagrams are dropped at its socket —
// and the fountain tolerates that, so the join time measures the client's
// per-packet path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/tornado.hpp"
#include "fec/codec_registry.hpp"
#include "net/packet_header.hpp"
#include "net/udp.hpp"
#include "proto/client.hpp"
#include "proto/control.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using namespace fountain;

constexpr std::size_t kFileBytes = 1 << 20;
constexpr std::size_t kPayload = 500;
constexpr std::size_t kWire = net::PacketHeader::kWireSize + kPayload;
constexpr double kSendRate = 100'000;  // datagrams per second
constexpr int kSetups = 7;
/// The code is part of the workload; the seed varies the file and carousel.
constexpr std::uint64_t kCodeSeed = 3;

/// Joins per run: a fixed count for a given --seconds (about 16 joins a
/// second on a 4-core host today), so a faster commit measures the same
/// number of joins — the same rebuild_s_tail percentile — as its parent.
std::size_t join_count(double seconds) {
  return std::max<std::size_t>(
      20, static_cast<std::size_t>(std::ceil(seconds * 16)));
}
/// A join that has not rebuilt the file after this long has stalled.
constexpr double kJoinTimeout = 5.0;

struct UdpState {
  proto::ControlInfo info;
  std::vector<std::uint8_t> file;
  std::vector<std::uint8_t> wire;      // n pre-encoded datagrams, kWire each
  std::unique_ptr<fec::ErasureCode> client_code;
  std::unique_ptr<proto::StatisticalDataClient> client;
  net::UdpSocket rx;
  net::UdpSocket tx;
  std::size_t n = 0;
  double registry_create_s = 0;
  double encoder_setup_s = 0;
  Acc write_xor;
  Acc write_tail;
};

std::unique_ptr<UdpState> build(std::uint64_t seed, bool traced) {
  auto s = std::make_unique<UdpState>();
  s->info = proto::make_control_info(kFileBytes, kPayload, /*variant=*/0,
                                     kCodeSeed, /*layers=*/1,
                                     mix_seed(seed, 22),
                                     fec::CodecId::kTornado);
  const auto& registry = fec::CodecRegistry::builtin();
  const auto t0 = Clock::now();
  const auto code = registry.create(s->info.codec, s->info.codec_params());
  s->registry_create_s = seconds_between(t0, Clock::now());
  s->n = code->encoded_count();

  util::Rng rng(mix_seed(seed, 23));
  s->file.resize(kFileBytes);
  for (auto& b : s->file) b = static_cast<std::uint8_t>(rng());
  const util::SymbolMatrix symbols = proto::file_to_symbols(s->file, kPayload);

  const auto t1 = Clock::now();
  const auto encoder = code->make_encoder(symbols);
  s->encoder_setup_s = seconds_between(t1, Clock::now());
  const auto* tornado = dynamic_cast<const core::TornadoCode*>(code.get());
  const std::size_t node_count =
      tornado != nullptr ? tornado->cascade().node_count() : s->n;
  s->wire.resize(s->n * kWire);
  for (std::size_t i = 0; i < s->n; ++i) {
    const util::ByteSpan payload(s->wire.data() + i * kWire +
                                     net::PacketHeader::kWireSize,
                                 kPayload);
    const auto index = static_cast<std::uint32_t>(i);
    if (traced) {
      Timed t(i < node_count ? s->write_xor : s->write_tail);
      encoder->write_symbol(index, payload);
    } else {
      encoder->write_symbol(index, payload);
    }
  }

  // The client knows only what the control channel carries.
  std::vector<std::uint8_t> control(proto::ControlInfo::kWireSize);
  s->info.serialize(util::ByteSpan(control));
  const auto parsed = proto::ControlInfo::parse(util::ConstByteSpan(control));
  if (!parsed) throw std::runtime_error("control info did not round-trip");
  s->client_code =
      registry.create(parsed.info.codec, parsed.info.codec_params());
  s->client = std::make_unique<proto::StatisticalDataClient>(*s->client_code);

  s->rx.bind({"127.0.0.1", 0});
  return s;
}

/// The open-loop carousel sender. Joined (and stopped) by its destructor, so
/// an exception on the receiving side can never leave it running.
class Sender {
 public:
  Sender(UdpState& s, std::uint64_t seed, bool traced)
      : s_(s), rng_(seed), order_(rng_.permutation(s.n)), traced_(traced),
        thread_([this] { loop(); }) {}
  ~Sender() { stop(); }
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Stops and joins the thread (idempotent).
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Rethrows a failure the thread hit; call after stop().
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

  std::uint64_t sent() const { return sent_; }
  double seconds() const { return seconds_; }
  /// How far behind its schedule the open loop fell, at worst.
  double max_lag() const { return max_lag_; }
  const Acc& serialize() const { return serialize_; }
  const Acc& send() const { return send_; }

 private:
  void loop() {
    const auto start = Clock::now();
    try {
      const net::Endpoint peer{"127.0.0.1", s_.rx.local_port()};
      std::uint32_t serial = 0;
      for (std::size_t slot = rng_.below(s_.n);
           !stop_.load(std::memory_order_relaxed); ++slot) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(sent_ / kSendRate));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        max_lag_ = std::max(max_lag_, seconds_between(due, Clock::now()));
        if (slot == s_.n) {
          rng_.shuffle(order_);
          slot = 0;
        }
        const std::uint32_t index = order_[slot];
        std::uint8_t* datagram = s_.wire.data() + index * kWire;
        const net::PacketHeader header{index, ++serial, s_.info.codec, 0};
        const util::ByteSpan head(datagram, net::PacketHeader::kWireSize);
        const util::ConstByteSpan whole(datagram, kWire);
        if (traced_) {
          {
            Timed t(serialize_);
            header.serialize(head);
          }
          Timed t(send_);
          s_.tx.send_to(peer, whole);
        } else {
          header.serialize(head);
          s_.tx.send_to(peer, whole);
        }
        ++sent_;
      }
    } catch (...) {
      error_ = std::current_exception();
    }
    seconds_ = seconds_between(start, Clock::now());
  }

  UdpState& s_;
  util::Rng rng_;
  std::vector<std::uint32_t> order_;  // the current pass
  bool traced_;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
  std::uint64_t sent_ = 0;
  double seconds_ = 0;
  double max_lag_ = 0;
  Acc serialize_;
  Acc send_;
  std::thread thread_;  // last: starts after every member it uses exists
};

/// Receiver-side tallies of the traced joins.
struct ClientTrace {
  Acc recv;
  Acc parse;
  Acc on_packet;
  AllocCount allocs;
};

struct Totals {
  std::size_t joins = 0;
  double seconds = 0;
  double ratio = 0;             // sum of consumed / k
  std::uint64_t received = 0;  // datagrams out of receive()
  std::uint64_t rejects = 0;   // parse or framing rejects
  std::uint64_t attempts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t rejected = 0;  // StatisticalDataClient::rejected()
};

/// One join; false if the client stalled or rebuilt a file that differs.
bool join(UdpState& s, Totals& totals, ClientTrace* trace,
          std::vector<double>& rebuild) {
  proto::StatisticalDataClient& client = *s.client;
  client.reset();
  std::uint64_t consumed = 0;
  bool done = false;
  const auto start = Clock::now();
  while (!done) {
    if (seconds_between(start, Clock::now()) > kJoinTimeout) return false;
    std::optional<net::UdpSocket::Datagram> d;
    if (trace == nullptr) {
      d = s.rx.receive(std::chrono::milliseconds(50));
    } else {
      const AllocCount before = thread_allocs();
      {
        Timed t(trace->recv);
        d = s.rx.receive(std::chrono::milliseconds(50));
      }
      const AllocCount after = thread_allocs();
      trace->allocs.calls += after.calls - before.calls;
      trace->allocs.bytes += after.bytes - before.bytes;
    }
    if (!d) continue;
    ++totals.received;
    net::ParseResult parsed;
    if (trace == nullptr) {
      parsed = net::parse_packet(util::ConstByteSpan(d->payload),
                                 static_cast<std::uint16_t>(s.info.layers));
    } else {
      Timed t(trace->parse);
      parsed = net::parse_packet(util::ConstByteSpan(d->payload),
                                 static_cast<std::uint16_t>(s.info.layers));
    }
    if (!parsed || d->truncated || parsed.packet.payload.size() != kPayload ||
        parsed.packet.header.codec != s.info.codec) {
      ++totals.rejects;
      continue;
    }
    ++consumed;
    if (trace == nullptr) {
      done = client.on_packet(parsed.packet.header.packet_index,
                              parsed.packet.payload);
    } else {
      Timed t(trace->on_packet);
      done = client.on_packet(parsed.packet.header.packet_index,
                              parsed.packet.payload);
    }
  }
  const bool ok = proto::symbols_to_file(client.source(), kFileBytes) == s.file;
  const double seconds = seconds_between(start, Clock::now());
  rebuild.push_back(seconds);
  totals.seconds += seconds;
  ++totals.joins;
  totals.ratio += static_cast<double>(consumed) / s.info.source_count;
  totals.attempts += client.decode_attempts();
  totals.duplicates += client.duplicates();
  totals.rejected += client.rejected();
  return ok;
}

}  // namespace

void run_udp(const Options& opt, SpanLog& spans, Report& report) {
  const int root = spans.open("udp_loopback");
  std::unique_ptr<UdpState> state;
  std::vector<double> create_s;
  std::vector<double> encoder_s;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const int span = spans.open("setup", root);
    const auto t0 = Clock::now();
    state = build(opt.seed, opt.trace);
    report.samples("setup_s").push_back(seconds_between(t0, Clock::now()));
    spans.close(span);
    create_s.push_back(state->registry_create_s);
    encoder_s.push_back(state->encoder_setup_s);
  }
  UdpState& s = *state;
  Sender sender(s, mix_seed(opt.seed, 24), opt.trace);

  // The traced run alternates untraced and traced joins, so
  // trace.overhead_ratio compares joins made under the same conditions.
  std::vector<double>& rebuild = report.samples("rebuild_s");
  std::vector<double> traced_rebuild;
  Totals plain;
  Totals traced;
  ClientTrace trace;
  const std::size_t count = join_count(opt.seconds);
  for (std::size_t j = 0; j < count; ++j) {
    const bool traced_join = opt.trace && j % 2 == 1;
    const int span = spans.open(traced_join ? "join_traced" : "join", root);
    set_alloc_counting(traced_join);
    const bool ok = traced_join
                        ? join(s, traced, &trace, traced_rebuild)
                        : join(s, plain, nullptr, rebuild);
    set_alloc_counting(false);
    spans.close(span);
    report.attempt(ok);
    if (!ok) {
      report.fail("join " + std::to_string(j) +
                  " stalled or rebuilt a file that differs");
      break;
    }
  }
  sender.stop();
  sender.rethrow();

  const double joins = static_cast<double>(plain.joins);
  report.value("receivers_per_s", joins / plain.seconds);
  report.value("reception_ratio", plain.ratio / joins);
  report.value("reception_overhead", plain.ratio / joins - 1.0);
  report.value("send_pps", static_cast<double>(sender.sent()) / sender.seconds());
  report.value("sender_max_lag_s", sender.max_lag());
  report.value("decode_attempts_per_join",
               static_cast<double>(plain.attempts) / joins);
  report.value("recv_pps", static_cast<double>(plain.received + traced.received) /
                               sender.seconds());

  if (!opt.trace) {
    spans.close(root);
    return;
  }
  // Per-layer figures are per join; the sender's are spread over every join
  // it served.
  const double traced_joins = static_cast<double>(traced.joins);
  const double all_joins = static_cast<double>(plain.joins + traced.joins);
  const double datagrams = static_cast<double>(trace.recv.calls);
  report.value("trace.overhead_ratio", median(traced_rebuild) / median(rebuild));
  report.value("fec.registry_create_s", median(create_s));
  report.value("core.encoder_setup_s", median(encoder_s));
  report.value("core.write_xor_s", s.write_xor.seconds);
  report.value("core.write_xor_calls", static_cast<double>(s.write_xor.calls));
  report.value("core.write_tail_s", s.write_tail.seconds);
  report.value("core.write_tail_calls", static_cast<double>(s.write_tail.calls));
  report.value("core.tail_share_encode",
               s.write_tail.seconds / (s.write_xor.seconds + s.write_tail.seconds));
  report.value("net.send_s", sender.send().seconds / all_joins);
  report.value("net.send_calls",
               static_cast<double>(sender.send().calls) / all_joins);
  report.value("net.serialize_s", sender.serialize().seconds / all_joins);
  report.value("net.recv_s", trace.recv.seconds / traced_joins);
  report.value("net.recv_calls", datagrams / traced_joins);
  report.value("net.parse_s", trace.parse.seconds / traced_joins);
  report.value("net.parse_rejects",
               static_cast<double>(traced.rejects) / traced_joins);
  report.value("net.drop_frac",
               1.0 - static_cast<double>(plain.received + traced.received) /
                         static_cast<double>(sender.sent()));
  report.value("net.allocs_per_datagram",
               static_cast<double>(trace.allocs.calls) / datagrams);
  report.value("net.alloc_bytes_per_datagram",
               static_cast<double>(trace.allocs.bytes) / datagrams);
  report.value("proto.on_packet_s", trace.on_packet.seconds / traced_joins);
  report.value("proto.on_packet_calls",
               static_cast<double>(trace.on_packet.calls) / traced_joins);
  report.value("proto.decode_attempts_per_join",
               static_cast<double>(traced.attempts) / traced_joins);
  report.value("proto.useful_attempt_ratio",
               traced_joins / static_cast<double>(traced.attempts));
  report.value("proto.duplicates",
               static_cast<double>(traced.duplicates) / traced_joins);
  report.value("proto.rejected",
               static_cast<double>(traced.rejected) / traced_joins);

  // The Reed-Solomon tail of this code on its own (the gf layer's share of
  // set-up here).
  const auto* tornado =
      dynamic_cast<const core::TornadoCode*>(s.client_code.get());
  if (tornado != nullptr) {
    const core::Cascade& cascade = tornado->cascade();
    util::SymbolMatrix tail_in(cascade.tail_size(), kPayload);
    tail_in.fill_random(mix_seed(opt.seed, 25));
    util::SymbolMatrix tail_out(cascade.parity_count(), kPayload);
    const auto t0 = Clock::now();
    cascade.tail().encode(tail_in, tail_out);
    report.value("gf.tail_encode_s", seconds_between(t0, Clock::now()));
  }
  spans.close(root);
}

}  // namespace perfbench
