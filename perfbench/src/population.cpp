// population: the engine path at scale. 100k heterogeneous receivers of a
// k = 256 Tornado code over a 4-layer proto::FountainServer, each behind its
// own Gilbert-Elliott link (1-31% loss, bursts of 1.5-10 packets), joining
// at staggered ticks, with a policy mix of fixed level, Section 7.2 burst
// probing and cc::LossDrivenPolicy; a tenth change loss regime mid-session
// and a twentieth leave early (churn). Structural sinks: no payload bytes
// move, so the event heap, link verdicts, source emission, cc policies and
// index-only peeling do all the work. The scenario is bench_population_scale
// at a fixed size, drawn from the benchmark seed.
//
// Every pooled sink is an ObservedSink, which records each receiver's
// rebuild span: the wall time Session::run takes to carry it from its first
// delivered symbol to decodability, with its cohort simulated alongside.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/policies.hpp"
#include "core/tornado.hpp"
#include "engine/session.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using namespace fountain;

constexpr std::size_t kReceivers = 100'000;
constexpr std::size_t kSourceSymbols = 256;
constexpr unsigned kLayers = 4;
constexpr engine::Time kHorizon = 6000;
/// Engine workers of the measured runs (clamped to the host's threads).
constexpr std::size_t kWorkers = 4;
/// rebuild_s samples every kSpanStride-th receiver span (about 1000 a run):
/// the tail rule over all million spans would pick the few receivers a
/// descheduled worker happened to be carrying.
constexpr std::size_t kSpanStride = 1000;
/// The code is part of the workload; the seed varies the population.
constexpr std::uint64_t kCodeSeed = 41;

/// Session runs per untraced run: a fixed count for a given --seconds
/// (about 1.6 s each on a 4-core host today), so a faster commit measures
/// the same work as its parent.
std::size_t run_count(double seconds) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(std::ceil(seconds / 1.6)));
}

struct Scenario {
  std::unique_ptr<core::TornadoCode> code;  // outlives the session
  std::unique_ptr<engine::Session> session;
  std::vector<engine::Time> join;
  std::vector<std::uint8_t> leaver;
  double graph_build_s = 0;
  // Decorators, owned by the session; read after run().
  std::shared_ptr<TimedSource> source;
  std::vector<const TimedLink*> links;
  std::vector<const TimedPolicy*> policies;
  std::deque<SinkLog> sink_logs;  // one per pooled sink
};

std::unique_ptr<Scenario> build(std::uint64_t seed, std::size_t threads,
                                bool timed) {
  auto sc = std::make_unique<Scenario>();
  const auto t0 = Clock::now();
  sc->code = std::make_unique<core::TornadoCode>(core::TornadoParams::tornado_a(
      kSourceSymbols, 2, kCodeSeed));
  sc->graph_build_s = seconds_between(t0, Clock::now());

  proto::ProtocolConfig proto_cfg;
  proto_cfg.layers = kLayers;
  std::shared_ptr<const engine::PacketSource> server =
      std::make_shared<proto::FountainServer>(
          proto_cfg, sc->code->encoded_count(), mix_seed(seed, 12),
          sc->code->codec_id());
  if (timed) {
    sc->source = std::make_shared<TimedSource>(server);
    server = sc->source;
  }

  engine::SessionConfig config;
  config.horizon = kHorizon;
  config.threads = threads;
  sc->session = std::make_unique<engine::Session>(*sc->code, config);
  const engine::SourceId src = sc->session->add_source(server);

  Scenario* raw = sc.get();
  sc->session->set_sink_factory([raw, timed] {
    raw->sink_logs.emplace_back();
    return std::make_unique<ObservedSink>(
        std::make_unique<engine::StructuralSink>(
            raw->code->make_structural_decoder()),
        raw->sink_logs.back(), timed);
  });

  util::Rng rng(mix_seed(seed, 13));
  sc->join.reserve(kReceivers);
  sc->leaver.reserve(kReceivers);
  for (std::size_t r = 0; r < kReceivers; ++r) {
    engine::ReceiverSpec spec;
    spec.join = rng.below(256);
    const bool leaves = r % 20 == 19;
    if (leaves) spec.leave = spec.join + 200 + rng.below(400);
    spec.policy.seed = rng();
    spec.policy.initial_level = static_cast<unsigned>(rng.below(kLayers));
    switch (r % 3) {
      case 0:  // fixed level
        break;
      case 1:  // Section 7.2 burst probing (no policy hook to decorate)
        spec.policy.adaptive = true;
        spec.policy.initial_capacity = static_cast<unsigned>(rng.below(kLayers));
        spec.policy.capacity_change_prob = 0.01 * rng.uniform();
        spec.policy.congestion_extra_loss = 0.4 * rng.uniform();
        break;
      default: {
        cc::LossDrivenConfig knobs;
        knobs.window_rounds = 8 + rng.below(16);
        knobs.initial_join_backoff = 16 + rng.below(32);
        std::unique_ptr<cc::ReceiverPolicy> policy =
            std::make_unique<cc::LossDrivenPolicy>(knobs);
        if (timed) {
          auto wrapped = std::make_unique<TimedPolicy>(std::move(policy));
          sc->policies.push_back(wrapped.get());
          policy = std::move(wrapped);
        }
        spec.controller = std::move(policy);
        break;
      }
    }
    sc->join.push_back(spec.join);
    sc->leaver.push_back(leaves ? 1 : 0);
    const engine::ReceiverId id = sc->session->add_receiver(std::move(spec));

    const double rate = 0.01 + 0.30 * rng.uniform();
    const double burst = 1.5 + 8.5 * rng.uniform();
    auto loss_link = std::make_unique<engine::LossLink>(
        std::make_unique<net::GilbertElliottLoss>(rate, burst, rng()));
    if (r % 10 == 9) {  // regime change: the loss rate halves or doubles
      const double rate2 = r % 20 == 9 ? rate * 0.5 : std::min(0.5, rate * 2);
      loss_link->add_regime(sc->join.back() + 500,
                            std::make_unique<net::GilbertElliottLoss>(
                                rate2, burst, rng()));
    }
    std::unique_ptr<engine::LinkModel> link = std::move(loss_link);
    if (timed) {
      auto wrapped = std::make_unique<TimedLink>(std::move(link));
      sc->links.push_back(wrapped.get());
      link = std::move(wrapped);
    }
    sc->session->subscribe(id, src, std::move(link));
  }
  return sc;
}

/// FNV-1a over every report field in receiver order: the cross-worker-count
/// and cross-run determinism fingerprint.
std::uint64_t report_hash(const std::vector<engine::ReceiverReport>& reports) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& rep : reports) {
    mix(rep.completed ? 1 : 0);
    mix(static_cast<std::uint64_t>(rep.outcome));
    mix(rep.completed_at);
    mix(rep.addressed);
    mix(rep.received);
    mix(rep.distinct);
    mix(rep.lost);
    mix(rep.rejected);
    mix(rep.corrupt_rejected);
    mix(rep.duplicates_dropped);
    mix(rep.level_changes);
    mix(rep.final_level);
    mix(rep.peak_level);
  }
  return h;
}

struct RunResult {
  std::vector<engine::ReceiverReport> reports;
  double seconds = 0;
  std::uint64_t hash = 0;
};

RunResult run(Scenario& sc, SpanLog& spans, int parent) {
  RunResult r;
  const int span = spans.open("session_run", parent);
  const auto t0 = Clock::now();
  r.reports = sc.session->run();
  r.seconds = seconds_between(t0, Clock::now());
  spans.close(span);
  r.hash = report_hash(r.reports);
  return r;
}

/// Nearest-rank percentile of integer ticks.
double tick_percentile(std::vector<engine::Time> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

}  // namespace

void run_population(const Options& opt, SpanLog& spans, Report& report) {
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(kWorkers, std::thread::hardware_concurrency()));
  report.note("population.workers", std::to_string(workers));
  const int root = spans.open("population");

  std::uint64_t golden = 0;
  const auto check = [&](const Scenario& sc, const RunResult& r,
                         const char* what) {
    for (std::size_t i = 0; i < r.reports.size(); ++i) {
      if (sc.leaver[i]) continue;
      report.attempt(r.reports[i].completed);
    }
    if (r.hash != golden) {
      report.fail(std::string(what) + ": report hash differs from the first "
                  "run at " + std::to_string(workers) + " workers");
    }
  };

  // The first run fixes the deterministic figures and the golden hash.
  std::vector<double> build_s;
  std::vector<double> graph_s;
  double wall_total = 0;
  std::size_t receivers_total = 0;
  // The traced run makes two configured-worker runs, so engine.scaling
  // compares warm runs.
  const std::size_t runs = opt.trace ? 2 : run_count(opt.seconds);
  std::size_t span_count = 0;
  double last_wall = 0;
  for (std::size_t run_no = 0; run_no < runs; ++run_no) {
    const int span = spans.open("setup", root);
    const auto t0 = Clock::now();
    auto sc = build(opt.seed, workers, false);
    build_s.push_back(seconds_between(t0, Clock::now()));
    graph_s.push_back(sc->graph_build_s);
    spans.close(span);
    const RunResult r = run(*sc, spans, root);
    if (run_no == 0) {
      golden = r.hash;
      std::vector<engine::Time> ticks;
      double ratio = 0;
      for (std::size_t i = 0; i < r.reports.size(); ++i) {
        const auto& rep = r.reports[i];
        if (!rep.completed) continue;
        ticks.push_back(rep.completed_at - sc->join[i]);
        ratio += static_cast<double>(rep.received) / kSourceSymbols;
      }
      if (ticks.empty()) {
        report.fail("no receiver completed");
        return;
      }
      ratio /= static_cast<double>(ticks.size());
      report.value("reception_ratio", ratio);
      report.value("reception_overhead", ratio - 1.0);
      report.value("completion_ticks_p50", tick_percentile(ticks, 0.50));
      report.value("completion_ticks_p99", tick_percentile(ticks, 0.99));
      std::uint64_t events = 0;
      for (const auto& rep : r.reports) events += rep.addressed;
      report.value("engine.packet_events", static_cast<double>(events));
    }
    check(*sc, r, "repeat run");
    if (!opt.trace) {
      auto& rebuild = report.samples("rebuild_s");
      for (const SinkLog& log : sc->sink_logs) {
        for (const double span : log.spans) {
          if (span_count++ % kSpanStride == 0) rebuild.push_back(span);
        }
      }
    }
    wall_total += r.seconds;
    last_wall = r.seconds;
    receivers_total += kReceivers;
  }
  report.samples("setup_s") = build_s;
  report.value("core.graph_build_s", median(graph_s));
  report.value("receivers_per_s",
               static_cast<double>(receivers_total) / wall_total);
  report.value("engine.build_s", median(build_s));

  // One worker must reproduce the configured worker count bit for bit.
  auto sc1 = build(opt.seed, 1, false);
  const RunResult r1 = run(*sc1, spans, root);
  check(*sc1, r1, "1-worker run");
  sc1.reset();
  if (!opt.trace) {
    spans.close(root);
    return;
  }

  // Traced: the decorated scenario at one worker, where the children's
  // times must fit inside the run's wall time (engine.self_s >= 0).
  auto sct = build(opt.seed, 1, true);
  const RunResult rt = run(*sct, spans, root);
  check(*sct, rt, "traced 1-worker run");
  Acc sink, link, cc;
  for (const SinkLog& log : sct->sink_logs) sink.merge(log.calls);
  for (const TimedLink* l : sct->links) link.merge(l->acc());
  for (const TimedPolicy* p : sct->policies) cc.merge(p->acc());
  const double emit_s = sct->source->seconds();
  report.value("engine.run_s_1w", r1.seconds);
  report.value("engine.scaling", r1.seconds / last_wall);
  report.value("engine.self_s", rt.seconds - sink.seconds - link.seconds -
                                    cc.seconds - emit_s);
  report.value("engine.sink_s", sink.seconds);
  report.value("engine.sink_calls", static_cast<double>(sink.calls));
  report.value("engine.link_s", link.seconds);
  report.value("engine.link_calls", static_cast<double>(link.calls));
  report.value("engine.source_emit_s", emit_s);
  report.value("engine.source_emit_calls",
               static_cast<double>(sct->source->calls()));
  report.value("cc.on_round_s", cc.seconds);
  report.value("cc.on_round_calls", static_cast<double>(cc.calls));
  report.value("trace.overhead_ratio", rt.seconds / r1.seconds);
  spans.close(root);
}

}  // namespace perfbench
