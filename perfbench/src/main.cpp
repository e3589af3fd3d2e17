// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload bulk_tornado|bulk_lt|population|udp_loopback
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload for about S seconds on inputs generated from N and
// prints one JSON line of raw results (values, sample series, notes, failed
// checks) for run.py, which turns them into the metrics BENCHMARK.json
// names. With --trace 1 the workload runs with its per-layer timing
// decorators and call-site timers and reports the per-layer figures; with
// --trace 0 it runs undecorated and reports the end-to-end inputs.
//
// Refuses to run (exit 2) in a non-Release build or when
// FOUNTAIN_FORCE_ISA / FOUNTAIN_FORCE_SCALAR is set: numbers from a
// different kernel tier or optimization level must never be compared
// silently against the recorded ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "kern/kernels.hpp"
#include "trace.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               argv0);
  return 2;
}

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') return usage(argv[0]);
      have_seed = true;
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(opt.seconds > 0)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage(argv[0]);
      }
      opt.trace = val[0] == '1';
    } else if (std::strcmp(key, "--spans") == 0) {
      opt.span_path = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || !have_seed) {
    return usage(argv[0]);
  }

#ifdef NDEBUG
  const bool optimized = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build "
                         "(Release required)\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (env_set("FOUNTAIN_FORCE_ISA") || env_set("FOUNTAIN_FORCE_SCALAR")) {
    std::fprintf(stderr, "perfbench: refusing to run with FOUNTAIN_FORCE_ISA "
                         "or FOUNTAIN_FORCE_SCALAR set; numbers from a forced "
                         "kernel tier are not comparable\n");
    return 2;
  }

  perfbench::Report report;
  report.note("env.nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("env.isa", fountain::kern::isa_name(fountain::kern::active_isa()));
  report.note("env.compiler", PERFBENCH_COMPILER);
  report.note("env.build_type", PERFBENCH_BUILD_TYPE);

  perfbench::SpanLog spans;
  try {
    if (opt.workload == "bulk_tornado" || opt.workload == "bulk_lt") {
      perfbench::run_bulk(opt, opt.workload == "bulk_lt", spans, report);
    } else if (opt.workload == "population") {
      perfbench::run_population(opt, spans, report);
    } else if (opt.workload == "udp_loopback") {
      perfbench::run_udp(opt, spans, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    if (opt.trace) perfbench::run_layer_probes(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.value("peak_rss_MB", perfbench::peak_rss_mb());
  if (!opt.span_path.empty() && !spans.write_jsonl(opt.span_path)) {
    report.fail("could not write the span log to " + opt.span_path);
  }
  report.print_json(stdout);
  return 0;
}
