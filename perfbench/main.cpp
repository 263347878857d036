// splicebench: the repository benchmark.  One process runs one named,
// seeded, closed-loop workload over the public entry points of core,
// runtime, testing and devices, checks every output, and prints a human
// report followed by one JSON result line:
//
//   splicebench --workload gen_cold --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the gated end-to-end metrics; --trace 1 spends half
// the time untraced and half traced and reports the per-layer split plus
// the tracing overhead.  perfbench/README.md describes every workload and
// metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace splicebench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "splicebench: %s\n"
               "usage: splicebench --workload "
               "gen_cold|gen_rebuild|sim_calls|conform_lockstep\n"
               "                   [--seed N] [--seconds S] [--trace 0|1]\n"
               "                   [--size full|tiny] [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

void print_metrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--size") {
      if (std::strcmp(v, "tiny") == 0) {
        opt.size = Size::kTiny;
      } else if (std::strcmp(v, "full") != 0) {
        usage("--size must be full or tiny");
      }
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "gen_cold") run = run_gen_cold;
  if (opt.workload == "gen_rebuild") run = run_gen_rebuild;
  if (opt.workload == "sim_calls") run = run_sim_calls;
  if (opt.workload == "conform_lockstep") run = run_conform_lockstep;
  if (run == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());

  Report r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "splicebench: %s aborted: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("splicebench %s seed=%llu seconds=%g trace=%d size=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              opt.size == Size::kTiny ? "tiny" : "full");
  for (const std::string& l : r.lines) std::printf("%s\n", l.c_str());
  if (opt.trace) {
    std::printf("per-layer (traced run; 0 = layer not exercised):\n");
    for (const auto& [name, unit] : per_layer_names()) {
      const double v = r.per_layer[name].value;
      if (v != 0) std::printf("  %-34s %16.6g %s\n", name.c_str(), v, unit.c_str());
    }
  }
  for (const std::string& e : r.errors) std::printf("ERROR: %s\n", e.c_str());
  std::printf("correctness: %s (%llu ops attempted, %llu failed, "
              "failed_ratio %.6g)\n",
              r.correct() ? "ok" : "FAILED",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(opt.trace ? r.per_layer : r.end_to_end);
  std::printf("}}\n");
  return 0;
}
