#include "common.hpp"

#include <fcntl.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

namespace splicebench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

Samples::Samples(std::size_t block) : block_(std::max<std::size_t>(block, 1)) {
  // Touch the buffers now, before set-up, so their pages are in the peak
  // resident set from the start instead of growing with the run's length.
  constexpr std::size_t kBlocks = 1 << 14;
  cur_.assign(block_, 0);
  cur_.clear();
  p50_.assign(kBlocks, 0);
  p50_.clear();
  p99_.assign(kBlocks, 0);
  p99_.clear();
  fastest_.assign(block_, std::numeric_limits<double>::infinity());
}

void Samples::add(double ns) {
  double& fastest = fastest_[n_ % block_];
  fastest = std::min(fastest, ns);
  cur_.push_back(ns);
  sum_ += ns;
  ++n_;
  if (cur_.size() == block_) {
    p50_.push_back(quantile(cur_, 0.5));
    p99_.push_back(quantile(cur_, 0.99));
    cur_.clear();
  }
}

double Samples::summary(const std::vector<double>& blocks, double q) const {
  // The lower quartile over blocks: on a shared host a neighbour's burst
  // slows some blocks and not others, and those land in the upper part.
  // A slower program slows every block, so it still shows in full.
  return blocks.empty() ? quantile(cur_, q) : quantile(blocks, 0.25);
}

double Samples::best() const {
  // Positions a short run never reached stay out.
  return splicebench::mean(std::vector<double>(
      fastest_.begin(), fastest_.begin() + static_cast<std::ptrdiff_t>(std::min(n_, block_))));
}

// ---------------------------------------------------------------------------

double OpTrace::attributed_ns() const {
  return std::accumulate(total_.begin() + 1, total_.end(), 0.0);
}

void OpTrace::absorb(const OpTrace& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) total_[i] += other.total_[i];
  ops_ += other.ops_;
}

Span::Span(OpTrace* trace, Layer layer) : trace_(trace) {
  if (trace_ == nullptr) return;
  trace_->stack_.push_back({layer, now_ns(), 0});
}

Span::~Span() {
  if (trace_ == nullptr) return;
  const OpTrace::Open open = trace_->stack_.back();
  trace_->stack_.pop_back();
  const std::uint64_t dur = now_ns() - open.t0;
  trace_->total_[static_cast<std::size_t>(open.layer)] +=
      static_cast<double>(dur - std::min(dur, open.child_ns));
  if (!trace_->stack_.empty()) trace_->stack_.back().child_ns += dur;
}

// ---------------------------------------------------------------------------

void Report::row(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  char buf[256];
  if (samples != 0) {
    std::snprintf(buf, sizeof buf, "  %-34s %16.6g %-8s (%zu samples)",
                  name.c_str(), value, unit.c_str(), samples);
  } else {
    std::snprintf(buf, sizeof buf, "  %-34s %16.6g %s", name.c_str(), value,
                  unit.c_str());
  }
  lines.emplace_back(buf);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"frontend.parse_us", "us"},
      {"frontend.spec_bytes", "B"},
      {"adapters.check_us", "us"},
      {"adapters.interface_us", "us"},
      {"codegen.build_us", "us"},
      {"codegen.lint_us", "us"},
      {"codegen.print_us", "us"},
      {"codegen.cse_hits", "count"},
      {"codegen.hdl_bytes", "B"},
      {"drivergen.emit_us", "us"},
      {"drivergen.c_bytes", "B"},
      {"drivergen.build_call_ns", "ns"},
      {"drivergen.decode_ns", "ns"},
      {"drivergen.ops_per_pass", "count"},
      {"core.engine_other_us", "us"},
      {"core.attributed_ratio", "ratio"},
      {"core.cache_key_us", "us"},
      {"core.cache_load_us", "us"},
      {"core.cache_store_us", "us"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.cache_corrupt", "count"},
      {"core.cache_load_bytes", "B"},
      {"core.cache_store_bytes", "B"},
      {"support.pool_busy_ratio", "ratio"},
      {"runtime.platform_build_us", "us"},
      {"runtime.call_other_ns", "ns"},
      {"runtime.attributed_ratio", "ratio"},
      {"rtl.step_ns_per_cycle.interp", "ns/cycle"},
      {"rtl.step_ns_per_cycle.compiled", "ns/cycle"},
      {"rtl.idle_ns_per_cycle.interp", "ns/cycle"},
      {"rtl.idle_ns_per_cycle.compiled", "ns/cycle"},
      {"rtl.compile_us", "us"},
      {"rtl.evals_per_cycle", "1/cycle"},
      {"rtl.settle_iters_per_cycle", "1/cycle"},
      {"rtl.signal_changes_per_cycle", "1/cycle"},
      {"rtl.commits_per_cycle", "1/cycle"},
      {"rtl.fallback_passes", "count"},
      {"bus.transactions_per_pass", "count"},
      {"bus.stall_cycles_per_pass", "cycles"},
      {"bus.bridge_grants_per_pass", "count"},
      {"bus.bridge_timeouts", "count"},
      {"sis.violations", "count"},
      {"testing.generate_us", "us"},
      {"testing.equiv_us", "us"},
      {"testing.replay_us.interp", "us"},
      {"testing.replay_us.compiled", "us"},
      {"testing.replay_us.lockstep", "us"},
      {"testing.soc_replay_us.lockstep", "us"},
      {"testing.calls", "count"},
      {"testing.backend_mismatches", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return names;
}

void zero_per_layer(Report& r) {
  for (const auto& [name, unit] : per_layer_names()) {
    r.per_layer[name] = Metric{0, unit};
  }
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launching process's peak when that was larger.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

}  // namespace

std::string host_block(const std::string& cache_dir) {
  std::ostringstream os;
  os << "host: {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu\": \"" << cpu_model() << "\", \"compiler\": \""
     << SPLICEBENCH_COMPILER << "\", \"build_type\": \""
     << SPLICEBENCH_BUILD_TYPE << "\", \"cache_fs\": \""
     << (cache_dir.empty() ? std::string("none") : fs_type(cache_dir))
     << "\"}";
  return os.str();
}

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

SetupTimer::SetupTimer(int reps, std::function<void()> setup, std::function<void()> reset)
    : reps_(static_cast<std::size_t>(std::max(reps, 1))),
      setup_(std::move(setup)),
      reset_(std::move(reset)) {}

void SetupTimer::run_one() {
  if (reset_) reset_();
  const double t0 = process_cpu_s();
  setup_();
  times_.push_back(process_cpu_s() - t0);
}

void SetupTimer::start(double loop_s) {
  run_one();
  loop_t0_ = now_ns();
  step_ns_ = static_cast<std::uint64_t>(loop_s * 1e9 / static_cast<double>(reps_));
}

void SetupTimer::between_passes() {
  if (times_.size() < reps_ && now_ns() >= loop_t0_ + times_.size() * step_ns_) run_one();
}

void fill_end_to_end(Report& r, const std::string& op, const Samples& ops,
                     const Samples& passes, std::size_t ops_per_pass,
                     const Samples& gated, const SetupTimer& setup, double rss_mb) {
  r.end_to_end["setup_s"] = {setup.median_s(), "s"};
  r.end_to_end["op_best_us"] = {gated.best() / 1e3, "us"};
  r.end_to_end["peak_rss_mb"] = {rss_mb, "MB"};
  const std::size_t n = ops.count();
  r.row("setup_s", setup.median_s(), "s", setup.count());
  r.row("op_best_us", gated.best() / 1e3, "us", gated.count());
  r.row(op == "pass" ? "passes_per_s" : op + "s_per_s",
        static_cast<double>(ops_per_pass) / (passes.p50() * 1e-9),
        "1/s", passes.count());
  r.row(op + "_p50_us", ops.p50() / 1e3, "us", n);
  r.row(op + "_p99_us", ops.p99() / 1e3, "us", n);
  r.row(op + "_mean_us", ops.mean() / 1e3, "us", n);
  r.row("peak_rss_mb", rss_mb, "MB");
}

void report_attribution(Report& r, const std::string& metric, double attributed,
                        double total, const std::string& entry_point) {
  const double ratio = total > 0 ? attributed / total : 0;
  r.per_layer[metric].value = ratio;
  const bool pass = ratio >= 0.9;
  r.line("self-check: attributed layers cover " + std::to_string(100 * ratio) +
         "% of " + entry_point + " (need >= 90%): " + (pass ? "PASS" : "FAIL"));
  if (!pass) r.fail("spans cover less than 90% of " + entry_point);
}

void fill_trace_overhead(Report& r, const Samples& untraced, const Samples& traced) {
  const double base = untraced.p50();
  const double ratio = base > 0 ? traced.p50() / base - 1 : 0;
  r.per_layer["trace.overhead_ratio"] = {ratio, "ratio"};
}

}  // namespace splicebench
