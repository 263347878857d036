// Shared plumbing of the splicebench driver: run options, timing and
// quantile helpers, the benchmark's own span tracer, and the report every
// workload fills in and main() prints.
//
// Tracing model.  Spans live only in the benchmark's files: each wraps one
// call into a layer's public entry point (parse_spec, lint_module,
// ArtifactCache::load, Simulator::step_until, ...).  A span knows its layer
// and its parent (the innermost open span on its thread); on close it adds
// its *self* time (duration minus the part covered by child spans) to its
// layer's total.  Spans are kept in memory as these per-layer totals and
// reported as means per op when the run ends.  With no OpTrace active a
// Span is a null check.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace splicebench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Workload input size: `full` is what the benchmark measures; `tiny`
/// shrinks every corpus for the self-test.
enum class Size : std::uint8_t { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  /// Directory for on-disk state (the artifact cache); inside the checkout.
  std::string work_dir = ".bench_build/work";
};

// ---------------------------------------------------------------------------
// Statistics

/// q-quantile (q in [0,1]) by linear interpolation on a copy of `v`.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// Latency samples kept as per-block summaries, so the benchmark's own
/// memory stays flat however long the run is.  Every `block` samples are
/// reduced to their median and 99th percentile; the run's figures are the
/// lower quartiles of those over all blocks.  A run too short for one full
/// block reports its partial block.
///
/// A workload adds its samples in the same order every pass, so position
/// `k % block` of a block is the same op each time.  best() keeps each
/// position's fastest sample and reports their mean: the time of a pass
/// made of every op's fastest repetition, per op.  Every op repeats many
/// times in a run, and its fastest repetition is the one a neighbour on a
/// shared host slowed least; a slower program slows every repetition, the
/// fastest too.
class Samples {
 public:
  explicit Samples(std::size_t block);
  void add(double ns);
  [[nodiscard]] double p50() const { return summary(p50_, 0.5); }
  [[nodiscard]] double p99() const { return summary(p99_, 0.99); }
  [[nodiscard]] double best() const;
  [[nodiscard]] double mean() const {
    return n_ == 0 ? 0 : sum_ / static_cast<double>(n_);
  }
  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  [[nodiscard]] double summary(const std::vector<double>& blocks, double q) const;
  std::size_t block_;
  std::vector<double> cur_, p50_, p99_, fastest_;
  double sum_ = 0;
  std::size_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing

/// Layers the traced run attributes time to, named as in BENCHMARK.json.
enum class Layer : std::uint8_t {
  kOp,                 ///< the op's own span (self time = unattributed)
  kFrontendParse,      ///< frontend::parse_spec
  kAdaptersCheck,      ///< AdapterRegistry::find + check_parameters (ir)
  kAdaptersInterface,  ///< BusAdapter::generate_interface (templates)
  kCodegenBuild,       ///< build_arbiter_ast / build_stub_ast
  kCodegenLint,        ///< lint_module
  kCodegenPrint,       ///< render_arbiter_file / render_stub_file
  kDrivergenEmit,      ///< macro_library + emit_driver_sources
  kDrivergenBuildCall, ///< DriverBuilder::build_call
  kDrivergenDecode,    ///< DriverBuilder::decode_call
  kCoreCacheKey,       ///< ArtifactCache::key_for
  kCoreCacheLoad,      ///< ArtifactCache::load
  kCoreCacheStore,     ///< ArtifactCache::store
  kRtlStep,            ///< Simulator::step_until / SocPlatform::drain
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Per-thread span state: the open-span stack and per-layer self time.
class OpTrace {
 public:
  /// Count one finished op (the denominator of per-op means).
  void end_op() { ++ops_; }

  /// Sum of self time of `layer` over every op, in ns.
  [[nodiscard]] double total_ns(Layer layer) const {
    return total_[static_cast<std::size_t>(layer)];
  }
  /// Sum of self time over every layer but the ops' own spans, in ns.
  [[nodiscard]] double attributed_ns() const;
  [[nodiscard]] std::size_t ops() const { return ops_; }
  /// Merge another thread's totals into this one.
  void absorb(const OpTrace& other);

 private:
  friend class Span;
  struct Open {
    Layer layer;
    std::uint64_t t0;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack_;
  std::array<double, kLayerCount> total_{};
  std::size_t ops_ = 0;
};

/// RAII span around one public call; a no-op when `trace` is null.
class Span {
 public:
  Span(OpTrace* trace, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  OpTrace* trace_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures that are not a single op (digest drift, fig9
  /// table mismatch, ...); any entry makes `correct` false.
  std::vector<std::string> errors;
  /// Gated end-to-end metrics (printed with --trace 0).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (printed with --trace 1).
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the JSON result: the workload's
  /// own metric names with units and sample counts, exact counts, checks.
  std::vector<std::string> lines;

  void line(const std::string& text) { lines.push_back(text); }
  /// A named value with unit (and optional sample count) as a report line.
  void row(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  void fail(const std::string& what) { errors.push_back(what); }
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

/// Every per-layer metric name and unit, in BENCHMARK.json order.  A
/// workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();
/// Fill every per-layer metric with 0 (workloads then overwrite theirs).
void zero_per_layer(Report& r);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Write back the dirty data of the filesystem holding `dir` (syncfs).
void sync_filesystem(const std::string& dir);

/// The host block printed with every result: machine, toolchain and
/// cache filesystem.
std::string host_block(const std::string& cache_dir);

/// Times a workload's set-up up to `reps` times in a run and reports the
/// median of its process CPU time (user + system, every thread).  The first
/// set-up runs before the timed loop and builds the state the loop uses; the
/// rest run between passes, evenly spread over the loop, each rebuilding the
/// same state from the same seed.  On a shared host, slowdowns come in
/// episodes of a fraction of a second or more: back-to-back set-ups fell
/// into a few of them, and their median moved by up to 40% between runs.
/// CPU time rather than wall time, so that waiting on the disk does not
/// count, while work moved into set-up does.  `reset`, when given, runs
/// untimed before each set-up.
class SetupTimer {
 public:
  SetupTimer(int reps, std::function<void()> setup, std::function<void()> reset = {});
  /// Run the first set-up; the timed loop after it lasts `loop_s` seconds.
  void start(double loop_s);
  /// Run the next set-up if it is due; call between passes.
  void between_passes();
  /// Median set-up CPU time, in seconds.
  [[nodiscard]] double median_s() const { return median(times_); }
  [[nodiscard]] std::size_t count() const { return times_.size(); }

 private:
  void run_one();
  std::size_t reps_;
  std::function<void()> setup_, reset_;
  std::vector<double> times_;
  std::uint64_t loop_t0_ = 0, step_ns_ = 0;
};

/// Fill the gated end-to-end metrics shared by every workload — the best
/// latency of `gated` (see Samples::best), set-up time and peak memory —
/// and print them with the ungated ones: throughput of the median pass,
/// p50, p99 and mean latency of `ops`.  Every pass does the same
/// `ops_per_pass` ops; `op` names the op ("spec", "pass").  `rss_mb` is
/// the peak resident set read after the timed loop.
void fill_end_to_end(Report& r, const std::string& op, const Samples& ops,
                     const Samples& passes, std::size_t ops_per_pass,
                     const Samples& gated, const SetupTimer& setup, double rss_mb);

/// Set `metric` to attributed / total, where `total` is the time of real
/// `entry_point` calls on the same inputs; the run fails below 90%.
void report_attribution(Report& r, const std::string& metric, double attributed,
                        double total, const std::string& entry_point);

/// Tracing overhead: traced median op time over untraced, minus one.
void fill_trace_overhead(Report& r, const Samples& untraced, const Samples& traced);

// Workload entry points.
Report run_gen_cold(const Options& opt);
Report run_gen_rebuild(const Options& opt);
Report run_sim_calls(const Options& opt);
Report run_conform_lockstep(const Options& opt);

}  // namespace splicebench
