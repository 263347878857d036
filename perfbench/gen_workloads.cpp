// The two generation workloads.
//
// gen_cold: a fixed SpecGen corpus compiled one spec at a time through
// Engine::generate_cached with no cache and one job — frontend, adapters,
// codegen and drivergen work only.
//
// gen_rebuild: the same corpus through generate_cached with an
// ArtifactCache and two jobs on one support::JobPool (the CLI batch
// shape).  Each pass first edits a seeded 1-in-8 of the specs, so a pass
// is ~7/8 cache loads beside ~1/8 compiles + stores.
//
// Traced runs replace each Engine call with the same public calls made
// serially (parse_spec, check_parameters, build_*_ast, lint_module,
// render_*_file, generate_interface, macro_library, emit_driver_sources),
// each in a span, and check the result is byte-identical to the engine's.
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "codegen/hdl_builder.hpp"
#include "codegen/hdl_lint.hpp"
#include "common.hpp"
#include "core/splice.hpp"
#include "frontend/parser.hpp"
#include "spec_shapes.hpp"
#include "support/digest64.hpp"
#include "testing/rng.hpp"
#include "testing/spec_gen.hpp"

namespace splicebench {
namespace {

using namespace splice;
namespace fs = std::filesystem;

constexpr const char* kBuses[] = {"plb", "opb", "fcb", "apb", "ahb"};

std::size_t corpus_size(Size size) { return size == Size::kTiny ? 10 : 400; }
// A gen_cold set-up takes ~0.1 s: 25 of them span ~2 s, so one short host
// slowdown does not move their median.
constexpr int kColdSetupReps = 25;
constexpr int kRebuildSetupReps = 11;

/// One corpus entry: the generated model and its target language.  The
/// device name carries the entry's index and edit version, so an edit
/// changes every output file (and the cache key) of that spec.
struct Entry {
  testing::SpecModel model;
  ir::Hdl hdl = ir::Hdl::Vhdl;
  unsigned version = 0;

  [[nodiscard]] std::string text(std::size_t index) const {
    testing::SpecModel m = model;
    m.device_name = "g" + std::to_string(index) + "_v" +
                    std::to_string(version);
    return m.render(hdl);
  }
};

/// Every bus and both %target_hdl values in turn.  Function counts follow
/// a fixed pattern (see spec_with_functions): every fourth spec is big, with
/// 5..12 functions, the rest have 1..4.
std::vector<Entry> make_corpus(std::uint64_t seed, Size size) {
  testing::Rng rng(testing::splitmix64(seed ^ 0x6a09e667f3bcc908ULL));
  std::vector<Entry> corpus(corpus_size(size));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    testing::GenOptions g;
    g.buses = {kBuses[i % 5]};
    const auto functions =
        static_cast<unsigned>(i % 4 == 3 ? 5 + (i / 4) % 8 : 1 + (i / 4) % 4);
    corpus[i].model = spec_with_functions(rng, g, functions);
    corpus[i].hdl = (i / 5) % 2 == 0 ? ir::Hdl::Vhdl : ir::Hdl::Verilog;
  }
  return corpus;
}

std::uint64_t digest_files(const std::vector<codegen::GeneratedFile>& hw,
                           const std::vector<codegen::GeneratedFile>& sw) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const auto* files : {&hw, &sw}) {
    for (const auto& f : *files) {
      h = testing::splitmix64(h ^ support::digest64(f.filename));
      h = testing::splitmix64(h ^ support::digest64(f.content));
      h = testing::splitmix64(h ^ support::digest64(f.purpose));
    }
  }
  return h;
}

std::uint64_t digest_set(const ArtifactSet& s) {
  return digest_files(s.hardware, s.software);
}

std::uint64_t bytes_of(const std::vector<codegen::GeneratedFile>& files) {
  std::uint64_t n = 0;
  for (const auto& f : files) n += f.content.size();
  return n;
}

/// Per-adapter template engines (standard set + the adapter's markers),
/// built once up front so traced workers only read them.
class TemplateEngines {
 public:
  TemplateEngines() {
    for (const char* bus : kBuses) {
      const adapters::BusAdapter* a =
          adapters::AdapterRegistry::instance().find(bus);
      codegen::TemplateEngine e = codegen::make_standard_engine();
      a->load_markers(e);
      engines_.emplace(a, std::move(e));
    }
  }
  [[nodiscard]] const codegen::TemplateEngine& get(
      const adapters::BusAdapter* a) const {
    return engines_.at(a);
  }

 private:
  std::map<const adapters::BusAdapter*, codegen::TemplateEngine> engines_;
};

/// Engine::generate as a serial sequence of public layer calls, each in a
/// span.  File order and purposes match the engine's canonical merge.
std::optional<ArtifactSet> traced_generate(std::string_view text,
                                           const TemplateEngines& engines,
                                           OpTrace* tr,
                                           DiagnosticEngine& diags,
                                           std::uint64_t& cse_hits) {
  std::optional<ir::DeviceSpec> parsed;
  {
    Span s(tr, Layer::kFrontendParse);
    parsed = frontend::parse_spec(text, diags);
  }
  if (!parsed) return std::nullopt;
  ir::DeviceSpec& spec = *parsed;

  const adapters::BusAdapter* adapter = nullptr;
  {
    Span s(tr, Layer::kAdaptersCheck);
    adapter = adapters::AdapterRegistry::instance().find(spec.target.bus_type);
    if (adapter == nullptr || !adapter->check_parameters(spec, diags)) {
      return std::nullopt;
    }
  }
  const auto dialect = spec.target.hdl == ir::Hdl::Vhdl
                           ? codegen::ast::Dialect::Vhdl
                           : codegen::ast::Dialect::Verilog;

  std::vector<codegen::GeneratedFile> user_logic;
  auto emit_module = [&](auto&& build, auto&& render) {
    codegen::ast::Module m = [&] {
      Span s(tr, Layer::kCodegenBuild);
      return build();
    }();
    if (m.ctx != nullptr) cse_hits += m.ctx->stats().cse_hits;
    {
      Span s(tr, Layer::kCodegenLint);
      if (!codegen::lint_module(m, diags)) return false;
    }
    Span s(tr, Layer::kCodegenPrint);
    user_logic.push_back(render(m));
    return true;
  };
  if (!emit_module([&] { return codegen::build_arbiter_ast(spec, dialect); },
                   [&](const codegen::ast::Module& m) {
                     return codegen::render_arbiter_file(m, spec);
                   })) {
    return std::nullopt;
  }
  for (const ir::FunctionDecl& fn : spec.functions) {
    if (!emit_module(
            [&] { return codegen::build_stub_ast(fn, spec, dialect); },
            [&](const codegen::ast::Module& m) {
              return codegen::render_stub_file(m, fn, spec);
            })) {
      return std::nullopt;
    }
  }

  ArtifactSet set;
  set.device_name = spec.target.device_name;
  {
    Span s(tr, Layer::kAdaptersInterface);
    set.hardware = adapter->generate_interface(spec, engines.get(adapter),
                                               diags);
  }
  for (auto& f : user_logic) set.hardware.push_back(std::move(f));
  {
    Span s(tr, Layer::kDrivergenEmit);
    set.software.push_back(
        {"splice_lib.h", adapter->macro_library(spec),
         "Implementation of software macros used to transfer data to and "
         "from the device across the " + spec.target.bus_type +
             " interface"});
    drivergen::DriverSources drivers = drivergen::emit_driver_sources(spec);
    set.software.push_back({drivers.source_filename, std::move(drivers.source),
                            "Contains software driver functions for each "
                            "interface declaration"});
    set.software.push_back({drivers.header_filename, std::move(drivers.header),
                            "Listing of function prototypes for each driver"});
  }
  if (diags.has_errors()) return std::nullopt;
  return set;
}

/// Mean of a per-op layer time, in microseconds.
double layer_us(const OpTrace& tr, Layer layer) {
  return tr.ops() == 0 ? 0 : tr.total_ns(layer) / 1e3 /
                                 static_cast<double>(tr.ops());
}

void report_gen_layers(Report& r, const OpTrace& tr) {
  auto set = [&](const char* name, Layer layer) {
    r.per_layer[name].value = layer_us(tr, layer);
  };
  set("frontend.parse_us", Layer::kFrontendParse);
  set("adapters.check_us", Layer::kAdaptersCheck);
  set("adapters.interface_us", Layer::kAdaptersInterface);
  set("codegen.build_us", Layer::kCodegenBuild);
  set("codegen.lint_us", Layer::kCodegenLint);
  set("codegen.print_us", Layer::kCodegenPrint);
  set("drivergen.emit_us", Layer::kDrivergenEmit);
}

}  // namespace

// ---------------------------------------------------------------------------

Report run_gen_cold(const Options& opt) {
  Report r;
  zero_per_layer(r);
  const Engine engine;  // jobs = 1, no pool
  const TemplateEngines engines;

  std::vector<std::string> texts;
  std::vector<std::uint64_t> ref;  // per-spec digest of a fresh compile
  std::uint64_t output_bytes = 0, spec_bytes = 0, hdl_bytes = 0, c_bytes = 0;

  auto compile = [&](const std::string& text) {
    DiagnosticEngine diags;
    return engine.generate_cached(text, diags, nullptr);
  };

  Samples op_ns(corpus_size(opt.size)), pass_ns(16);
  SetupTimer setup(kColdSetupReps, [&] {
    const std::vector<Entry> corpus = make_corpus(opt.seed, opt.size);
    texts.clear();
    ref.clear();
    output_bytes = spec_bytes = hdl_bytes = c_bytes = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      texts.push_back(corpus[i].text(i));
    }
    // Reference compile doubles as the warm-up pass.
    for (const std::string& t : texts) {
      auto set = compile(t);
      if (!set) throw std::runtime_error("corpus spec rejected:\n" + t);
      ref.push_back(digest_set(*set));
      spec_bytes += t.size();
      hdl_bytes += bytes_of(set->hardware);
      c_bytes += bytes_of(set->software);
    }
    output_bytes = hdl_bytes + c_bytes;
  });

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  setup.start(untraced_s);
  const std::vector<std::uint64_t> first_ref = ref;
  std::uint64_t corpus_digest = 0;
  for (std::uint64_t d : ref) corpus_digest = testing::splitmix64(corpus_digest ^ d);

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(untraced_s * 1e9);
  do {
    const std::uint64_t p0 = now_ns();
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      auto set = compile(texts[i]);
      op_ns.add(static_cast<double>(now_ns() - t0));
      ++r.attempted;
      if (!set || digest_set(*set) != ref[i]) ++r.failed;
    }
    pass_ns.add(static_cast<double>(now_ns() - p0));
    setup.between_passes();
  } while (now_ns() < deadline);
  const double rss_mb = peak_rss_mb();
  if (ref != first_ref) r.fail("a later set-up compiled the corpus differently");

  r.line("workload: gen_cold — closed loop, 1 client, Engine::generate_cached, "
         "no cache, jobs=1; corpus " + std::to_string(texts.size()) +
         " specs (5 buses x 2 HDLs), " + std::to_string(pass_ns.count()) + " passes");
  r.line(host_block(""));
  fill_end_to_end(r, "spec", op_ns, pass_ns, texts.size(), op_ns, setup, rss_mb);
  r.row("output_bytes", static_cast<double>(output_bytes), "B/pass");
  char dig[64];
  std::snprintf(dig, sizeof dig, "output digest: %016llx (identical on every pass)",
                static_cast<unsigned long long>(corpus_digest));
  r.line(dig);

  const double n = static_cast<double>(texts.size());
  r.per_layer["frontend.spec_bytes"].value = static_cast<double>(spec_bytes) / n;
  r.per_layer["codegen.hdl_bytes"].value = static_cast<double>(hdl_bytes) / n;
  r.per_layer["drivergen.c_bytes"].value = static_cast<double>(c_bytes) / n;

  if (opt.trace) {
    OpTrace tr;
    Samples traced_ns(texts.size());
    double engine_ns = 0;  // untraced Engine calls on the same specs
    std::size_t engine_calls = 0;
    std::uint64_t cse_hits = 0;
    const std::uint64_t tdeadline = now_ns() + static_cast<std::uint64_t>(opt.seconds / 2 * 1e9);
    do {
      cse_hits = 0;
      for (std::size_t i = 0; i < texts.size(); ++i) {
        // The untraced engine call on the same input, for attribution; the
        // two run in alternating order so neither always finds warm caches.
        std::optional<ArtifactSet> eset;
        auto engine_call = [&] {
          const std::uint64_t t0 = now_ns();
          eset = compile(texts[i]);
          engine_ns += static_cast<double>(now_ns() - t0);
          ++engine_calls;
        };
        if (i % 2 == 0) engine_call();
        DiagnosticEngine diags;
        const std::uint64_t t0 = now_ns();
        std::optional<ArtifactSet> set;
        {
          Span op(&tr, Layer::kOp);
          set = traced_generate(texts[i], engines, &tr, diags, cse_hits);
        }
        traced_ns.add(static_cast<double>(now_ns() - t0));
        tr.end_op();
        if (i % 2 == 1) engine_call();
        ++r.attempted;
        if (!eset || !set || digest_set(*set) != ref[i]) {
          ++r.failed;
          r.fail("traced generation of spec " + std::to_string(i) +
                 " differs from Engine::generate");
        }
      }
    } while (now_ns() < tdeadline);
    report_gen_layers(r, tr);
    r.per_layer["core.engine_other_us"].value =
        (engine_ns - tr.attributed_ns()) / 1e3 / static_cast<double>(engine_calls);
    r.per_layer["codegen.cse_hits"].value = static_cast<double>(cse_hits) / n;
    report_attribution(r, "core.attributed_ratio", tr.attributed_ns(), engine_ns,
                       "Engine::generate");
    fill_trace_overhead(r, op_ns, traced_ns);
  }
  return r;
}

// ---------------------------------------------------------------------------

namespace {

/// One OpTrace per pool thread of a traced phase (a Span's stack is
/// per-thread), merged when the phase ends.
class TraceSlots {
 public:
  OpTrace& mine() {
    thread_local std::map<const TraceSlots*, OpTrace*> slot;
    OpTrace*& t = slot[this];
    if (t == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      all_.push_back(std::make_unique<OpTrace>());
      t = all_.back().get();
    }
    return *t;
  }
  [[nodiscard]] OpTrace merged() const {
    OpTrace out;
    for (const auto& t : all_) out.absorb(*t);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<OpTrace>> all_;
};

/// Removes the on-disk cache when the workload ends, however it ends.
struct DirGuard {
  std::string dir;
  ~DirGuard() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

}  // namespace

Report run_gen_rebuild(const Options& opt) {
  Report r;
  zero_per_layer(r);
  constexpr unsigned kJobs = 2;
  support::JobPool pool(kJobs - 1);  // + the calling thread = 2 jobs
  EngineOptions eo;
  eo.jobs = kJobs;
  eo.pool = &pool;
  const Engine engine(adapters::AdapterRegistry::instance(), eo);
  const TemplateEngines engines;

  const DirGuard guard{opt.work_dir + "/cache-" + std::to_string(getpid())};
  const std::string& dir = guard.dir;
  // The traced run's copy of the cache, where the real generate_cached runs
  // beside the span replay on the same hits and misses.
  const DirGuard mirror_guard{dir + "-mirror"};
  fs::create_directories(opt.work_dir);

  std::vector<Entry> corpus;
  std::vector<std::string> texts;
  std::map<std::string, std::uint64_t> fresh;  // text -> fresh-compile digest
  support::telemetry::MetricsRegistry metrics;
  std::unique_ptr<ArtifactCache> cache;
  testing::Rng edit_rng(1);
  const std::size_t n = corpus_size(opt.size);
  const std::size_t edits = n / 8;

  std::vector<double> lat(n);
  std::vector<std::uint64_t> digests(n);
  std::vector<char> hits(n), ok(n);
  std::vector<std::string> stale;
  std::unique_ptr<ArtifactCache> mirror;
  std::vector<double> engine_ns(n);
  std::vector<std::uint64_t> mirror_digests(n);
  std::vector<char> mirror_hits(n);

  // One pass: edit a seeded 1-in-8 of the specs (untimed), then compile the
  // whole corpus through the cache on the pool.
  auto prepare_edits = [&] {
    stale.clear();
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t k = 0; k < edits; ++k) {
      std::swap(idx[k], idx[k + edit_rng.next() % (n - k)]);
      const std::size_t i = idx[k];
      stale.push_back(texts[i]);
      ++corpus[i].version;
      texts[i] = corpus[i].text(i);
    }
  };
  // Traced ops also run the real generate_cached on the mirror, in
  // alternating order, for the attribution total.
  auto real_on_mirror = [&](std::size_t i) {
    DiagnosticEngine diags;
    CacheStats local;
    const std::uint64_t t0 = now_ns();
    auto set = engine.generate_cached(texts[i], diags, mirror.get(), &local);
    engine_ns[i] = static_cast<double>(now_ns() - t0);
    mirror_hits[i] = local.hits > 0;
    mirror_digests[i] = set ? digest_set(*set) : 0;
  };
  auto compile_one = [&](std::size_t i, OpTrace* tr) {
    DiagnosticEngine diags;
    CacheStats local;
    std::optional<ArtifactSet> set;
    if (tr != nullptr && i % 2 == 0) real_on_mirror(i);
    const std::uint64_t t0 = now_ns();
    if (tr == nullptr) {
      set = engine.generate_cached(texts[i], diags, cache.get(), &local);
    } else {
      {
        Span op(tr, Layer::kOp);
        std::string key;
        {
          Span s(tr, Layer::kCoreCacheKey);
          key = ArtifactCache::key_for(texts[i], engine.cache_config());
        }
        {
          Span s(tr, Layer::kCoreCacheLoad);
          set = cache->load(key, diags, &local);
        }
        if (!set) {
          std::uint64_t cse_hits = 0;
          set = traced_generate(texts[i], engines, tr, diags, cse_hits);
          if (set) {
            Span s(tr, Layer::kCoreCacheStore);
            cache->store(key, *set, diags, &local);
          }
        }
      }
      tr->end_op();
    }
    lat[i] = static_cast<double>(now_ns() - t0);
    if (tr != nullptr && i % 2 == 1) real_on_mirror(i);
    hits[i] = local.hits > 0;
    ok[i] = set.has_value();
    digests[i] = set ? digest_set(*set) : 0;
  };
  // Check a finished pass: hits must equal the fresh compile of the same
  // text; misses are fresh compiles and become the reference.  Stale
  // entries of edited specs are deleted so the cache stays corpus-sized.
  auto settle_pass = [&](bool count) {
    for (std::size_t i = 0; i < n; ++i) {
      bool good = ok[i] != 0;
      auto it = fresh.find(texts[i]);
      if (hits[i]) {
        good = good && it != fresh.end() && it->second == digests[i];
      } else if (good) {
        fresh[texts[i]] = digests[i];
      }
      if (mirror) {
        good = good && mirror_hits[i] == hits[i] && mirror_digests[i] == digests[i];
      }
      if (count) {
        ++r.attempted;
        if (!good) ++r.failed;
      } else if (!good) {
        r.fail("cache pre-population of spec " + std::to_string(i) + " failed");
      }
    }
    for (const std::string& old : stale) {
      fresh.erase(old);
      const std::string key = ArtifactCache::key_for(old, engine.cache_config());
      const std::string entry = "/" + key.substr(0, 2) + "/" + key;
      std::error_code ec;
      fs::remove(dir + entry, ec);
      if (mirror) fs::remove(mirror_guard.dir + entry, ec);
    }
  };
  // Returns the wall time of the compile fan-out alone, in ns.
  auto run_pass = [&](bool edit, TraceSlots* slots,
                      support::JobPool* on = nullptr) {
    if (edit) prepare_edits();
    const std::uint64_t t0 = now_ns();
    support::parallel_for(on, n, [&](std::size_t i) {
      compile_one(i, slots == nullptr ? nullptr : &slots->mine());
    });
    return static_cast<double>(now_ns() - t0);
  };

  double load_bytes = 0, store_bytes = 0;
  // Untimed between set-ups: drop every entry but keep the shard
  // directories, so each set-up stores into the same directory layout.
  auto reset = [&] {
    cache.reset();
    std::error_code ec;
    for (const auto& shard : fs::directory_iterator(dir, ec)) {
      for (const auto& entry : fs::directory_iterator(shard.path(), ec)) {
        fs::remove(entry.path(), ec);
      }
    }
    // Write back the deletions (and an earlier run's) now, so the timed
    // set-up does not pay for them.
    sync_filesystem(opt.work_dir);
  };
  Samples op_ns(n), pass_ns(16);
  SetupTimer setup(kRebuildSetupReps, [&] {
    cache = std::make_unique<ArtifactCache>(dir, &metrics);
    corpus = make_corpus(opt.seed, opt.size);
    texts.clear();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      texts.push_back(corpus[i].text(i));
    }
    fresh.clear();
    stale.clear();
    edit_rng = testing::Rng(testing::splitmix64(opt.seed ^ 0xbb67ae8584caa73bULL));
    // Pre-populate (all misses) on the calling thread alone: the store
    // path's cost without the pool's scheduling noise.
    run_pass(false, nullptr);
    settle_pass(false);
    // Warm-up rebuild pass; its cache I/O volume is the exact per-pass
    // figure (the same seed always edits the same specs here).
    const auto before = metrics.snapshot();
    run_pass(true, nullptr, &pool);
    settle_pass(false);
    const auto warm = metrics.snapshot().diff_since(before);
    for (auto [name, out] : {std::pair{"cache.load_bytes", &load_bytes},
                             std::pair{"cache.store_bytes", &store_bytes}}) {
      const auto it = warm.counters.find(name);
      *out = it == warm.counters.end() ? 0.0 : static_cast<double>(it->second);
    }
  }, reset);

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  setup.start(untraced_s);
  double busy_ns = 0, wall_ns = 0;
  // Summed per pass: a set-up between passes replaces the cache object.
  std::uint64_t hits_total = 0, misses_total = 0, corrupt_total = 0;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(untraced_s * 1e9);
  do {
    const CacheStats c0 = cache->stats();
    const double wall = run_pass(true, nullptr, &pool);
    const CacheStats c1 = cache->stats();
    hits_total += c1.hits - c0.hits;
    misses_total += c1.misses - c0.misses;
    corrupt_total += c1.corrupt - c0.corrupt;
    wall_ns += wall;
    pass_ns.add(wall);
    for (double v : lat) {
      op_ns.add(v);
      busy_ns += v;
    }
    settle_pass(true);
    setup.between_passes();
  } while (now_ns() < deadline);
  const double rss_mb = peak_rss_mb();

  const double hit_ratio =
      static_cast<double>(hits_total) / static_cast<double>(hits_total + misses_total);
  const double pool_busy = busy_ns / (wall_ns * kJobs);
  r.per_layer["core.cache_hit_ratio"].value = hit_ratio;
  r.per_layer["core.cache_corrupt"].value = static_cast<double>(corrupt_total);
  r.per_layer["core.cache_load_bytes"].value = load_bytes;
  r.per_layer["core.cache_store_bytes"].value = store_bytes;
  r.per_layer["support.pool_busy_ratio"].value = pool_busy;

  r.line("workload: gen_rebuild — closed loop, jobs=2 on one JobPool, "
         "Engine::generate_cached with an ArtifactCache; corpus " +
         std::to_string(n) + " specs, " + std::to_string(edits) +
         " seeded edits per pass, " + std::to_string(pass_ns.count()) + " passes");
  r.line(host_block(dir));
  fill_end_to_end(r, "spec", op_ns, pass_ns, n, op_ns, setup, rss_mb);
  r.row("core.cache_hit_ratio", hit_ratio, "ratio");
  r.row("core.cache_corrupt", static_cast<double>(corrupt_total), "count");
  r.row("core.cache_load_bytes", load_bytes, "B/pass");
  r.row("core.cache_store_bytes", store_bytes, "B/pass");
  r.row("support.pool_busy_ratio", pool_busy, "ratio");

  if (opt.trace) {
    TraceSlots slots;
    Samples traced_ns(n);
    fs::copy(dir, mirror_guard.dir, fs::copy_options::recursive);
    mirror = std::make_unique<ArtifactCache>(mirror_guard.dir);
    const std::uint64_t tdeadline = now_ns() + static_cast<std::uint64_t>(opt.seconds / 2 * 1e9);
    std::uint64_t stores = 0;
    double engine_total = 0;
    do {
      run_pass(true, &slots, &pool);
      for (std::size_t i = 0; i < n; ++i) {
        traced_ns.add(lat[i]);
        engine_total += engine_ns[i];
        stores += hits[i] ? 0 : 1;
      }
      settle_pass(true);
    } while (now_ns() < tdeadline);
    const OpTrace tr = slots.merged();
    report_gen_layers(r, tr);
    const double ops = static_cast<double>(tr.ops());
    r.per_layer["core.cache_key_us"].value = tr.total_ns(Layer::kCoreCacheKey) / 1e3 / ops;
    r.per_layer["core.cache_load_us"].value = tr.total_ns(Layer::kCoreCacheLoad) / 1e3 / ops;
    r.per_layer["core.cache_store_us"].value =
        stores == 0 ? 0 : tr.total_ns(Layer::kCoreCacheStore) / 1e3 / static_cast<double>(stores);
    const double attributed = tr.attributed_ns();
    r.per_layer["core.engine_other_us"].value = (engine_total - attributed) / 1e3 / ops;
    report_attribution(r, "core.attributed_ratio", attributed, engine_total,
                       "Engine::generate_cached");
    fill_trace_overhead(r, op_ns, traced_ns);
  }
  return r;
}

}  // namespace splicebench
