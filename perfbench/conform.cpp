// conform_lockstep: a fixed seeded set of single-device specs and SoC
// topologies through the differential conformance oracle in lockstep mode
// (interpreter and compiled backend side by side, the splice-fuzz
// default).  Every spec builds fresh platforms and compiles a fresh step
// program, so this is the one-shot simulation path; every verdict must be
// OracleResult::ok().
//
// The traced run splits the oracle from outside: it times Engine::generate
// for both HDLs, the VHDL<->Verilog structural_diff, platform construction
// and the first compiled settle directly, and the replays by flipping the
// public OracleOptions switches (simulate, check_equivalence, backend) and
// subtracting the generation-only run.
#include <string>
#include <vector>

#include "codegen/hdl_builder.hpp"
#include "common.hpp"
#include "core/splice.hpp"
#include "runtime/platform.hpp"
#include "spec_shapes.hpp"
#include "testing/conformance.hpp"
#include "testing/equiv.hpp"
#include "testing/rng.hpp"
#include "testing/spec_gen.hpp"

namespace splicebench {
namespace {

using namespace splice;

struct ConformSet {
  std::vector<testing::SpecModel> specs;
  std::vector<testing::SocModel> socs;
  std::vector<std::uint64_t> spec_call_seeds, soc_call_seeds;
};

std::size_t spec_count(Size size) { return size == Size::kTiny ? 3 : 192; }
std::size_t soc_count(Size size) { return size == Size::kTiny ? 1 : 64; }
constexpr int kSetupReps = 9;

/// The shape of every input follows a fixed pattern, so the set's work is
/// the same for every seed: single-device specs take each bus in turn with
/// 1..4 functions (spec_with_functions); SoC topologies have 2..4 devices
/// and 1 or 2 masters, with and without the interrupt fabric.  The seed
/// picks everything else.
ConformSet make_set(std::uint64_t seed, Size size) {
  const std::size_t nspec = spec_count(size);
  const std::size_t nsoc = soc_count(size);
  ConformSet s;
  testing::Rng rng(testing::splitmix64(seed ^ 0xa54ff53a5f1d36f1ULL));
  const testing::GenOptions all;
  for (std::size_t i = 0; i < nspec; ++i) {
    testing::GenOptions g;
    g.buses = {all.buses[i % all.buses.size()]};
    s.specs.push_back(spec_with_functions(rng, g, static_cast<unsigned>(1 + (i / 5) % 4)));
    s.spec_call_seeds.push_back(rng.next());
  }
  for (std::size_t i = 0; i < nsoc; ++i) {
    testing::SocModel soc;
    do {
      soc = testing::generate_soc(rng.next());
    } while (soc.devices.size() != 2 + i % 3);
    soc.masters = static_cast<unsigned>(1 + (i / 3) % 2);
    soc.irq = (i / 6) % 2 == 0;
    s.socs.push_back(std::move(soc));
    s.soc_call_seeds.push_back(rng.next());
  }
  return s;
}

testing::OracleOptions lockstep(std::uint64_t call_seed) {
  testing::OracleOptions o;
  o.call_seed = call_seed;
  o.backend = testing::OracleBackend::kLockstep;
  return o;
}

std::size_t checker_failures(const testing::OracleResult& res) {
  std::size_t n = 0;
  for (const std::string& f : res.failures) {
    if (f.rfind("SIS protocol", 0) == 0 || f.rfind("SoC checker", 0) == 0) ++n;
  }
  return n;
}

struct SetTotals {
  std::uint64_t bus_cycles = 0;
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t violations = 0;
};

double elapsed_us(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

}  // namespace

Report run_conform_lockstep(const Options& opt) {
  Report r;
  zero_per_layer(r);
  ConformSet set;
  SetTotals ref;

  // One pass over the set; `op_ns` gets one latency per oracle verdict.
  auto run_set = [&](Samples* op_ns, bool count) {
    SetTotals t;
    auto verdict = [&](const testing::OracleResult& res, const std::string& what) {
      t.bus_cycles += res.bus_cycles;
      t.calls += res.calls;
      t.mismatches += res.backend_mismatches;
      t.violations += checker_failures(res);
      if (count) {
        ++r.attempted;
        if (!res.ok()) ++r.failed;
      }
      if (!res.ok() && r.errors.size() < 4) {
        r.fail(what + ": " + (res.failures.empty() ? "rejected" : res.failures.front()));
      }
    };
    for (std::size_t i = 0; i < set.specs.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      const auto res = testing::run_conformance(set.specs[i], lockstep(set.spec_call_seeds[i]));
      if (op_ns != nullptr) op_ns->add(static_cast<double>(now_ns() - t0));
      verdict(res, "spec " + std::to_string(i));
    }
    for (std::size_t i = 0; i < set.socs.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      const auto res = testing::run_soc_conformance(set.socs[i], lockstep(set.soc_call_seeds[i]));
      if (op_ns != nullptr) op_ns->add(static_cast<double>(now_ns() - t0));
      verdict(res, "soc " + std::to_string(i));
    }
    return t;
  };

  Samples op_ns(spec_count(opt.size) + soc_count(opt.size)), pass_ns(4);
  auto check_totals = [&](const SetTotals& t) {
    if (t.bus_cycles != ref.bus_cycles || t.calls != ref.calls) {
      r.fail("simulated cycles or call count per set changed between passes");
    }
  };
  bool first_setup = true;
  SetupTimer setup(kSetupReps, [&] {
    set = make_set(opt.seed, opt.size);
    // Warm-up, and the exact per-set counts every later pass must repeat.
    const SetTotals t = run_set(nullptr, false);
    if (first_setup) ref = t;
    check_totals(t);
    first_setup = false;
  });

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  setup.start(untraced_s);
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(untraced_s * 1e9);
  do {
    const std::uint64_t p0 = now_ns();
    check_totals(run_set(&op_ns, true));
    pass_ns.add(static_cast<double>(now_ns() - p0));
    setup.between_passes();
  } while (now_ns() < deadline);
  const double rss_mb = peak_rss_mb();

  r.line("workload: conform_lockstep — closed loop, 1 client; " +
         std::to_string(set.specs.size()) + " single-device specs + " +
         std::to_string(set.socs.size()) +
         " SoC topologies per set through the lockstep oracle; " +
         std::to_string(pass_ns.count()) + " passes");
  r.line(host_block(""));
  fill_end_to_end(r, "spec", op_ns, pass_ns, set.specs.size() + set.socs.size(),
                  op_ns, setup, rss_mb);
  r.row("bus_cycles", static_cast<double>(ref.bus_cycles), "cycles/set");

  r.per_layer["testing.calls"].value = static_cast<double>(ref.calls);
  r.per_layer["testing.backend_mismatches"].value = static_cast<double>(ref.mismatches);
  r.per_layer["sis.violations"].value = static_cast<double>(ref.violations);

  if (opt.trace) {
    Samples traced_ns(spec_count(opt.size) + soc_count(opt.size));
    std::vector<double> gen_us, equiv_us, build_us, compile_us;
    std::vector<double> rep_i, rep_c, rep_l, soc_rep;
    const Engine engine;
    const std::uint64_t tdeadline = now_ns() + static_cast<std::uint64_t>(opt.seconds / 2 * 1e9);
    do {
      for (std::size_t i = 0; i < set.specs.size(); ++i) {
        const testing::SpecModel& m = set.specs[i];
        const std::uint64_t seed = set.spec_call_seeds[i];
        // The op itself, spanned as a whole.
        std::uint64_t t0 = now_ns();
        const auto res = testing::run_conformance(m, lockstep(seed));
        traced_ns.add(static_cast<double>(now_ns() - t0));
        ++r.attempted;
        if (!res.ok()) ++r.failed;

        // Generation for both HDLs.
        t0 = now_ns();
        DiagnosticEngine dv, dl;
        auto vhdl = engine.generate(m.render(ir::Hdl::Vhdl), dv);
        auto vlog = engine.generate(m.render(ir::Hdl::Verilog), dl);
        gen_us.push_back(elapsed_us(t0));
        if (!vhdl || !vlog) {
          r.fail("spec " + std::to_string(i) + " rejected by Engine::generate");
          continue;
        }
        const ir::DeviceSpec& spec = vhdl->spec;

        // The VHDL<->Verilog AST diff.
        t0 = now_ns();
        using codegen::ast::Dialect;
        std::size_t diffs = testing::structural_diff(
                                codegen::build_arbiter_ast(spec, Dialect::Vhdl),
                                codegen::build_arbiter_ast(spec, Dialect::Verilog))
                                .size();
        for (const ir::FunctionDecl& fn : spec.functions) {
          diffs += testing::structural_diff(
                       codegen::build_stub_ast(fn, spec, Dialect::Vhdl),
                       codegen::build_stub_ast(fn, spec, Dialect::Verilog))
                       .size();
        }
        equiv_us.push_back(elapsed_us(t0));
        if (diffs != 0) r.fail("spec " + std::to_string(i) + ": HDL ASTs differ");

        // Platform construction and the compiled backend's program build.
        elab::BehaviorMap behaviors;
        for (const ir::FunctionDecl& fn : spec.functions) {
          behaviors.set(fn.name, [](const elab::CallContext&) {
            return elab::CalcResult{1, {}};
          });
        }
        t0 = now_ns();
        runtime::VirtualPlatform vp(spec, std::move(behaviors));
        build_us.push_back(elapsed_us(t0));
        vp.sim().set_backend(rtl::Simulator::Backend::kCompiled);
        t0 = now_ns();
        vp.sim().settle();
        compile_us.push_back(elapsed_us(t0));

        // Replays: each backend minus the generation-only oracle run.
        testing::OracleOptions o = lockstep(seed);
        o.check_equivalence = false;
        o.simulate = false;
        t0 = now_ns();
        (void)testing::run_conformance(m, o);
        const double base = elapsed_us(t0);
        o.simulate = true;
        for (auto [be, out] : {std::pair{testing::OracleBackend::kInterp, &rep_i},
                               std::pair{testing::OracleBackend::kCompiled, &rep_c},
                               std::pair{testing::OracleBackend::kLockstep, &rep_l}}) {
          o.backend = be;
          t0 = now_ns();
          const auto rr = testing::run_conformance(m, o);
          out->push_back(elapsed_us(t0) - base);
          if (!rr.ok()) r.fail("spec " + std::to_string(i) + " replay failed");
        }
      }
      for (std::size_t i = 0; i < set.socs.size(); ++i) {
        const testing::SocModel& m = set.socs[i];
        std::uint64_t t0 = now_ns();
        const auto res = testing::run_soc_conformance(m, lockstep(set.soc_call_seeds[i]));
        traced_ns.add(static_cast<double>(now_ns() - t0));
        ++r.attempted;
        if (!res.ok()) ++r.failed;
        testing::OracleOptions o = lockstep(set.soc_call_seeds[i]);
        o.check_equivalence = false;
        o.simulate = false;
        t0 = now_ns();
        (void)testing::run_soc_conformance(m, o);
        const double base = elapsed_us(t0);
        o.simulate = true;
        t0 = now_ns();
        (void)testing::run_soc_conformance(m, o);
        soc_rep.push_back(elapsed_us(t0) - base);
      }
    } while (now_ns() < tdeadline);

    r.per_layer["testing.generate_us"].value = mean(gen_us);
    r.per_layer["testing.equiv_us"].value = mean(equiv_us);
    r.per_layer["testing.replay_us.interp"].value = mean(rep_i);
    r.per_layer["testing.replay_us.compiled"].value = mean(rep_c);
    r.per_layer["testing.replay_us.lockstep"].value = mean(rep_l);
    r.per_layer["testing.soc_replay_us.lockstep"].value = mean(soc_rep);
    r.per_layer["runtime.platform_build_us"].value = mean(build_us);
    r.per_layer["rtl.compile_us"].value = mean(compile_us);
    fill_trace_overhead(r, op_ns, traced_ns);
  }
  return r;
}

}  // namespace splicebench
