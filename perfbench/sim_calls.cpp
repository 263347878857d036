// sim_calls: steady-state generated-driver calls on long-lived simulated
// platforms.  Setup builds, per backend (interpreter and compiled):
//   * the Figure 9.2 matrix — 5 interpolator implementations x 4 scenarios,
//     the two hand-coded baselines included, one platform per cell;
//   * the interpolator on OPB, APB and AHB;
//   * a two-device SoC with the second device behind the PLB<->OPB bridge
//     and two masters contending through the mux;
//   * a one-device SoC with a nowait calculation completed by interrupt.
// One pass is one call (or round) on every platform of both backends.
// Every call's result and simulated cycle count is checked: the fig9 cells
// against the published table, the rest against the interpreter's count
// recorded at setup.
#include <memory>
#include <string>
#include <vector>

#include "bus/fcb.hpp"
#include "bus/plb.hpp"
#include "common.hpp"
#include "devices/baselines.hpp"
#include "devices/evaluation.hpp"
#include "devices/interpolator.hpp"
#include "drivergen/program.hpp"
#include "frontend/parser.hpp"
#include "ir/validate.hpp"
#include "rtl/observe/platform_observer.hpp"
#include "rtl/observe/soc_observer.hpp"
#include "runtime/cpu.hpp"
#include "runtime/platform.hpp"
#include "runtime/soc.hpp"
#include "testing/rng.hpp"

namespace splicebench {
namespace {

using namespace splice;
using Backend = rtl::Simulator::Backend;
using devices::Impl;

/// Figure 9.2 as the thesis reproduction prints it: bus cycles per run,
/// rows in kAllImpls order, columns scenarios 1..4.
constexpr std::uint64_t kFig9[5][4] = {{123, 183, 267, 399},
                                       {99, 144, 207, 306},
                                       {154, 184, 226, 292},
                                       {83, 103, 143, 191},
                                       {76, 91, 124, 161}};
constexpr std::uint64_t kMaxCycles = 1'000'000;
/// Passes summarized per block (see Samples): a pass takes ~1 ms.
constexpr std::size_t kPassBlock = 64;
/// A set-up takes ~4 ms (see SetupTimer).
constexpr int kSetupReps = 251;

drivergen::CallArgs interp_args(const devices::ScenarioInputs& in) {
  return {{static_cast<std::uint64_t>(in.set1.size())}, in.set1,
          {static_cast<std::uint64_t>(in.set2.size())}, in.set2,
          {static_cast<std::uint64_t>(in.set3.size())}, in.set3};
}

/// The standardized word sequence the thesis feeds the hand-coded
/// interfaces (§9.2.1), grouped into native bursts for the optimized FCB.
drivergen::DriverProgram baseline_program(bool fcb_bursts,
                                          const devices::ScenarioInputs& in) {
  using drivergen::DriverOp;
  using drivergen::OpCode;
  drivergen::DriverProgram prog;
  prog.function_name = "interp";
  prog.fid = 1;
  prog.ops.push_back(DriverOp{OpCode::SetAddress, 1, {}, 0});
  auto emit = [&](const std::vector<std::uint64_t>& words) {
    std::size_t i = 0;
    while (i < words.size()) {
      const std::size_t left = words.size() - i;
      const std::size_t k = !fcb_bursts ? 1 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
      DriverOp op{k == 4 ? OpCode::WriteQuad
                  : k == 2 ? OpCode::WriteDouble
                           : OpCode::WriteSingle,
                  1, {}, 0};
      op.data.assign(words.begin() + static_cast<long>(i),
                     words.begin() + static_cast<long>(i + k));
      prog.ops.push_back(std::move(op));
      i += k;
    }
  };
  for (const auto* set : {&in.set1, &in.set2, &in.set3}) {
    emit({set->size()});
    emit(*set);
  }
  prog.ops.push_back(DriverOp{OpCode::WaitForResults, 1, {}, 0});
  prog.ops.push_back(DriverOp{OpCode::ReadSingle, 1, {}, 1});
  prog.total_read_words = 1;
  return prog;
}

ir::DeviceSpec parse_plb_spec(const std::string& name, const std::string& body) {
  const std::string text = "%device_name " + name +
                           "\n%bus_type plb\n%bus_width 32\n"
                           "%base_address 0x80000000\n\n" + body + "\n";
  DiagnosticEngine diags;
  auto spec = frontend::parse_spec(text, diags);
  if (!spec || !ir::validate(*spec, diags)) {
    throw std::runtime_error("sim_calls spec rejected:\n" + diags.render());
  }
  return std::move(*spec);
}

runtime::SocDevice soc_device(const std::string& name, const std::string& body,
                              unsigned segment, unsigned calc_cycles) {
  runtime::SocDevice dev;
  dev.spec = parse_plb_spec(name, body);
  dev.segment = segment;
  for (const ir::FunctionDecl& fn : dev.spec.functions) {
    dev.behaviors.set(fn.name, [calc_cycles](const elab::CallContext& ctx) {
      return elab::CalcResult{calc_cycles, {ctx.scalar(0) * 2}};
    });
  }
  return dev;
}

/// One call site of a pass.
struct Cell {
  enum class Kind : std::uint8_t { kSplice, kBaseline, kSocRound, kSocNowait };
  Kind kind = Kind::kSplice;
  std::string name;
  int fig_row = -1, fig_col = -1;  ///< Figure 9.2 cell, when one
  // kSplice
  std::unique_ptr<runtime::VirtualPlatform> vp;
  const ir::FunctionDecl* fn = nullptr;
  drivergen::CallArgs args;
  // kBaseline
  std::unique_ptr<rtl::Simulator> sim;
  runtime::CpuMaster* cpu = nullptr;
  drivergen::DriverProgram program;
  // kSocRound / kSocNowait
  std::unique_ptr<runtime::SocPlatform> soc;
  std::uint64_t x = 0, y = 0;
  // Expectations.
  std::uint64_t want_result = 0;
  std::uint64_t want_cycles = 0;

  rtl::Simulator& simulator() {
    if (vp) return vp->sim();
    if (soc) return soc->sim();
    return *sim;
  }
};

struct CallOutcome {
  std::uint64_t cycles = 0;
  bool ok = false;
};

constexpr std::uint64_t kMask32 = 0xffffffffULL;

/// One call on `c`, spanned when `tr` is set.  The traced form makes the
/// same public calls VirtualPlatform::call makes (DriverBuilder::build_call,
/// CpuMaster::run + Simulator::step_until, DriverBuilder::decode_call).
CallOutcome call_cell(Cell& c, OpTrace* tr) {
  CallOutcome out;
  Span op(tr, Layer::kOp);
  switch (c.kind) {
    case Cell::Kind::kSplice: {
      std::uint64_t result = 0;
      if (tr == nullptr) {
        const runtime::CallResult r = c.vp->call(c.fn->name, c.args, 0, kMaxCycles);
        out.cycles = r.bus_cycles;
        result = r.outputs.empty() ? ~0ULL : r.outputs[0];
      } else {
        const drivergen::DriverBuilder builder(c.vp->spec(), *c.fn);
        drivergen::DriverProgram prog;
        {
          Span s(tr, Layer::kDrivergenBuildCall);
          prog = builder.build_call(c.args, 0);
        }
        runtime::CpuMaster& cpu = c.vp->cpu();
        rtl::Simulator& sim = c.vp->sim();
        {
          Span s(tr, Layer::kRtlStep);
          cpu.clear_read_words();
          cpu.run(std::move(prog));
          const std::uint64_t start = sim.cycle();
          if (!sim.step_until([&cpu] { return cpu.done(); }, kMaxCycles)) {
            return out;
          }
          out.cycles = sim.cycle() - start;
        }
        Span s(tr, Layer::kDrivergenDecode);
        const drivergen::CallOutputs d = builder.decode_call(cpu.read_words(), c.args);
        result = d.outputs.empty() ? ~0ULL : d.outputs[0];
      }
      out.ok = result == c.want_result;
      break;
    }
    case Cell::Kind::kBaseline: {
      c.cpu->clear_read_words();
      drivergen::DriverProgram prog = c.program;
      {
        Span s(tr, Layer::kRtlStep);
        c.cpu->run(std::move(prog));
        const std::uint64_t start = c.sim->cycle();
        if (!c.sim->step_until([&c] { return c.cpu->done(); }, kMaxCycles)) {
          return out;
        }
        out.cycles = c.sim->cycle() - start;
      }
      const auto& words = c.cpu->read_words();
      out.ok = !words.empty() && (words.back() & kMask32) == c.want_result;
      break;
    }
    case Cell::Kind::kSocRound: {
      runtime::SocPlatform& soc = *c.soc;
      soc.cpu(0).clear_read_words();
      soc.cpu(1).clear_read_words();
      soc.start_call(0, "f", {{c.x}}, 0, 0);
      soc.start_call(1, "g", {{c.y}}, 0, 1);
      {
        Span s(tr, Layer::kRtlStep);
        out.cycles = soc.drain(kMaxCycles);
      }
      const auto& w0 = soc.cpu(0).read_words();
      const auto& w1 = soc.cpu(1).read_words();
      out.ok = !w0.empty() && !w1.empty() && (w0.back() & kMask32) == c.x * 2 &&
               (w1.back() & kMask32) == c.y * 2;
      break;
    }
    case Cell::Kind::kSocNowait: {
      runtime::SocPlatform& soc = *c.soc;
      soc.start_call(0, "f", {{c.x}}, 0, 0);
      {
        Span s(tr, Layer::kRtlStep);
        out.cycles = soc.drain(kMaxCycles);
      }
      out.cycles += soc.wait_completion(0, "f", 0, /*irq=*/true, 0, kMaxCycles).bus_cycles;
      out.ok = true;
      break;
    }
  }
  return out;
}

struct Platforms {
  std::vector<Cell> cells[2];  ///< [0] interpreter, [1] compiled
  double build_us_total = 0;
  std::size_t builds = 0;
};

void build_backend(Platforms& p, int b, std::uint64_t seed) {
  const Backend be = b == 0 ? Backend::kInterp : Backend::kCompiled;
  testing::Rng rng(testing::splitmix64(seed ^ 0x3c6ef372fe94f82bULL));
  const auto input_seed = static_cast<std::uint32_t>(rng.next() & 0x7fffffff);
  std::vector<Cell>& cells = p.cells[b];
  cells.clear();

  auto add_vp = [&](Cell c, ir::DeviceSpec spec, const devices::ScenarioInputs& in) {
    const std::uint64_t t0 = now_ns();
    c.vp = std::make_unique<runtime::VirtualPlatform>(
        std::move(spec), devices::make_interpolator_behaviors());
    p.build_us_total += static_cast<double>(now_ns() - t0) / 1e3;
    ++p.builds;
    c.vp->sim().set_backend(be);
    c.fn = c.vp->spec().find_function("interp");
    c.args = interp_args(in);
    c.want_result = in.expected();
    cells.push_back(std::move(c));
  };

  int row = 0;
  for (Impl impl : devices::kAllImpls) {
    int col = 0;
    for (const devices::Scenario& sc : devices::scenarios()) {
      const devices::ScenarioInputs in = devices::make_inputs(sc, input_seed);
      Cell c;
      c.name = std::string(devices::impl_name(impl)) + " / scenario " +
               std::to_string(sc.id);
      c.fig_row = row;
      c.fig_col = col;
      c.want_cycles = kFig9[row][col];
      if (devices::impl_is_splice(impl)) {
        const bool fcb = impl == Impl::SpliceFcb;
        add_vp(std::move(c),
               devices::make_interpolator_spec(fcb ? "fcb" : "plb", fcb,
                                               impl == Impl::SplicePlbDma),
               in);
      } else {
        c.kind = Cell::Kind::kBaseline;
        c.sim = std::make_unique<rtl::Simulator>();
        bus::MasterPort* port = nullptr;
        if (impl == Impl::NaivePlb) {
          auto& plb = c.sim->add<bus::PlbBus>(*c.sim, "PLB_", 32, 2);
          c.sim->add<devices::NaivePlbInterpolator>(plb.pins());
          port = &plb;
        } else {
          auto& fcb = c.sim->add<bus::FcbBus>(*c.sim, "FCB_", 32, 4);
          c.sim->add<devices::OptimizedFcbInterpolator>(fcb.pins());
          port = &fcb;
        }
        c.cpu = &c.sim->add<runtime::CpuMaster>(
            *port, sis::ProtocolClass::PseudoAsynchronous);
        c.sim->set_backend(be);
        c.program = baseline_program(impl == Impl::OptimizedFcb, in);
        c.want_result = in.expected();
        cells.push_back(std::move(c));
      }
      ++col;
    }
    ++row;
  }

  const devices::ScenarioInputs in =
      devices::make_inputs(devices::scenarios()[1], input_seed);
  for (const char* bus : {"opb", "apb", "ahb"}) {
    Cell c;
    c.name = std::string("interpolator on ") + bus;
    add_vp(std::move(c), devices::make_interpolator_spec(bus, false, false), in);
  }

  {
    runtime::SocConfig config;
    config.devices.push_back(soc_device("alpha", "int f(int x);", 0, 4));
    config.devices.push_back(soc_device("beta", "int g(int x);", 1, 4));
    config.masters = 2;
    Cell c;
    c.kind = Cell::Kind::kSocRound;
    c.name = "SoC bridged round, 2 masters";
    c.soc = std::make_unique<runtime::SocPlatform>(std::move(config));
    c.soc->sim().set_backend(be);
    c.x = rng.next() & 0x3fffffff;
    c.y = rng.next() & 0x3fffffff;
    cells.push_back(std::move(c));
  }
  {
    runtime::SocConfig config;
    config.devices.push_back(soc_device("worker", "nowait f(int x);", 0, 40));
    config.irq = true;
    Cell c;
    c.kind = Cell::Kind::kSocNowait;
    c.name = "SoC nowait round, IRQ completion";
    c.soc = std::make_unique<runtime::SocPlatform>(std::move(config));
    c.soc->sim().set_backend(be);
    c.x = rng.next() & 0x3fffffff;
    cells.push_back(std::move(c));
  }
}

struct PassResult {
  std::uint64_t ns[2] = {0, 0};
  std::uint64_t cycles[2] = {0, 0};
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// One pass: one call on every cell, interpreter cells then compiled.
/// `call_ns`, when given, gets each call's latency in that order.
PassResult run_pass(Platforms& p, OpTrace* traces, Samples* call_ns = nullptr) {
  PassResult pr;
  for (int b = 0; b < 2; ++b) {
    OpTrace* tr = traces == nullptr ? nullptr : &traces[b];
    const std::uint64_t t0 = now_ns();
    for (Cell& c : p.cells[b]) {
      CallOutcome o;
      std::string err;
      const std::uint64_t c0 = now_ns();
      try {
        o = call_cell(c, tr);
      } catch (const std::exception& e) {
        err = e.what();
      }
      if (call_ns != nullptr) call_ns->add(static_cast<double>(now_ns() - c0));
      if (tr != nullptr) tr->end_op();
      ++pr.calls;
      pr.cycles[b] += o.cycles;
      if (!o.ok || o.cycles != c.want_cycles) {
        ++pr.failed;
        if (pr.errors.size() < 4) {
          pr.errors.push_back(c.name + (b == 0 ? " (interp)" : " (compiled)") +
                              ": " + (err.empty() ? "" : err + "; ") +
                              std::to_string(o.cycles) + " cycles (want " +
                              std::to_string(c.want_cycles) + ")" +
                              (o.ok ? "" : ", wrong result"));
        }
      }
    }
    pr.ns[b] = now_ns() - t0;
  }
  return pr;
}

std::size_t violations(Platforms& p) {
  std::size_t n = 0;
  for (auto& cells : p.cells) {
    for (Cell& c : cells) {
      if (c.vp) n += c.vp->checker().violations().size();
      if (c.soc) n += c.soc->violations().size();
    }
  }
  return n;
}

}  // namespace

Report run_sim_calls(const Options& opt) {
  Report r;
  zero_per_layer(r);
  Platforms p;
  Samples pass_ns(kPassBlock), ns_interp(kPassBlock), ns_compiled(kPassBlock),
      npc_interp(kPassBlock), npc_compiled(kPassBlock);

  SetupTimer setup(kSetupReps, [&] {
    p = Platforms{};
    build_backend(p, 0, opt.seed);
    build_backend(p, 1, opt.seed);
    // Warm-up: compile + settle, and record the interpreter's steady-state
    // cycle count for cells the published table does not cover.
    for (int k = 0; k < 2; ++k) {
      for (Cell& c : p.cells[0]) {
        const CallOutcome o = call_cell(c, nullptr);
        if (c.fig_row < 0) c.want_cycles = o.cycles;
      }
    }
    for (std::size_t i = 0; i < p.cells[0].size(); ++i) {
      p.cells[1][i].want_cycles = p.cells[0][i].want_cycles;
      (void)call_cell(p.cells[1][i], nullptr);
    }
  });
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  setup.start(untraced_s);

  double compile_us = 0;
  for (Cell& c : p.cells[1]) {
    compile_us += static_cast<double>(
        c.simulator().metrics_snapshot().counters["sim.compile_us"]);
  }

  auto absorb = [&](const PassResult& pr) {
    r.attempted += pr.calls;
    r.failed += pr.failed;
    for (const auto& e : pr.errors) {
      if (r.errors.size() < 8) r.fail(e);
    }
  };

  // The gated op is one call: each call's fastest repetition (Samples::best).
  Samples call_ns(2 * p.cells[0].size());
  std::uint64_t pass_cycles = 0;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(untraced_s * 1e9);
  do {
    const PassResult pr = run_pass(p, nullptr, &call_ns);
    absorb(pr);
    const auto ni = static_cast<double>(pr.ns[0]);
    const auto nc = static_cast<double>(pr.ns[1]);
    pass_ns.add(ni + nc);
    ns_interp.add(ni);
    ns_compiled.add(nc);
    npc_interp.add(ni / static_cast<double>(pr.cycles[0]));
    npc_compiled.add(nc / static_cast<double>(pr.cycles[1]));
    if (pass_cycles == 0) pass_cycles = pr.cycles[0];
    if (pr.cycles[0] != pass_cycles || pr.cycles[1] != pass_cycles) {
      r.fail("simulated cycles per pass changed between passes or backends");
    }
    setup.between_passes();
  } while (now_ns() < deadline);
  const double rss_mb = peak_rss_mb();

  const std::size_t per_backend = p.cells[0].size();
  r.line("workload: sim_calls — closed loop, 1 client; one pass = one call on "
         "each of " + std::to_string(per_backend) +
         " long-lived platforms per backend (fig9 5x4 matrix, interpolator on "
         "opb/apb/ahb, bridged 2-master SoC round, nowait IRQ round), "
         "interpreter then compiled; " + std::to_string(pass_ns.count()) + " passes");
  r.line(host_block(""));
  fill_end_to_end(r, "pass", pass_ns, pass_ns, 1, call_ns, setup, rss_mb);
  r.row("ns_per_cycle.interp", npc_interp.p50(), "ns/cycle", npc_interp.count());
  r.row("ns_per_cycle.compiled", npc_compiled.p50(), "ns/cycle", npc_compiled.count());
  r.row("pass_p99_us.interp", ns_interp.p99() / 1e3, "us", ns_interp.count());
  r.row("pass_p99_us.compiled", ns_compiled.p99() / 1e3, "us", ns_compiled.count());
  r.row("bus_cycles", static_cast<double>(pass_cycles), "cycles/pass");

  if (opt.trace) {
    OpTrace tr[2];
    Samples traced_pass_ns(kPassBlock);
    std::uint64_t cycles[2] = {0, 0};
    // Attribution: each Splice cell's traced replay beside a real
    // VirtualPlatform::call on the same platform, in alternating order.
    OpTrace replay;
    double real_ns = 0;
    std::uint64_t round = 0;
    const std::uint64_t tdeadline = now_ns() + static_cast<std::uint64_t>(opt.seconds / 2 * 1e9);
    do {
      const PassResult pr = run_pass(p, tr);
      absorb(pr);
      traced_pass_ns.add(static_cast<double>(pr.ns[0] + pr.ns[1]));
      cycles[0] += pr.cycles[0];
      cycles[1] += pr.cycles[1];
      for (auto& cells : p.cells) {
        for (Cell& c : cells) {
          if (c.kind != Cell::Kind::kSplice) continue;
          CallOutcome outs[2];
          for (int k = 0; k < 2; ++k) {
            if ((round + static_cast<std::uint64_t>(k)) % 2 == 0) {
              const std::uint64_t t0 = now_ns();
              outs[k] = call_cell(c, nullptr);
              real_ns += static_cast<double>(now_ns() - t0);
            } else {
              outs[k] = call_cell(c, &replay);
              replay.end_op();
            }
          }
          for (const CallOutcome& o : outs) {
            ++r.attempted;
            if (!o.ok || o.cycles != c.want_cycles) {
              ++r.failed;
              if (r.errors.size() < 8) r.fail(c.name + ": attribution call failed");
            }
          }
          ++round;
        }
      }
    } while (now_ns() < tdeadline);
    OpTrace all;
    all.absorb(tr[0]);
    all.absorb(tr[1]);
    std::size_t splice_calls = 0;
    for (const Cell& c : p.cells[0]) splice_calls += c.kind == Cell::Kind::kSplice;
    const double splice_total = static_cast<double>(splice_calls * traced_pass_ns.count() * 2);
    const double calls = static_cast<double>(all.ops());
    r.per_layer["drivergen.build_call_ns"].value = all.total_ns(Layer::kDrivergenBuildCall) / splice_total;
    r.per_layer["drivergen.decode_ns"].value = all.total_ns(Layer::kDrivergenDecode) / splice_total;
    r.per_layer["runtime.call_other_ns"].value = all.total_ns(Layer::kOp) / calls;
    r.per_layer["rtl.step_ns_per_cycle.interp"].value =
        tr[0].total_ns(Layer::kRtlStep) / static_cast<double>(cycles[0]);
    r.per_layer["rtl.step_ns_per_cycle.compiled"].value =
        tr[1].total_ns(Layer::kRtlStep) / static_cast<double>(cycles[1]);
    report_attribution(r, "runtime.attributed_ratio", replay.attributed_ns(), real_ns,
                       "VirtualPlatform::call");
    fill_trace_overhead(r, pass_ns, traced_pass_ns);
  }

  // Kernel counters over one more (untimed) pass: exact per simulated cycle.
  {
    std::vector<rtl::Simulator::Stats> before;
    std::uint64_t cyc0 = 0;
    for (auto& cells : p.cells) {
      for (Cell& c : cells) {
        before.push_back(c.simulator().stats());
        cyc0 += c.simulator().cycle();
      }
    }
    const PassResult pr = run_pass(p, nullptr);
    absorb(pr);
    rtl::Simulator::Stats d;
    std::uint64_t cyc1 = 0;
    std::size_t k = 0;
    for (auto& cells : p.cells) {
      for (Cell& c : cells) {
        const auto& s = c.simulator().stats();
        const auto& b = before[k++];
        d.evals += s.evals - b.evals;
        d.settle_iterations += s.settle_iterations - b.settle_iterations;
        d.signal_changes += s.signal_changes - b.signal_changes;
        d.commits += s.commits - b.commits;
        d.fallback_passes += s.fallback_passes - b.fallback_passes;
        cyc1 += c.simulator().cycle();
      }
    }
    const double cyc = static_cast<double>(cyc1 - cyc0);
    r.per_layer["rtl.evals_per_cycle"].value = static_cast<double>(d.evals) / cyc;
    r.per_layer["rtl.settle_iters_per_cycle"].value = static_cast<double>(d.settle_iterations) / cyc;
    r.per_layer["rtl.signal_changes_per_cycle"].value = static_cast<double>(d.signal_changes) / cyc;
    r.per_layer["rtl.commits_per_cycle"].value = static_cast<double>(d.commits) / cyc;
    r.per_layer["rtl.fallback_passes"].value = static_cast<double>(d.fallback_passes);
  }

  std::size_t ops = 0;
  for (const Cell& c : p.cells[0]) {
    if (c.kind == Cell::Kind::kSplice) {
      ops += drivergen::DriverBuilder(c.vp->spec(), *c.fn).build_call(c.args).ops.size();
    } else if (c.kind == Cell::Kind::kBaseline) {
      ops += c.program.ops.size();
    }
  }
  r.per_layer["drivergen.ops_per_pass"].value = static_cast<double>(ops);
  r.per_layer["rtl.compile_us"].value = compile_us / static_cast<double>(p.cells[1].size());
  r.per_layer["runtime.platform_build_us"].value = p.build_us_total / static_cast<double>(p.builds);

  // Quiescent stepping: the kernel floor under every call.
  if (opt.trace) {
    for (int b = 0; b < 2; ++b) {
      rtl::Simulator& sim = p.cells[b][4].simulator();  // Splice PLB, scenario 1
      constexpr std::uint64_t kIdle = 20'000;
      std::vector<double> v;
      for (int rep = 0; rep < 5; ++rep) {
        const std::uint64_t t0 = now_ns();
        sim.step(kIdle);
        v.push_back(static_cast<double>(now_ns() - t0) / kIdle);
      }
      r.per_layer[b == 0 ? "rtl.idle_ns_per_cycle.interp"
                         : "rtl.idle_ns_per_cycle.compiled"].value = median(v);
    }
  }

  // Observed pass (decoders attached, interpreter platforms): bus shape.
  std::uint64_t cells_cycles[5][4] = {};
  {
    std::vector<std::unique_ptr<rtl::observe::PlatformObserver>> vobs;
    std::vector<std::unique_ptr<rtl::observe::SocObserver>> sobs;
    std::uint64_t grants0 = 0, grants1 = 0;
    for (Cell& c : p.cells[0]) {
      if (c.vp) vobs.push_back(std::make_unique<rtl::observe::PlatformObserver>(*c.vp));
      if (c.soc) sobs.push_back(std::make_unique<rtl::observe::SocObserver>(*c.soc));
      if (c.soc && c.soc->bridge() != nullptr) grants0 += c.soc->bridge()->grants();
    }
    std::size_t v = 0;
    for (Cell& c : p.cells[0]) {
      if (c.vp) vobs[v]->begin_call("interp", 0);
      const CallOutcome o = call_cell(c, nullptr);
      if (c.vp) vobs[v++]->end_call();
      ++r.attempted;
      if (!o.ok || o.cycles != c.want_cycles) {
        ++r.failed;
        r.fail(c.name + ": wrong result or cycle count with decoders attached");
      }
      if (c.fig_row >= 0) cells_cycles[c.fig_row][c.fig_col] = o.cycles;
      if (c.soc && c.soc->bridge() != nullptr) grants1 += c.soc->bridge()->grants();
    }
    std::uint64_t txns = 0, stalls = 0;
    for (const auto& o : vobs) {
      txns += o->transactions();
      stalls += o->stall_cycles();
    }
    for (std::size_t s = 0; s < sobs.size(); ++s) txns += sobs[s]->transactions();
    std::uint64_t timeouts = 0;
    for (auto& cells : p.cells) {
      for (Cell& c : cells) {
        if (c.soc && c.soc->bridge() != nullptr) timeouts += c.soc->bridge()->timeouts();
      }
    }
    r.per_layer["bus.transactions_per_pass"].value = static_cast<double>(txns);
    r.per_layer["bus.stall_cycles_per_pass"].value = static_cast<double>(stalls);
    r.per_layer["bus.bridge_grants_per_pass"].value = static_cast<double>(grants1 - grants0);
    r.per_layer["bus.bridge_timeouts"].value = static_cast<double>(timeouts);
    if (timeouts != 0) r.fail("bridge watchdog fired on a healthy topology");
  }

  const std::size_t viol = violations(p);
  r.per_layer["sis.violations"].value = static_cast<double>(viol);
  if (viol != 0) r.fail(std::to_string(viol) + " protocol checker violation(s)");

  // Simulator accuracy: the §9.3.1 claims from this run's simulated cycles.
  auto cyc = [&](int i, int j) { return static_cast<double>(cells_cycles[i][j]); };
  auto avg_ratio = [&](int a, int b) {
    double s = 0;
    for (int j = 0; j < 4; ++j) s += cyc(a, j) / cyc(b, j);
    return s / 4;
  };
  char buf[160];
  r.line("simulator accuracy, §9.3.1 claims from simulated cycles (exact):");
  std::snprintf(buf, sizeof buf, "  Splice PLB faster than naive hand-coded PLB      paper ~25%%   measured %5.1f%%",
                (1 - avg_ratio(1, 0)) * 100);
  r.line(buf);
  std::snprintf(buf, sizeof buf, "  Splice FCB faster than naive PLB                 paper ~43%%   measured %5.1f%%",
                (1 - avg_ratio(3, 0)) * 100);
  r.line(buf);
  std::snprintf(buf, sizeof buf, "  Splice FCB slower than optimized hand-coded FCB  paper ~13%%   measured %5.1f%%",
                (avg_ratio(3, 4) - 1) * 100);
  r.line(buf);
  std::snprintf(buf, sizeof buf, "  PLB DMA vs non-DMA (largest scenario)            paper 1-4%%   measured %5.1f%%",
                (1 - cyc(2, 3) / cyc(1, 3)) * 100);
  r.line(buf);
  std::snprintf(buf, sizeof buf, "  DMA does not benefit <= 4 values (scenario 1)    paper slower measured %+5.1f%%",
                (cyc(2, 0) / cyc(1, 0) - 1) * 100);
  r.line(buf);
  return r;
}

}  // namespace splicebench
