// perfbench: the repository benchmark.
//
//   perfbench --workload {paper-sweep|compile-fuzz|pressure-sweep}
//             --seed N --seconds S --trace {0|1}
//             [--commit ID] [--source-sha HEX] [--trace-out FILE]
//
// One process runs one workload. It builds the workload's inputs (datasets,
// fuzz programs, CPU-reference checksums) several times and reports the
// median as `setup_s`, then runs timed batches until S seconds have elapsed.
// A batch is one cold pass over every cell of the workload — the SAFARA
// feedback cache is cleared and each cell gets a fresh rt::Runtime, as every
// `safcc` process would — and each cell's output checksum is compared with
// the CPU reference. Untraced runs (`--trace 0`) print the end-to-end metrics;
// traced runs (`--trace 1`) spend half of S untraced and half with a span
// around every layer call, and print the per-layer metrics. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
//
// README.md next to this file says why each workload exists and which layer
// metric should move which end-to-end metric on which workload.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codegen/codegen.hpp"
#include "driver/compiler.hpp"
#include "driver/eval_grid.hpp"
#include "driver/reference.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "parse/parser.hpp"
#include "regalloc/regalloc.hpp"
#include "regalloc/regdem.hpp"
#include "rt/runtime.hpp"
#include "sema/sema.hpp"
#include "support/arena.hpp"
#include "support/thread_pool.hpp"
#include "vgpu/sim.hpp"
#include "vir/passes/passes.hpp"
#include "workloads/harness.hpp"
#include "workloads/workloads.hpp"

namespace safara::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_epoch).count();
}

// The relative checksum tolerance tests/test_workloads.cpp applies: atomic
// float reductions reassociate, everything else matches exactly.
constexpr double kChecksumTolerance = 2e-3;
// Programs per compile-fuzz batch: enough that the batch total varies little
// from one seed to the next.
constexpr std::uint64_t kFuzzPrograms = 600;
// Repetitions of the set-up phase; setup_s is their median.
constexpr int kSetupReps = 3;

// -- spans ----------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  // index into the same log, -1 for a root
  std::int64_t cell = -1;
};

/// Cell-private span recorder: no locking, so concurrent grid cells each own
/// one and the batch merges them in index order afterwards.
class SpanLog {
 public:
  explicit SpanLog(std::int64_t cell) : cell_(cell) {}

  int open(const char* name) {
    spans_.push_back(Span{name, now_ms(), 0.0, current_, cell_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ms = now_ms();
    current_ = s.parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t cell_;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a null log (untraced run) records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), idx_(log ? log->open(name) : -1) {}
  ~Scope() {
    if (log_) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

/// Adds each span's self time (its duration minus its children's) to
/// `self_ms`, keyed by span name.
void add_self_times(const std::vector<Span>& spans, std::map<std::string, double>& self_ms) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[spans[i].name] += spans[i].end_ms - spans[i].start_ms - child[i];
  }
}

// -- inputs and cells -------------------------------------------------------------

struct Input {
  std::string name;
  std::string source;
  std::string function;  // empty: the sole function
  int time_steps = 1;
  std::vector<std::string> outputs;
  workloads::Dataset data;
  double ref_checksum = 0.0;
};

struct NamedOptions {
  std::string name;
  driver::CompilerOptions opts;
};

struct Cell {
  std::size_t input = 0;
  std::vector<std::size_t> configs;  // every one is compiled
  std::size_t simulated = 0;         // position in `configs` that is simulated
};

struct Plan {
  std::vector<Input> inputs;
  std::vector<NamedOptions> configs;
  std::vector<Cell> cells;
};

/// A parsed program whose AST lives in its own arena (the arena is declared
/// first, so the program is destroyed before it).
struct Parsed {
  support::Arena arena;
  ast::Program program;
  const ast::Function* fn = nullptr;

  Parsed(const std::string& source, const std::string& function) {
    DiagnosticEngine diags;
    {
      support::ArenaScope scope(arena);
      program = parse::parse_source(source, diags);
    }
    if (!diags.ok()) throw CompileError("parse failed:\n" + diags.render());
    fn = function.empty() ? program.functions.front().get() : program.find(function);
    if (!fn) throw CompileError("no function named '" + function + "'");
  }
};

double reference_checksum(const Input& in, const ast::Function& fn, SpanLog* log) {
  Scope span(log, "reference");
  workloads::Dataset ref = in.data;
  driver::RefArgMap args;
  for (auto& [name, arr] : ref.arrays) args.emplace(name, &arr);
  for (auto& [name, sv] : ref.scalars) args.emplace(name, sv);
  for (int step = 0; step < in.time_steps; ++step) driver::run_reference(fn, args);
  return workloads::checksum_of(ref, in.outputs);
}

Input workload_input(const workloads::Workload& w, SpanLog* log) {
  Input in{w.name, w.source, w.function, w.time_steps, w.outputs, {}, 0.0};
  {
    Scope span(log, "workloads.dataset");
    in.data = w.make_dataset();
  }
  Parsed parsed(in.source, in.function);
  in.ref_checksum = reference_checksum(in, *parsed.fn, log);
  return in;
}

std::vector<NamedOptions> paper_configs() {
  return {
      {"base", driver::CompilerOptions::openuh_base()},
      {"small", driver::CompilerOptions::openuh_small()},
      {"small+dim", driver::CompilerOptions::openuh_small_dim()},
      {"SAFARA", driver::CompilerOptions::openuh_safara()},
      {"small+dim+SAFARA", driver::CompilerOptions::openuh_safara_clauses()},
      {"PGI-like", driver::CompilerOptions::pgi_like()},
  };
}

// paper-sweep: every paper workload under the four Fig 11/12 configurations.
Plan paper_sweep(std::uint64_t /*seed*/, SpanLog* log) {
  Plan p;
  p.configs = {
      {"base", driver::CompilerOptions::openuh_base()},
      {"SAFARA", driver::CompilerOptions::openuh_safara()},
      {"small+dim+SAFARA", driver::CompilerOptions::openuh_safara_clauses()},
      {"PGI-like", driver::CompilerOptions::pgi_like()},
  };
  for (const workloads::Workload& w : workloads::all_workloads()) {
    p.inputs.push_back(workload_input(w, log));
  }
  for (std::size_t wi = 0; wi < p.inputs.size(); ++wi) {
    for (std::size_t ci = 0; ci < p.configs.size(); ++ci) p.cells.push_back({wi, {ci}, 0});
  }
  return p;
}

// compile-fuzz: kFuzzPrograms generated programs, each compiled under all six
// paper configurations and simulated once under small+dim+SAFARA.
Plan compile_fuzz(std::uint64_t seed, SpanLog* log) {
  Plan p;
  p.configs = paper_configs();
  std::vector<std::size_t> all(p.configs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (std::uint64_t i = 0; i < kFuzzPrograms; ++i) {
    Input in;
    in.name = "fuzz:" + std::to_string(seed + i);
    {
      Scope span(log, "fuzz.generate");
      in.source = fuzz::generate_program(seed + i);
    }
    Parsed parsed(in.source, "");
    {
      Scope span(log, "workloads.dataset");
      fuzz::ArgSet args = fuzz::derive_args(*parsed.fn);
      in.data.arrays = std::move(args.arrays);
      in.data.scalars = std::move(args.scalars);
    }
    for (const auto& [name, arr] : in.data.arrays) {
      if (name.rfind("out", 0) == 0) in.outputs.push_back(name);
    }
    in.ref_checksum = reference_checksum(in, *parsed.fn, log);
    p.inputs.push_back(std::move(in));
    p.cells.push_back({p.inputs.size() - 1, all, 4});
  }
  return p;
}

// pressure-sweep: the register-hungry workloads under small+dim+SAFARA with
// a per-thread register cap (SAFARA's budget and the allocator's limit) and
// both spill backing stores.
Plan pressure_sweep(std::uint64_t /*seed*/, SpanLog* log) {
  Plan p;
  for (const int cap : {32, 48, 64}) {
    for (const regalloc::SpillMem mem : {regalloc::SpillMem::kLocal, regalloc::SpillMem::kAuto}) {
      driver::CompilerOptions o = driver::CompilerOptions::openuh_safara_clauses();
      o.safara.max_registers = cap;
      o.regalloc.max_registers = cap;
      o.regalloc.spill_mem = mem;
      p.configs.push_back({"small+dim+SAFARA/cap" + std::to_string(cap) + "/" +
                               regalloc::to_string(mem),
                           o});
    }
  }
  for (const char* name : {"355.seismic", "356.sp", "SP", "LU", "BT"}) {
    const workloads::Workload* w = workloads::find_workload(name);
    if (!w) throw std::runtime_error(std::string("unknown workload ") + name);
    p.inputs.push_back(workload_input(*w, log));
  }
  for (std::size_t wi = 0; wi < p.inputs.size(); ++wi) {
    for (std::size_t ci = 0; ci < p.configs.size(); ++ci) p.cells.push_back({wi, {ci}, 0});
  }
  return p;
}

struct WorkloadSpec {
  const char* name;
  Plan (*setup)(std::uint64_t seed, SpanLog* log);
  int grid_threads;  // timed batches
  int sim_threads;
  int check_grid_threads;  // the cross-thread-count check batch
  int check_sim_threads;
};

const WorkloadSpec kWorkloads[] = {
    {"paper-sweep", paper_sweep, 2, 1, 1, 2},
    {"compile-fuzz", compile_fuzz, 1, 1, 1, 2},
    {"pressure-sweep", pressure_sweep, 1, 2, 1, 1},
};

// -- one cell ---------------------------------------------------------------------

/// The four deterministic end-to-end quantities.
struct Totals {
  std::uint64_t cycles = 0;
  std::int64_t regs = 0;
  std::int64_t spill_bytes = 0;
  std::int64_t code_instrs = 0;

  bool operator==(const Totals&) const = default;
  void add(const Totals& o) {
    cycles += o.cycles;
    regs += o.regs;
    spill_bytes += o.spill_bytes;
    code_instrs += o.code_instrs;
  }
};

/// Deterministic per-layer work counts.
struct Counters {
  std::int64_t parse_bytes = 0;
  std::int64_t safara_iterations = 0;
  std::int64_t safara_groups = 0;
  std::int64_t codegen_instrs = 0;
  std::int64_t vir_removed = 0;
  std::int64_t pressure_after = 0;
  std::int64_t ra_iterations = 0;
  std::int64_t ra_spills = 0;
  std::int64_t ra_coalesced = 0;
  std::int64_t demoted_slots = 0;
  std::int64_t candidate_slots = 0;
  std::int64_t replay_mismatches = 0;
  std::uint64_t warp_instructions = 0;
  std::uint64_t mem_transactions = 0;
  std::uint64_t ro_hits = 0;
  std::uint64_t ro_misses = 0;
  std::uint64_t spill_accesses = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_bank_conflicts = 0;
  double occupancy_min = 1.0;

  void add(const Counters& o) {
    parse_bytes += o.parse_bytes;
    safara_iterations += o.safara_iterations;
    safara_groups += o.safara_groups;
    codegen_instrs += o.codegen_instrs;
    vir_removed += o.vir_removed;
    pressure_after += o.pressure_after;
    ra_iterations += o.ra_iterations;
    ra_spills += o.ra_spills;
    ra_coalesced += o.ra_coalesced;
    demoted_slots += o.demoted_slots;
    candidate_slots += o.candidate_slots;
    replay_mismatches += o.replay_mismatches;
    warp_instructions += o.warp_instructions;
    mem_transactions += o.mem_transactions;
    ro_hits += o.ro_hits;
    ro_misses += o.ro_misses;
    spill_accesses += o.spill_accesses;
    shared_accesses += o.shared_accesses;
    shared_bank_conflicts += o.shared_bank_conflicts;
    occupancy_min = std::min(occupancy_min, o.occupancy_min);
  }
};

struct KernelSig {
  int regs = 0;
  std::uint64_t cycles = 0;
  bool operator==(const KernelSig&) const = default;
};

struct CellResult {
  bool ok = true;
  std::string error;
  double ms = 0.0;
  double compile_ms = 0.0;
  Totals totals;
  Counters counters;
  std::vector<KernelSig> kernels;  // the simulated configuration's kernels
  std::vector<Span> spans;
};

/// What the simulator needs of one kernel, from a CompiledProgram or a replay.
struct KernelRef {
  const vir::Kernel* kernel;
  const codegen::LaunchPlan* plan;
  const regalloc::AllocationResult* alloc;
};

struct ReplayedKernel {
  vir::Kernel kernel;
  codegen::LaunchPlan plan;
  regalloc::AllocationResult alloc;
};

/// Re-runs the final backend pipeline on `prog.transformed` — what
/// driver::Compiler::compile does after its optimization passes — with a
/// span around each layer, and counts every kernel whose registers, spill
/// frame or code size differ from the compiled one.
std::vector<ReplayedKernel> replay_backend(driver::CompiledProgram& prog,
                                           const driver::CompilerOptions& o, SpanLog* log,
                                           Counters& c) {
  support::ArenaScope scope(*prog.arena);
  DiagnosticEngine diags;
  sema::Sema sema(diags);
  std::unique_ptr<sema::FunctionInfo> info;
  {
    Scope span(log, "sema");
    info = sema.analyze(*prog.transformed);
  }
  if (!diags.ok()) throw CompileError("replay sema failed:\n" + diags.render());
  codegen::CodegenOptions cg;
  cg.honor_dim = o.honor_dim;
  cg.honor_small = o.honor_small;
  cg.licm = true;
  cg.cse_loads_within_stmt = o.persona == driver::Persona::kPgiLike;

  std::vector<ReplayedKernel> out;
  for (std::size_t r = 0; r < info->regions.size(); ++r) {
    codegen::CodegenResult res;
    {
      Scope span(log, "codegen");
      res = codegen::generate_kernel(*info, info->regions[r], static_cast<int>(r), cg, diags);
    }
    if (!diags.ok()) throw CompileError("replay codegen failed:\n" + diags.render());
    const std::size_t emitted = res.kernel.code.size();
    vir::passes::PassStats stats;
    {
      Scope span(log, "vir.passes");
      stats = vir::passes::run_pipeline(res.kernel, o.opt_level);
    }
    regalloc::AllocationResult alloc;
    regalloc::RegDemReport regdem;
    {
      Scope span(log, "regalloc");
      alloc = regalloc::allocate(res.kernel, o.regalloc);
      regdem = regalloc::demote_spill_slots(res.kernel, alloc, o.regalloc, o.device,
                                            codegen::LaunchPlan::kDefaultVectorLen);
    }
    c.codegen_instrs += static_cast<std::int64_t>(emitted);
    c.vir_removed += static_cast<std::int64_t>(emitted) -
                     static_cast<std::int64_t>(res.kernel.code.size());
    c.pressure_after += stats.pressure_after;
    c.ra_iterations += alloc.iterations;
    c.ra_spills += alloc.spills;
    c.ra_coalesced += alloc.coalesced;
    c.demoted_slots += regdem.demoted_slots;
    c.candidate_slots += regdem.candidate_slots;
    const bool same =
        r < prog.kernels.size() && prog.kernels[r].alloc.regs_used == alloc.regs_used &&
        prog.kernels[r].alloc.spill_bytes == alloc.spill_bytes &&
        prog.kernels[r].alloc.shared_spill_bytes == alloc.shared_spill_bytes &&
        prog.kernels[r].kernel.code.size() == res.kernel.code.size();
    if (!same) ++c.replay_mismatches;
    out.push_back({std::move(res.kernel), std::move(res.plan), std::move(alloc)});
  }
  if (out.size() != prog.kernels.size()) ++c.replay_mismatches;
  return out;
}

/// Simulates `kernels` on the input's dataset with a fresh runtime and
/// returns the output checksum.
double simulate(const Input& in, const std::vector<KernelRef>& kernels,
                const driver::CompilerOptions& opts, SpanLog* log, CellResult& r) {
  rt::Device dev(opts.device);
  rt::Runtime runtime(dev);
  std::map<std::string, rt::Buffer> buffers;
  {
    Scope span(log, "rt.copy");
    for (const auto& [name, arr] : in.data.arrays) {
      rt::Buffer buf = runtime.alloc(arr.elem, arr.dims);
      dev.memory().copy_in(buf.device_addr, arr.data.data(), arr.data.size());
      buffers.emplace(name, buf);
    }
  }
  rt::ArgMap args;
  for (auto& [name, buf] : buffers) args.emplace(name, &buf);
  for (const auto& [name, sv] : in.data.scalars) args.emplace(name, sv);

  r.kernels.assign(kernels.size(), KernelSig{});
  for (int step = 0; step < in.time_steps; ++step) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      vgpu::LaunchStats s;
      {
        // The runtime keeps one decode cache per kernel: a kernel's first
        // launch in a cell decodes, later time steps reuse it.
        Scope span(log, step == 0 ? "vgpu.first_launch" : "vgpu.launch");
        s = runtime.launch(*kernels[k].kernel, *kernels[k].alloc, *kernels[k].plan, args);
      }
      r.totals.cycles += s.cycles;
      r.kernels[k].regs = kernels[k].alloc->regs_used;
      r.kernels[k].cycles += s.cycles;
      Counters& c = r.counters;
      c.warp_instructions += s.warp_instructions;
      c.mem_transactions += s.mem_transactions;
      c.ro_hits += s.ro_hits;
      c.ro_misses += s.ro_misses;
      c.spill_accesses += s.spill_accesses;
      c.shared_accesses += s.shared_accesses;
      c.shared_bank_conflicts += s.shared_bank_conflicts;
      c.occupancy_min = std::min(c.occupancy_min, s.occupancy);
    }
  }

  workloads::Dataset out;
  {
    Scope span(log, "rt.copy");
    for (const std::string& name : in.outputs) {
      const driver::HostArray& src = in.data.array(name);
      driver::HostArray arr = driver::HostArray::make(src.elem, src.dims);
      dev.memory().copy_out(buffers.at(name).device_addr, arr.data.data(), arr.data.size());
      out.arrays.emplace(name, std::move(arr));
    }
  }
  Scope span(log, "workloads.checksum");
  return workloads::checksum_of(out, in.outputs);
}

void add_kernel_totals(const regalloc::AllocationResult& alloc, const vir::Kernel& k,
                       Totals& t) {
  t.regs += alloc.regs_used;
  t.spill_bytes += alloc.spill_bytes + alloc.shared_spill_bytes;
  t.code_instrs += static_cast<std::int64_t>(k.code.size());
}

/// Compiles the cell under each of its configurations and simulates one.
/// Traced cells parse, analyze and compile with a span per layer, then
/// simulate the kernels the replayed backend produced.
CellResult run_cell(const Plan& plan, const Cell& cell, bool traced, std::int64_t id) {
  CellResult r;
  SpanLog span_log(id);
  SpanLog* log = traced ? &span_log : nullptr;
  const Input& in = plan.inputs[cell.input];
  const double t0 = now_ms();
  {
    Scope cell_span(log, "cell");
    try {
      driver::CompiledProgram simulated;
      std::vector<ReplayedKernel> replayed;
      for (std::size_t pos = 0; pos < cell.configs.size(); ++pos) {
        const driver::CompilerOptions& opts = plan.configs[cell.configs[pos]].opts;
        driver::Compiler compiler(opts);
        driver::CompiledProgram prog;
        std::vector<ReplayedKernel> rk;
        if (!traced) {
          const double c0 = now_ms();
          prog = compiler.compile(in.source, in.function);
          r.compile_ms += now_ms() - c0;
        } else {
          std::unique_ptr<Parsed> parsed;
          {
            Scope span(log, "parse");
            parsed = std::make_unique<Parsed>(in.source, in.function);
          }
          r.counters.parse_bytes += static_cast<std::int64_t>(in.source.size());
          {
            // The analysis compile() starts with, on its own copy.
            support::Arena scratch;
            ast::FunctionPtr copy = ast::clone_into(*parsed->fn, scratch);
            DiagnosticEngine diags;
            sema::Sema sema(diags);
            Scope span(log, "sema");
            sema.analyze(*copy);
          }
          const double c0 = now_ms();
          {
            Scope span(log, "driver.compile");
            prog = compiler.compile(*parsed->fn);
          }
          r.compile_ms += now_ms() - c0;
          rk = replay_backend(prog, opts, log, r.counters);
        }
        for (const driver::CompiledKernel& k : prog.kernels) {
          add_kernel_totals(k.alloc, k.kernel, r.totals);
        }
        for (const opt::SafaraRegionReport& s : prog.safara.regions) {
          r.counters.safara_iterations += s.iterations;
          r.counters.safara_groups += s.groups_replaced;
        }
        if (pos == cell.simulated) {
          simulated = std::move(prog);
          replayed = std::move(rk);
        }
      }

      std::vector<KernelRef> refs;
      if (traced) {
        for (const ReplayedKernel& k : replayed) refs.push_back({&k.kernel, &k.plan, &k.alloc});
      } else {
        for (const driver::CompiledKernel& k : simulated.kernels) {
          refs.push_back({&k.kernel, &k.plan, &k.alloc});
        }
      }
      const double checksum =
          simulate(in, refs, plan.configs[cell.configs[cell.simulated]].opts, log, r);
      const double denom = std::max({std::fabs(checksum), std::fabs(in.ref_checksum), 1e-30});
      if (std::fabs(checksum - in.ref_checksum) / denom > kChecksumTolerance) {
        r.ok = false;
        char buf[160];
        std::snprintf(buf, sizeof buf, "checksum %.17g differs from reference %.17g", checksum,
                      in.ref_checksum);
        r.error = buf;
      } else if (r.totals.cycles == 0) {
        r.ok = false;
        r.error = "no simulated cycles";
      }
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
  }
  r.ms = now_ms() - t0;
  r.spans = span_log.spans();
  return r;
}

// -- batches ----------------------------------------------------------------------

struct Batch {
  double wall_s = 0.0;
  double compile_s = 0.0;
  double cell_ms = 0.0;  // summed over cells
  int parallelism = 1;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  Totals totals;
  Counters counters;
  std::vector<std::vector<KernelSig>> kernels;  // per cell
  std::map<std::string, double> self_ms;        // per span name
  std::vector<Span> spans;
};

Batch run_batch(const Plan& plan, bool traced) {
  const std::int64_t n = static_cast<std::int64_t>(plan.cells.size());
  std::vector<CellResult> cells(plan.cells.size());
  Batch b;
  b.parallelism = driver::grid_parallelism(n);
  const double t0 = now_ms();
  driver::clear_safara_feedback_cache();
  driver::eval_grid(n, [&](std::int64_t i) {
    const auto idx = static_cast<std::size_t>(i);
    cells[idx] = run_cell(plan, plan.cells[idx], traced, i);
  });
  b.wall_s = (now_ms() - t0) / 1000.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellResult& c = cells[i];
    ++b.attempted;
    if (!c.ok) {
      ++b.failed;
      if (b.errors.size() < 5) {
        b.errors.push_back(plan.inputs[plan.cells[i].input].name + ": " + c.error);
      }
    }
    b.compile_s += c.compile_ms / 1000.0;
    b.cell_ms += c.ms;
    b.totals.add(c.totals);
    b.counters.add(c.counters);
    b.kernels.push_back(std::move(c.kernels));
    add_self_times(c.spans, b.self_ms);
    b.spans.insert(b.spans.end(), c.spans.begin(), c.spans.end());
  }
  return b;
}

// -- reporting --------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
double median_of(const std::vector<Batch>& batches, F f) {
  std::vector<double> v;
  for (const Batch& b : batches) v.push_back(f(b));
  return median(v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace '%s'\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.cell
        << ",\"ts\":" << json_number(s.start_ms * 1000.0)
        << ",\"dur\":" << json_number((s.end_ms - s.start_ms) * 1000.0)
        << ",\"args\":{\"cell\":" << s.cell << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

void set_threads(int grid, int sim) {
  driver::set_grid_threads(grid);
  vgpu::set_sim_threads(sim);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {paper-sweep|compile-fuzz|"
               "pressure-sweep} --seed N --seconds S --trace {0|1} [--commit ID] "
               "[--source-sha HEX] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end) {
        usage("--seed expects a non-negative integer");
      }
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("--seconds expects a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source-sha") {
      a.source_sha = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Runs batches until `until_ms` (process clock) would be overrun by one
/// more batch of the last batch's length; always runs at least one.
void run_until(const Plan& plan, bool traced, double until_ms, std::vector<Batch>& out) {
  do {
    out.push_back(run_batch(plan, traced));
  } while (now_ms() + out.back().wall_s * 1000.0 <= until_ms);
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (!spec) usage(("unknown workload '" + args.workload + "'").c_str());

  // Lazy one-time process set-up, paid before any timing and counted in
  // setup_s: the shared worker pool, the workload table, the env-derived
  // defaults.
  const double init0 = now_ms();
  support::ThreadPool::shared();
  workloads::all_workloads();
  (void)driver::default_opt_level();
  (void)vgpu::sim_dispatch();
  const double init_ms = now_ms() - init0;

  // Set-up, repeated; the last plan is the one measured.
  std::vector<double> setup_ms;
  std::map<std::string, std::vector<double>> setup_layer_ms;
  std::vector<Span> setup_spans;
  Plan plan;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanLog log(-1 - rep);
    const double s0 = now_ms();
    plan = spec->setup(args.seed, args.trace ? &log : nullptr);
    setup_ms.push_back(now_ms() - s0);
    std::map<std::string, double> self;
    add_self_times(log.spans(), self);
    for (const char* layer : {"workloads.dataset", "reference", "fuzz.generate"}) {
      setup_layer_ms[layer].push_back(self[layer]);
    }
    setup_spans.insert(setup_spans.end(), log.spans().begin(), log.spans().end());
  }
  const double setup_s = (init_ms + median(setup_ms)) / 1000.0;

  set_threads(spec->grid_threads, spec->sim_threads);
  const double t_start = now_ms();
  const double t_end = t_start + args.seconds * 1000.0;
  std::vector<Batch> untraced, traced;
  if (!args.trace) {
    run_until(plan, false, t_end, untraced);
  } else {
    run_until(plan, false, t_start + args.seconds * 500.0, untraced);
    run_until(plan, true, t_end, traced);
  }

  // The deterministic results must not depend on the batch or on the thread
  // counts: one extra untraced batch at the workload's check thread counts.
  std::vector<Batch> check;
  if (!args.trace) {
    set_threads(spec->check_grid_threads, spec->check_sim_threads);
    check.push_back(run_batch(plan, false));
  }
  const int grid_par = untraced.front().parallelism;
  set_threads(0, 0);

  int attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> flags;
  const Batch& first = untraced.front();
  for (const std::vector<Batch>* set : {&untraced, &traced, &check}) {
    for (const Batch& b : *set) {
      attempted += b.attempted;
      failed += b.failed;
      errors.insert(errors.end(), b.errors.begin(), b.errors.end());
      // Traced batches simulate the replayed backend's kernels: their
      // per-kernel registers and cycles must equal the untraced ones.
      if (b.kernels != first.kernels || b.totals != first.totals) {
        flags.push_back(set == &traced  ? "replayed kernels differ from the untraced run"
                        : set == &check ? "results differ across thread counts"
                                        : "results differ across batches");
      }
    }
  }
  std::int64_t replay_mismatches = 0;
  for (const Batch& b : traced) replay_mismatches += b.counters.replay_mismatches;
  if (replay_mismatches) flags.push_back("replayed backend differs from compile()");
  std::sort(flags.begin(), flags.end());
  flags.erase(std::unique(flags.begin(), flags.end()), flags.end());

  // Run conditions, so two results can be compared like-for-like.
  std::string spill_mem;
  for (const NamedOptions& c : plan.configs) {
    const std::string m = regalloc::to_string(c.opts.regalloc.spill_mem);
    if (spill_mem.find(m) == std::string::npos) spill_mem += (spill_mem.empty() ? "" : ",") + m;
  }
  std::printf(
      "conditions {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"grid_threads\":%d,\"grid_parallelism\":%d,\"sim_threads\":%d,"
      "\"check_grid_threads\":%d,\"check_sim_threads\":%d,\"dispatch\":%s,"
      "\"opt_level\":%d,\"regalloc\":%s,\"spill_mem\":%s,\"build_type\":%s,\"nproc\":%u,"
      "\"malloc_arenas\":1,\"commit\":%s,\"source_sha256\":%s,\"cells\":%zu,\"setup_reps\":%d,"
      "\"batches\":%zu,\"traced_batches\":%zu}\n",
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0, spec->grid_threads, grid_par,
      grid_par > 1 ? 1 : spec->sim_threads, spec->check_grid_threads, spec->check_sim_threads,
      json_string(vgpu::to_string(vgpu::sim_dispatch())).c_str(), driver::default_opt_level(),
      json_string(regalloc::to_string(regalloc::default_strategy())).c_str(),
      json_string(spill_mem).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(), json_string(args.commit).c_str(),
      json_string(args.source_sha).c_str(), plan.cells.size(), kSetupReps, untraced.size(),
      traced.size());
  for (const Batch& b : untraced) {
    std::printf("batch wall_s=%.4f compile_s=%.4f cycles=%llu regs=%lld\n", b.wall_s,
                b.compile_s, static_cast<unsigned long long>(b.totals.cycles),
                static_cast<long long>(b.totals.regs));
  }
  for (const Batch& b : traced) std::printf("traced batch wall_s=%.4f\n", b.wall_s);
  for (const std::string& e : errors) std::printf("failed: %s\n", e.c_str());
  for (const std::string& f : flags) std::printf("flagged: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"wall_s", median_of(untraced, [](const Batch& b) { return b.wall_s; }), "s"},
        {"compile_s", median_of(untraced, [](const Batch& b) { return b.compile_s; }), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"sim_cycles", static_cast<double>(first.totals.cycles), "cycles"},
        {"regs_total", static_cast<double>(first.totals.regs), "regs"},
        {"code_instrs", static_cast<double>(first.totals.code_instrs), "instrs"},
    };
  } else {
    auto layer = [&](const char* name) {
      return median_of(traced, [name](const Batch& b) {
        const auto it = b.self_ms.find(name);
        return it == b.self_ms.end() ? 0.0 : it->second;
      });
    };
    const Counters& c = traced.front().counters;
    const double parse_ms = layer("parse");
    const double sema_ms = layer("sema");
    const double codegen_ms = layer("codegen");
    const double vir_ms = layer("vir.passes");
    const double regalloc_ms = layer("regalloc");
    const double compile_ms = layer("driver.compile");
    const double launch_ms = median_of(traced, [](const Batch& b) {
      const auto get = [&b](const char* n) {
        const auto it = b.self_ms.find(n);
        return it == b.self_ms.end() ? 0.0 : it->second;
      };
      return get("vgpu.launch") + get("vgpu.first_launch");
    });
    const double traced_wall = median_of(traced, [](const Batch& b) { return b.wall_s; });
    const double untraced_wall = median_of(untraced, [](const Batch& b) { return b.wall_s; });
    // Time inside cells that no layer span covers, as a share of the grid's
    // capacity (wall x parallelism); idle grid lanes count as the grid's.
    const double unattributed = median_of(traced, [](const Batch& b) {
      const auto it = b.self_ms.find("cell");
      const double cell_self = it == b.self_ms.end() ? 0.0 : it->second;
      return cell_self / (b.wall_s * 1000.0 * b.parallelism);
    });
    auto frac = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    metrics = {
        {"parse.ms", parse_ms, "ms"},
        {"parse.bytes_per_ms", frac(static_cast<double>(c.parse_bytes), parse_ms), "B/ms"},
        {"sema.ms", sema_ms, "ms"},
        // compile() runs the same analysis and backend the spans time, plus
        // SAFARA's feedback loop, which only it can reach.
        {"opt.safara_ms", compile_ms - sema_ms - codegen_ms - vir_ms - regalloc_ms, "ms"},
        {"opt.safara_iterations", static_cast<double>(c.safara_iterations), "count"},
        {"opt.safara_groups_replaced", static_cast<double>(c.safara_groups), "count"},
        {"codegen.ms", codegen_ms, "ms"},
        {"codegen.instrs", static_cast<double>(c.codegen_instrs), "instrs"},
        {"vir.passes_ms", vir_ms, "ms"},
        {"vir.instrs_removed", static_cast<double>(c.vir_removed), "instrs"},
        {"vir.pressure_after", static_cast<double>(c.pressure_after), "regs"},
        {"regalloc.ms", regalloc_ms, "ms"},
        {"regalloc.iterations", static_cast<double>(c.ra_iterations), "count"},
        {"regalloc.spills", static_cast<double>(c.ra_spills), "count"},
        {"regalloc.coalesced", static_cast<double>(c.ra_coalesced), "count"},
        {"regalloc.regdem_demoted_frac",
         frac(static_cast<double>(c.demoted_slots), static_cast<double>(c.candidate_slots)),
         "ratio"},
        // Zero on the uncapped workloads, so it cannot be an end-to-end
        // metric with a relative bound; it is as deterministic as one.
        {"spill_bytes_total", static_cast<double>(first.totals.spill_bytes), "B"},
        {"driver.compile_ms", compile_ms, "ms"},
        {"grid.busy_frac", median_of(traced,
                                     [](const Batch& b) {
                                       return b.cell_ms / (b.wall_s * 1000.0 * b.parallelism);
                                     }),
         "ratio"},
        {"vgpu.launch_ms", launch_ms, "ms"},
        {"vgpu.first_launch_ms", layer("vgpu.first_launch"), "ms"},
        {"vgpu.winst_per_s", frac(static_cast<double>(c.warp_instructions), launch_ms / 1000.0),
         "1/s"},
        {"vgpu.mem_transactions", static_cast<double>(c.mem_transactions), "count"},
        {"vgpu.ro_hit_frac",
         frac(static_cast<double>(c.ro_hits), static_cast<double>(c.ro_hits + c.ro_misses)),
         "ratio"},
        {"vgpu.occupancy_min", c.occupancy_min, "ratio"},
        {"vgpu.spill_accesses", static_cast<double>(c.spill_accesses), "count"},
        {"vgpu.shared_accesses", static_cast<double>(c.shared_accesses), "count"},
        {"vgpu.shared_bank_conflicts", static_cast<double>(c.shared_bank_conflicts), "count"},
        {"rt.copy_ms", layer("rt.copy"), "ms"},
        {"workloads.dataset_ms", median(setup_layer_ms["workloads.dataset"]), "ms"},
        {"workloads.checksum_ms", layer("workloads.checksum"), "ms"},
        {"reference.ms", median(setup_layer_ms["reference"]), "ms"},
        {"fuzz.generate_ms", median(setup_layer_ms["fuzz.generate"]), "ms"},
        {"trace.overhead_s", traced_wall - untraced_wall, "s"},
        {"trace.unattributed_frac", unattributed, "ratio"},
        {"trace.replay_mismatches", static_cast<double>(replay_mismatches), "count"},
    };
    if (!args.trace_out.empty()) {
      std::vector<Span> all = setup_spans;
      for (const Batch& b : traced) all.insert(all.end(), b.spans.begin(), b.spans.end());
      write_trace(args.trace_out, all);
    }
  }

  const bool correct = failed == 0 && flags.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace safara::perfbench

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's default per-thread
  // arenas, peak RSS depends on which pool workers happened to allocate
  // (paper-sweep read 54, 66 or 77 MB from run to run); with one it
  // measures the program's live data (45 MB, within 1%).
  mallopt(M_ARENA_MAX, 1);
  try {
    return safara::perfbench::run(safara::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
