#include "driver/compiler.hpp"

#include <cstdio>
#include <mutex>
#include <unordered_map>

#include <algorithm>
#include <sstream>

#include "ast/hash.hpp"
#include "parse/parser.hpp"
#include "regalloc/regdem.hpp"
#include "sema/sema.hpp"
#include "support/string_util.hpp"

namespace safara::driver {

namespace {

// Process-wide memo of SAFARA feedback compiles. The SAFARA loop repeatedly
// asks "how many registers does this mutated region use?", and converged or
// re-visited mutations (including identical iteration-0 regions across
// ablation configurations) keep asking about identical ASTs — the answer is
// a pure function of the key, so it is shared across Compiler instances.
struct FeedbackKey {
  std::uint64_t fn_hash = 0;   // canonical ast::hash of the mutated function
  std::uint64_t options = 0;   // injective encoding of codegen+regalloc opts
  int region = 0;

  bool operator==(const FeedbackKey& o) const {
    return fn_hash == o.fn_hash && options == o.options && region == o.region;
  }
};

struct FeedbackKeyHash {
  std::size_t operator()(const FeedbackKey& k) const {
    std::uint64_t h = k.fn_hash;
    h ^= k.options + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= static_cast<std::uint64_t>(k.region) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

std::mutex g_feedback_cache_mu;
std::unordered_map<FeedbackKey, int, FeedbackKeyHash> g_feedback_cache;

// Everything besides the AST that the feedback pipeline's answer depends on.
// SafaraOptions are deliberately excluded: they steer which mutations get
// *tried*, not what a given mutated AST compiles to. The VIR opt level is
// included: the pipeline runs inside feedback compiles too, and a register
// count measured at one level must never answer a query at another.
std::uint64_t feedback_options_key(const codegen::CodegenOptions& cg,
                                   const regalloc::AllocatorOptions& ra, int opt_level) {
  std::uint64_t bits = 0;
  bits |= cg.honor_dim ? 1u : 0u;
  bits |= cg.honor_small ? 2u : 0u;
  bits |= cg.licm ? 4u : 0u;
  bits |= cg.cse_loads_within_stmt ? 8u : 0u;
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(opt_level) & 3u) << 4;
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(ra.strategy) & 3u) << 6;
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(ra.max_registers)) << 8;
  // The spill backing store rides along even though RegDem never changes
  // regs_used: a cache entry must answer for exactly one option tuple.
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(ra.spill_mem) & 3u) << 40;
  return bits;
}

}  // namespace

int opt_level_from_env() {
  const std::optional<long long> v = env_int("SAFARA_OPT_LEVEL");
  if (!v) return 2;
  if (*v < 0 || *v > 2) {
    std::fprintf(stderr, "warning: ignoring SAFARA_OPT_LEVEL=%lld (expected 0, 1, or 2)\n",
                 *v);
    return 2;
  }
  return static_cast<int>(*v);
}

int default_opt_level() {
  static const int level = opt_level_from_env();
  return level;
}

void clear_safara_feedback_cache() {
  std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
  g_feedback_cache.clear();
}

std::size_t safara_feedback_cache_size() {
  std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
  return g_feedback_cache.size();
}

CompilerOptions CompilerOptions::openuh_base() { return CompilerOptions{}; }

CompilerOptions CompilerOptions::openuh_small() {
  CompilerOptions o;
  o.honor_small = true;
  return o;
}

CompilerOptions CompilerOptions::openuh_small_dim() {
  CompilerOptions o;
  o.honor_small = true;
  o.honor_dim = true;
  return o;
}

CompilerOptions CompilerOptions::openuh_safara() {
  CompilerOptions o;
  o.enable_safara = true;
  return o;
}

CompilerOptions CompilerOptions::openuh_safara_clauses() {
  CompilerOptions o;
  o.enable_safara = true;
  o.honor_small = true;
  o.honor_dim = true;
  return o;
}

CompilerOptions CompilerOptions::pgi_like() {
  CompilerOptions o;
  o.persona = Persona::kPgiLike;
  return o;
}

CompilerOptions CompilerOptions::openuh_safara_clauses_verified() {
  CompilerOptions o = openuh_safara_clauses();
  o.verify_clauses = true;
  return o;
}

codegen::CodegenOptions Compiler::codegen_options() const {
  codegen::CodegenOptions cg;
  cg.honor_dim = opts_.honor_dim;
  cg.honor_small = opts_.honor_small;
  cg.licm = true;
  cg.cse_loads_within_stmt = opts_.persona == Persona::kPgiLike;
  return cg;
}

CompiledProgram Compiler::compile(std::string_view source, const std::string& fn_name) {
  DiagnosticEngine diags;
  // The parsed program only lives until the selected function has been
  // cloned into the CompiledProgram's arena, so it bump-allocates from a
  // scratch arena the next compile re-uses wholesale. `program` is declared
  // after `parse_arena_` was reset and is destroyed before the next reset.
  parse_arena_.reset();
  ast::Program program;
  {
    obs::ScopedSpan span(obs::tracer_of(collector_), "frontend.parse", "frontend");
    span.set_arg("bytes", obs::json::Value(static_cast<std::int64_t>(source.size())));
    support::ArenaScope scope(parse_arena_);
    program = parse::parse_source(source, diags);
  }
  if (!diags.ok()) {
    throw CompileError("parse failed:\n" + diags.render());
  }
  const ast::Function* fn = nullptr;
  if (fn_name.empty()) {
    if (program.functions.size() != 1) {
      throw CompileError("compile: source has " +
                         std::to_string(program.functions.size()) +
                         " functions; specify one by name");
    }
    fn = program.functions.front().get();
  } else {
    fn = program.find(fn_name);
    if (!fn) throw CompileError("compile: no function named '" + fn_name + "'");
  }
  return compile(*fn);
}

CompiledProgram Compiler::compile(const ast::Function& fn) {
  obs::Tracer* tracer = obs::tracer_of(collector_);
  obs::ScopedSpan compile_span(tracer, "compile", "driver");
  compile_span.set_arg("function", obs::json::Value(fn.name));
  if (collector_) collector_->metrics.add("driver.compiles");

  CompiledProgram out;
  out.arena = std::make_unique<support::Arena>();
  // Every AST node this compile creates — the working clone, the scalars the
  // optimization passes introduce, the clause-check expressions — lands in
  // the program's arena. The scope covers the whole compile, including the
  // fallback twin compile, which nests its own program arena inside.
  support::ArenaScope ast_scope(*out.arena);
  out.function_name = fn.name;
  out.transformed = fn.clone();
  ast::Function& work = *out.transformed;

  DiagnosticEngine diags;
  sema::Sema sema(diags);
  decltype(sema.analyze(work)) info;
  {
    obs::ScopedSpan span(tracer, "sema", "frontend");
    info = sema.analyze(work);
  }
  if (!diags.ok()) {
    throw CompileError("sema failed for '" + fn.name + "':\n" + diags.render());
  }

  if (opts_.enable_unroll) {
    obs::ScopedSpan span(tracer, "opt.unroll", "opt");
    out.unroll = opt::run_unroll(work, opts_.unroll, diags);
    span.set_arg("loops_unrolled", obs::json::Value(out.unroll.loops_unrolled));
    if (!diags.ok()) {
      throw CompileError("unroll pass failed:\n" + diags.render());
    }
  }

  if (opts_.enable_carr_kennedy) {
    obs::ScopedSpan span(tracer, "opt.carr_kennedy", "opt");
    out.carr_kennedy = opt::run_carr_kennedy(work, opts_.carr_kennedy, diags);
    span.set_arg("groups_replaced", obs::json::Value(out.carr_kennedy.groups_replaced));
    span.set_arg("loops_sequentialized",
                 obs::json::Value(out.carr_kennedy.loops_sequentialized));
    if (!diags.ok()) {
      throw CompileError("Carr-Kennedy pass failed:\n" + diags.render());
    }
  }

  if (opts_.enable_safara) {
    opt::SafaraOptions sopts = opts_.safara;
    sopts.latency = opts_.device.lat;
    sopts.max_registers = std::min(sopts.max_registers, opts_.device.max_registers_per_thread);
    const codegen::CodegenOptions cg = codegen_options();
    const std::uint64_t opts_fp =
        feedback_options_key(cg, opts_.regalloc, opts_.opt_level);
    auto feedback = [&](ast::Function& f, int region_index) -> int {
      obs::ScopedSpan fb_span(tracer, "safara.feedback_compile", "safara");
      FeedbackKey key;
      if (opts_.safara_feedback_cache) {
        key.fn_hash = ast::hash(f);
        key.options = opts_fp;
        key.region = region_index;
        std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
        auto it = g_feedback_cache.find(key);
        if (it != g_feedback_cache.end()) {
          fb_span.set_arg("cache", obs::json::Value("hit"));
          fb_span.set_arg("regs_used", obs::json::Value(it->second));
          if (collector_) collector_->metrics.add("safara.feedback_cache_hits");
          return it->second;
        }
      }
      if (opts_.safara_feedback_cache) {
        fb_span.set_arg("cache", obs::json::Value("miss"));
        if (collector_) collector_->metrics.add("safara.feedback_cache_misses");
      }
      DiagnosticEngine fb_diags;
      sema::Sema fb_sema(fb_diags);
      auto fb_info = fb_sema.analyze(f);
      if (!fb_diags.ok() ||
          region_index >= static_cast<int>(fb_info->regions.size())) {
        throw CompileError("SAFARA feedback compile failed:\n" + fb_diags.render());
      }
      codegen::CodegenResult res = codegen::generate_kernel(
          *fb_info, fb_info->regions[static_cast<std::size_t>(region_index)],
          region_index, cg, fb_diags);
      if (!fb_diags.ok()) {
        throw CompileError("SAFARA feedback codegen failed:\n" + fb_diags.render());
      }
      // The feedback answer must be measured on the same IR the final
      // pipeline allocates: registers the cleanup frees are headroom SAFARA
      // is allowed to spend on more scalar replacement.
      vir::passes::run_pipeline(res.kernel, opts_.opt_level);
      regalloc::AllocationResult alloc = regalloc::allocate(res.kernel, opts_.regalloc);
      if (opts_.safara_feedback_cache) {
        std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
        g_feedback_cache.emplace(key, alloc.regs_used);
      }
      fb_span.set_arg("regs_used", obs::json::Value(alloc.regs_used));
      if (collector_) collector_->metrics.add("safara.feedback_compiles");
      return alloc.regs_used;
    };
    obs::ScopedSpan span(tracer, "opt.safara", "opt");
    out.safara = opt::run_safara(work, feedback, sopts, diags, collector_);
    span.set_arg("groups_replaced", obs::json::Value(out.safara.total_groups()));
    if (!diags.ok()) {
      throw CompileError("SAFARA pass failed:\n" + diags.render());
    }
  }

  // Final analysis and code generation.
  decltype(sema.analyze(work)) final_info;
  {
    obs::ScopedSpan span(tracer, "sema.final", "frontend");
    final_info = sema.analyze(work);
  }
  if (!diags.ok()) {
    throw CompileError("post-optimization sema failed:\n" + diags.render());
  }
  const codegen::CodegenOptions cg = codegen_options();
  for (std::size_t r = 0; r < final_info->regions.size(); ++r) {
    obs::ScopedSpan span(tracer, "codegen", "backend");
    span.set_arg("region_index", obs::json::Value(static_cast<int>(r)));
    codegen::CodegenResult res = codegen::generate_kernel(
        *final_info, final_info->regions[r], static_cast<int>(r), cg, diags);
    if (!diags.ok()) {
      throw CompileError("codegen failed:\n" + diags.render());
    }
    CompiledKernel ck;
    ck.name = res.kernel.name;
    ck.plan = std::move(res.plan);
    {
      obs::ScopedSpan vir_span(tracer, "vir.passes", "backend");
      ck.vir_stats = vir::passes::run_pipeline(res.kernel, opts_.opt_level);
      vir_span.set_arg("opt_level", obs::json::Value(opts_.opt_level));
      vir_span.set_arg("pressure_before", obs::json::Value(ck.vir_stats.pressure_before));
      vir_span.set_arg("pressure_after", obs::json::Value(ck.vir_stats.pressure_after));
    }
    {
      obs::ScopedSpan alloc_span(tracer, "regalloc", "backend");
      regalloc::AllocatorOptions ra = opts_.regalloc;
      // Profile-guided recompile: when the attached collector already holds
      // a sim profile for this kernel (same name, same code length — i.e. a
      // recompile of what was measured), fold its per-pc attribution into
      // the spill-cost weights so hot-loop values outbid cold ones for
      // registers. First compiles see no profile and use uniform weights.
      if (collector_ && ra.pc_weights.empty()) {
        for (auto it = collector_->sim_profiles.rbegin();
             it != collector_->sim_profiles.rend(); ++it) {
          if (it->kernel != ck.name) continue;
          const obs::SmProfile totals = it->totals();
          if (totals.pcs.size() != res.kernel.code.size()) break;
          std::uint64_t attributed = 0;
          for (const obs::PcProfile& p : totals.pcs) {
            attributed += p.issue_cycles + p.stall_scoreboard + p.stall_memory;
          }
          if (attributed == 0) break;
          // Normalize so a pc carrying the mean attribution weighs 2.0 and a
          // never-executed pc weighs 1.0: relative heat, not absolute cycles.
          const double mean =
              static_cast<double>(attributed) / static_cast<double>(totals.pcs.size());
          ra.pc_weights.resize(totals.pcs.size(), 1.0);
          for (std::size_t i = 0; i < totals.pcs.size(); ++i) {
            const obs::PcProfile& p = totals.pcs[i];
            ra.pc_weights[i] =
                1.0 + static_cast<double>(p.issue_cycles + p.stall_scoreboard +
                                          p.stall_memory) /
                          mean;
          }
          alloc_span.set_arg("profile_guided", obs::json::Value(true));
          collector_->metrics.add("regalloc.profile_guided");
          break;
        }
      }
      ck.alloc = regalloc::allocate(res.kernel, ra);
      // RegDem: redirect the hottest spill slots to shared memory while the
      // per-block budget keeps occupancy intact. Post-allocation only — it
      // never changes regs_used, so SAFARA's feedback compiles (which only
      // ask for the register count) stay untouched. The admission check
      // assumes the compile-time default block size; the simulator recomputes
      // occupancy with the actual launch config.
      const regalloc::RegDemReport regdem = regalloc::demote_spill_slots(
          res.kernel, ck.alloc, ra, opts_.device,
          codegen::LaunchPlan::kDefaultVectorLen);
      alloc_span.set_arg("regs_used", obs::json::Value(ck.alloc.regs_used));
      alloc_span.set_arg("spill_bytes", obs::json::Value(ck.alloc.spill_bytes));
      if (regdem.demoted_slots > 0) {
        alloc_span.set_arg("shared_spill_bytes",
                           obs::json::Value(ck.alloc.shared_spill_bytes));
      }
    }
    ck.kernel = std::move(res.kernel);
    span.set_arg("kernel", obs::json::Value(ck.name));
    if (collector_) {
      collector_->metrics.add("driver.kernels");
      collector_->metrics.set("regalloc.regs_used." + ck.name, ck.alloc.regs_used);
      collector_->metrics.set("regalloc.spill_bytes." + ck.name, ck.alloc.spill_bytes);
      collector_->metrics.add("regalloc.shared_spill_slots", ck.alloc.shared_spill_slots);
      collector_->metrics.add("regalloc.shared_spill_bytes", ck.alloc.shared_spill_bytes);
      collector_->metrics.add("regalloc.coalesced", ck.alloc.coalesced);
      collector_->metrics.add("regalloc.split_ranges", ck.alloc.split_ranges);
      collector_->metrics.add("regalloc.remat", ck.alloc.remat_count);
      collector_->metrics.add("regalloc.spills", ck.alloc.spills);
      collector_->metrics.add("regalloc.iterations", ck.alloc.iterations);
      collector_->metrics.add("vir.copyprop_removed", ck.vir_stats.copyprop_removed);
      collector_->metrics.add("vir.gvn_hits", ck.vir_stats.gvn_hits);
      collector_->metrics.add("vir.ssa_bailouts", ck.vir_stats.ssa_bailouts);
      collector_->metrics.add("vir.dce_removed", ck.vir_stats.dce_removed);
      collector_->metrics.add("vir.strength_reduced", ck.vir_stats.strength_reduced);
      collector_->metrics.add("vir.sched_moves", ck.vir_stats.sched_moves);
      collector_->metrics.set("vir.phi_count." + ck.name, ck.vir_stats.phi_count);
      collector_->metrics.set("vir.regs_before." + ck.name, ck.vir_stats.pressure_before);
      collector_->metrics.set("vir.regs_after." + ck.name, ck.vir_stats.pressure_after);
    }

    // Record the clause assertions for launch-time verification.
    const ast::AccDirective* dir = final_info->regions[r].loop->directive.get();
    if (dir) {
      for (const ast::DimGroup& g : dir->dim_groups) {
        ClauseChecks::DimGroup check;
        check.arrays = g.arrays;
        for (const ast::DimGroup::Bound& b : g.bounds) {
          check.lb.push_back(b.lb ? b.lb->clone() : nullptr);
          check.len.push_back(b.len->clone());
        }
        ck.checks.dim_groups.push_back(std::move(check));
      }
      ck.checks.small_arrays = dir->small_arrays;
    }
    out.kernels.push_back(std::move(ck));
  }

  // Two-version scheme (Section IV): compile a clause-ignoring twin so the
  // runtime can fall back when an assertion turns out to be false.
  if (opts_.verify_clauses && (opts_.honor_dim || opts_.honor_small)) {
    CompilerOptions fb_opts = opts_;
    fb_opts.honor_dim = false;
    fb_opts.honor_small = false;
    fb_opts.verify_clauses = false;
    Compiler fb_compiler(fb_opts, collector_);
    out.fallback = std::make_unique<CompiledProgram>(fb_compiler.compile(fn));
  }
  return out;
}

std::string dump_vir(const CompiledProgram& prog) {
  std::ostringstream os;
  for (const CompiledKernel& k : prog.kernels) {
    os << "==== " << k.name << " ====\n"
       << k.ptxas_info() << "\n"
       << vir::to_string(k.kernel);
  }
  return os.str();
}

}  // namespace safara::driver
