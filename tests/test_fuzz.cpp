// Differential fuzzing subsystem tests: generator determinism and argument
// convention, all oracles over generated seeds and the checked-in corpus,
// the self-test path (an injected miscompile must be caught AND reduced to a
// tiny reproducer), the greedy reducer itself, and the O2 pipeline's SSA
// round trip over generated programs.
//
// SAFARA_CORPUS_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree tests/corpus directory.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reducer.hpp"
#include "parse/parser.hpp"

namespace safara::fuzz {
namespace {

int line_count(const std::string& s) {
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  if (!s.empty() && s.back() != '\n') ++lines;
  return lines;
}

// -- generator ----------------------------------------------------------------

TEST(FuzzGenerator, SameSeedSameProgram) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1000000007ull}) {
    EXPECT_EQ(generate_program(seed), generate_program(seed)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, DifferentSeedsDiverge) {
  // Not a hard guarantee per pair, but across a small window every program
  // being identical would mean the seed is ignored.
  const std::string first = generate_program(1);
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 10 && !any_different; ++seed) {
    any_different = generate_program(seed) != first;
  }
  EXPECT_TRUE(any_different);
}

TEST(FuzzGenerator, ProgramsParseCleanly) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string src = generate_program(seed);
    DiagnosticEngine diags;
    ast::Program p = parse::parse_source(src, diags);
    EXPECT_TRUE(diags.ok()) << "seed " << seed << ":\n" << diags.render() << "\n" << src;
    ASSERT_EQ(p.functions.size(), 1u) << src;
  }
}

// -- argument derivation ------------------------------------------------------

TEST(FuzzArgs, DeriveArgsFollowsConvention) {
  const char* src = R"(
void fuzz_fn(int n, int m, int c0, float alpha, double beta, float *inA,
             double out0[?][?], int inB[24]) {
})";
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(src, diags);
  ASSERT_TRUE(diags.ok()) << diags.render();
  ArgSet args = derive_args(*p.functions[0]);

  ASSERT_TRUE(args.scalars.count("n"));
  EXPECT_EQ(args.scalars.at("n").as_int(), 24);
  EXPECT_EQ(args.scalars.at("m").as_int(), 16);
  EXPECT_EQ(args.scalars.at("c0").as_int(), 8);
  EXPECT_DOUBLE_EQ(args.scalars.at("alpha").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(args.scalars.at("beta").as_double(), 2.5);

  ASSERT_TRUE(args.arrays.count("inA"));
  EXPECT_EQ(args.arrays.at("inA").element_count(), 24);  // pointer => length n
  ASSERT_TRUE(args.arrays.count("out0"));
  EXPECT_EQ(args.arrays.at("out0").element_count(), 24 * 16);  // [?][?] => [n][m]
  ASSERT_TRUE(args.arrays.count("inB"));
  EXPECT_EQ(args.arrays.at("inB").element_count(), 24);

  // Fills are name-seeded and deterministic, so two derivations agree.
  ArgSet again = derive_args(*p.functions[0]);
  EXPECT_EQ(args.arrays.at("inA").data, again.arrays.at("inA").data);
  // Integer fills stay non-negative so `% extent` indexing is safe.
  const driver::HostArray& ints = args.arrays.at("inB");
  for (std::int64_t i = 0; i < ints.element_count(); ++i) {
    EXPECT_GE(ints.get_int(i), 0);
  }
}

// -- oracles over generated programs ------------------------------------------

TEST(FuzzOracles, GeneratedSeedsPassEveryOracle) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const std::string src = generate_program(seed);
    for (Oracle o : all_oracles()) {
      OracleResult r = run_oracle(src, o);
      EXPECT_EQ(r.status, Status::kOk)
          << "seed " << seed << " oracle " << to_string(o) << ": " << r.detail << "\n"
          << src;
    }
  }
}

/// The six paper configurations, all at opt-level 2.
std::vector<driver::CompilerOptions> paper_configs_o2() {
  std::vector<driver::CompilerOptions> configs = {
      driver::CompilerOptions::openuh_base(),
      driver::CompilerOptions::openuh_small(),
      driver::CompilerOptions::openuh_small_dim(),
      driver::CompilerOptions::openuh_safara(),
      driver::CompilerOptions::openuh_safara_clauses(),
      driver::CompilerOptions::pgi_like(),
  };
  for (driver::CompilerOptions& opts : configs) opts.opt_level = 2;
  return configs;
}

TEST(FuzzPipeline, NoSsaDestructRevertsUnderPaperConfigs) {
  // The O2 pipeline's SSA round trip must survive the passes: a revert
  // throws away all of the pipeline's work on the kernel.
  const std::vector<driver::CompilerOptions> configs = paper_configs_o2();
  // 200 seeds: the first kernels whose blocks empty mid-pipeline appear
  // just past seed 100.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string src = generate_program(seed);
    for (const driver::CompilerOptions& opts : configs) {
      driver::Compiler compiler(opts);
      const driver::CompiledProgram prog = compiler.compile(src);
      for (const driver::CompiledKernel& k : prog.kernels) {
        EXPECT_EQ(k.vir_stats.ssa_destruct_reverts, 0) << "seed " << seed << ", " << k.name;
      }
    }
  }
}

TEST(FuzzPipeline, VirUnchangedOnSeeds1To200) {
  // One FNV-1a fingerprint of driver::dump_vir over 200 generated programs
  // under every paper configuration, plus the summed code size and
  // registers. Compile-time work on the VIR pipeline must leave its output
  // byte-identical; a change that means to alter the IR re-records these
  // values and says why.
  const std::vector<driver::CompilerOptions> configs = paper_configs_o2();
  std::uint64_t fingerprint = 1469598103934665603ull;  // FNV-1a, 64-bit
  std::int64_t code_instrs = 0, regs = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string src = generate_program(seed);
    for (const driver::CompilerOptions& opts : configs) {
      driver::Compiler compiler(opts);
      const driver::CompiledProgram prog = compiler.compile(src);
      for (unsigned char c : driver::dump_vir(prog)) {
        fingerprint ^= c;
        fingerprint *= 1099511628211ull;
      }
      for (const driver::CompiledKernel& k : prog.kernels) {
        code_instrs += static_cast<std::int64_t>(k.kernel.code.size());
        regs += k.alloc.regs_used;
      }
    }
  }
  EXPECT_EQ(fingerprint, 0x002f8baf6f9942b0ull)
      << "dump_vir fingerprint 0x" << std::hex << fingerprint;
  EXPECT_EQ(code_instrs, 100842);
  EXPECT_EQ(regs, 43982);
}

TEST(FuzzPipeline, WorkFoundInALaterRoundIsKeptOnSeed405) {
  // Seed 405 is the one program in seeds 1-600 and 1000003-1000602 whose
  // pipeline output depends on a second pass round inside the SSA region:
  // its first kernel's second round finds work and a third confirms it. A
  // pipeline that stopped after one round changes this fingerprint
  // (recorded before the pipeline became one SSA region).
  std::uint64_t fingerprint = 1469598103934665603ull;  // FNV-1a, 64-bit
  const std::string src = generate_program(405);
  for (const driver::CompilerOptions& opts : paper_configs_o2()) {
    driver::Compiler compiler(opts);
    const driver::CompiledProgram prog = compiler.compile(src);
    ASSERT_FALSE(prog.kernels.empty());
    EXPECT_EQ(prog.kernels[0].vir_stats.ssa_rounds, 3);
    for (unsigned char c : driver::dump_vir(prog)) {
      fingerprint ^= c;
      fingerprint *= 1099511628211ull;
    }
  }
  EXPECT_EQ(fingerprint, 0xdcde512c9f43c668ull)
      << "dump_vir fingerprint 0x" << std::hex << fingerprint;
}

TEST(FuzzPipeline, FourPredecessorJoinGetsAPhiUnderPaperConfigs) {
  // Three nested `if`s without `else` end at one join with four
  // predecessors; the scalar live across it needs a 4-operand phi. SSA
  // construction used to refuse phis that wide and leave the kernel to
  // guard-limited optimization (phi_count 0).
  std::ifstream in(std::string(SAFARA_CORPUS_DIR) + "/nested_if_four_way_join.acc");
  ASSERT_TRUE(in) << "corpus file missing";
  std::stringstream src;
  src << in.rdbuf();
  for (const driver::CompilerOptions& opts : paper_configs_o2()) {
    driver::Compiler compiler(opts);
    const driver::CompiledProgram prog = compiler.compile(src.str());
    ASSERT_EQ(prog.kernels.size(), 1u);
    EXPECT_GT(prog.kernels[0].vir_stats.phi_count, 0) << prog.kernels[0].name;
  }
}

TEST(FuzzOracles, NamesRoundTripThroughParser) {
  for (Oracle o : all_oracles()) {
    Oracle parsed;
    ASSERT_TRUE(parse_oracle(to_string(o), parsed)) << to_string(o);
    EXPECT_EQ(parsed, o);
  }
  Oracle ignored;
  EXPECT_FALSE(parse_oracle("not-an-oracle", ignored));
}

TEST(FuzzOracles, BrokenProgramReportsErrorNotThrow) {
  OracleResult r = run_oracle("void f( {", Oracle::kRefVsSim);
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_FALSE(r.detail.empty());
}

// -- corpus -------------------------------------------------------------------

TEST(FuzzCorpus, EveryCorpusProgramPassesEveryOracle) {
  FuzzOptions opts;
  opts.count = 0;  // corpus only
  opts.corpus_dir = SAFARA_CORPUS_DIR;
  FuzzReport report = run_fuzz(opts);
  EXPECT_GE(report.programs, 4) << "corpus should not be empty";
  std::string details;
  for (const Divergence& d : report.divergences) {
    details += d.id + " [" + std::string(to_string(d.oracle)) + "]: " + d.detail + "\n";
  }
  EXPECT_TRUE(report.ok()) << details;
}

// -- the harness end to end ---------------------------------------------------

TEST(FuzzHarness, SmokeRunIsClean) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 10;
  FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.programs, 10);
  EXPECT_EQ(report.oracle_runs, 10 * static_cast<int>(all_oracles().size()));
  std::string details;
  for (const Divergence& d : report.divergences) {
    details += d.id + ": " + d.detail + "\n";
  }
  EXPECT_TRUE(report.ok()) << details;

  const std::string json = report.to_json().dump(2);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"oracle_runs\""), std::string::npos) << json;
}

TEST(FuzzHarness, InjectedMiscompileIsCaughtAndReduced) {
  // Self-test: flip one binary op on side B of the safara-on/off pair and the
  // harness must (a) catch the divergence and (b) greedily shrink the program
  // to a tiny reproducer that still diverges. Seed 7's flip survives later
  // overwrites, so it reliably reaches the output arrays.
  FuzzOptions opts;
  opts.seed = 7;
  opts.count = 1;
  opts.oracles = {Oracle::kSafaraOnOff};
  opts.inject_miscompile = true;
  opts.reduce = true;
  FuzzReport report = run_fuzz(opts);
  ASSERT_EQ(report.divergences.size(), 1u);
  const Divergence& d = report.divergences[0];
  EXPECT_EQ(d.oracle, Oracle::kSafaraOnOff);
  EXPECT_EQ(d.status, Status::kDiverged);
  ASSERT_FALSE(d.reduced.empty());
  EXPECT_LT(d.reduced.size(), d.source.size());
  EXPECT_LE(line_count(d.reduced), 15) << d.reduced;

  // The reduced program must still trip the same oracle under injection.
  OracleOptions oracle_opts;
  oracle_opts.inject_miscompile = true;
  OracleResult r = run_oracle(d.reduced, Oracle::kSafaraOnOff, oracle_opts);
  EXPECT_EQ(r.status, Status::kDiverged) << d.reduced;
}

TEST(FuzzHarness, OptVsNooptCatchesInjectedMiscompile) {
  // Same self-test for the pass-pipeline differential: the mutation lands on
  // the --opt-level 2 side, so a clean pass here means the oracle really
  // compares the two pipelines rather than compiling one program twice.
  FuzzOptions opts;
  opts.seed = 7;
  opts.count = 1;
  opts.oracles = {Oracle::kOptVsNoopt};
  opts.inject_miscompile = true;
  FuzzReport report = run_fuzz(opts);
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].oracle, Oracle::kOptVsNoopt);
  EXPECT_EQ(report.divergences[0].status, Status::kDiverged);
}

// -- reducer ------------------------------------------------------------------

TEST(FuzzReducer, ShrinksWhilePredicateHolds) {
  const char* src = R"(
void fuzz_fn(int n, int m, float alpha, float *inA, float *inB, float *out0) {
  #pragma acc parallel loop gang vector(64)
  for (i = 2; i < n - 2; i++) {
    float t0 = inB[i] * 2.0f;
    out0[i] = alpha * inA[i] + t0;
    out0[(i * 3) % n] = 0.0f;
  }
})";
  // Keep anything that still parses and mentions alpha: the reducer should
  // strip the unrelated statements and arrays but never produce junk.
  Predicate keep = [](const std::string& candidate) {
    if (candidate.find("alpha") == std::string::npos) return false;
    DiagnosticEngine diags;
    parse::parse_source(candidate, diags);
    return diags.ok();
  };
  ReduceResult r = reduce(src, keep);
  EXPECT_GT(r.applied, 0);
  EXPECT_LT(r.source.size(), std::string(src).size());
  EXPECT_TRUE(keep(r.source)) << r.source;
}

TEST(FuzzReducer, UnreduciblePredicateReturnsOriginalShape) {
  // A predicate that rejects every candidate leaves the (reprinted) source
  // semantically intact: nothing applied.
  const char* src = "void fuzz_fn(int n, float *out0) {\n}\n";
  Predicate never = [](const std::string&) { return false; };
  ReduceResult r = reduce(src, never);
  EXPECT_EQ(r.applied, 0);
  DiagnosticEngine diags;
  parse::parse_source(r.source, diags);
  EXPECT_TRUE(diags.ok());
}

}  // namespace
}  // namespace safara::fuzz
