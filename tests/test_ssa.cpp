// Tests for the dominator CFG module and the SSA construction/destruction
// pair the pass pipeline wraps around its optimizers: phi placement at
// loop-header joins, pruning, copy folding into the rename, n-ary phis at
// joins wider than three predecessors, the entry-block precondition, the
// pipeline-level contract that no kPhi ever escapes, and blocks emptied
// mid-pipeline keeping the CFG intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "parse/parser.hpp"
#include "sema/sema.hpp"
#include "vir/cfg.hpp"
#include "vir/liveness.hpp"
#include "vir/passes/passes.hpp"
#include "vir/ssa.hpp"
#include "vir/vir.hpp"

namespace safara::vir {
namespace {

/// Tiny builder for hand-written kernels (same shape as test_vir_regalloc's).
class KB {
 public:
  std::uint32_t reg(VType t) {
    k.vreg_types.push_back(t);
    k.vreg_names.push_back("");
    return k.num_vregs() - 1;
  }
  std::int32_t label() {
    k.labels.push_back(-1);
    return static_cast<std::int32_t>(k.labels.size() - 1);
  }
  void place(std::int32_t l) { k.labels[static_cast<std::size_t>(l)] = size(); }
  std::int32_t size() const { return static_cast<std::int32_t>(k.code.size()); }

  Instr& emit(Opcode op, VType t, std::uint32_t dst = kNoReg, std::uint32_t a = kNoReg,
              std::uint32_t b = kNoReg) {
    Instr in;
    in.op = op;
    in.type = t;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.loc = SourceLoc{1, 1};
    k.code.push_back(in);
    return k.code.back();
  }

  Kernel k;
};

/// A counted loop whose induction variable has two defs (init + increment):
/// the canonical kernel that needs a loop-header phi.
KB make_loop_kernel() {
  KB b;
  auto iv = b.reg(VType::kI32);
  auto bound = b.reg(VType::kI32);
  auto one = b.reg(VType::kI32);
  auto pred = b.reg(VType::kPred);
  std::int32_t head = b.label();
  std::int32_t exit = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, iv).imm = 0;        // 0
  b.emit(Opcode::kMovImmI, VType::kI32, bound).imm = 10;    // 1
  b.emit(Opcode::kMovImmI, VType::kI32, one).imm = 1;       // 2
  b.place(head);
  b.emit(Opcode::kSetGe, VType::kI32, pred, iv, bound);     // 3
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, pred);  // 4
    br.imm = exit;
    br.imm2 = exit;
  }
  b.emit(Opcode::kAdd, VType::kI32, iv, iv, one);           // 5
  b.emit(Opcode::kBra, VType::kI32).imm = head;             // 6
  b.place(exit);
  b.emit(Opcode::kExit, VType::kI32);                       // 7
  return b;
}

std::map<std::uint32_t, int> def_counts(const Kernel& k) {
  std::map<std::uint32_t, int> defs;
  for (const Instr& in : k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) ++defs[in.dst];
  }
  return defs;
}

int phi_count(const Kernel& k) {
  int n = 0;
  for (const Instr& in : k.code) {
    if (in.op == Opcode::kPhi) ++n;
  }
  return n;
}

std::vector<std::uint32_t> operands_of(const Kernel& k, const Instr& in) {
  std::vector<std::uint32_t> ops;
  for_each_use(k, in, [&](std::uint32_t r) { ops.push_back(r); });
  return ops;
}

/// Labels point at instructions (or one past the end) and every branch
/// target resolves.
void expect_valid_labels(const Kernel& k) {
  const std::int32_t n = static_cast<std::int32_t>(k.code.size());
  for (std::int32_t l : k.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LE(l, n);
  }
  for (const Instr& in : k.code) {
    if (in.op == Opcode::kBra || in.op == Opcode::kCbr) {
      const std::int32_t t = k.target(static_cast<std::int32_t>(in.imm));
      EXPECT_GE(t, 0);
      EXPECT_LE(t, n);
    }
  }
}

// -- dominator CFG -------------------------------------------------------------

TEST(DomCfg, LoopHeaderDominatesBodyAndExit) {
  KB b = make_loop_kernel();
  const Cfg cfg = build_dominator_cfg(b.k);
  ASSERT_GE(cfg.blocks.size(), 3u);
  // Find the block starting at the loop head (instruction 3).
  std::int32_t head = cfg.block_of[3];
  std::int32_t body = cfg.block_of[5];
  std::int32_t exit = cfg.block_of[7];
  EXPECT_NE(head, body);
  EXPECT_NE(head, exit);
  EXPECT_EQ(cfg.idom[static_cast<std::size_t>(body)], head);
  EXPECT_EQ(cfg.idom[static_cast<std::size_t>(exit)], head);
  // The backedge makes the header its own dominance frontier.
  const auto& df = cfg.dom_frontier[static_cast<std::size_t>(body)];
  EXPECT_NE(std::find(df.begin(), df.end(), head), df.end())
      << "loop body's dominance frontier misses the header";
  // The header has two predecessors: entry and the latch.
  EXPECT_EQ(cfg.preds[static_cast<std::size_t>(head)].size(), 2u);
}

TEST(DomCfg, BlockLivenessSeesLoopCarriedValue) {
  KB b = make_loop_kernel();
  const Cfg cfg = build_dominator_cfg(b.k);
  const BlockLiveness bl = compute_block_liveness(b.k, cfg.blocks);
  const std::size_t head = static_cast<std::size_t>(cfg.block_of[3]);
  // iv (vreg 0) is live into the header along both edges.
  EXPECT_TRUE(bl.live_in_at(head, 0));
  // bound (vreg 1) too; the never-live pred (vreg 3) is not.
  EXPECT_TRUE(bl.live_in_at(head, 1));
  EXPECT_FALSE(bl.live_in_at(head, 3));
}

// -- SSA construction ----------------------------------------------------------

TEST(SsaConstruct, PlacesPhiAtLoopHeader) {
  KB b = make_loop_kernel();
  ssa::ConstructStats stats = ssa::construct(b.k);
  EXPECT_GE(stats.phis, 1);
  EXPECT_EQ(phi_count(b.k), stats.phis);
  // The phi sits at the head of the loop-header block and carries two
  // operands (entry and latch values).
  const Cfg cfg = build_dominator_cfg(b.k);
  bool found = false;
  for (const Instr& in : b.k.code) {
    if (in.op != Opcode::kPhi) continue;
    found = true;
    const std::vector<std::uint32_t> ops = operands_of(b.k, in);
    EXPECT_EQ(ops.size(), 2u);
    for (std::uint32_t r : ops) EXPECT_NE(r, kNoReg);
    EXPECT_TRUE(in.loc.valid()) << "phi lost source provenance";
    const std::size_t blk = static_cast<std::size_t>(
        cfg.block_of[static_cast<std::size_t>(&in - b.k.code.data())]);
    EXPECT_EQ(cfg.preds[blk].size(), 2u);
  }
  EXPECT_TRUE(found);
  // Renaming left every vreg with at most one definition.
  for (const auto& [v, n] : def_counts(b.k)) {
    EXPECT_LE(n, 1) << "vreg " << v << " still has " << n << " defs";
  }
}

TEST(SsaConstruct, StraightLineRedefinitionNeedsNoPhi) {
  // x = 1; x = 2; y = x + x — a multi-def slot with no join: renaming splits
  // the defs but places no phi.
  KB b;
  auto x = b.reg(VType::kI32);
  auto y = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 1;
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 2;
  b.emit(Opcode::kAdd, VType::kI32, y, x, x);
  b.emit(Opcode::kExit, VType::kI32);

  ssa::ConstructStats stats = ssa::construct(b.k);
  EXPECT_EQ(stats.phis, 0);
  EXPECT_EQ(phi_count(b.k), 0);
  for (const auto& [v, n] : def_counts(b.k)) {
    EXPECT_LE(n, 1) << "vreg " << v;
  }
  // The add must now read the second definition's fresh vreg, not x.
  const Instr& add = b.k.code[2];
  EXPECT_NE(add.a, x);
  EXPECT_EQ(add.a, add.b);
  EXPECT_EQ(add.a, b.k.code[1].dst);
}

TEST(SsaConstruct, FoldsCopiesIntoRename) {
  // mov slot, t is absorbed by pushing t on the slot's rename stack instead
  // of minting a fresh vreg — the mov disappears.
  KB b;
  auto t = b.reg(VType::kI32);
  auto slot = b.reg(VType::kI32);
  auto u = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, t).imm = 7;
  b.emit(Opcode::kMov, VType::kI32, slot, t);
  b.emit(Opcode::kAdd, VType::kI32, u, slot, slot);
  b.emit(Opcode::kMovImmI, VType::kI32, slot).imm = 9;  // second def: slot is multi-def
  b.emit(Opcode::kExit, VType::kI32);

  const std::int32_t before = b.size();
  ssa::ConstructStats stats = ssa::construct(b.k);
  EXPECT_GE(stats.copies_folded, 1);
  EXPECT_EQ(b.size(), before - stats.copies_folded);
  // The add now reads t directly.
  for (const Instr& in : b.k.code) {
    if (in.op == Opcode::kAdd) {
      EXPECT_EQ(in.a, t);
      EXPECT_EQ(in.b, t);
    }
  }
}

TEST(SsaConstruct, EntryBlockWithPredecessorsThrows) {
  // The loop rolls back to instruction 0: a phi there would need an operand
  // for the implicit function-entry edge, which does not exist. Codegen never
  // emits such a kernel, so it is a precondition violation, not a bailout.
  KB b;
  auto x = b.reg(VType::kI32);
  auto p = b.reg(VType::kPred);
  std::int32_t head = b.label();
  std::int32_t exit = b.label();
  b.place(head);
  b.emit(Opcode::kAdd, VType::kI32, x, x, x);  // 0: loop header at pc 0
  b.emit(Opcode::kSetGe, VType::kI32, p, x, x);
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, p);
    br.imm = exit;
    br.imm2 = exit;
  }
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 1;  // second def of x
  b.emit(Opcode::kBra, VType::kI32).imm = head;
  b.place(exit);
  b.emit(Opcode::kExit, VType::kI32);

  EXPECT_THROW(ssa::construct(b.k), std::logic_error);
}

TEST(SsaConstruct, JoinWiderThanThreePredecessorsGetsOneNaryPhi) {
  // Four edges into one label, each carrying its own def of x: the join gets
  // one phi with four operands, one per predecessor in block order, and
  // destruction lowers it to four edge copies.
  KB b;
  auto x = b.reg(VType::kI32);
  auto y = b.reg(VType::kI32);
  auto p = b.reg(VType::kPred);
  std::int32_t merge = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 1;
  b.emit(Opcode::kSetGe, VType::kI32, p, x, x);
  for (int arm = 2; arm <= 4; ++arm) {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, p);
    br.imm = merge;
    br.imm2 = merge;
    b.emit(Opcode::kMovImmI, VType::kI32, x).imm = arm;
  }
  b.emit(Opcode::kBra, VType::kI32).imm = merge;
  b.place(merge);
  b.emit(Opcode::kAdd, VType::kI32, y, x, x);
  b.emit(Opcode::kExit, VType::kI32);

  const ssa::ConstructStats cs = ssa::construct(b.k);
  EXPECT_EQ(cs.phis, 1);
  ASSERT_EQ(phi_count(b.k), 1);
  const Cfg cfg = build_dominator_cfg(b.k);
  for (const Instr& in : b.k.code) {
    if (in.op != Opcode::kPhi) continue;
    // Operand p is the value of x at the end of predecessor p: the def of
    // `x = p + 1` in that block.
    const std::vector<std::uint32_t> ops = operands_of(b.k, in);
    ASSERT_EQ(ops.size(), 4u);
    const auto& preds = cfg.preds[static_cast<std::size_t>(
        cfg.block_of[static_cast<std::size_t>(&in - b.k.code.data())])];
    ASSERT_EQ(preds.size(), 4u);
    for (std::size_t p = 0; p < 4; ++p) {
      const BasicBlock& pb = cfg.blocks[static_cast<std::size_t>(preds[p])];
      std::int64_t value = -1;
      for (std::int32_t i = pb.begin; i < pb.end; ++i) {
        const Instr& d = b.k.code[static_cast<std::size_t>(i)];
        if (d.op == Opcode::kMovImmI && d.dst == ops[p]) value = d.imm;
      }
      EXPECT_EQ(value, static_cast<std::int64_t>(p) + 1) << "operand " << p;
    }
  }

  const ssa::DestructStats ds = ssa::destruct(b.k);
  EXPECT_TRUE(ds.ok);
  EXPECT_EQ(ds.copies_inserted, 4);
  EXPECT_EQ(phi_count(b.k), 0);
  EXPECT_TRUE(b.k.phi_operands.empty());
  expect_valid_labels(b.k);
}

// -- SSA destruction -----------------------------------------------------------

TEST(SsaDestruct, RoundTripLeavesNoPhisAndValidLabels) {
  KB b = make_loop_kernel();
  ssa::construct(b.k);
  ASSERT_GE(phi_count(b.k), 1);

  ssa::DestructStats ds = ssa::destruct(b.k);
  EXPECT_TRUE(ds.ok);
  EXPECT_EQ(phi_count(b.k), 0);
  EXPECT_GE(ds.copies_inserted, 1);
  expect_valid_labels(b.k);
  // Destruction compacts vregs densely: every vreg below num_vregs is
  // actually referenced.
  std::vector<bool> seen(b.k.num_vregs(), false);
  for (const Instr& in : b.k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) seen[in.dst] = true;
    for_each_use(b.k, in, [&](std::uint32_t r) { seen[r] = true; });
  }
  for (std::size_t v = 0; v < seen.size(); ++v) {
    EXPECT_TRUE(seen[v]) << "vreg " << v << " survived compaction unreferenced";
  }
}

// -- pipeline integration ------------------------------------------------------

TEST(SsaPipeline, ReportsPhisButEmitsNone) {
  KB b = make_loop_kernel();
  passes::PassStats stats = passes::run_pipeline(b.k, 2);
  EXPECT_GE(stats.phi_count, 1) << "the loop kernel should have needed a phi";
  EXPECT_EQ(phi_count(b.k), 0) << "a phi escaped the pipeline";
}

TEST(SsaPipeline, PipelineIsFixpointOnLoopKernel) {
  KB b = make_loop_kernel();
  passes::run_pipeline(b.k, 2);
  const std::string once = to_string(b.k);
  passes::PassStats again = passes::run_pipeline(b.k, 2);
  EXPECT_EQ(to_string(b.k), once);
  EXPECT_EQ(again.copyprop_removed + again.gvn_hits + again.dce_removed +
                again.strength_reduced + again.sched_moves,
            0)
      << "second pipeline run found work the first left behind";
}

TEST(SsaPipeline, MultiDefSlotNowOptimizable) {
  // x = 1; x = 2; y = x + x; (x's first def is dead) — the single-def guards
  // used to make every pass skip x entirely; via SSA the pipeline deletes
  // the dead first def.
  KB b;
  auto x = b.reg(VType::kI32);
  auto y = b.reg(VType::kI32);
  auto addr = b.reg(VType::kI64);
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 1;
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 2;
  b.emit(Opcode::kAdd, VType::kI32, y, x, x);
  b.emit(Opcode::kMovImmI, VType::kI64, addr).imm = 4096;
  b.emit(Opcode::kStGlobal, VType::kI32, kNoReg, addr, y);
  b.emit(Opcode::kExit, VType::kI32);

  const std::int32_t before = b.size();
  passes::PassStats stats = passes::run_pipeline(b.k, 2);
  EXPECT_LT(b.size(), before) << "dead first def of the multi-def slot survived";
  EXPECT_GE(stats.dce_removed, 1);
  EXPECT_EQ(phi_count(b.k), 0);
}

TEST(SsaPipeline, EmptiedBlockKeepsPhiEdgesAndDestructSucceeds) {
  // An if/else join followed by a dead `seq` loop (t0 is never read). SSA
  // folds the `t0 = 0` and `k0 = 0` copies, which empties the block between
  // the join and the loop head — a predecessor of the loop-header phi.
  // Deleting through vir::remove_dead keeps that block as a `bra`, so
  // destruction still matches every phi operand to its edge, and the
  // region that deletes the dead loop body is kept instead of reverted.
  const char* src = R"(
void f(int n, int m, int c0, float *x, int *y) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) {
    if (c0 <= m) {
      x[i] = 1.0f;
    } else {
      y[i] = m;
    }
    int t0 = 0;
    #pragma acc loop seq
    for (k0 = 0; k0 < 4; k0++) {
      t0 = m * k0;
    }
    y[i] = i;
  }
})";
  DiagnosticEngine diags;
  ast::Program program = parse::parse_source(src, diags);
  sema::Sema sema(diags);
  auto info = sema.analyze(*program.functions.front());
  ASSERT_TRUE(diags.ok()) << diags.render();
  Kernel k = codegen::generate_kernel(*info, info->regions[0], 0, {}, diags).kernel;
  ASSERT_TRUE(diags.ok()) << diags.render();
  auto defines_t0 = [](const Kernel& kern) {
    for (const Instr& in : kern.code) {
      if (has_dst(in.op) && in.dst != kNoReg && kern.vreg_names[in.dst] == "t0") return true;
    }
    return false;
  };
  ASSERT_TRUE(defines_t0(k));

  const passes::PassStats stats = passes::run_pipeline(k, 2);
  EXPECT_EQ(stats.ssa_destruct_reverts, 0);
  EXPECT_GE(stats.dce_removed, 1);
  EXPECT_FALSE(defines_t0(k)) << "the dead loop body survived O2:\n" << to_string(k);
  EXPECT_EQ(phi_count(k), 0);
}

// -- passes on phis -------------------------------------------------------------

/// An SSA kernel where `dup = 7` in the then-block repeats the dominating
/// `lead = 7` and the join's phi reads dup: a GVN hit that redirects a phi
/// operand. The entry block holds eight values live at once. With
/// `raise_pressure`, `near = 9` after those values also repeats `far = 9`
/// before them, a second hit that drags far's live range across the peak.
struct GvnPhiKernel {
  KB b;
  std::uint32_t lead = 0, dup = 0;
};
GvnPhiKernel make_gvn_phi_kernel(bool raise_pressure) {
  GvnPhiKernel g;
  KB& b = g.b;
  g.lead = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, g.lead).imm = 7;
  std::int64_t next_addr = 4096;
  auto store = [&](std::uint32_t value) {
    const auto addr = b.reg(VType::kI64);
    b.emit(Opcode::kMovImmI, VType::kI64, addr).imm = next_addr;
    next_addr += 4;
    b.emit(Opcode::kStGlobal, VType::kI32, kNoReg, addr, value);
  };
  auto nine_and_use = [&] {
    const auto nine = b.reg(VType::kI32);
    b.emit(Opcode::kMovImmI, VType::kI32, nine).imm = 9;
    store(nine);
  };
  if (raise_pressure) nine_and_use();  // far
  std::vector<std::uint32_t> vals;
  for (int v = 0; v < 8; ++v) {
    vals.push_back(b.reg(VType::kI32));
    b.emit(Opcode::kMovImmI, VType::kI32, vals.back()).imm = 100 + v;
  }
  std::uint32_t sum = vals[0];
  for (std::size_t v = 1; v < vals.size(); ++v) {
    const auto next = b.reg(VType::kI32);
    b.emit(Opcode::kAdd, VType::kI32, next, sum, vals[v]);
    sum = next;
  }
  if (raise_pressure) nine_and_use();  // near
  const auto p = b.reg(VType::kPred);
  const std::int32_t join = b.label();
  b.emit(Opcode::kSetLt, VType::kI32, p, sum, vals[0]);
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, p);
    br.imm = join;
    br.imm2 = join;
  }
  g.dup = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, g.dup).imm = 7;
  b.place(join);
  const auto x = b.reg(VType::kI32);
  b.k.code.push_back(make_phi(b.k, VType::kI32, x, {sum, g.dup}));
  store(x);
  b.emit(Opcode::kExit, VType::kI32);
  return g;
}

std::uint32_t phi_operand(const Kernel& k, std::size_t pos) {
  for (const Instr& in : k.code) {
    if (in.op == Opcode::kPhi) return operands_of(k, in).at(pos);
  }
  return kNoReg;
}

TEST(SsaGvn, KeptHitRedirectsPhiOperand) {
  GvnPhiKernel g = make_gvn_phi_kernel(/*raise_pressure=*/false);
  EXPECT_EQ(passes::run_gvn(g.b.k), 1);
  EXPECT_EQ(phi_operand(g.b.k, 1), g.lead);
}

TEST(SsaGvn, PressureRevertRestoresPhiOperands) {
  // The second hit raises peak pressure, so GVN reverts wholesale — and the
  // revert must restore the phi operand the first hit redirected, along
  // with the code and labels.
  GvnPhiKernel g = make_gvn_phi_kernel(/*raise_pressure=*/true);
  const std::string before = to_string(g.b.k);
  const int pressure = passes::max_live_pressure(g.b.k);
  EXPECT_EQ(passes::run_gvn(g.b.k), 0);
  EXPECT_EQ(phi_operand(g.b.k, 1), g.dup);
  EXPECT_EQ(to_string(g.b.k), before);
  EXPECT_EQ(passes::max_live_pressure(g.b.k), pressure);
}

TEST(RemoveDead, EmptiedBlockBecomesBranchToItsFallThrough) {
  // Instruction 3 is a block of its own between the cbr and the join label.
  // When it dies the block must survive as a `bra` to the join, so the join
  // keeps both predecessors.
  KB b;
  auto x = b.reg(VType::kI32);
  auto p = b.reg(VType::kPred);
  std::int32_t join = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 1;  // 0
  b.emit(Opcode::kSetGe, VType::kI32, p, x, x);       // 1
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, p);  // 2
    br.imm = join;
    br.imm2 = join;
  }
  b.emit(Opcode::kAdd, VType::kI32, x, x, x);         // 3: the doomed block
  b.place(join);
  b.emit(Opcode::kExit, VType::kI32);                 // 4

  const Cfg cfg_in = build_dominator_cfg(b.k);
  std::vector<char> dead(b.k.code.size(), 0);
  dead[3] = 1;
  EXPECT_EQ(remove_dead(b.k, dead), 1);
  const Cfg cfg_out = build_dominator_cfg(b.k);
  EXPECT_EQ(cfg_out.blocks.size(), cfg_in.blocks.size());
  EXPECT_EQ(cfg_out.preds, cfg_in.preds);
  ASSERT_EQ(b.size(), 5);
  EXPECT_EQ(b.k.code[3].op, Opcode::kBra);
  EXPECT_EQ(b.k.target(static_cast<std::int32_t>(b.k.code[3].imm)), 4);

  // Once no phi needs it, the fall-through branch goes.
  EXPECT_EQ(remove_fallthrough_branches(b.k), 1);
  EXPECT_EQ(b.size(), 4);
  EXPECT_EQ(b.k.target(join), 3);
}

}  // namespace
}  // namespace safara::vir
