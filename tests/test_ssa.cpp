// Tests for the dominator CFG module and the SSA construction/destruction
// pair the pass pipeline wraps around its optimizers: phi placement at
// loop-header joins, pruning, copy folding into the rename, the bail-out
// paths that leave a kernel untouched, and the pipeline-level contract that
// no kPhi ever escapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

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
  EXPECT_TRUE(stats.converted);
  EXPECT_GE(stats.phis, 1);
  EXPECT_EQ(phi_count(b.k), stats.phis);
  // The phi sits at the head of the loop-header block and carries two
  // operands (entry and latch values).
  const Cfg cfg = build_dominator_cfg(b.k);
  bool found = false;
  for (const Instr& in : b.k.code) {
    if (in.op != Opcode::kPhi) continue;
    found = true;
    EXPECT_NE(in.a, kNoReg);
    EXPECT_NE(in.b, kNoReg);
    EXPECT_EQ(in.c, kNoReg);
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
  EXPECT_TRUE(stats.converted);
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
  EXPECT_TRUE(stats.converted);
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

TEST(SsaConstruct, EntryBlockWithPredecessorsBails) {
  // The loop rolls back to instruction 0: a phi there would need an operand
  // for the implicit function-entry edge, which does not exist. The kernel
  // must be left byte-identical.
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

  const Kernel snapshot = b.k;
  ssa::ConstructStats stats = ssa::construct(b.k);
  EXPECT_FALSE(stats.converted);
  EXPECT_EQ(to_string(b.k), to_string(snapshot));

  // The pipeline counts the bailout instead of failing silently.
  Kernel k = snapshot;
  EXPECT_EQ(passes::run_pipeline(k, 2).ssa_bailouts, 1);
}

TEST(SsaConstruct, JoinWiderThanThreePredecessorsBails) {
  // Four edges into one label: a VIR phi carries at most three operands, so
  // construction must refuse and leave the kernel untouched.
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

  const Kernel snapshot = b.k;
  ssa::ConstructStats stats = ssa::construct(b.k);
  EXPECT_FALSE(stats.converted);
  EXPECT_EQ(to_string(b.k), to_string(snapshot));

  // The pipeline counts the bailout instead of failing silently.
  Kernel k = snapshot;
  EXPECT_EQ(passes::run_pipeline(k, 2).ssa_bailouts, 1);
}

// -- SSA destruction -----------------------------------------------------------

TEST(SsaDestruct, RoundTripLeavesNoPhisAndValidLabels) {
  KB b = make_loop_kernel();
  ssa::ConstructStats cs = ssa::construct(b.k);
  ASSERT_TRUE(cs.converted);
  ASSERT_GE(phi_count(b.k), 1);

  ssa::DestructStats ds = ssa::destruct(b.k);
  EXPECT_TRUE(ds.ok);
  EXPECT_EQ(phi_count(b.k), 0);
  EXPECT_GE(ds.copies_inserted, 1);
  // Labels still point at instructions (or one past the end) and every
  // branch target resolves.
  for (std::int32_t l : b.k.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LE(l, b.size());
  }
  for (const Instr& in : b.k.code) {
    if (in.op == Opcode::kBra || in.op == Opcode::kCbr) {
      const std::int32_t t = b.k.target(static_cast<std::int32_t>(in.imm));
      EXPECT_GE(t, 0);
      EXPECT_LE(t, b.size());
    }
  }
  // Destruction compacts vregs densely: every vreg below num_vregs is
  // actually referenced.
  std::vector<bool> seen(b.k.num_vregs(), false);
  for (const Instr& in : b.k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) seen[in.dst] = true;
    for_each_use(in, [&](std::uint32_t r) { seen[r] = true; });
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
  EXPECT_EQ(stats.ssa_bailouts, 0);
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

}  // namespace
}  // namespace safara::vir
