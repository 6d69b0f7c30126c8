// Dominator-annotated CFG over VIR kernels, shared by GVN and the SSA
// construction/destruction passes.
//
// The block partition follows the pass pipeline's convention (every label
// position is a leader, so reconvergence labels are block boundaries), which
// is stricter than liveness.cpp's branch-only partition. That matters for
// SSA: phis are placed at label-led joins and the SIMT interpreter can
// transfer control to any label, so labels must start blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "vir/liveness.hpp"
#include "vir/vir.hpp"

namespace safara::vir {

struct Cfg {
  std::vector<BasicBlock> blocks;
  /// Per block: predecessor block indices, ascending, deduplicated.
  std::vector<std::vector<std::int32_t>> preds;
  /// Per block: reachable from the entry block.
  std::vector<char> reachable;
  /// Immediate dominator block index (-1 for the entry and unreachable
  /// blocks).
  std::vector<std::int32_t> idom;
  /// Dominator-tree children, ascending.
  std::vector<std::vector<std::int32_t>> dom_children;
  /// Dominance frontier per block, ascending.
  std::vector<std::vector<std::int32_t>> dom_frontier;
  /// Instruction index -> block index.
  std::vector<std::int32_t> block_of;
};

/// The pass pipeline's block partition: like liveness.cpp's build_cfg, but
/// every label position is also a block leader, so no instruction range
/// spans a point the SIMT interpreter can transfer control to. Blocks are
/// never empty; `succs` is left unfilled.
std::vector<BasicBlock> build_label_blocks(const Kernel& k);

/// Builds blocks (build_label_blocks), predecessor lists, reachability, the
/// dominator tree (iterative bitset dataflow — the CFGs are tiny), and
/// dominance frontiers.
Cfg build_dominator_cfg(const Kernel& k);

/// Per-block liveness bitsets over an arbitrary block partition: the one
/// backward dataflow behind compute_live_ranges (linear scan, peak pressure),
/// SSA pruning and the coloring allocator.
struct BlockLiveness {
  std::size_t words = 0;  // 64-bit words per bitset
  /// Block b's live-in (live-out) set is words [b * words, (b + 1) * words).
  std::vector<std::uint64_t> live_in_bits;
  std::vector<std::uint64_t> live_out_bits;

  const std::uint64_t* live_in(std::size_t block) const {
    return live_in_bits.data() + block * words;
  }
  const std::uint64_t* live_out(std::size_t block) const {
    return live_out_bits.data() + block * words;
  }
  bool live_in_at(std::size_t block, std::uint32_t vreg) const {
    return (live_in(block)[vreg / 64] >> (vreg % 64)) & 1;
  }
  bool live_out_at(std::size_t block, std::uint32_t vreg) const {
    return (live_out(block)[vreg / 64] >> (vreg % 64)) & 1;
  }
};

/// Deletes the instructions marked in `dead` without changing the CFG: a
/// block whose every instruction is dead keeps its last slot as a `bra` to
/// the block it fell through to, so block count, edges and every phi's
/// predecessor list survive. Labels on deleted instructions move to the next
/// survivor. Returns the number of instructions marked dead.
int remove_dead(Kernel& k, const std::vector<char>& dead);

/// Deletes every `bra` whose target is the next instruction — the leftovers
/// of remove_dead once no phi depends on the block structure any more.
/// Returns instructions removed.
int remove_fallthrough_branches(Kernel& k);

BlockLiveness compute_block_liveness(const Kernel& k,
                                     const std::vector<BasicBlock>& blocks);

}  // namespace safara::vir
