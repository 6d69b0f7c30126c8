// Machine-independent VIR optimizer pipeline, run between codegen and the
// ptxas-sim register allocator. The passes exist to cut register pressure —
// the quantity the paper's whole feedback loop is built around — not to
// minimize instruction count for its own sake.
//
// Every pass requires its input in SSA form (src/vir/ssa.hpp): each vreg has
// at most one definition, and a vreg with none is never written and reads
// zero. Codegen materializes variables and loop induction values as
// multi-def "mutable slots", so `run_pipeline` converts the kernel to SSA
// first and destroys the phis again before it returns — no consumer outside
// this file ever observes `Opcode::kPhi`. A standalone pass run on raw
// codegen output is unsound. See docs/PASSES.md for each pass's legality
// argument.
#pragma once

#include "vir/vir.hpp"

namespace safara::vir::passes {

/// Per-kernel pipeline bookkeeping, surfaced as `vir.*` metrics and stamped
/// on bench rows.
struct PassStats {
  int copyprop_removed = 0;   // mov instructions deleted by copy propagation
  int gvn_hits = 0;           // redundant pure instructions deleted by GVN
  int dce_removed = 0;        // dead instructions deleted
  int strength_reduced = 0;   // mul/div/rem-by-constant rewrites
  int sched_moves = 0;        // pure ops sunk toward their first use
  int pressure_before = 0;    // peak live 32-bit register units pre-pipeline
  int pressure_after = 0;     // ... and post-pipeline
  // Region bookkeeping. These are not "optimization work": the pipeline's
  // keep-or-revert decision is made over the five counters above.
  int phi_count = 0;            // phis placed by SSA construction
  int ssa_destruct_reverts = 0; // 1 when SSA destruction failed and the
                                // region was reverted
  int ssa_copies_folded = 0;    // movs folded into SSA renaming (kept region)
  int phi_copies_coalesced = 0; // phi-elimination copies coalesced (kept region)
  int ssa_rounds = 0;           // fixpoint rounds run inside the region; the
                                // last one found no work
  int liveness_evals = 0;       // max_live_pressure computations, the
                                // pipeline's main compile-time cost
};

/// Peak number of simultaneously live 32-bit register units (predicates are
/// free, 64-bit values count twice) over the hole-free live ranges of
/// compute_live_ranges, the ranges linear scan allocates. This is the
/// quantity the pipeline promises never to increase.
int max_live_pressure(const Kernel& k);

/// Forward-propagates `mov dst, src` through all uses of `dst` (same type),
/// then deletes the dead movs. Returns the number of
/// instructions removed.
int run_copy_propagation(Kernel& k);

/// Dominator-based global value numbering over the structured block list:
/// a pure instruction whose (opcode, type, operands, immediates) value was
/// already computed by a dominating instruction is deleted and its uses
/// redirected. One scoped hash table and one redirect vector keep it linear
/// in the kernel size. Codegen does no value numbering of its own, so this
/// is the only pass that merges redundant pure code. Reverted wholesale if
/// peak pressure would grow (merging immediates across blocks can lengthen
/// live ranges). Returns hits.
int run_gvn(Kernel& k);

/// Deletes pure instructions (and side-effect-free global loads) whose
/// destination has no remaining uses, iterating to a fixpoint. Never touches
/// stores, atomics, branches, or exit. Returns instructions removed.
int run_dce(Kernel& k);

/// Integer-only strength reduction of operations against literal constants
/// (x*0, x*1, x*2, x*-1, x+0, x-0, x/1, x%1). Float identities are excluded:
/// they are not bit-exact under -0.0/NaN. Returns rewrites performed.
int run_strength_reduction(Kernel& k);

/// Sethi–Ullman-flavoured pressure scheduling: independent pure ops sink within their basic block to just before their first use, which
/// shortens their live range before linear scan. Reverted wholesale if peak
/// pressure would grow. Returns instructions moved.
int run_pressure_scheduling(Kernel& k);

/// The pipeline behind --opt-level:
///   0: nothing (codegen's output as emitted)
///   1: copy propagation + DCE
///   2: + strength reduction, GVN, pressure scheduling
/// At level >= 1 the kernel is one SSA region: SSA construction, the passes
/// repeated until a round finds no work, SSA destruction, and one check —
/// the result is kept only if the passes did counted work, strictly shrank
/// the kernel and did not raise peak pressure; otherwise the whole region is
/// reverted. Deletions keep emptied blocks as fall-through `bra`s while phis
/// exist; a kept region drops them after SSA destruction.
PassStats run_pipeline(Kernel& k, int opt_level);

}  // namespace safara::vir::passes
