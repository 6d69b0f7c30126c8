// SSA construction and destruction for the VIR pass pipeline.
//
// Codegen emits multi-def "mutable slots" for source variables and loop
// induction values. `construct` renames those slots into SSA (pruned phi
// placement on the dominance frontier, a fresh vreg per def), which is the
// form every optimizer pass requires. Phis are n-ary: one operand per
// predecessor, however many a join has. `destruct` lowers the phis back to
// moves before register allocation — nothing outside the pipeline ever sees
// an `Opcode::kPhi`.
#pragma once

#include "vir/vir.hpp"

namespace safara::vir::ssa {

struct ConstructStats {
  /// Phi instructions placed (pruned: only where a multi-def slot is live-in
  /// at a join).
  int phis = 0;
  /// `mov` copies of slots folded directly into the renaming.
  int copies_folded = 0;
};

/// Rewrites `k` into SSA form in place. Every def of a multi-def vreg mints a
/// fresh vreg (inheriting the slot's `vreg_names` entry); the original vreg
/// is never written afterwards, so a use reached by no definition keeps the
/// original (zero-initialized) register — preserving the seed semantics for
/// undef paths. A phi has one operand per predecessor block, ordered by
/// ascending block index (vir::make_phi). Provenance: phis take the source
/// location of their block head.
///
/// Precondition: no branch targets the entry block. Its implicit
/// function-entry edge has no operand, so a phi there could not represent
/// it; a violating kernel throws std::logic_error. Codegen never emits one:
/// every kernel reads special registers or initializes its loop before its
/// first label.
ConstructStats construct(Kernel& k);

struct DestructStats {
  /// Parallel-copy moves materialized at predecessor block ends.
  int copies_inserted = 0;
  /// Destruction copies merged away again by interference-checked
  /// coalescing (includes copies that became self-moves).
  int coalesced = 0;
  /// False when the CFG no longer matches the phis' operand lists (a pass
  /// moved a phi off its block head or changed a join's predecessors); the
  /// caller must revert the kernel to its pre-SSA snapshot. Passes delete
  /// through vir::remove_dead, which keeps emptied blocks, so this is a
  /// safety net that `vir.ssa_destruct_reverts` counts.
  bool ok = true;
};

/// Eliminates all phis: for each phi `d = phi(x_p...)` a fresh temp `t` is
/// written at the end of every predecessor (`mov t, x_p` before the
/// terminator) and the phi becomes `mov d, t` in place — the two-copy scheme
/// that is immune to the lost-copy and swap problems without splitting
/// edges. The minted copies are then coalesced where live ranges permit, and
/// vregs are renumbered densely by first appearance.
DestructStats destruct(Kernel& k);

}  // namespace safara::vir::ssa
