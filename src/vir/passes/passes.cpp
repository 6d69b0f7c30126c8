#include "vir/passes/passes.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "vir/cfg.hpp"
#include "vir/liveness.hpp"
#include "vir/ssa.hpp"

namespace safara::vir::passes {

namespace {

std::vector<int> use_counts(const Kernel& k) {
  std::vector<int> uses(k.num_vregs(), 0);
  for (const Instr& in : k.code) {
    for_each_use(k, in, [&](std::uint32_t r) { ++uses[r]; });
  }
  return uses;
}

/// Redirects every operand to the end of its `repl` chain (kNoReg: keep).
/// A chain only ever ends at a register whose own entry was still unset,
/// so chains cannot cycle.
void apply_repl(Kernel& k, Instr& in, const std::vector<std::uint32_t>& repl) {
  for_each_use_ref(k, in, [&](std::uint32_t& r) {
    while (repl[r] != kNoReg) r = repl[r];
  });
}

}  // namespace

int max_live_pressure(const Kernel& k) {
  if (k.code.empty()) return 0;
  const LiveRanges lr = compute_live_ranges(k);
  std::vector<int> delta(k.code.size() + 1, 0);
  for (std::uint32_t r = 0; r < k.num_vregs(); ++r) {
    const int w = registers_of(k.vreg_types[r]);
    if (w == 0 || lr.start[r] < 0) continue;  // predicates live in their own file
    delta[static_cast<std::size_t>(lr.start[r])] += w;
    delta[static_cast<std::size_t>(lr.end[r]) + 1] -= w;
  }
  int cur = 0, peak = 0;
  for (int d : delta) {
    cur += d;
    peak = std::max(peak, cur);
  }
  return peak;
}

int run_copy_propagation(Kernel& k) {
  // repl[d] is the source of the deleted copy into d.
  std::vector<std::uint32_t> repl(k.num_vregs(), kNoReg);
  std::vector<char> dead(k.code.size(), 0);
  for (std::size_t i = 0; i < k.code.size(); ++i) {
    Instr& in = k.code[i];
    apply_repl(k, in, repl);
    if (in.op != Opcode::kMov || in.dst == kNoReg || in.a == kNoReg) continue;
    if (in.dst == in.a) {  // identity copy
      dead[i] = 1;
      continue;
    }
    if (k.vreg_types[in.dst] != k.vreg_types[in.a]) continue;
    repl[in.dst] = in.a;
    dead[i] = 1;
  }
  // Reads that precede their copy in code order (phi operands on back edges).
  for (Instr& in : k.code) apply_repl(k, in, repl);
  return remove_dead(k, dead);
}

namespace {

/// Everything a pure instruction's value depends on: opcode, op type, dst
/// type, operands, immediates and flags.
struct GvnKey {
  std::uint8_t op, type, dst_type, flags;
  std::uint32_t a, b, c;
  std::int64_t imm;
  std::uint64_t fimm_bits;

  bool operator==(const GvnKey&) const = default;
};

std::uint64_t gvn_hash(const GvnKey& k) {
  std::uint64_t h = (std::uint64_t(k.op) << 24) | (std::uint64_t(k.type) << 16) |
                    (std::uint64_t(k.dst_type) << 8) | k.flags;
  for (std::uint64_t v : {std::uint64_t(k.a) << 32 | k.b, std::uint64_t(k.c),
                          static_cast<std::uint64_t>(k.imm), k.fimm_bits}) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// GVN's scoped value table: open addressing with linear probing, sized once
/// for every instruction of the kernel, so a walk allocates nothing per
/// entry. Entries are only ever undone newest-first (the dominator walk
/// drops a block's entries when it leaves the block), and undoing the newest
/// insertion of a linear-probing table is just clearing its slot.
class GvnTable {
 public:
  explicit GvnTable(std::size_t entries) {
    while ((std::size_t{1} << bits_) < 2 * entries + 1) ++bits_;
    slots_.resize(std::size_t{1} << bits_);
  }

  /// The leader already recorded for `key`, or kNoReg after recording
  /// `dst` as its leader.
  std::uint32_t find_or_insert(const GvnKey& key, std::uint32_t dst) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((gvn_hash(key) * 0x9e3779b97f4a7c15ULL) >>
                                             (64 - bits_));
    for (; slots_[i].leader != kNoReg; i = (i + 1) & mask) {
      if (slots_[i].key == key) return slots_[i].leader;
    }
    slots_[i] = {key, dst};
    undo_.push_back(i);
    return kNoReg;
  }
  std::size_t mark() const { return undo_.size(); }
  void undo_to(std::size_t mark) {
    for (; undo_.size() > mark; undo_.pop_back()) slots_[undo_.back()].leader = kNoReg;
  }

 private:
  struct Slot {
    GvnKey key{};
    std::uint32_t leader = kNoReg;
  };
  int bits_ = 4;
  std::vector<Slot> slots_;
  std::vector<std::size_t> undo_;
};

GvnKey make_gvn_key(const Instr& in, const Kernel& k) {
  std::uint32_t a = in.a, b = in.b;
  // Normalize commutative operations where swapping is bit-exact: integer
  // arithmetic/compares and predicate logic. Float add/mul/min/max are
  // excluded (NaN propagation is order-sensitive).
  const bool int_ty = in.type == VType::kI32 || in.type == VType::kI64;
  const bool commutes =
      (int_ty && (in.op == Opcode::kAdd || in.op == Opcode::kMul ||
                  in.op == Opcode::kMin || in.op == Opcode::kMax ||
                  in.op == Opcode::kSetEq || in.op == Opcode::kSetNe)) ||
      in.op == Opcode::kPredAnd || in.op == Opcode::kPredOr;
  if (commutes && a != kNoReg && b != kNoReg && a > b) std::swap(a, b);
  std::uint64_t fbits = 0;
  static_assert(sizeof fbits == sizeof in.fimm);
  std::memcpy(&fbits, &in.fimm, sizeof fbits);
  return {static_cast<std::uint8_t>(in.op), static_cast<std::uint8_t>(in.type),
          static_cast<std::uint8_t>(k.vreg_types[in.dst]), in.flags, a, b, in.c, in.imm,
          fbits};
}

/// The peak live pressure of the kernel a pass sequence is working on,
/// measured on demand and at most once per kernel state. A pass that changes
/// the kernel records the new state's pressure if it measured it (GVN and
/// scheduling must) and otherwise clears it.
struct PressureMemo {
  int known = -1;  // peak pressure of the current kernel; -1: not measured
  int evals = 0;   // max_live_pressure calls made

  int measure(const Kernel& k) {
    ++evals;
    return max_live_pressure(k);
  }
  int of(const Kernel& k) {
    if (known < 0) known = measure(k);
    return known;
  }
};

int gvn(Kernel& k, PressureMemo& pressure) {
  if (k.code.empty()) return 0;
  const Cfg cfg = build_dominator_cfg(k);

  // repl[r] is the dominating leader that replaces the deleted def of r.
  std::vector<std::uint32_t> repl(k.num_vregs(), kNoReg);
  int hits = 0;
  std::vector<char> dead(k.code.size(), 0);
  // One scoped table over a preorder walk of the dominator tree: a block's
  // entries stay visible to the blocks it dominates and are undone when the
  // walk leaves it, so a hit always has a dominating def. The walk reads
  // operands through `repl` without writing them back, so a walk without
  // hits leaves the kernel untouched.
  GvnTable table(k.code.size());
  std::vector<std::size_t> undo_mark(cfg.blocks.size(), 0);
  std::vector<std::pair<std::int32_t, bool>> stack = {{0, false}};  // (block, leaving)
  while (!stack.empty()) {
    const auto [b, leaving] = stack.back();
    stack.pop_back();
    const std::size_t bi = static_cast<std::size_t>(b);
    if (leaving) {
      table.undo_to(undo_mark[bi]);
      continue;
    }
    undo_mark[bi] = table.mark();
    for (std::int32_t i = cfg.blocks[bi].begin; i < cfg.blocks[bi].end; ++i) {
      Instr in = k.code[static_cast<std::size_t>(i)];
      // Phis are pure but their value depends on the edge taken, not on
      // their operand tuple — never number them. (Skipping them first also
      // keeps apply_repl, which rewrites a phi's operands in place, off them.)
      if (in.op == Opcode::kPhi) continue;
      if (!is_pure(in.op) || !has_dst(in.op) || in.dst == kNoReg) continue;
      apply_repl(k, in, repl);
      const std::uint32_t leader = table.find_or_insert(make_gvn_key(in, k), in.dst);
      if (leader != kNoReg) {
        repl[in.dst] = leader;
        dead[static_cast<std::size_t>(i)] = 1;
        ++hits;
      }
    }
    stack.push_back({b, true});
    for (std::int32_t child : cfg.dom_children[bi]) stack.push_back({child, false});
  }

  if (hits == 0) return 0;
  const int pressure_before = pressure.of(k);
  // Redirecting operands and deleting touch only the code, the labels and
  // the phi operands.
  std::vector<Instr> code_before = k.code;
  std::vector<std::int32_t> labels_before = k.labels;
  std::vector<std::uint32_t> phi_operands_before = k.phi_operands;
  // Every use is redirected here, including those the walk reached before
  // their leader's hit (phi operands on back edges, blocks outside the
  // dominator tree).
  for (Instr& in : k.code) apply_repl(k, in, repl);
  remove_dead(k, dead);
  // Merging computations can lengthen the surviving value's live range (an
  // immediate re-materialized per block is cheaper than one register pinned
  // across the loop). The pipeline's contract is pressure-monotone, so any
  // net loss reverts the whole pass.
  const int pressure_after = pressure.measure(k);
  if (pressure_after > pressure_before) {
    k.code = std::move(code_before);
    k.labels = std::move(labels_before);
    k.phi_operands = std::move(phi_operands_before);
    return 0;
  }
  pressure.known = pressure_after;
  return hits;
}

}  // namespace

int run_gvn(Kernel& k) {
  PressureMemo pressure;
  return gvn(k, pressure);
}

int run_dce(Kernel& k) {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<int> uses = use_counts(k);
    std::vector<char> dead(k.code.size(), 0);
    for (std::size_t i = 0; i < k.code.size(); ++i) {
      const Instr& in = k.code[i];
      // Stores, atomics, branches, and exit have no dst and are never
      // candidates. Global loads are side-effect-free in this machine model,
      // so a load nobody reads is dead too.
      if (!has_dst(in.op)) continue;
      if (!is_pure(in.op) && in.op != Opcode::kLdGlobal) continue;
      if (in.dst != kNoReg && uses[in.dst] > 0) continue;
      dead[i] = 1;
      changed = true;
    }
    if (changed) removed += remove_dead(k, dead);
  }
  return removed;
}

int run_strength_reduction(Kernel& k) {
  std::vector<std::int32_t> def_pos(k.num_vregs(), -1);
  for (std::size_t i = 0; i < k.code.size(); ++i) {
    const Instr& in = k.code[i];
    if (has_dst(in.op) && in.dst != kNoReg) def_pos[in.dst] = static_cast<std::int32_t>(i);
  }
  // The literal integer value of `r` at instruction `at`, if known.
  auto const_of = [&](std::uint32_t r, std::int32_t at, std::int64_t& out) {
    if (r == kNoReg) return false;
    const std::int32_t d = def_pos[r];
    if (d < 0 || d >= at) return false;
    const Instr& din = k.code[static_cast<std::size_t>(d)];
    if (din.op != Opcode::kMovImmI) return false;
    out = din.imm;
    return true;
  };
  auto to_mov = [](Instr& in, std::uint32_t src) {
    in.op = Opcode::kMov;
    in.a = src;
    in.b = kNoReg;
    in.c = kNoReg;
    in.imm = 0;
  };
  auto to_imm = [](Instr& in, std::int64_t value) {
    in.op = Opcode::kMovImmI;
    in.a = kNoReg;
    in.b = kNoReg;
    in.c = kNoReg;
    in.imm = value;
  };

  int reduced = 0;
  for (std::size_t idx = 0; idx < k.code.size(); ++idx) {
    Instr& in = k.code[idx];
    // Integer identities only: the float analogues (x*1.0, x+0.0) are not
    // bit-exact under -0.0 and NaN, and bit-exactness is the fuzz oracle's
    // contract.
    if (in.type != VType::kI32 && in.type != VType::kI64) continue;
    const std::int32_t at = static_cast<std::int32_t>(idx);
    std::int64_t ca = 0, cb = 0;
    const bool has_ca = const_of(in.a, at, ca);
    const bool has_cb = const_of(in.b, at, cb);
    switch (in.op) {
      case Opcode::kMul:
        // Check the annihilator first so `0 * 2` folds straight to 0; the
        // weaker rewrites below can then never re-fire on their own output.
        if ((has_ca && ca == 0) || (has_cb && cb == 0)) {
          to_imm(in, 0);
          ++reduced;
        } else if (has_cb && (cb == 1 || cb == 2 || cb == -1)) {
          if (cb == 1) to_mov(in, in.a);
          else if (cb == -1) {
            in.op = Opcode::kNeg;
            in.b = kNoReg;
          } else {  // x*2 -> x+x: one ALU add beats the wide-multiply path
            in.op = Opcode::kAdd;
            in.b = in.a;
          }
          ++reduced;
        } else if (has_ca && (ca == 1 || ca == 2 || ca == -1)) {
          if (ca == 1) to_mov(in, in.b);
          else if (ca == -1) {
            in.op = Opcode::kNeg;
            in.a = in.b;
            in.b = kNoReg;
          } else {
            in.op = Opcode::kAdd;
            in.a = in.b;
          }
          ++reduced;
        }
        break;
      case Opcode::kAdd:
        if (has_cb && cb == 0) {
          to_mov(in, in.a);
          ++reduced;
        } else if (has_ca && ca == 0) {
          to_mov(in, in.b);
          ++reduced;
        }
        break;
      case Opcode::kSub:
        if (has_cb && cb == 0) {
          to_mov(in, in.a);
          ++reduced;
        }
        break;
      case Opcode::kDiv:
        if (has_cb && cb == 1) {
          to_mov(in, in.a);
          ++reduced;
        }
        break;
      case Opcode::kRem:
        if (has_cb && cb == 1) {
          to_imm(in, 0);
          ++reduced;
        }
        break;
      default:
        break;
    }
  }
  return reduced;
}

namespace {

int pressure_scheduling(Kernel& k, PressureMemo& pressure) {
  if (k.code.empty()) return 0;
  const std::vector<BasicBlock> blocks = build_label_blocks(k);

  // The kernel is untouched until the first move, so that is where its
  // pressure is read and its code saved (moves touch nothing else).
  int moves = 0, pressure_before = 0;
  std::vector<Instr> code_before;
  for (const BasicBlock& bb : blocks) {
    // Bottom-up so a sunk producer's consumer has already reached its final
    // slot; sinking moves instructions later only, which keeps the positions
    // below the cursor stable.
    for (std::int32_t i = bb.end - 2; i >= bb.begin; --i) {
      const Instr in = k.code[i];
      // Phis must stay contiguous at their block head.
      if (in.op == Opcode::kPhi) continue;
      if (!is_pure(in.op) || !has_dst(in.op) || in.dst == kNoReg) continue;
      std::int32_t first_use = -1;
      for (std::int32_t p = i + 1; p < bb.end && first_use < 0; ++p) {
        for_each_use(k, k.code[p], [&](std::uint32_t r) {
          if (r == in.dst) first_use = p;
        });
      }
      if (first_use <= i + 1) continue;  // already adjacent, or no in-block use
      if (moves++ == 0) {
        pressure_before = pressure.of(k);
        code_before = k.code;
      }
      std::rotate(k.code.begin() + i, k.code.begin() + i + 1,
                  k.code.begin() + first_use);
    }
  }

  if (moves == 0) return 0;
  // Strict gate: adjacency between a producer and its consumer costs issue
  // stalls in the scoreboarded SM model, so reordering is only worth keeping
  // when it actually lowers the peak — pressure-neutral shuffles revert.
  const int pressure_after = pressure.measure(k);
  if (pressure_after >= pressure_before) {
    k.code = std::move(code_before);
    return 0;
  }
  pressure.known = pressure_after;
  return moves;
}

}  // namespace

int run_pressure_scheduling(Kernel& k) {
  PressureMemo pressure;
  return pressure_scheduling(k, pressure);
}

namespace {

enum PassId { kCopyProp, kDce, kStrength, kGvn, kSched, kNumPasses };

/// The passes of one pipeline region and what the region knows about the
/// kernel states it has produced. Every pass is a deterministic function of
/// the kernel, so a pass that found nothing to do on one state finds nothing
/// again on the same state — a GVN or scheduling result reverted for raising
/// pressure included. The region numbers the states (`version` advances
/// whenever a pass changes the kernel) and skips those reruns, which makes
/// the fixpoint's confirming round and every pressure-reverted retry free.
struct Region {
  explicit Region(Kernel& kernel) : k(kernel) {}

  Kernel& k;
  PressureMemo pressure;
  int version = 0;
  // Per pass, the state it last found nothing to do on (-1: none yet).
  std::array<int, kNumPasses> idle_at{-1, -1, -1, -1, -1};

  int run(PassId id) {
    if (idle_at[id] == version) return 0;
    int work = 0;
    switch (id) {
      case kCopyProp: work = run_copy_propagation(k); break;
      case kDce: work = run_dce(k); break;
      case kStrength: work = run_strength_reduction(k); break;
      case kGvn: work = gvn(k, pressure); break;
      case kSched: work = pressure_scheduling(k, pressure); break;
      case kNumPasses: break;
    }
    if (work == 0) {
      idle_at[id] = version;
      return 0;
    }
    ++version;
    if (id != kGvn && id != kSched) pressure.known = -1;
    return work;
  }
};

}  // namespace

PassStats run_pipeline(Kernel& k, int opt_level) {
  PassStats s;
  s.pressure_before = max_live_pressure(k);
  s.pressure_after = s.pressure_before;
  s.liveness_evals = 1;
  if (opt_level <= 0) return s;

  // One SSA region: construct once, run the passes inside SSA form until a
  // round changes nothing, destruct once, then keep the result only if the
  // passes did counted work, strictly shrank the kernel and did not raise
  // peak pressure; otherwise revert to the one snapshot. Re-running the
  // pipeline on its own output finds no work and reverts
  // (VirPasses.PipelineIsAFixpoint pins this on every workload).
  Kernel snapshot = k;
  const ssa::ConstructStats cs = ssa::construct(k);
  s.phi_count = cs.phis;
  Region region{k};

  PassStats w;
  for (int round_start = -1; round_start != region.version;) {
    round_start = region.version;
    ++s.ssa_rounds;
    w.copyprop_removed += region.run(kCopyProp);
    w.dce_removed += region.run(kDce);
    if (opt_level >= 2) {
      w.strength_reduced += region.run(kStrength);
      // Strength reduction mints movs; fold them before value numbering so
      // GVN sees canonical operands.
      w.copyprop_removed += region.run(kCopyProp);
      w.gvn_hits += region.run(kGvn);
      w.dce_removed += region.run(kDce);
      w.sched_moves += region.run(kSched);
    }
  }
  s.liveness_evals += region.pressure.evals;

  bool keep = region.version > 0;  // any counted work at all
  ssa::DestructStats ds;
  if (keep) {
    ds = ssa::destruct(k);
    s.ssa_destruct_reverts = ds.ok ? 0 : 1;
    keep = ds.ok;
  }
  if (keep) {
    // With the phis gone, the branches that kept emptied blocks alive are
    // plain fall-throughs.
    remove_fallthrough_branches(k);
    keep = k.code.size() < snapshot.code.size();
  }
  if (keep) {
    ++s.liveness_evals;
    s.pressure_after = max_live_pressure(k);
    keep = s.pressure_after <= s.pressure_before;
  }
  if (!keep) {
    k = std::move(snapshot);
    s.pressure_after = s.pressure_before;
    return s;
  }
  s.copyprop_removed = w.copyprop_removed;
  s.gvn_hits = w.gvn_hits;
  s.dce_removed = w.dce_removed;
  s.strength_reduced = w.strength_reduced;
  s.sched_moves = w.sched_moves;
  s.ssa_copies_folded = cs.copies_folded;
  s.phi_copies_coalesced = ds.coalesced;
  return s;
}

}  // namespace safara::vir::passes
