// VIR: the virtual PTX-like ISA the compiler targets.
//
// Like PTX, VIR has an unbounded virtual register file; hardware register
// counts are only known after the ptxas-sim allocator (src/regalloc) runs.
// Control flow is structured-by-construction: every conditional branch
// carries the reconvergence label the SIMT interpreter uses for divergence.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "support/source_location.hpp"

namespace safara::vir {

enum class VType : std::uint8_t { kI32, kI64, kF32, kF64, kPred };

constexpr int size_of(VType t) {
  switch (t) {
    case VType::kI32:
    case VType::kF32: return 4;
    case VType::kI64:
    case VType::kF64: return 8;
    case VType::kPred: return 1;
  }
  return 0;
}
/// 32-bit hardware registers needed to hold one value of this type.
/// Predicates live in a separate predicate file (as on NVIDIA hardware) and
/// cost no general-purpose registers.
constexpr int registers_of(VType t) {
  switch (t) {
    case VType::kI32:
    case VType::kF32: return 1;
    case VType::kI64:
    case VType::kF64: return 2;
    case VType::kPred: return 0;
  }
  return 0;
}
const char* to_string(VType t);

enum class Opcode : std::uint8_t {
  kMovImmI,  // dst <- imm
  kMovImmF,  // dst <- fimm
  kMov,      // dst <- a
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRem,
  kMin,
  kMax,
  kNeg,
  kAbs,
  kSetLt,  // dst(pred) <- a < b
  kSetLe,
  kSetGt,
  kSetGe,
  kSetEq,
  kSetNe,
  kPredAnd,  // dst(pred) <- a && b
  kPredOr,
  kPredNot,
  kSelp,  // dst <- c(pred) ? a : b
  kCvt,   // dst(type) <- convert(a)
  // Special function unit ops.
  kSqrt,
  kRsqrt,
  kExp,
  kLog,
  kSin,
  kCos,
  kPow,  // a^b
  kFloor,
  kCeil,
  // Memory.
  kLdParam,   // dst <- param[imm]
  kLdGlobal,  // dst <- mem[a]; flags&kFlagReadOnly selects the RO-cache path
  kStGlobal,  // mem[a] <- b
  kAtomAdd,   // mem[a] <- mem[a] + b (atomic)
  kMovSpecial,  // dst <- special register (imm = SpecialReg)
  // Control flow.
  kBra,   // goto label imm
  kCbr,   // if a(pred) goto label imm, else fall through; reconverge at imm2
  /// SSA phi: dst <- value of the operand matching the predecessor edge the
  /// block was entered from. Any number of operands, one per predecessor
  /// block in ascending block order, stored in Kernel::phi_operands (see
  /// make_phi). Exists only inside the pass pipeline, between SSA
  /// construction and destruction — codegen never emits it and the simulator
  /// and allocator never see it.
  kPhi,
  kExit,
};

const char* to_string(Opcode op);

/// No side effects, no memory reads.
constexpr bool is_pure(Opcode op) {
  switch (op) {
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal:
    case Opcode::kAtomAdd:
    case Opcode::kBra:
    case Opcode::kCbr:
    case Opcode::kExit: return false;
    default: return true;
  }
}

/// Special-function-unit instruction.
constexpr bool is_sfu(Opcode op) {
  switch (op) {
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
    case Opcode::kExp:
    case Opcode::kLog:
    case Opcode::kSin:
    case Opcode::kCos:
    case Opcode::kPow:
    case Opcode::kFloor:
    case Opcode::kCeil: return true;
    default: return false;
  }
}

constexpr bool has_dst(Opcode op) {
  switch (op) {
    case Opcode::kStGlobal:
    case Opcode::kAtomAdd:
    case Opcode::kBra:
    case Opcode::kCbr:
    case Opcode::kExit: return false;
    default: return true;
  }
}

enum class SpecialReg : std::uint8_t {
  kTidX, kTidY, kTidZ,
  kCtaidX, kCtaidY, kCtaidZ,
  kNtidX, kNtidY, kNtidZ,
  kNctaidX, kNctaidY, kNctaidZ,
};
const char* to_string(SpecialReg r);

constexpr std::uint32_t kNoReg = std::numeric_limits<std::uint32_t>::max();
constexpr std::int32_t kNoLabel = -1;

struct Instr {
  Opcode op = Opcode::kExit;
  VType type = VType::kI32;  // operation type (result type for kCvt)
  std::uint32_t dst = kNoReg;
  std::uint32_t a = kNoReg;
  std::uint32_t b = kNoReg;
  std::uint32_t c = kNoReg;      // kSelp predicate
  /// Immediate / param index / branch label; for kPhi, the index of its
  /// first operand in Kernel::phi_operands.
  std::int64_t imm = 0;
  double fimm = 0.0;             // float immediate
  /// Reconvergence label for kCbr; for kPhi, the operand count.
  std::int32_t imm2 = kNoLabel;
  std::uint8_t flags = 0;
  /// Source line/column this instruction was lowered from. Codegen stamps
  /// every emitted instruction (synthesized instructions inherit the
  /// enclosing statement's location); passes move/rewrite whole Instrs and
  /// so preserve it. The simulator's per-pc attribution rolls cycles up to
  /// source lines through this field.
  SourceLoc loc;

  static constexpr std::uint8_t kFlagReadOnly = 1;  // kLdGlobal via RO cache
};

/// What a kernel formal parameter carries; the host runtime assembles the
/// actual parameter buffer from these descriptors at launch time.
struct ParamInfo {
  enum class Kind : std::uint8_t {
    kArrayBase,  // device address of array `name`
    kScalar,     // scalar argument `name`
    kDopeLb,     // lower bound of dimension `dim` of array `name`
    kDopeLen,    // extent of dimension `dim` of array `name`
  };
  Kind kind = Kind::kScalar;
  std::string name;  // array or scalar name
  int dim = 0;       // for kDopeLb / kDopeLen
  VType type = VType::kI64;
};

struct Kernel {
  std::string name;
  std::vector<VType> vreg_types;
  /// Parallel to vreg_types: the source variable/array each vreg was minted
  /// for ("" for compiler temporaries). Feeds the regalloc live-range
  /// provenance and `safcc --annotate`.
  std::vector<std::string> vreg_names;
  std::vector<Instr> code;
  /// label id -> instruction index (the label precedes that instruction).
  std::vector<std::int32_t> labels;
  std::vector<ParamInfo> params;
  /// Operand storage of every kPhi (non-empty only between SSA construction
  /// and destruction). Appended to by make_phi, read and rewritten only
  /// through for_each_use and for_each_use_ref; entries of deleted phis stay
  /// until destruction clears the list.
  std::vector<std::uint32_t> phi_operands;

  std::uint32_t num_vregs() const {
    return static_cast<std::uint32_t>(vreg_types.size());
  }
  /// Instruction index a label refers to.
  std::int32_t target(std::int32_t label) const { return labels[static_cast<std::size_t>(label)]; }
};

// A phi's operands are the slice [imm, imm + imm2) of Kernel::phi_operands.
// make_phi and detail::visit_uses are the only code that knows this layout.

/// A phi writing `dst` with one operand per predecessor block, in ascending
/// block order. Its operands are appended to `k.phi_operands`.
inline Instr make_phi(Kernel& k, VType type, std::uint32_t dst,
                      const std::vector<std::uint32_t>& operands) {
  Instr phi;
  phi.op = Opcode::kPhi;
  phi.type = type;
  phi.dst = dst;
  phi.imm = static_cast<std::int64_t>(k.phi_operands.size());
  phi.imm2 = static_cast<std::int32_t>(operands.size());
  k.phi_operands.insert(k.phi_operands.end(), operands.begin(), operands.end());
  return phi;
}

namespace detail {
/// The one reader of the operand layout: a, b, c, or a phi's operands.
template <typename KernelT, typename InstrT, typename Fn>
void visit_uses(KernelT& k, InstrT& in, Fn& fn) {
  if (in.op == Opcode::kPhi) {
    const std::size_t first = static_cast<std::size_t>(in.imm);
    const std::size_t last = first + static_cast<std::size_t>(in.imm2);
    for (std::size_t i = first; i < last; ++i) fn(k.phi_operands[i]);
    return;
  }
  if (in.a != kNoReg) fn(in.a);
  if (in.b != kNoReg) fn(in.b);
  if (in.c != kNoReg) fn(in.c);
}
}  // namespace detail

/// Invokes `fn(vreg)` for every register the instruction reads: a, b, c, or
/// a phi's operands in predecessor order.
template <typename Fn>
void for_each_use(const Kernel& k, const Instr& in, Fn&& fn) {
  detail::visit_uses(k, in, fn);
}

/// for_each_use, handing `fn` each operand by reference so it can rewrite
/// it. A phi's operands live in `k`, so rewriting through a copy of a phi
/// rewrites the original's.
template <typename Fn>
void for_each_use_ref(Kernel& k, Instr& in, Fn&& fn) {
  detail::visit_uses(k, in, fn);
}

/// Disassembles to PTX-flavoured text for tests and debugging.
std::string to_string(const Instr& in, const Kernel& k);
std::string to_string(const Kernel& k);

}  // namespace safara::vir
