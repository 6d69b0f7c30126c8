// Code generation: lowers one offload region (a sema-validated loop nest with
// OpenACC directives) to a VIR kernel plus a host-side launch plan.
//
// Lowering highlights (mirrors the OpenUH pipeline of the paper):
//  * scheduled (gang/vector) loops become grid-stride loops over up to three
//    hardware dimensions; the innermost scheduled loop maps to x;
//  * seq loops stay as real loops inside the kernel;
//  * array references lower to dope-vector offset arithmetic; allocatable
//    arrays read their per-array (lb, len) dope entries from kernel
//    parameters — unless the `dim` clause (when honored) merges a group onto
//    one dope set or supplies explicit bounds;
//  * the `small` clause (when honored) switches an array's offset arithmetic
//    from i64 to i32, halving the register cost of every offset temporary;
//  * loop-invariant pure computations (notably offset chains) are hoisted to
//    the preheader of the outermost loop their operands allow. Codegen does
//    no value numbering: every expression is emitted as written, and VIR
//    GVN (src/vir/passes) is the one pass that merges redundant copies.
//    Global-memory loads are never merged by default — eliminating
//    redundant loads is scalar replacement's job (the paper's subject), not
//    the backend's;
//  * `A[inv] += e` inside a parallel loop (subscripts invariant in every
//    scheduled loop) lowers to a global atomic add, which is how this
//    compiler implements OpenACC reductions.
#pragma once

#include <memory>
#include <vector>

#include "ast/decl.hpp"
#include "sema/sema.hpp"
#include "support/diagnostics.hpp"
#include "vir/vir.hpp"

namespace safara::codegen {

struct CodegenOptions {
  /// Honor the proposed `dim` clause (Section IV-A).
  bool honor_dim = false;
  /// Honor the proposed `small` clause (Section IV-B).
  bool honor_small = false;
  /// Hoist loop-invariant pure computations into loop preheaders.
  bool licm = true;
  /// Reuse a global load when the same array reference repeats within one
  /// statement (the "PGI-like persona" generic optimization; off for the
  /// OpenUH personas).
  bool cse_loads_within_stmt = false;
};

/// Host-side launch recipe for one hardware dimension. All expressions are
/// over the kernel's scalar arguments and are evaluated by the runtime at
/// launch time.
struct DimPlan {
  ast::ExprPtr init;
  ast::ExprPtr bound;
  ast::CmpOp cmp = ast::CmpOp::kLt;
  std::int64_t step = 1;
  ast::ExprPtr vector_len;  // null: use the default block size
  ast::ExprPtr gang_count;  // null: ceil(trip / block)
};

struct LaunchPlan {
  /// dims[0] is x (the innermost scheduled loop), then y, then z.
  std::vector<DimPlan> dims;
  /// Default block size of dims[0] when no vector clause is present.
  static constexpr int kDefaultVectorLen = 128;
};

struct CodegenResult {
  vir::Kernel kernel;
  LaunchPlan plan;
};

/// Lowers `region` of `info` to a kernel named `<function>_k<index>`.
/// Reports user-level problems via `diags`; returns a well-formed kernel iff
/// no errors were added.
CodegenResult generate_kernel(const sema::FunctionInfo& info,
                              const sema::OffloadRegion& region, int region_index,
                              const CodegenOptions& opts, DiagnosticEngine& diags);

}  // namespace safara::codegen
