// Sequential CPU reference interpreter for ACC-C functions.
//
// Used to validate every compiled kernel: the GPU simulator and this
// interpreter must produce matching results for all compiler configurations
// (optimizations must never change observable behaviour). Arithmetic follows
// the same rules as the simulator (float ops round to f32, integer division
// by zero yields 0, integer arithmetic wraps), so float results match
// bit-for-bit except across reduction orderings.
//
// run_reference works in two phases. It first lowers the sema-checked
// function, with its arguments already bound, into flat node arrays: scalars
// and arrays get dense slots, intrinsics become an enum, every node carries a
// static result type (an array load takes the bound HostArray's element
// type), and a conversion is emitted only where two types differ in
// representation. It then executes those arrays over untagged 8-byte values.
// The interpreter deliberately shares no code with codegen/, vir/ or vgpu/:
// it is their oracle, so a bug there cannot cancel out here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "ast/decl.hpp"
#include "rt/args.hpp"
#include "rt/buffer.hpp"

namespace safara::driver {

/// A host-side array with the same dope-vector shape as rt::Buffer.
struct HostArray {
  ast::ScalarType elem = ast::ScalarType::kF32;
  std::vector<rt::Dim> dims;
  std::vector<std::uint8_t> data;

  static HostArray make(ast::ScalarType elem, std::vector<rt::Dim> dims);

  std::int64_t element_count() const;
  /// Row-major linearization with per-dimension lower bounds; throws on a
  /// rank mismatch or on the first out-of-bounds subscript.
  std::int64_t linear_index(const std::vector<std::int64_t>& idx) const;
  std::int64_t linear_index(const std::int64_t* idx, std::size_t n) const;

  double get(std::int64_t li) const;
  void set(std::int64_t li, double v);
  std::int64_t get_int(std::int64_t li) const;
  void set_int(std::int64_t li, std::int64_t v);
};

using RefArgValue = std::variant<rt::ScalarValue, HostArray*>;
using RefArgMap = std::map<std::string, RefArgValue>;

/// Executes `fn` sequentially (directives are ignored; the compound
/// array-update reductions are naturally race-free in serial order).
/// Throws std::runtime_error on unbound arguments, rank mismatches or
/// out-of-bounds accesses, and on an array access with more than 8
/// subscripts.
void run_reference(const ast::Function& fn, RefArgMap& args);

}  // namespace safara::driver
