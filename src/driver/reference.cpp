#include "driver/reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "sema/sema.hpp"

namespace safara::driver {

using ast::BinaryOp;
using ast::Expr;
using ast::ExprKind;
using ast::ScalarType;
using ast::Stmt;
using ast::StmtKind;
using sema::Symbol;

HostArray HostArray::make(ScalarType elem, std::vector<rt::Dim> dims) {
  HostArray a;
  a.elem = elem;
  a.dims = std::move(dims);
  a.data.assign(static_cast<std::size_t>(a.element_count()) *
                    static_cast<std::size_t>(ast::size_of(elem)),
                0);
  return a;
}

std::int64_t HostArray::element_count() const {
  std::int64_t n = 1;
  for (const rt::Dim& d : dims) n *= d.len;
  return n;
}

namespace {

[[noreturn]] void throw_out_of_bounds(std::int64_t subscript, std::size_t dim) {
  throw std::runtime_error("reference: subscript " + std::to_string(subscript) +
                           " out of bounds in dimension " + std::to_string(dim));
}

[[noreturn]] void throw_void_element() {
  throw std::runtime_error("reference: array has void element type");
}

}  // namespace

std::int64_t HostArray::linear_index(const std::vector<std::int64_t>& idx) const {
  return linear_index(idx.data(), idx.size());
}

std::int64_t HostArray::linear_index(const std::int64_t* idx, std::size_t n) const {
  if (n != dims.size()) throw std::runtime_error("reference: subscript rank mismatch");
  std::int64_t li = 0;
  for (std::size_t d = 0; d < n; ++d) {
    // Unsigned subtraction: an extreme subscript wraps to out of range
    // instead of overflowing.
    const auto rel = static_cast<std::int64_t>(static_cast<std::uint64_t>(idx[d]) -
                                               static_cast<std::uint64_t>(dims[d].lb));
    if (rel < 0 || rel >= dims[d].len) throw_out_of_bounds(idx[d], d);
    li = li * dims[d].len + rel;
  }
  return li;
}

double HostArray::get(std::int64_t li) const {
  switch (elem) {
    case ScalarType::kF32: {
      float f;
      std::memcpy(&f, data.data() + li * 4, 4);
      return f;
    }
    case ScalarType::kF64: {
      double d;
      std::memcpy(&d, data.data() + li * 8, 8);
      return d;
    }
    case ScalarType::kI32:
    case ScalarType::kI64:
      return static_cast<double>(get_int(li));
    case ScalarType::kVoid:
      break;
  }
  throw_void_element();
}

void HostArray::set(std::int64_t li, double v) {
  switch (elem) {
    case ScalarType::kF32: {
      float f = static_cast<float>(v);
      std::memcpy(data.data() + li * 4, &f, 4);
      return;
    }
    case ScalarType::kF64:
      std::memcpy(data.data() + li * 8, &v, 8);
      return;
    case ScalarType::kI32:
    case ScalarType::kI64:
      set_int(li, static_cast<std::int64_t>(v));
      return;
    case ScalarType::kVoid:
      break;
  }
  throw_void_element();
}

std::int64_t HostArray::get_int(std::int64_t li) const {
  switch (elem) {
    case ScalarType::kI32: {
      std::int32_t v;
      std::memcpy(&v, data.data() + li * 4, 4);
      return v;
    }
    case ScalarType::kI64: {
      std::int64_t v;
      std::memcpy(&v, data.data() + li * 8, 8);
      return v;
    }
    case ScalarType::kF32:
    case ScalarType::kF64:
      return static_cast<std::int64_t>(get(li));
    case ScalarType::kVoid:
      break;
  }
  throw_void_element();
}

void HostArray::set_int(std::int64_t li, std::int64_t v) {
  switch (elem) {
    case ScalarType::kI32: {
      std::int32_t x = static_cast<std::int32_t>(v);
      std::memcpy(data.data() + li * 4, &x, 4);
      return;
    }
    case ScalarType::kI64:
      std::memcpy(data.data() + li * 8, &v, 8);
      return;
    case ScalarType::kF32:
    case ScalarType::kF64:
      set(li, static_cast<double>(v));
      return;
    case ScalarType::kVoid:
      break;
  }
  throw_void_element();
}

namespace {

// -- values -------------------------------------------------------------------

/// An untagged value; the node that produced it knows its static type.
/// Integers live sign-extended in `i` (an i32 value is always in i32 range),
/// floats live in `d` (an f32 value is always exactly representable as a
/// float), so i32->i64 and f32->f64 conversions are free.
union Val {
  std::int64_t i;
  double d;
};

Val int_val(std::int64_t v) {
  Val x;
  x.i = v;
  return x;
}
Val float_val(double v) {
  Val x;
  x.d = v;
  return x;
}

// Two's-complement integer arithmetic without signed-overflow UB. Division
// and remainder follow the simulator: x/0 == x%0 == 0, INT64_MIN / -1 ==
// INT64_MIN and INT64_MIN % -1 == 0.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}
std::int64_t wrap_neg(std::int64_t a) { return wrap_sub(0, a); }
std::int64_t int_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  return b == -1 ? wrap_neg(a) : a / b;
}
std::int64_t int_rem(std::int64_t a, std::int64_t b) {
  return b == 0 || b == -1 ? 0 : a % b;
}
std::int64_t int_abs(std::int64_t a) { return a < 0 ? wrap_neg(a) : a; }
std::int64_t trunc32(std::int64_t v) { return static_cast<std::int32_t>(v); }
double round32(double v) { return static_cast<float>(v); }

/// The type a scalar of sema type `t` is held as. `void` variables behave as
/// `int`, as in codegen.
ScalarType value_type(ScalarType t) { return t == ScalarType::kVoid ? ScalarType::kI32 : t; }

Val from_scalar(const rt::ScalarValue& sv, ScalarType to) {
  switch (value_type(to)) {
    case ScalarType::kI32: return int_val(trunc32(sv.as_int()));
    case ScalarType::kI64: return int_val(sv.as_int());
    case ScalarType::kF32: return float_val(round32(sv.as_double()));
    default: return float_val(sv.as_double());
  }
}

enum class Intrinsic : std::uint8_t {
  kSqrt, kRsqrt, kFabs, kExp, kLog, kSin, kCos, kPow, kFloor, kCeil, kMin, kMax, kAbs,
};

Intrinsic intrinsic_of(const std::string& name) {
  static const std::unordered_map<std::string, Intrinsic> kByName = {
      {"sqrt", Intrinsic::kSqrt}, {"rsqrt", Intrinsic::kRsqrt}, {"fabs", Intrinsic::kFabs},
      {"exp", Intrinsic::kExp},   {"log", Intrinsic::kLog},     {"sin", Intrinsic::kSin},
      {"cos", Intrinsic::kCos},   {"pow", Intrinsic::kPow},     {"floor", Intrinsic::kFloor},
      {"ceil", Intrinsic::kCeil}, {"min", Intrinsic::kMin},     {"max", Intrinsic::kMax},
      {"abs", Intrinsic::kAbs},
  };
  auto it = kByName.find(name);
  if (it == kByName.end()) throw std::runtime_error("reference: unknown intrinsic " + name);
  return it->second;
}

/// Transcendentals are evaluated in double, then rounded to the result type
/// by the caller — exactly what the simulator's SFU model does.
double transcendental(Intrinsic fn, double x, double y) {
  switch (fn) {
    case Intrinsic::kSqrt: return std::sqrt(x);
    case Intrinsic::kRsqrt: return 1.0 / std::sqrt(x);
    case Intrinsic::kFabs: return std::fabs(x);
    case Intrinsic::kExp: return std::exp(x);
    case Intrinsic::kLog: return std::log(x);
    case Intrinsic::kSin: return std::sin(x);
    case Intrinsic::kCos: return std::cos(x);
    case Intrinsic::kPow: return std::pow(x, y);
    case Intrinsic::kFloor: return std::floor(x);
    case Intrinsic::kCeil: return std::ceil(x);
    default: return 0.0;  // min/max/abs lower to their own ops
  }
}

// -- lowered form ---------------------------------------------------------------

/// Expression operations, specialized by static type at lowering time.
enum class Op : std::uint8_t {
  // Leaves.
  kConst,
  kVar,
  kLoadI32,
  kLoadI64,
  kLoadF32,
  kLoadF64,
  // Conversions, only between types whose representations differ.
  kI64ToI32,
  kIntToF32,
  kIntToF64,
  kF64ToF32,
  kFloatToI32,
  kFloatToI64,
  // Unary.
  kNegI32,
  kNegI64,
  kNegF,  // exact in either float width
  kAbsI32,
  kAbsI64,
  kAbsF,  // exact in either float width
  kTruthyF,
  kNot,
  kMathF32,  // transcendental `fn` of a (and b for pow)
  kMathF64,
  // Binary: both operands are evaluated, left first, then combined.
  kAddI32, kSubI32, kMulI32, kDivI32, kRemI32,
  kAddI64, kSubI64, kMulI64, kDivI64, kRemI64,
  kAddF32, kSubF32, kMulF32, kDivF32,
  kAddF64, kSubF64, kMulF64, kDivF64,
  kMinI, kMaxI, kMinF32, kMaxF32, kMinF64, kMaxF64,
  kEqI, kNeI, kLtI, kGtI, kLeI, kGeI,
  kEqF, kNeF, kLtF, kGtF, kLeF, kGeF,
  kAnd,
  kOr,
};
constexpr Op kFirstBinary = Op::kAddI32;

struct Node {
  Op op = Op::kConst;
  ScalarType type = ScalarType::kI32;  // static type of the node's value
  Intrinsic fn = Intrinsic::kSqrt;     // kMath* only
  std::int32_t a = -1;  // first operand node; kVar: slot; kLoad*: array
  std::int32_t b = -1;  // second operand node; kLoad*: first subscript in the index pool
  std::int32_t n = 0;   // kLoad*: subscript count
  Val k{};              // kConst
};

enum class SOp : std::uint8_t {
  kSet,
  kStoreI32,
  kStoreI64,
  kStoreF32,
  kStoreF64,
  kForI32,
  kForI64,
  kIf,
};

/// Statements are stored in pre-order: a loop body or `then` branch starts
/// right after its statement, and `end` skips the whole subtree.
struct StmtNode {
  SOp op = SOp::kSet;
  bool update = false;       // kStore*: compound assignment through `combine`
  Op combine = Op::kConst;   // kStore*: binary op of (old element, rhs)
  ast::CmpOp cmp = ast::CmpOp::kLt;  // kFor*
  std::int32_t target = -1;  // kSet/kFor*: slot; kStore*: array
  std::int32_t value = -1;   // kSet/kStore*: rhs; kFor*: init; kIf: condition
  std::int32_t bound = -1;   // kFor*: re-evaluated before every iteration
  std::int32_t first = 0;    // kStore*: first subscript in the index pool
  std::int32_t count = 0;    // kStore*: subscript count
  std::int32_t mid = 0;      // kIf: first statement of the else branch
  std::int32_t end = 0;      // one past the last statement of this subtree
  std::int64_t step = 0;     // kFor*
};

/// Subscripts of one access are evaluated into a stack buffer of this size.
constexpr std::int32_t kMaxSubscripts = 8;

Op arith_op(BinaryOp op, ScalarType t) {
  static constexpr Op kI32[] = {Op::kAddI32, Op::kSubI32, Op::kMulI32, Op::kDivI32, Op::kRemI32};
  static constexpr Op kI64[] = {Op::kAddI64, Op::kSubI64, Op::kMulI64, Op::kDivI64, Op::kRemI64};
  static constexpr Op kF32[] = {Op::kAddF32, Op::kSubF32, Op::kMulF32, Op::kDivF32};
  static constexpr Op kF64[] = {Op::kAddF64, Op::kSubF64, Op::kMulF64, Op::kDivF64};
  const auto k = static_cast<std::size_t>(op) - static_cast<std::size_t>(BinaryOp::kAdd);
  if (t == ScalarType::kI32) return kI32[k];
  if (t == ScalarType::kI64) return kI64[k];
  if (op == BinaryOp::kRem) throw std::runtime_error("reference: '%' on a float type");
  return t == ScalarType::kF32 ? kF32[k] : kF64[k];
}

Op compare_op(BinaryOp op, ScalarType t) {
  static constexpr Op kInt[] = {Op::kEqI, Op::kNeI, Op::kLtI, Op::kGtI, Op::kLeI, Op::kGeI};
  static constexpr Op kFloat[] = {Op::kEqF, Op::kNeF, Op::kLtF, Op::kGtF, Op::kLeF, Op::kGeF};
  const auto k = static_cast<std::size_t>(op) - static_cast<std::size_t>(BinaryOp::kEq);
  return ast::is_float(t) ? kFloat[k] : kInt[k];
}

BinaryOp compound_op(ast::AssignOp op) {
  switch (op) {
    case ast::AssignOp::kAddAssign: return BinaryOp::kAdd;
    case ast::AssignOp::kSubAssign: return BinaryOp::kSub;
    case ast::AssignOp::kMulAssign: return BinaryOp::kMul;
    default: return BinaryOp::kDiv;
  }
}

template <typename T>
Val to_val(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return float_val(v);
  } else {
    return int_val(v);
  }
}

template <typename T>
T from_val(Val v) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(v.d);
  } else {
    return static_cast<T>(v.i);
  }
}

Val binary(Op op, Val l, Val r) {
  const auto f32 = [](double v) { return static_cast<float>(v); };
  switch (op) {
    case Op::kAddI32: return int_val(trunc32(wrap_add(l.i, r.i)));
    case Op::kSubI32: return int_val(trunc32(wrap_sub(l.i, r.i)));
    case Op::kMulI32: return int_val(trunc32(wrap_mul(l.i, r.i)));
    case Op::kDivI32: return int_val(trunc32(int_div(l.i, r.i)));
    case Op::kRemI32: return int_val(trunc32(int_rem(l.i, r.i)));
    case Op::kAddI64: return int_val(wrap_add(l.i, r.i));
    case Op::kSubI64: return int_val(wrap_sub(l.i, r.i));
    case Op::kMulI64: return int_val(wrap_mul(l.i, r.i));
    case Op::kDivI64: return int_val(int_div(l.i, r.i));
    case Op::kRemI64: return int_val(int_rem(l.i, r.i));
    case Op::kAddF32: return float_val(f32(l.d) + f32(r.d));
    case Op::kSubF32: return float_val(f32(l.d) - f32(r.d));
    case Op::kMulF32: return float_val(f32(l.d) * f32(r.d));
    case Op::kDivF32: return float_val(f32(l.d) / f32(r.d));
    case Op::kAddF64: return float_val(l.d + r.d);
    case Op::kSubF64: return float_val(l.d - r.d);
    case Op::kMulF64: return float_val(l.d * r.d);
    case Op::kDivF64: return float_val(l.d / r.d);
    case Op::kMinI: return int_val(std::min(l.i, r.i));
    case Op::kMaxI: return int_val(std::max(l.i, r.i));
    case Op::kMinF32: return float_val(round32(std::fmin(l.d, r.d)));
    case Op::kMaxF32: return float_val(round32(std::fmax(l.d, r.d)));
    case Op::kMinF64: return float_val(std::fmin(l.d, r.d));
    case Op::kMaxF64: return float_val(std::fmax(l.d, r.d));
    case Op::kEqI: return int_val(l.i == r.i);
    case Op::kNeI: return int_val(l.i != r.i);
    case Op::kLtI: return int_val(l.i < r.i);
    case Op::kGtI: return int_val(l.i > r.i);
    case Op::kLeI: return int_val(l.i <= r.i);
    case Op::kGeI: return int_val(l.i >= r.i);
    case Op::kEqF: return int_val(l.d == r.d);
    case Op::kNeF: return int_val(l.d != r.d);
    case Op::kLtF: return int_val(l.d < r.d);
    case Op::kGtF: return int_val(l.d > r.d);
    case Op::kLeF: return int_val(l.d <= r.d);
    case Op::kGeF: return int_val(l.d >= r.d);
    // ACC-C has no short-circuit side effects; both sides are evaluated, like codegen.
    case Op::kAnd: return int_val(l.i != 0 && r.i != 0);
    case Op::kOr: return int_val(l.i != 0 || r.i != 0);
    default: break;
  }
  throw std::runtime_error("reference: unhandled binary operation");
}

bool holds(ast::CmpOp cmp, std::int64_t iv, std::int64_t bound) {
  switch (cmp) {
    case ast::CmpOp::kLt: return iv < bound;
    case ast::CmpOp::kLe: return iv <= bound;
    case ast::CmpOp::kGt: return iv > bound;
    case ast::CmpOp::kGe: return iv >= bound;
  }
  return false;
}

// -- interpreter ------------------------------------------------------------------

class Interpreter {
 public:
  Interpreter(const ast::Function& fn, RefArgMap& args) {
    work_ = fn.clone();
    DiagnosticEngine diags;
    sema::Sema sema(diags);
    info_ = sema.analyze(*work_);
    if (!diags.ok()) {
      throw std::runtime_error("reference: sema failed:\n" + diags.render());
    }
    bind(args);
    lower_block(*work_->body);
  }

  void run() { exec(0, static_cast<std::int32_t>(stmts_.size())); }

 private:
  // -- binding and slots --------------------------------------------------------

  void bind(RefArgMap& args) {
    for (const ast::Param& p : work_->params) {
      auto it = args.find(p.name);
      const Symbol* sym = info_->find_symbol(p.name);
      if (p.is_array()) {
        if (it == args.end() || !std::holds_alternative<HostArray*>(it->second)) {
          throw std::runtime_error("reference: missing array argument '" + p.name + "'");
        }
        array_of_[sym] = static_cast<std::int32_t>(arrays_.size());
        arrays_.push_back(std::get<HostArray*>(it->second));
      } else {
        if (it == args.end() || !std::holds_alternative<rt::ScalarValue>(it->second)) {
          throw std::runtime_error("reference: missing scalar argument '" + p.name + "'");
        }
        const std::int32_t slot = new_slot(sym);
        slots_[slot] = from_scalar(std::get<rt::ScalarValue>(it->second), slot_type_[slot]);
      }
    }
  }

  std::int32_t new_slot(const Symbol* sym) {
    const auto slot = static_cast<std::int32_t>(slots_.size());
    slot_of_[sym] = slot;
    slots_.push_back(Val{});
    slot_type_.push_back(value_type(sym->type));
    return slot;
  }

  std::int32_t slot_of(const Symbol* sym, const std::string& name) const {
    auto it = slot_of_.find(sym);
    if (it == slot_of_.end()) {
      throw std::runtime_error("reference: unbound variable '" + name + "'");
    }
    return it->second;
  }

  std::int32_t array_of(const Symbol* sym) const {
    auto it = array_of_.find(sym);
    if (it == array_of_.end()) {
      throw std::runtime_error("reference: unbound array '" + sym->name + "'");
    }
    if (arrays_[it->second]->elem == ScalarType::kVoid) throw_void_element();
    return it->second;
  }

  // -- lowering: expressions ------------------------------------------------------

  std::int32_t emit(Op op, ScalarType t, std::int32_t a = -1, std::int32_t b = -1) {
    Node x;
    x.op = op;
    x.type = t;
    x.a = a;
    x.b = b;
    nodes_.push_back(x);
    return static_cast<std::int32_t>(nodes_.size()) - 1;
  }

  std::int32_t constant(ScalarType t, Val v) {
    const std::int32_t id = emit(Op::kConst, t);
    nodes_[id].k = v;
    return id;
  }

  /// Converts node `n` to type `to`; emits nothing when the representations
  /// agree (same type, i32->i64, f32->f64).
  std::int32_t convert(std::int32_t n, ScalarType to) {
    const ScalarType from = nodes_[n].type;
    to = value_type(to);
    if (from == to) return n;
    switch (to) {
      case ScalarType::kI32:
        return emit(ast::is_float(from) ? Op::kFloatToI32 : Op::kI64ToI32, to, n);
      case ScalarType::kI64:
        return ast::is_float(from) ? emit(Op::kFloatToI64, to, n) : n;
      case ScalarType::kF32:
        return emit(ast::is_float(from) ? Op::kF64ToF32 : Op::kIntToF32, to, n);
      default:
        return ast::is_float(from) ? n : emit(Op::kIntToF64, to, n);
    }
  }

  std::int32_t lower_as(const Expr& e, ScalarType to) { return convert(lower(e), to); }

  /// Lowers an expression read as an int64 (subscripts, loop bounds).
  std::int32_t lower_int(const Expr& e) {
    const std::int32_t n = lower(e);
    return ast::is_float(nodes_[n].type) ? emit(Op::kFloatToI64, ScalarType::kI64, n) : n;
  }

  /// Lowers an expression read as a condition: nonzero `.i` means true.
  std::int32_t lower_truthy(const Expr& e) {
    const std::int32_t n = lower(e);
    return ast::is_float(nodes_[n].type) ? emit(Op::kTruthyF, ScalarType::kI32, n) : n;
  }

  /// Lowers the subscripts of `ref` into one contiguous index-pool run.
  std::int32_t lower_subscripts(const ast::ArrayRef& ref) {
    if (ref.indices.size() > static_cast<std::size_t>(kMaxSubscripts)) {
      throw std::runtime_error("reference: more than " + std::to_string(kMaxSubscripts) +
                               " subscripts on '" + ref.name + "'");
    }
    // Subscripts may contain array refs of their own, so finish lowering all
    // of them before reserving the run.
    std::int32_t idx[kMaxSubscripts];
    for (std::size_t k = 0; k < ref.indices.size(); ++k) idx[k] = lower_int(*ref.indices[k]);
    const auto first = static_cast<std::int32_t>(index_pool_.size());
    index_pool_.insert(index_pool_.end(), idx, idx + ref.indices.size());
    return first;
  }

  std::int32_t lower(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        // Sema types every literal i32, but a literal above INT32_MAX keeps its
        // full value until a conversion narrows it, so type it by what it holds.
        const std::int64_t v = e.as<ast::IntLit>().value;
        return constant(v == trunc32(v) ? ScalarType::kI32 : ScalarType::kI64, int_val(v));
      }
      case ExprKind::kFloatLit: {
        double v = e.as<ast::FloatLit>().value;
        if (e.type == ScalarType::kF32) v = round32(v);
        return constant(e.type, float_val(v));
      }
      case ExprKind::kVarRef: {
        const auto& v = e.as<ast::VarRef>();
        const std::int32_t slot = slot_of(v.symbol, v.name);
        return emit(Op::kVar, slot_type_[slot], slot);
      }
      case ExprKind::kArrayRef: {
        const auto& ref = e.as<ast::ArrayRef>();
        const std::int32_t array = array_of(ref.symbol);
        const ScalarType elem = arrays_[array]->elem;
        const Op op = elem == ScalarType::kI32   ? Op::kLoadI32
                      : elem == ScalarType::kI64 ? Op::kLoadI64
                      : elem == ScalarType::kF32 ? Op::kLoadF32
                                                 : Op::kLoadF64;
        const std::int32_t id = emit(op, elem, array, lower_subscripts(ref));
        nodes_[id].n = static_cast<std::int32_t>(ref.indices.size());
        return id;
      }
      case ExprKind::kUnary: {
        const auto& u = e.as<ast::Unary>();
        if (u.op == ast::UnaryOp::kNot) {
          return emit(Op::kNot, ScalarType::kI32, lower_truthy(*u.operand));
        }
        const ScalarType t = value_type(e.type);
        const Op op = ast::is_float(t)         ? Op::kNegF
                      : t == ScalarType::kI32 ? Op::kNegI32
                                              : Op::kNegI64;
        return emit(op, t, lower_as(*u.operand, t));
      }
      case ExprKind::kBinary:
        return lower_binary(e.as<ast::Binary>());
      case ExprKind::kCall:
        return lower_call(e.as<ast::Call>());
      case ExprKind::kCast:
        return lower_as(*e.as<ast::Cast>().operand, e.type);
    }
    throw std::runtime_error("reference: unhandled expression");
  }

  std::int32_t lower_binary(const ast::Binary& b) {
    if (ast::is_logical(b.op)) {
      const std::int32_t l = lower_truthy(*b.lhs);
      const std::int32_t r = lower_truthy(*b.rhs);
      return emit(b.op == BinaryOp::kAnd ? Op::kAnd : Op::kOr, ScalarType::kI32, l, r);
    }
    if (ast::is_comparison(b.op)) {
      const ScalarType ct = value_type(ast::common_type(b.lhs->type, b.rhs->type));
      const std::int32_t l = lower_as(*b.lhs, ct);
      const std::int32_t r = lower_as(*b.rhs, ct);
      return emit(compare_op(b.op, ct), ScalarType::kI32, l, r);
    }
    const ScalarType ct = value_type(b.type);
    const std::int32_t l = lower_as(*b.lhs, ct);
    const std::int32_t r = lower_as(*b.rhs, ct);
    return emit(arith_op(b.op, ct), ct, l, r);
  }

  std::int32_t lower_call(const ast::Call& c) {
    const ScalarType t = value_type(c.type);
    const Intrinsic fn = intrinsic_of(c.callee);
    const std::int32_t a = lower_as(*c.args[0], t);
    const std::int32_t b = c.args.size() > 1 ? lower_as(*c.args[1], t) : -1;
    const bool f32 = t == ScalarType::kF32;
    switch (fn) {
      case Intrinsic::kMin:
        return emit(!ast::is_float(t) ? Op::kMinI : f32 ? Op::kMinF32 : Op::kMinF64, t, a, b);
      case Intrinsic::kMax:
        return emit(!ast::is_float(t) ? Op::kMaxI : f32 ? Op::kMaxF32 : Op::kMaxF64, t, a, b);
      case Intrinsic::kAbs:
        return emit(ast::is_float(t)        ? Op::kAbsF
                    : t == ScalarType::kI32 ? Op::kAbsI32
                                            : Op::kAbsI64,
                    t, a);
      default:
        break;
    }
    if (!ast::is_float(t)) {
      throw std::runtime_error("reference: intrinsic " + c.callee + " needs a float type");
    }
    const std::int32_t id = emit(f32 ? Op::kMathF32 : Op::kMathF64, t, a, b);
    nodes_[id].fn = fn;
    return id;
  }

  // -- lowering: statements -------------------------------------------------------

  std::int32_t add_stmt(const StmtNode& s) {
    const auto id = static_cast<std::int32_t>(stmts_.size());
    stmts_.push_back(s);
    stmts_.back().end = id + 1;
    return id;
  }

  std::int32_t stmt_count() const { return static_cast<std::int32_t>(stmts_.size()); }

  void lower_block(const ast::BlockStmt& b) {
    for (const ast::StmtPtr& s : b.stmts) lower_stmt(*s);
  }

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        lower_block(s.as<ast::BlockStmt>());
        return;
      case StmtKind::kDecl: {
        const auto& d = s.as<ast::DeclStmt>();
        const ScalarType t = value_type(d.symbol->type);
        StmtNode set;
        set.value = d.init ? lower_as(*d.init, t) : constant(t, Val{});
        set.target = new_slot(d.symbol);
        add_stmt(set);
        return;
      }
      case StmtKind::kAssign:
        lower_assign(s.as<ast::AssignStmt>());
        return;
      case StmtKind::kFor: {
        const auto& f = s.as<ast::ForStmt>();
        StmtNode loop;
        loop.value = lower_as(*f.init, f.iv_symbol->type);
        loop.bound = lower_int(*f.bound);
        loop.target = new_slot(f.iv_symbol);
        loop.op = slot_type_[loop.target] == ScalarType::kI64 ? SOp::kForI64 : SOp::kForI32;
        loop.cmp = f.cmp;
        loop.step = f.step;
        const std::int32_t id = add_stmt(loop);
        lower_block(*f.body);
        stmts_[id].end = stmt_count();
        return;
      }
      case StmtKind::kIf: {
        const auto& i = s.as<ast::IfStmt>();
        StmtNode branch;
        branch.op = SOp::kIf;
        branch.value = lower_truthy(*i.cond);
        const std::int32_t id = add_stmt(branch);
        lower_block(*i.then_block);
        stmts_[id].mid = stmt_count();
        if (i.else_block) lower_block(*i.else_block);
        stmts_[id].end = stmt_count();
        return;
      }
      case StmtKind::kReturn:
        // Functions are offload containers; return is a no-op at top level.
        return;
    }
  }

  void lower_assign(const ast::AssignStmt& a) {
    StmtNode s;
    if (a.lhs->kind == ExprKind::kVarRef) {
      const auto& v = a.lhs->as<ast::VarRef>();
      s.target = slot_of(v.symbol, v.name);
      const ScalarType t = slot_type_[s.target];
      s.value = lower_as(*a.rhs, t);
      if (a.op != ast::AssignOp::kAssign) {
        s.value = emit(arith_op(compound_op(a.op), t), t, emit(Op::kVar, t, s.target), s.value);
      }
      add_stmt(s);
      return;
    }
    // Subscripts are evaluated (and bounds-checked) before the rhs.
    const auto& ref = a.lhs->as<ast::ArrayRef>();
    s.target = array_of(ref.symbol);
    const ScalarType elem = arrays_[s.target]->elem;
    s.op = elem == ScalarType::kI32   ? SOp::kStoreI32
           : elem == ScalarType::kI64 ? SOp::kStoreI64
           : elem == ScalarType::kF32 ? SOp::kStoreF32
                                      : SOp::kStoreF64;
    s.first = lower_subscripts(ref);
    s.count = static_cast<std::int32_t>(ref.indices.size());
    s.value = lower_as(*a.rhs, elem);
    if (a.op != ast::AssignOp::kAssign) {
      s.update = true;
      s.combine = arith_op(compound_op(a.op), elem);
    }
    add_stmt(s);
  }

  // -- execution --------------------------------------------------------------

  /// Evaluates every subscript, then bounds-checks them in dimension order.
  std::int64_t element(const HostArray& arr, std::int32_t first, std::int32_t count) {
    std::int64_t idx[kMaxSubscripts];
    for (std::int32_t k = 0; k < count; ++k) idx[k] = eval(index_pool_[first + k]).i;
    return arr.linear_index(idx, static_cast<std::size_t>(count));
  }

  template <typename T>
  static T load(const HostArray& arr, std::int64_t li) {
    T v;
    std::memcpy(&v, arr.data.data() + li * static_cast<std::int64_t>(sizeof(T)), sizeof(T));
    return v;
  }

  template <typename T>
  Val load(const Node& x) {
    const HostArray& arr = *arrays_[x.a];
    return to_val(load<T>(arr, element(arr, x.b, x.n)));
  }

  template <typename T>
  void store(const StmtNode& s) {
    HostArray& arr = *arrays_[s.target];
    const std::int64_t li = element(arr, s.first, s.count);
    Val v = eval(s.value);
    if (s.update) v = binary(s.combine, to_val(load<T>(arr, li)), v);
    const T out = from_val<T>(v);
    std::memcpy(arr.data.data() + li * static_cast<std::int64_t>(sizeof(T)), &out, sizeof(T));
  }

  Val eval(std::int32_t id) {
    const Node& x = nodes_[id];
    if (x.op >= kFirstBinary) {
      const Val l = eval(x.a);
      const Val r = eval(x.b);
      return binary(x.op, l, r);
    }
    switch (x.op) {
      case Op::kConst: return x.k;
      case Op::kVar: return slots_[x.a];
      case Op::kLoadI32: return load<std::int32_t>(x);
      case Op::kLoadI64: return load<std::int64_t>(x);
      case Op::kLoadF32: return load<float>(x);
      case Op::kLoadF64: return load<double>(x);
      case Op::kI64ToI32: return int_val(trunc32(eval(x.a).i));
      case Op::kIntToF32: return float_val(round32(static_cast<double>(eval(x.a).i)));
      case Op::kIntToF64: return float_val(static_cast<double>(eval(x.a).i));
      case Op::kF64ToF32: return float_val(round32(eval(x.a).d));
      case Op::kFloatToI32: return int_val(trunc32(static_cast<std::int64_t>(eval(x.a).d)));
      case Op::kFloatToI64: return int_val(static_cast<std::int64_t>(eval(x.a).d));
      case Op::kNegI32: return int_val(trunc32(wrap_neg(eval(x.a).i)));
      case Op::kNegI64: return int_val(wrap_neg(eval(x.a).i));
      case Op::kNegF: return float_val(-eval(x.a).d);
      case Op::kAbsI32: return int_val(trunc32(int_abs(eval(x.a).i)));
      case Op::kAbsI64: return int_val(int_abs(eval(x.a).i));
      case Op::kAbsF: return float_val(std::fabs(eval(x.a).d));
      case Op::kTruthyF: return int_val(eval(x.a).d != 0.0);
      case Op::kNot: return int_val(eval(x.a).i == 0);
      case Op::kMathF32:
      case Op::kMathF64: {
        const double a = eval(x.a).d;
        const double b = x.b >= 0 ? eval(x.b).d : 0.0;
        const double r = transcendental(x.fn, a, b);
        return float_val(x.op == Op::kMathF32 ? round32(r) : r);
      }
      default: break;
    }
    throw std::runtime_error("reference: unhandled expression");
  }

  void exec(std::int32_t begin, std::int32_t end) {
    for (std::int32_t i = begin; i < end; i = stmts_[i].end) {
      const StmtNode& s = stmts_[i];
      switch (s.op) {
        case SOp::kSet: slots_[s.target] = eval(s.value); break;
        case SOp::kStoreI32: store<std::int32_t>(s); break;
        case SOp::kStoreI64: store<std::int64_t>(s); break;
        case SOp::kStoreF32: store<float>(s); break;
        case SOp::kStoreF64: store<double>(s); break;
        case SOp::kForI32:
        case SOp::kForI64: {
          Val& iv = slots_[s.target];
          iv = eval(s.value);
          while (holds(s.cmp, iv.i, eval(s.bound).i)) {
            exec(i + 1, s.end);
            const std::int64_t next = wrap_add(iv.i, s.step);
            iv.i = s.op == SOp::kForI32 ? trunc32(next) : next;
          }
          break;
        }
        case SOp::kIf:
          if (eval(s.value).i != 0) {
            exec(i + 1, s.mid);
          } else {
            exec(s.mid, s.end);
          }
          break;
      }
    }
  }

  ast::FunctionPtr work_;
  std::unique_ptr<sema::FunctionInfo> info_;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> index_pool_;  // subscript node ids, one run per access
  std::vector<StmtNode> stmts_;
  std::vector<Val> slots_;  // scalar values, one per symbol
  std::vector<HostArray*> arrays_;

  // Lowering only.
  std::vector<ScalarType> slot_type_;
  std::unordered_map<const Symbol*, std::int32_t> slot_of_;
  std::unordered_map<const Symbol*, std::int32_t> array_of_;
};

}  // namespace

void run_reference(const ast::Function& fn, RefArgMap& args) {
  Interpreter interp(fn, args);
  interp.run();
}

}  // namespace safara::driver
