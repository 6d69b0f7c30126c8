// CPU reference interpreter unit tests: HostArray dope-vector indexing,
// value semantics (f32 rounding, integer division and wrapping), the static
// typing of the lowered form, control flow, compound updates, error
// reporting, and the pinned paper-workload checksums.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "driver/reference.hpp"
#include "parse/parser.hpp"
#include "workloads/harness.hpp"
#include "workloads/workloads.hpp"

namespace safara::driver {
namespace {

void run(const std::string& src, RefArgMap& args) {
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(src, diags);
  ASSERT_TRUE(diags.ok()) << diags.render();
  run_reference(*p.functions.front(), args);
}

/// The message run_reference throws for `src`, or "" when it succeeds.
std::string error_of(const std::string& src, RefArgMap& args) {
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(src, diags);
  EXPECT_TRUE(diags.ok()) << diags.render();
  try {
    run_reference(*p.functions.front(), args);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();

TEST(HostArray, LinearIndexRowMajor) {
  HostArray a = HostArray::make(ast::ScalarType::kF32, {{0, 3}, {0, 4}});
  EXPECT_EQ(a.linear_index({0, 0}), 0);
  EXPECT_EQ(a.linear_index({0, 3}), 3);
  EXPECT_EQ(a.linear_index({1, 0}), 4);
  EXPECT_EQ(a.linear_index({2, 3}), 11);
}

TEST(HostArray, LowerBoundsShiftIndices) {
  HostArray a = HostArray::make(ast::ScalarType::kF32, {{1, 3}, {2, 4}});
  EXPECT_EQ(a.linear_index({1, 2}), 0);
  EXPECT_EQ(a.linear_index({3, 5}), 11);
}

TEST(HostArray, OutOfBoundsThrows) {
  HostArray a = HostArray::make(ast::ScalarType::kF32, {{0, 3}});
  EXPECT_THROW(a.linear_index({3}), std::runtime_error);
  EXPECT_THROW(a.linear_index({-1}), std::runtime_error);
  EXPECT_THROW(a.linear_index({0, 0}), std::runtime_error);  // rank mismatch
}

TEST(HostArray, TypedStorage) {
  HostArray f = HostArray::make(ast::ScalarType::kF64, {{0, 2}});
  f.set(0, 1.25);
  EXPECT_DOUBLE_EQ(f.get(0), 1.25);
  HostArray i = HostArray::make(ast::ScalarType::kI32, {{0, 2}});
  i.set_int(1, -7);
  EXPECT_EQ(i.get_int(1), -7);
  // f32 storage rounds.
  HostArray h = HostArray::make(ast::ScalarType::kF32, {{0, 1}});
  h.set(0, 0.1);
  EXPECT_FLOAT_EQ(static_cast<float>(h.get(0)), 0.1f);
}

TEST(HostArray, VoidElementTypeThrows) {
  HostArray a;
  a.elem = ast::ScalarType::kVoid;
  a.dims = {{0, 1}};
  a.data.assign(8, 0);
  EXPECT_THROW(a.get(0), std::runtime_error);
  EXPECT_THROW(a.get_int(0), std::runtime_error);
  EXPECT_THROW(a.set(0, 1.0), std::runtime_error);
  EXPECT_THROW(a.set_int(0, 1), std::runtime_error);
}

TEST(Reference, SequentialLoopAndCompound) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}});
  RefArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(4));
  args.emplace("x", &x);
  run(R"(
void f(int n, float *x) {
  for (i = 0; i < n; i++) {
    x[i] = 1.0f;
    x[i] += float(i);
    x[i] *= 2.0f;
  }
})", args);
  EXPECT_FLOAT_EQ(static_cast<float>(x.get(0)), 2.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(x.get(3)), 8.0f);
}

TEST(Reference, F32RoundingMatchesFloatArithmetic) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 1}});
  RefArgMap args;
  args.emplace("x", &x);
  run(R"(
void f(float *x) {
  for (i = 0; i < 1; i++) {
    x[0] = 0.1f + 0.2f;
  }
})", args);
  EXPECT_FLOAT_EQ(static_cast<float>(x.get(0)), 0.1f + 0.2f);
}

TEST(Reference, IntegerDivisionByZeroIsZero) {
  HostArray y = HostArray::make(ast::ScalarType::kI32, {{0, 2}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(int *y) {
  for (i = 0; i < 2; i++) {
    y[i] = (i + 5) / i + (i + 5) % i;
  }
})", args);
  EXPECT_EQ(y.get_int(0), 0);      // 5/0 + 5%0 == 0 by our semantics
  EXPECT_EQ(y.get_int(1), 6 + 0);  // 6/1 + 6%1
}

TEST(Reference, NestedControlFlow) {
  HostArray y = HostArray::make(ast::ScalarType::kI32, {{0, 10}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(int *y) {
  for (i = 0; i < 10; i++) {
    if (i % 2 == 0) {
      if (i > 4) { y[i] = 1; } else { y[i] = 2; }
    } else {
      y[i] = 3;
    }
  }
})", args);
  EXPECT_EQ(y.get_int(0), 2);
  EXPECT_EQ(y.get_int(1), 3);
  EXPECT_EQ(y.get_int(6), 1);
}

TEST(Reference, DowncountingLoop) {
  HostArray y = HostArray::make(ast::ScalarType::kI32, {{0, 5}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(int *y) {
  int t = 0;
  for (i = 4; i >= 0; i--) {
    y[i] = t;
    t = t + 1;
  }
})", args);
  EXPECT_EQ(y.get_int(4), 0);
  EXPECT_EQ(y.get_int(0), 4);
}

TEST(Reference, IntrinsicsAndCasts) {
  HostArray y = HostArray::make(ast::ScalarType::kF32, {{0, 3}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(float *y) {
  for (i = 0; i < 1; i++) {
    y[0] = sqrt(16.0f) + pow(2.0f, 3.0f);
    y[1] = float(int(3.9f));
    y[2] = min(max(float(i), 2.0f), 5.0f);
  }
})", args);
  EXPECT_FLOAT_EQ(static_cast<float>(y.get(0)), 12.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(y.get(1)), 3.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(y.get(2)), 2.0f);
}

TEST(Reference, MissingArgumentThrows) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}});
  RefArgMap args;  // n missing
  args.emplace("x", &x);
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(
      "void f(int n, float *x) { for (i=0;i<n;i++) { x[i] = 1.0f; } }", diags);
  EXPECT_THROW(run_reference(*p.functions.front(), args), std::runtime_error);
}

TEST(Reference, OutOfBoundsSubscriptThrows) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}});
  RefArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(8));
  args.emplace("x", &x);
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(
      "void f(int n, float *x) { for (i=0;i<n;i++) { x[i] = 1.0f; } }", diags);
  EXPECT_THROW(run_reference(*p.functions.front(), args), std::runtime_error);
}

TEST(Reference, DirectivesAreIgnored) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 8}});
  RefArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(8));
  args.emplace("x", &x);
  run(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang(n/2) vector(2)
  for (i = 0; i < n; i++) { x[i] = float(i) * 2.0f; }
})", args);
  EXPECT_FLOAT_EQ(static_cast<float>(x.get(7)), 14.0f);
}

TEST(Reference, ScalarParamConversion) {
  HostArray y = HostArray::make(ast::ScalarType::kF64, {{0, 1}});
  RefArgMap args;
  args.emplace("v", rt::ScalarValue::of_i64(41));
  args.emplace("y", &y);
  run(R"(
void f(long v, double *y) {
  for (i = 0; i < 1; i++) { y[0] = double(v) + 1.0; }
})", args);
  EXPECT_DOUBLE_EQ(y.get(0), 42.0);
}

// -- integer semantics: match the simulator, no UB -------------------------------

TEST(Reference, I64DivisionOverflowMatchesSimulator) {
  HostArray y = HostArray::make(ast::ScalarType::kI64, {{0, 4}});
  RefArgMap args;
  args.emplace("a", rt::ScalarValue::of_i64(kI64Min));
  args.emplace("m", rt::ScalarValue::of_i64(-1));
  args.emplace("y", &y);
  run(R"(
void f(long a, long m, long *y) {
  long t = a;
  t /= m;
  y[0] = a / m;
  y[1] = a % m;
  y[2] = t;
  y[3] = a / 0 + a % 0;
})", args);
  EXPECT_EQ(y.get_int(0), kI64Min);  // the simulator returns the dividend
  EXPECT_EQ(y.get_int(1), 0);
  EXPECT_EQ(y.get_int(2), kI64Min);
  EXPECT_EQ(y.get_int(3), 0);
}

TEST(Reference, I64ArithmeticWraps) {
  HostArray y = HostArray::make(ast::ScalarType::kI64, {{0, 6}});
  RefArgMap args;
  args.emplace("a", rt::ScalarValue::of_i64(kI64Max));
  args.emplace("b", rt::ScalarValue::of_i64(kI64Min));
  args.emplace("y", &y);
  run(R"(
void f(long a, long b, long *y) {
  long t = a;
  t += 1;
  y[0] = a + 1;
  y[1] = b - 1;
  y[2] = a * 2;
  y[3] = -b;
  y[4] = abs(b);
  y[5] = t;
})", args);
  EXPECT_EQ(y.get_int(0), kI64Min);
  EXPECT_EQ(y.get_int(1), kI64Max);
  EXPECT_EQ(y.get_int(2), -2);
  EXPECT_EQ(y.get_int(3), kI64Min);
  EXPECT_EQ(y.get_int(4), kI64Min);
  EXPECT_EQ(y.get_int(5), kI64Min);
}

TEST(Reference, I32ArithmeticWraps) {
  HostArray y = HostArray::make(ast::ScalarType::kI32, {{0, 6}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(int *y) {
  int a = 2147483647;
  int t = a;
  t += 1;
  y[0] = a + 1;
  y[1] = 65536 * 65536;
  y[2] = -(a + 1);
  y[3] = (a + 1) / -1;
  y[4] = abs(a + 1) / 2;
  y[5] = t;
})", args);
  EXPECT_EQ(y.get_int(0), kI32Min);
  EXPECT_EQ(y.get_int(1), 0);
  EXPECT_EQ(y.get_int(2), kI32Min);
  EXPECT_EQ(y.get_int(3), kI32Min);
  EXPECT_EQ(y.get_int(4), kI32Min / 2);  // abs wraps before the division
  EXPECT_EQ(y.get_int(5), kI32Min);
}

// -- static typing of the lowered form ----------------------------------------------

TEST(Reference, WideIntLiteralKeepsFullValueUntilConverted) {
  // Sema types every literal i32; the value above INT32_MAX still lands in a
  // long whole, and is truncated only when it is converted to int.
  HostArray l = HostArray::make(ast::ScalarType::kI64, {{0, 3}});
  HostArray n = HostArray::make(ast::ScalarType::kI32, {{0, 2}});
  RefArgMap args;
  args.emplace("l", &l);
  args.emplace("n", &n);
  run(R"(
void f(long *l, int *n) {
  long x = 3000000000;
  int y = 3000000000;
  l[0] = x;
  l[1] = x < 4000000000;
  l[2] = 3000000000;
  n[0] = y;
  n[1] = int(3000000000);
})", args);
  EXPECT_EQ(l.get_int(0), 3000000000);
  EXPECT_EQ(l.get_int(1), 1);
  EXPECT_EQ(l.get_int(2), 3000000000);
  EXPECT_EQ(n.get_int(0), static_cast<std::int32_t>(3000000000));
  EXPECT_EQ(n.get_int(1), static_cast<std::int32_t>(3000000000));
}

TEST(Reference, MixedComparisonsConvertThroughCommonType) {
  HostArray y = HostArray::make(ast::ScalarType::kI32, {{0, 3}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(int *y) {
  int i = 2;
  float h = 2.5f;
  long big = 16777217;
  float g = 16777216.0f;
  y[0] = i == h;
  y[1] = i < h;
  y[2] = big == g;
})", args);
  EXPECT_EQ(y.get_int(0), 0);  // compared as float, not truncated to int
  EXPECT_EQ(y.get_int(1), 1);
  EXPECT_EQ(y.get_int(2), 1);  // the long rounds to f32 first
}

TEST(Reference, LogicalOperatorsEvaluateBothSides) {
  // Evaluating the right-hand side is observable only through its
  // out-of-bounds error.
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}});
  RefArgMap args;
  args.emplace("x", &x);
  EXPECT_EQ(error_of("void f(float *x) { for (i = 0; i < 1; i++) {"
                     " if (i > 0 && x[i + 9] > 0.0f) { x[0] = 1.0f; } } }",
                     args),
            "reference: subscript 9 out of bounds in dimension 0");
  EXPECT_EQ(error_of("void f(float *x) { for (i = 0; i < 1; i++) {"
                     " if (i == 0 || x[i + 8] > 0.0f) { x[0] = 1.0f; } } }",
                     args),
            "reference: subscript 8 out of bounds in dimension 0");
}

TEST(Reference, LoopBoundIsReevaluatedEveryIteration) {
  HostArray y = HostArray::make(ast::ScalarType::kI32, {{0, 1}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(int *y) {
  int n = 10;
  int trips = 0;
  for (i = 0; i < n; i++) {
    n = n - 1;
    trips += 1;
  }
  y[0] = trips;
})", args);
  EXPECT_EQ(y.get_int(0), 5);
}

TEST(Reference, CompoundAssignmentOnScalarsAndElements) {
  HostArray n = HostArray::make(ast::ScalarType::kI32, {{0, 3}});
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 2}});
  RefArgMap args;
  args.emplace("n", &n);
  args.emplace("x", &x);
  run(R"(
void f(int *n, float *x) {
  int t = 7;
  float s = 0.1f;
  t += 3;
  t *= 4;
  t -= 1;
  t /= 2;
  s += 0.2f;
  s *= 3.0f;
  n[0] = t;
  n[1] = 5;
  n[1] *= 3;
  n[1] /= 0;
  n[2] = 9;
  n[2] -= 2.5f;
  x[0] = s;
  x[1] = 0.1f;
  x[1] += 0.2f;
  x[1] /= 3.0f;
})", args);
  EXPECT_EQ(n.get_int(0), 19);        // ((7 + 3) * 4 - 1) / 2
  EXPECT_EQ(n.get_int(1), 0);         // integer /0 gives 0
  EXPECT_EQ(n.get_int(2), 7);         // rhs converts to int before the update
  EXPECT_EQ(static_cast<float>(x.get(0)), (0.1f + 0.2f) * 3.0f);
  EXPECT_EQ(static_cast<float>(x.get(1)), (0.1f + 0.2f) / 3.0f);
}

TEST(Reference, FloatToIntCastTruncates) {
  HostArray y = HostArray::make(ast::ScalarType::kI64, {{0, 4}});
  RefArgMap args;
  args.emplace("y", &y);
  run(R"(
void f(long *y) {
  float p = 3.9f;
  double q = -3.9;
  y[0] = int(p);
  y[1] = int(q);
  y[2] = long(25000000000.75);
  y[3] = int(-0.5f);
})", args);
  EXPECT_EQ(y.get_int(0), 3);
  EXPECT_EQ(y.get_int(1), -3);
  EXPECT_EQ(y.get_int(2), 25000000000);
  EXPECT_EQ(y.get_int(3), 0);
}

// -- error messages ---------------------------------------------------------------

TEST(Reference, ArgumentErrorMessages) {
  const std::string src = "void f(int n, float *x) { for (i=0;i<n;i++) { x[i] = 1.0f; } }";
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}});
  RefArgMap no_array;
  no_array.emplace("n", rt::ScalarValue::of_i32(4));
  EXPECT_EQ(error_of(src, no_array), "reference: missing array argument 'x'");
  RefArgMap scalar_for_array;
  scalar_for_array.emplace("n", rt::ScalarValue::of_i32(4));
  scalar_for_array.emplace("x", rt::ScalarValue::of_i32(4));
  EXPECT_EQ(error_of(src, scalar_for_array), "reference: missing array argument 'x'");
  RefArgMap no_scalar;
  no_scalar.emplace("x", &x);
  EXPECT_EQ(error_of(src, no_scalar), "reference: missing scalar argument 'n'");
}

TEST(Reference, OutOfBoundsMessageNamesFirstFailingDimension) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}, {1, 3}});
  RefArgMap args;
  args.emplace("x", &x);
  EXPECT_EQ(error_of("void f(float x[?][?]) { for (i = 0; i < 1; i++) { x[5][7] = 1.0f; } }",
                     args),
            "reference: subscript 5 out of bounds in dimension 0");
  EXPECT_EQ(error_of("void f(float x[?][?]) { for (i = 0; i < 1; i++) { x[1][0] = 1.0f; } }",
                     args),
            "reference: subscript 0 out of bounds in dimension 1");
  EXPECT_EQ(error_of("void f(float x[?][?]) { for (i = 0; i < 1; i++) { x[0][3] = x[3][4]; } }",
                     args),
            "reference: subscript 4 out of bounds in dimension 1");
}

TEST(Reference, RankMismatchIsReportedWhenExecuted) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}, {0, 4}});
  RefArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(0));
  args.emplace("x", &x);
  const std::string src = "void f(int n, float *x) { for (i=0;i<n;i++) { x[i] = 1.0f; } }";
  EXPECT_EQ(error_of(src, args), "");  // the access never runs
  args.at("n") = rt::ScalarValue::of_i32(1);
  EXPECT_EQ(error_of(src, args), "reference: subscript rank mismatch");
}

TEST(Reference, SubscriptsAreEvaluatedBeforeBoundsAndRhs) {
  HostArray x = HostArray::make(ast::ScalarType::kF32, {{0, 4}, {0, 4}});
  HostArray k = HostArray::make(ast::ScalarType::kI32, {{0, 4}});
  RefArgMap args;
  args.emplace("x", &x);
  args.emplace("k", &k);
  // Every subscript of x is evaluated before x's bounds are checked, so the
  // inner k[99] fails first although x's first subscript is out of range.
  EXPECT_EQ(error_of("void f(float x[?][?], int *k) { for (i = 0; i < 1; i++) {"
                     " x[10][k[99]] = 1.0f; } }",
                     args),
            "reference: subscript 99 out of bounds in dimension 0");
  // A store checks its own subscripts before it evaluates the rhs.
  EXPECT_EQ(error_of("void f(float x[?][?], int *k) { for (i = 0; i < 1; i++) {"
                     " x[10][0] = float(k[99]); } }",
                     args),
            "reference: subscript 10 out of bounds in dimension 0");
}

// -- pinned results -----------------------------------------------------------------

TEST(Reference, PaperWorkloadChecksumsBitIdentical) {
  // Recorded from the tree-walking interpreter this one replaced. The
  // reference runs serially, so every checksum is exact.
  const std::vector<std::pair<std::string, double>> expected = {
      {"303.ostencil", 0x1.7eaba8cb53p+15},   {"304.olbm", 0x1.201c9504cap+17},
      {"314.omriq", 0x1.31e99dbd214p+13},     {"350.md", -0x1.0cab9ede52e29p+40},
      {"352.ep", 0x1.da0d09cea42p+16},        {"353.clvrleaf", 0x1.b9ec955397cb6p+14},
      {"354.cg", 0x1.ce1f6140a1ep+12},        {"355.seismic", 0x1.c674c93845cp+7},
      {"356.sp", 0x1.a00194b3a826p+17},       {"363.swim", 0x1.c9f936cbae96bp+14},
      {"EP", 0x1.8311f3914fddap+18},          {"CG", 0x1.76b3ad50412p+10},
      {"MG", -0x1.a6166dbb1b2p+5},            {"SP", 0x1.b483c0bdadp+16},
      {"LU", -0x1.b78c588c478p+6},            {"BT", 0x1.31a23b030bf8p+7},
  };
  ASSERT_EQ(workloads::all_workloads().size(), expected.size());
  for (const auto& [name, checksum] : expected) {
    const workloads::Workload* w = workloads::find_workload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(workloads::run_reference(*w).checksum, checksum) << name;
  }
}

}  // namespace
}  // namespace safara::driver
