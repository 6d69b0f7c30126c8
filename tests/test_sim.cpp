// GPU simulator tests: functional execution through the full pipeline,
// SIMT divergence, transaction coalescing, the read-only cache, occupancy,
// and the memory-bandwidth model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "tests_common.hpp"
#include "vgpu/cache.hpp"
#include "vgpu/occupancy.hpp"
#include "workloads/harness.hpp"
#include "workloads/workloads.hpp"

namespace safara::test {
namespace {

using vgpu::DeviceSpec;

std::vector<vgpu::LaunchStats> run_kernel(const std::string& src, Data& data,
                                          driver::CompilerOptions opts = {}) {
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(src);
  return run_sim(prog, data);
}

// -- functional coverage across operators -------------------------------------

TEST(SimFunctional, IntegerArithmetic) {
  const char* src = R"(
void f(int n, const int *x, int *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = (x[i] * 3 + 7) / 2 - x[i] % 5;
  }
})";
  Data data;
  data.arrays.emplace("x", i32_array({{0, 200}}));
  data.arrays.emplace("y", i32_array({{0, 200}}));
  fill_pattern(data.array("x"), 3);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(200));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, DivisionByZeroYieldsZero) {
  const char* src = R"(
void f(int n, const int *x, int *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = x[i] / (i - 5) + x[i] % (i - 7);
  }
})";
  Data data;
  data.arrays.emplace("x", i32_array({{0, 32}}));
  data.arrays.emplace("y", i32_array({{0, 32}}));
  fill_pattern(data.array("x"), 5);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(32));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, TranscendentalsMatchReference) {
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = sqrt(x[i]) + exp(x[i] * 0.1f) + log(x[i] + 1.0f)
         + sin(x[i]) * cos(x[i]) + pow(x[i], 2.0f)
         + rsqrt(x[i] + 0.5f) + floor(x[i] * 3.0f) + ceil(x[i] * 3.0f)
         + fabs(-x[i]) + min(x[i], 0.5f) + max(x[i], 0.75f);
  }
})";
  Data data;
  data.arrays.emplace("x", f32_array({{0, 128}}));
  data.arrays.emplace("y", f32_array({{0, 128}}));
  fill_pattern(data.array("x"), 9);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, DoublePrecision) {
  const char* src = R"(
void f(int n, const double *x, double *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = x[i] * 1.000000001 + 1.0e-12;
  }
})";
  Data data;
  data.arrays.emplace("x", f64_array({{0, 100}}));
  data.arrays.emplace("y", f64_array({{0, 100}}));
  fill_pattern(data.array("x"), 21);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(100));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, LogicalAndComparisonValues) {
  const char* src = R"(
void f(int n, const int *x, int *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = (x[i] > 10 && x[i] < 50) + (x[i] == 7 || !(x[i] >= 3));
  }
})";
  Data data;
  data.arrays.emplace("x", i32_array({{0, 96}}));
  data.arrays.emplace("y", i32_array({{0, 96}}));
  fill_pattern(data.array("x"), 17);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(96));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

// -- divergence ------------------------------------------------------------------

TEST(SimDivergence, IfElsePerLane) {
  const char* src = R"(
void f(int n, const int *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    if (x[i] % 2 == 0) {
      y[i] = 2.0f;
    } else {
      y[i] = 3.0f;
    }
  }
})";
  Data data;
  data.arrays.emplace("x", i32_array({{0, 128}}));
  data.arrays.emplace("y", f32_array({{0, 128}}));
  fill_pattern(data.array("x"), 31);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimDivergence, NestedIfInsideLoop) {
  const char* src = R"(
void f(int n, const int *x, float *y) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < 8; t++) {
      if (x[i] % (t + 2) == 0) {
        if (t % 2 == 0) { acc += 1.0f; }
        else { acc += 0.5f; }
      }
    }
    y[i] = acc;
  }
})";
  Data data;
  data.arrays.emplace("x", i32_array({{0, 64}}));
  data.arrays.emplace("y", f32_array({{0, 64}}));
  fill_pattern(data.array("x"), 41);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimDivergence, VariableTripLoopPerLane) {
  // Each lane loops a different number of times: the loop-exit branch
  // diverges every iteration (the merged SIMT-stack entry path).
  const char* src = R"(
void f(int n, const int *len, float *y) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < len[i]; t++) {
      acc += float(t);
    }
    y[i] = acc;
  }
})";
  Data data;
  driver::HostArray len = driver::HostArray::make(ast::ScalarType::kI32, {{0, 64}});
  for (int i = 0; i < 64; ++i) len.set_int(i, i % 9);
  data.arrays.emplace("len", std::move(len));
  data.arrays.emplace("y", f32_array({{0, 64}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimDivergence, PartialLastWarp) {
  // n not a multiple of the warp size: the tail warp starts partially active.
  const char* src = R"(
void f(int n, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { y[i] = float(i); }
})";
  Data data;
  data.arrays.emplace("y", f32_array({{0, 50}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(50));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

// -- memory system ------------------------------------------------------------------

TEST(SimMemory, CoalescedVsStridedTransactions) {
  const char* coalesced = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i]; }
})";
  const char* strided = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i * 32]; }
})";
  Data d1;
  d1.arrays.emplace("x", f32_array({{0, 4096}}));
  d1.arrays.emplace("y", f32_array({{0, 4096}}));
  fill_pattern(d1.array("x"), 3);
  d1.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  Data d2 = d1.clone();

  auto s1 = run_kernel(coalesced, d1);
  auto s2 = run_kernel(strided, d2);
  // 128 threads reading 4B each: coalesced = 4 segments + stores;
  // stride-32 = one segment per lane.
  EXPECT_LT(s1[0].mem_transactions, s2[0].mem_transactions / 4);
  EXPECT_LT(s1[0].cycles, s2[0].cycles);
}

TEST(SimMemory, ReadOnlyCacheHitsOnReuseAcrossIterations) {
  // Walking k over [i][k] rows: after a line's first (miss) touch, the next
  // ~31 iterations hit the RO cache.
  const char* src = R"(
void f(int n, int m, const float a[n][m], float *y) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (k = 0; k < m; k++) {
      acc += a[i][k];
    }
    y[i] = acc;
  }
})";
  Data data;
  data.arrays.emplace("a", f32_array({{0, 32}, {0, 64}}));
  data.arrays.emplace("y", f32_array({{0, 32}}));
  fill_pattern(data.array("a"), 5);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(32));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(64));
  auto stats = run_kernel(src, data);
  EXPECT_GT(stats[0].ro_hits, stats[0].ro_misses);
}

TEST(SimMemory, WrittenArraysBypassReadOnlyCache) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i] = x[i] + 1.0f; }
})";
  Data data;
  data.arrays.emplace("x", f32_array({{0, 256}}));
  fill_pattern(data.array("x"), 7);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(256));
  auto stats = run_kernel(src, data);
  EXPECT_EQ(stats[0].ro_hits + stats[0].ro_misses, 0u);
}

TEST(SimMemory, AtomicsAreExact) {
  const char* src = R"(
void f(int n, float *sum) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    sum[0] += 1.0f;
  }
})";
  Data data;
  data.arrays.emplace("sum", f32_array({{0, 1}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(5000));
  auto stats = run_kernel(src, data);
  EXPECT_FLOAT_EQ(static_cast<float>(data.array("sum").get(0)), 5000.0f);
  EXPECT_GT(stats[0].atomics, 0u);
}

TEST(SimMemory, OutOfBoundsAccessThrows) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i + 1000000] = 1.0f; }
})";
  Data data;
  data.arrays.emplace("x", f32_array({{0, 64}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  driver::Compiler compiler{driver::CompilerOptions::openuh_base()};
  auto prog = compiler.compile(src);
  EXPECT_THROW(run_sim(prog, data), std::runtime_error);
}

// -- occupancy ----------------------------------------------------------------------

TEST(Occupancy, FullAtLowRegisters) {
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 32, 256);
  EXPECT_EQ(occ.warps_per_sm, 64);
  EXPECT_DOUBLE_EQ(occ.ratio, 1.0);
}

TEST(Occupancy, RegistersLimit) {
  // 128 regs x 256 threads = 32768 regs per block; 65536/SM -> 2 blocks.
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 128, 256);
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.limiter, vgpu::OccupancyLimiter::kRegisters);
  EXPECT_DOUBLE_EQ(occ.ratio, 0.25);
}

TEST(Occupancy, GranularityRounding) {
  // 65 regs rounds to 72: 65536 / (72*256) = 3 blocks (not the 3.9 of 65).
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 65, 256);
  EXPECT_EQ(occ.blocks_per_sm, 3);
}

TEST(Occupancy, BlockCountLimitForTinyBlocks) {
  // 32-thread blocks with few registers: capped by the 16-block limit.
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 16, 32);
  EXPECT_EQ(occ.blocks_per_sm, 16);
  EXPECT_EQ(occ.limiter, vgpu::OccupancyLimiter::kBlocks);
}

TEST(Occupancy, ThreadLimit) {
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 16, 1024);
  EXPECT_EQ(occ.blocks_per_sm, 2);  // 2048 threads / 1024
}

TEST(Occupancy, MonotoneInRegisters) {
  double prev = 2.0;
  for (int regs : {32, 48, 64, 96, 128, 192, 255}) {
    vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), regs, 256);
    EXPECT_LE(occ.ratio, prev) << regs;
    prev = occ.ratio;
  }
}

// -- cache model ---------------------------------------------------------------------

TEST(CacheModel, HitsAfterFill) {
  vgpu::CacheModel cache(1024, 128, 2);  // 8 lines, 2-way, 4 sets
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(64));  // same line
  EXPECT_FALSE(cache.access(128));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(CacheModel, LruEviction) {
  vgpu::CacheModel cache(256, 128, 2);  // exactly 1 set, 2 ways
  cache.access(0);     // miss
  cache.access(128);   // miss
  cache.access(0);     // hit (refresh LRU)
  cache.access(256);   // miss, evicts 128
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
}

TEST(CacheModel, SetsIsolateConflicts) {
  vgpu::CacheModel cache(512, 128, 1);  // 4 direct-mapped sets
  cache.access(0);
  cache.access(128);
  cache.access(256);
  cache.access(384);
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(128));
}

// -- bandwidth model -----------------------------------------------------------------

TEST(SimBandwidth, ScatteredTrafficScalesWorseThanLinear) {
  // Two kernels with identical instruction counts; one's loads are scattered.
  // Under the bandwidth model the scattered version must cost more than the
  // pure latency difference (~3x here).
  const char* unit = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i] + x[i + 1] + x[i + 2] + x[i + 3]; }
})";
  const char* scat = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    y[i] = x[i * 33] + x[i * 33 + 37] + x[i * 33 + 74] + x[i * 33 + 111];
  }
})";
  Data d1;
  d1.arrays.emplace("x", f32_array({{0, 300000}}));
  d1.arrays.emplace("y", f32_array({{0, 8192}}));
  fill_pattern(d1.array("x"), 2);
  d1.scalars.emplace("n", rt::ScalarValue::of_i32(8192));
  Data d2 = d1.clone();
  auto s1 = run_kernel(unit, d1);
  auto s2 = run_kernel(scat, d2);
  EXPECT_GT(s2[0].cycles, s1[0].cycles * 3);
}

TEST(SimMemory, CoalesceFallbacksOnlyForOutOfOrderLanes) {
  // Rising lane addresses are coalesced in one pass; a reversed gather whose
  // lanes span several segments (and RO-cache lines) takes the exact
  // set-based path, counted by sim.coalesce_fallbacks.
  auto fallbacks = [](const char* src) {
    Data data;
    data.arrays.emplace("x", f32_array({{0, 8 * 512}}));
    data.arrays.emplace("y", f32_array({{0, 512}}));
    fill_pattern(data.array("x"), 9);
    data.scalars.emplace("n", rt::ScalarValue::of_i32(512));
    driver::Compiler compiler(driver::CompilerOptions::openuh_base());
    auto prog = compiler.compile(src);
    obs::Collector collector;
    run_sim(prog, data, DeviceSpec::k20xm(), &collector);
    const auto& counters = collector.metrics.counters();
    EXPECT_TRUE(counters.count("sim.coalesce_fallbacks"));
    return collector.metrics.counter("sim.coalesce_fallbacks");
  };
  EXPECT_EQ(fallbacks(R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i] * 2.0f; }
})"),
            0);
  EXPECT_GT(fallbacks(R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[8 * (n - 1 - i)] * 2.0f; }
})"),
            0);
}

TEST(SimFunctional, PhiIsRejectedByBothDispatchEngines) {
  // A phi between two fusable moves would land inside a superblock; decode
  // must refuse it before reading its operands (four here, one more than a
  // decoded instruction holds), whichever engine runs.
  vir::Kernel k;
  k.name = "phi";
  k.vreg_types = {vir::VType::kI32, vir::VType::kI32, vir::VType::kI32};
  vir::Instr m0;
  m0.op = vir::Opcode::kMovImmI;
  m0.dst = 0;
  vir::Instr m1 = m0;
  m1.dst = 1;
  const vir::Instr phi = vir::make_phi(k, vir::VType::kI32, 2, {0, 1, 0, 1});
  vir::Instr exit;
  exit.op = vir::Opcode::kExit;
  k.code = {m0, m1, phi, exit};
  regalloc::AllocationResult alloc;
  alloc.regs_used = 3;
  alloc.spilled.assign(3, false);
  vgpu::LaunchConfig cfg;
  cfg.block[0] = 32;
  for (vgpu::SimDispatch d : {vgpu::SimDispatch::kSuper, vgpu::SimDispatch::kRef}) {
    SCOPED_TRACE(vgpu::to_string(d));
    vgpu::set_sim_dispatch(d);
    vgpu::DeviceMemory mem;
    EXPECT_THROW(vgpu::launch(k, alloc, DeviceSpec::k20xm(), mem, {}, cfg), std::runtime_error);
  }
  vgpu::reset_sim_dispatch();
}

// -- DeviceSpec validation --------------------------------------------------------

/// Launches a trivial kernel on `spec`; returns the invalid_argument message
/// (empty when the launch is accepted).
std::string launch_error(const DeviceSpec& spec) {
  Data data;
  data.arrays.emplace("y", f32_array({{0, 64}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  driver::Compiler compiler(driver::CompilerOptions::openuh_base());
  auto prog = compiler.compile(R"(
void f(int n, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { y[i] = float(i); }
})");
  try {
    run_sim(prog, data, spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SimSpecValidation, AcceptsK20xm) { EXPECT_EQ(launch_error(DeviceSpec::k20xm()), ""); }

TEST(SimSpecValidation, RejectsNonWarp32) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.warp_size = 64;
  EXPECT_NE(launch_error(spec).find("warp_size"), std::string::npos);
}

TEST(SimSpecValidation, RejectsZeroSms) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.num_sms = 0;
  EXPECT_NE(launch_error(spec).find("num_sms"), std::string::npos);
}

TEST(SimSpecValidation, RejectsZeroSchedulers) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.schedulers_per_sm = 0;
  EXPECT_NE(launch_error(spec).find("schedulers_per_sm"), std::string::npos);
}

TEST(SimSpecValidation, RejectsNonPowerOfTwoSegment) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.memory_segment = 96;
  EXPECT_NE(launch_error(spec).find("memory_segment"), std::string::npos);
}

TEST(SimSpecValidation, RejectsNonPowerOfTwoCacheLine) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.ro_cache_line = 100;
  EXPECT_NE(launch_error(spec).find("ro_cache_line"), std::string::npos);
}

TEST(SimSpecValidation, RejectsZeroCacheWays) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.ro_cache_ways = 0;
  EXPECT_NE(launch_error(spec).find("ro_cache_ways"), std::string::npos);
}

TEST(SimSpecValidation, RejectsCacheSmallerThanOneSet) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.ro_cache_bytes = spec.ro_cache_line * spec.ro_cache_ways - 1;
  EXPECT_NE(launch_error(spec).find("ro_cache_bytes"), std::string::npos);
}

// -- scheduler / coalescer edge-case pins ----------------------------------------
//
// Exact LaunchStats, per-SM/per-pc profiles and output bits for shapes the
// warp scheduler and the coalescer handle specially: more resident warps than
// one 64-bit word, waits far beyond any short scheduling horizon, warps
// retiring while others wait to issue, and lane addresses that fall instead
// of rise. The pinned values were recorded with the scan-based scheduler and
// the set-based coalescer that preceded the current implementation; both
// dispatch engines must reproduce them.

/// FNV-1a over a byte string: a compact fingerprint for a pinned document.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct PinResult {
  std::string stats;           // LaunchStats::to_json, compact
  std::uint64_t profile = 0;   // fnv1a(Collector::sim_to_json)
  std::uint64_t outputs = 0;   // fnv1a over every output array's bytes
  std::uint64_t max_resident_warps = 0;
};

PinResult run_pinned(const char* src, Data data, const DeviceSpec& spec,
                     vgpu::SimDispatch dispatch) {
  struct DispatchReset {
    ~DispatchReset() { vgpu::reset_sim_dispatch(); }
  } reset;
  vgpu::set_sim_dispatch(dispatch);
  driver::Compiler compiler(driver::CompilerOptions::openuh_base());
  auto prog = compiler.compile(src);
  obs::Collector collector;
  auto stats = run_sim(prog, data, spec, &collector);
  PinResult r;
  for (const vgpu::LaunchStats& s : stats) r.stats += s.to_json().dump();
  r.profile = fnv1a(collector.sim_to_json().dump());
  for (const obs::KernelSimProfile& kp : collector.sim_profiles) {
    for (const obs::SmProfile& sm : kp.sms) {
      r.max_resident_warps = std::max(r.max_resident_warps, sm.max_resident_warps);
    }
  }
  std::string bytes;
  for (const auto& [name, arr] : data.arrays) {
    bytes.append(reinterpret_cast<const char*>(arr.data.data()), arr.data.size());
  }
  r.outputs = fnv1a(bytes);
  return r;
}

void expect_pinned(const char* src, const Data& data, const DeviceSpec& spec,
                   const std::string& stats, std::uint64_t profile, std::uint64_t outputs) {
  for (vgpu::SimDispatch d : {vgpu::SimDispatch::kSuper, vgpu::SimDispatch::kRef}) {
    SCOPED_TRACE(vgpu::to_string(d));
    const PinResult r = run_pinned(src, data, spec, d);
    EXPECT_EQ(r.stats, stats);
    EXPECT_EQ(r.profile, profile) << "profile fingerprint 0x" << std::hex << r.profile;
    EXPECT_EQ(r.outputs, outputs) << "output fingerprint 0x" << std::hex << r.outputs;
  }
}

/// Per-lane trip counts and a strided gather keep warps waking at scattered
/// cycles, so the ready set sees many distinct wake-up times.
const char* kPinGatherLoop = R"(
void f(int n, const int *len, const float *x, float *y) {
  #pragma acc parallel loop gang vector(256)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < len[i]; t++) {
      acc += x[(i * 7 + t * 131) % n];
    }
    y[i] = y[i] * 0.5f + acc;
  }
})";

Data pin_gather_data(int n) {
  Data data;
  driver::HostArray len = driver::HostArray::make(ast::ScalarType::kI32, {{0, n}});
  for (int i = 0; i < n; ++i) len.set_int(i, 2 + (i * 5) % 7);
  data.arrays.emplace("len", std::move(len));
  data.arrays.emplace("x", f32_array({{0, n}}));
  data.arrays.emplace("y", f32_array({{0, n}}));
  fill_pattern(data.array("x"), 11);
  fill_pattern(data.array("y"), 12);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  return data;
}

TEST(SimSchedulerPins, MoreThan64ResidentWarps) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.num_sms = 2;
  spec.max_warps_per_sm = 128;
  spec.max_threads_per_sm = 4096;
  spec.registers_per_sm = 4 * 65536;
  const Data data = pin_gather_data(2 * 16 * 256 * 2);
  // The shape really does keep more than one 64-bit word of warps resident.
  EXPECT_GT(run_pinned(kPinGatherLoop, data, spec, vgpu::SimDispatch::kSuper).max_resident_warps,
            64u);
  expect_pinned(kPinGatherLoop, data, spec,
      R"({"cycles":30785,"warp_instructions":78848,"mem_transactions":34155,)"
      R"("global_loads":9216,"global_stores":512,"ro_hits":10803,)"
      R"("ro_misses":22328,"atomics":0,"spill_accesses":0,"shared_accesses":0,)"
      R"("shared_bank_conflicts":0,"regs_per_thread":26,"occupancy":1.0,)"
      R"("occupancy_limiter":"warps"})",
      0xee51f469d82bc8c8ull, 0xebf656d628299cefull);
}

TEST(SimSchedulerPins, WaitsBeyondSchedulingHorizon) {
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.num_sms = 2;
  spec.lat.global_base = 3000;
  spec.lat.ro_cache_miss = 2600;
  spec.lat.tx_cycles = 40;  // deep memory queues: waits grow without bound
  expect_pinned(kPinGatherLoop, pin_gather_data(4096), spec,
      R"({"cycles":17343,"warp_instructions":19712,"mem_transactions":8535,)"
      R"("global_loads":2304,"global_stores":128,"ro_hits":7895,"ro_misses":384,)"
      R"("atomics":0,"spill_accesses":0,"shared_accesses":0,)"
      R"("shared_bank_conflicts":0,"regs_per_thread":26,"occupancy":1.0,)"
      R"("occupancy_limiter":"registers"})",
      0xe3c38961ab668e0full, 0x3d6a4148529385dbull);
}

TEST(SimSchedulerPins, StaggeredRetirementUnderContention) {
  // Two launches. The first keeps more warps ready than the schedulers can
  // issue (two independent ALU chains per warp, 64 warps per SM) while
  // per-warp trip counts retire warps and admit blocks at scattered
  // positions, so each retirement must shift ready, wheel and far positions
  // exactly like the warp list. The second runs three one-warp blocks per
  // SM through mixed load/ALU loops, so idle gaps are common and warps at
  // different pcs often share the earliest ready cycle: the profile pins
  // which of them the gap is charged to.
  const char* src = R"(
void f(int n, int m, const int *len, const float *x, float *y, float *z) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    float a = y[i];
    float b = 1.0f;
    #pragma acc loop seq
    for (t = 0; t < len[i]; t++) {
      a = a * 1.0001f + 0.25f;
      b = b * 0.999f + 0.5f;
    }
    y[i] = a + b;
  }
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < m; i++) {
    float c = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < len[i * 37 % n]; t++) {
      c = c * 0.5f + x[(i * 5 + t * 193) % n];
    }
    z[i] = c;
  }
})";
  const int n = 2 * 16 * 128 * 2;
  const int m = 2 * 3 * 32;
  Data data;
  driver::HostArray len = driver::HostArray::make(ast::ScalarType::kI32, {{0, n}});
  for (int i = 0; i < n; ++i) len.set_int(i, 2 + ((i / 32) * 7) % 23);
  data.arrays.emplace("len", std::move(len));
  data.arrays.emplace("x", f32_array({{0, n}}));
  data.arrays.emplace("y", f32_array({{0, n}}));
  data.arrays.emplace("z", f32_array({{0, m}}));
  fill_pattern(data.array("x"), 21);
  fill_pattern(data.array("y"), 22);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.num_sms = 2;
  expect_pinned(src, data, spec,
      R"({"cycles":10739,"warp_instructions":43400,"mem_transactions":4084,)"
      R"("global_loads":3828,"global_stores":256,"ro_hits":3316,"ro_misses":256,)"
      R"("atomics":0,"spill_accesses":0,"shared_accesses":0,)"
      R"("shared_bank_conflicts":0,"regs_per_thread":24,"occupancy":1.0,)"
      R"("occupancy_limiter":"warps"})"  // second launch:
      R"({"cycles":20020,"warp_instructions":2415,)"
      R"("mem_transactions":3444,"global_loads":292,"global_stores":6,)"
      R"("ro_hits":2936,"ro_misses":502,"atomics":0,"spill_accesses":0,)"
      R"("shared_accesses":0,"shared_bank_conflicts":0,"regs_per_thread":26,)"
      R"("occupancy":0.25,"occupancy_limiter":"blocks"})",
      0x9ccf57d4f64ad1c5ull, 0x52250780b9eaa565ull);
}

TEST(SimSchedulerPins, DescendingLaneAddresses) {
  // `a` is never written (RO-cache path); `y` is read and written (global
  // path). Both are walked high-to-low, plus a falling 8-byte stride.
  const char* src = R"(
void f(int n, const float *a, double *d, float *y) {
  #pragma acc parallel loop gang vector(96)
  for (i = 0; i < n; i++) {
    y[n - 1 - i] = y[n - 1 - i] * 0.5f + a[n - 1 - i] + a[(n - 1 - i) / 3];
    d[2 * (n - 1 - i)] = d[2 * (n - 1 - i)] + 1.0;
  }
})";
  const int n = 1000;  // not a multiple of the block: partial tail warps
  Data data;
  data.arrays.emplace("a", f32_array({{0, n}}));
  data.arrays.emplace("d", f64_array({{0, 2 * n}}));
  data.arrays.emplace("y", f32_array({{0, n}}));
  fill_pattern(data.array("a"), 3);
  fill_pattern(data.array("d"), 4);
  fill_pattern(data.array("y"), 5);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  DeviceSpec spec = DeviceSpec::k20xm();
  spec.num_sms = 3;
  expect_pinned(src, data, spec,
      R"({"cycles":2264,"warp_instructions":1622,"mem_transactions":481,)"
      R"("global_loads":128,"global_stores":64,"ro_hits":52,"ro_misses":53,)"
      R"("atomics":0,"spill_accesses":0,"shared_accesses":0,)"
      R"("shared_bank_conflicts":0,"regs_per_thread":26,"occupancy":0.75,)"
      R"("occupancy_limiter":"blocks"})",
      0x1df38c095a0d68b7ull, 0x28a917e259173576ull);
}

// -- parallel-simulation determinism ------------------------------------------
//
// The contract of vgpu::set_sim_threads: for any thread count, every launch
// produces bit-identical LaunchStats, per-SM profiles, and device memory.

/// Restores the simulator threading knobs when a test exits (even on failure).
struct SimThreadGuard {
  ~SimThreadGuard() {
    vgpu::set_sim_threads(0);
    vgpu::set_sim_overlap_check(vgpu::OverlapCheckMode::kAuto);
  }
};

struct SimSnapshot {
  std::string result;    // RunResult::to_json — merged LaunchStats, all fields
  std::string profiles;  // Collector::sim_to_json — per-SM profiles per launch
  double checksum = 0.0;
};

SimSnapshot snapshot_workload(const workloads::Workload& w, int threads) {
  vgpu::set_sim_threads(threads);
  obs::Collector collector;
  workloads::RunResult r = workloads::simulate(
      w, driver::CompilerOptions::openuh_safara_clauses(), vgpu::DeviceSpec::k20xm(),
      &collector);
  SimSnapshot s;
  s.result = r.to_json().dump(2);
  s.profiles = collector.sim_to_json().dump(2);
  s.checksum = r.checksum;
  return s;
}

TEST(SimDeterminism, SimThreadsEnvParsedStrictly) {
  // With no programmatic override, sim_threads() consults SAFARA_SIM_THREADS
  // on every call. atoi used to turn "3abc" into 3 and "abc" into 0 threads;
  // the strict parser ignores malformed values and keeps the default.
  SimThreadGuard guard;
  vgpu::set_sim_threads(0);
  const char* kVar = "SAFARA_SIM_THREADS";
  const char* saved = std::getenv(kVar);
  const std::string saved_copy = saved ? saved : "";

  ::unsetenv(kVar);
  const int fallback = vgpu::sim_threads();
  EXPECT_GE(fallback, 1);
  ::setenv(kVar, "3", 1);
  EXPECT_EQ(vgpu::sim_threads(), 3);
  for (const char* bad : {"abc", "3abc", "", " 3", "-2", "0"}) {
    ::setenv(kVar, bad, 1);
    EXPECT_EQ(vgpu::sim_threads(), fallback) << "value: '" << bad << "'";
  }
  // The programmatic override still beats a valid env value.
  ::setenv(kVar, "3", 1);
  vgpu::set_sim_threads(2);
  EXPECT_EQ(vgpu::sim_threads(), 2);

  if (saved) {
    ::setenv(kVar, saved_copy.c_str(), 1);
  } else {
    ::unsetenv(kVar);
  }
}

TEST(SimDeterminism, AllWorkloadsBitIdenticalAcrossThreadCounts) {
  SimThreadGuard guard;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int wide = std::max(4, hw);  // thread counts above the core count are valid
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    const SimSnapshot seq = snapshot_workload(w, 1);
    for (int threads : {2, wide}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const SimSnapshot par = snapshot_workload(w, threads);
      EXPECT_EQ(seq.result, par.result);
      EXPECT_EQ(seq.profiles, par.profiles);
      EXPECT_EQ(seq.checksum, par.checksum);  // exact: same bits, not "close"
    }
  }
}

TEST(SimDeterminism, NoWorkloadKernelWritesOverlapAcrossSms) {
  // The parallel SM loop is only sound for kernels whose blocks write
  // disjoint memory. Release builds leave the overlap checker off, so a racy
  // workload would silently produce order-dependent checksums there; arm it
  // explicitly and require that no paper workload ever trips it, under any
  // of the Fig 11 configurations.
  SimThreadGuard guard;
  vgpu::set_sim_overlap_check(vgpu::OverlapCheckMode::kOn);
  vgpu::set_sim_threads(4);
  const std::pair<const char*, driver::CompilerOptions> configs[] = {
      {"openuh_base", driver::CompilerOptions::openuh_base()},
      {"openuh_safara", driver::CompilerOptions::openuh_safara()},
      {"openuh_safara_clauses", driver::CompilerOptions::openuh_safara_clauses()},
      {"pgi", driver::CompilerOptions::pgi_like()},
  };
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    for (const auto& [config, opts] : configs) {
      SCOPED_TRACE(config);
      obs::Collector collector;
      workloads::simulate(w, opts, vgpu::DeviceSpec::k20xm(), &collector);
      const auto& counters = collector.metrics.counters();
      EXPECT_EQ(counters.count("sim.overlap_fallbacks"), 0u)
          << "a kernel's blocks write memory another SM reads or writes";
    }
  }
}

TEST(SimDeterminism, DecodeCacheReuseBitIdenticalAcrossThreadCounts) {
  // rt::Runtime keeps one vgpu::LaunchContext per kernel, so repeated
  // launches reuse the decoded side table and superblock partition instead
  // of re-running decode(). The cache is pure memoization: stats, profiles,
  // and device memory must be bit-identical to cold-decoding every launch,
  // at any sim thread count.
  SimThreadGuard guard;
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = x[i] * 2.0f + 1.0f;
  }
})";
  driver::Compiler compiler(driver::CompilerOptions::openuh_base());
  auto prog = compiler.compile(src);
  ASSERT_EQ(prog.kernels.size(), 1u);
  const driver::CompiledKernel& k = prog.kernels[0];
  constexpr int kLaunches = 3;
  constexpr std::int64_t kN = 200;

  // Launches the kernel kLaunches times; with `reuse` one Runtime (and thus
  // one cached LaunchContext) serves every launch, otherwise each launch
  // gets a fresh Runtime and decodes from scratch.
  auto launch_many = [&](bool reuse, obs::Collector* collector) {
    rt::Device dev;
    rt::Runtime setup(dev);
    rt::Buffer xb = setup.alloc(ast::ScalarType::kF32, {{0, kN}});
    rt::Buffer yb = setup.alloc(ast::ScalarType::kF32, {{0, kN}});
    std::vector<float> host_x(kN);
    for (std::int64_t i = 0; i < kN; ++i) host_x[static_cast<std::size_t>(i)] = 0.25f * static_cast<float>(i % 17);
    dev.memory().copy_in(xb.device_addr, host_x.data(), host_x.size() * sizeof(float));
    rt::ArgMap args;
    args.emplace("n", rt::ScalarValue::of_i32(static_cast<std::int32_t>(kN)));
    args.emplace("x", &xb);
    args.emplace("y", &yb);
    std::string stats;
    rt::Runtime shared(dev);
    for (int l = 0; l < kLaunches; ++l) {
      rt::Runtime fresh(dev);
      rt::Runtime& r = reuse ? shared : fresh;
      stats += r.launch(k.kernel, k.alloc, k.plan, args, collector).to_json().dump(2);
      stats += "\n";
    }
    std::vector<float> host_y(kN);
    dev.memory().copy_out(yb.device_addr, host_y.data(), host_y.size() * sizeof(float));
    return std::make_pair(stats, host_y);
  };

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::string first_stats;
  for (int threads : {1, std::max(4, hw)}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    vgpu::set_sim_threads(threads);
    obs::Collector cold_c, warm_c;
    const auto cold = launch_many(/*reuse=*/false, &cold_c);
    const auto warm = launch_many(/*reuse=*/true, &warm_c);
    // The cache actually engaged: every launch after the first was a hit,
    // and the cold path never hit.
    EXPECT_EQ(warm_c.metrics.counter("sim.decode_cache_hits"), kLaunches - 1);
    EXPECT_EQ(cold_c.metrics.counter("sim.decode_cache_hits"), 0);
    // ...and changed nothing: stats and device memory are bit-identical.
    EXPECT_EQ(cold.first, warm.first);
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(cold.second[static_cast<std::size_t>(i)], warm.second[static_cast<std::size_t>(i)]) << "y[" << i << "]";
    }
    // Bit-identical across thread counts too (1 vs wide).
    if (first_stats.empty()) first_stats = warm.first;
    EXPECT_EQ(first_stats, warm.first);
  }
}

TEST(SimDeterminism, OverlappingWritesFallBackToSequential) {
  // Every thread writes y[0], so blocks on different SMs share a written
  // granule: the overlap checker must veto the parallel path and the launch
  // must still produce the sequential schedule's exact result.
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[0] = x[i];
  }
})";
  SimThreadGuard guard;
  auto run_once = [&](int threads, obs::Collector* collector) {
    vgpu::set_sim_threads(threads);
    Data data;
    data.arrays.emplace("x", f32_array({{0, 4096}}));
    data.arrays.emplace("y", f32_array({{0, 4}}));
    fill_pattern(data.array("x"), 7);
    data.scalars.emplace("n", rt::ScalarValue::of_i32(4096));
    driver::Compiler compiler(driver::CompilerOptions::openuh_base());
    auto prog = compiler.compile(src);
    auto stats = run_sim(prog, data, vgpu::DeviceSpec::k20xm(), collector);
    return std::make_pair(stats[0].cycles, data.array("y").get(0));
  };
  vgpu::set_sim_overlap_check(vgpu::OverlapCheckMode::kOn);
  const auto seq = run_once(1, nullptr);
  obs::Collector collector;
  const auto par = run_once(4, &collector);
  EXPECT_EQ(seq.first, par.first);
  EXPECT_EQ(seq.second, par.second);
  const auto metrics = collector.metrics.to_json();
  const auto* fallbacks = metrics.find("counters")->find("sim.overlap_fallbacks");
  ASSERT_NE(fallbacks, nullptr) << "expected the overlap checker to trip";
  EXPECT_GE(fallbacks->as_int(), 1);
}

TEST(SimDeterminism, AtomicKernelsRunSequentiallyAtAnyThreadCount) {
  // Atomic read-modify-write order across SMs is part of the results
  // contract, so kernels with atomics must bypass the parallel path entirely
  // and reproduce the sequential bits exactly.
  const char* src = R"(
void f(int n, const float *x, float *sum) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    sum[0] += x[i];
  }
})";
  SimThreadGuard guard;
  auto run_once = [&](int threads) {
    vgpu::set_sim_threads(threads);
    Data data;
    data.arrays.emplace("x", f32_array({{0, 5000}}));
    data.arrays.emplace("sum", f32_array({{0, 1}}));
    fill_pattern(data.array("x"), 3);
    data.scalars.emplace("n", rt::ScalarValue::of_i32(5000));
    driver::Compiler compiler(driver::CompilerOptions::openuh_base());
    auto prog = compiler.compile(src);
    run_sim(prog, data);
    return data.array("sum").get(0);
  };
  const double seq = run_once(1);
  const double par = run_once(8);
  EXPECT_EQ(seq, par);  // exact: floating-point order must not change
}

}  // namespace
}  // namespace safara::test
