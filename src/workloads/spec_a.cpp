// SPEC ACCEL-like workloads, part A: the C benchmarks (303, 304, 314, 350,
// 352). These use pointer parameters with hand-linearized indexing, matching
// the paper's observation that the `dim` clause is inapplicable to the SPEC
// C codes (303/304/314); `small` still applies.
#include "workloads/workloads_detail.hpp"

namespace safara::workloads::detail {

namespace {
driver::HostArray f32_1d(std::int64_t n) {
  return driver::HostArray::make(ast::ScalarType::kF32, {{0, n}});
}
driver::HostArray i32_1d(std::int64_t n) {
  return driver::HostArray::make(ast::ScalarType::kI32, {{0, n}});
}
}  // namespace

// ---------------------------------------------------------------------------
// 303.ostencil: 3D 7-point Jacobi stencil (Parboil/SPEC "stencil").
// ---------------------------------------------------------------------------
Workload make_spec_ostencil() {
  Workload w;
  w.name = "303.ostencil";
  w.suite = "SPEC";
  w.description = "3D 7-point thermal stencil, C pointers, coalesced along x";
  w.function = "ostencil";
  w.time_steps = 2;
  w.outputs = {"anext"};
  w.source = R"(
void ostencil(int nx, int ny, int nz, float c0, float c1,
              const float *a0, float *anext) {
  #pragma acc parallel loop gang small(a0, anext)
  for (k = 1; k < nz - 1; k++) {
    #pragma acc loop gang
    for (j = 1; j < ny - 1; j++) {
      #pragma acc loop vector(64)
      for (i = 1; i < nx - 1; i++) {
        anext[i + nx * (j + ny * k)] =
            c0 * a0[i + nx * (j + ny * k)]
          + c1 * (a0[i + 1 + nx * (j + ny * k)] + a0[i - 1 + nx * (j + ny * k)]
                + a0[i + nx * (j + 1 + ny * k)] + a0[i + nx * (j - 1 + ny * k)]
                + a0[i + nx * (j + ny * (k + 1))] + a0[i + nx * (j + ny * (k - 1))]);
      }
    }
  }
}
)";
  const int nx = 64, ny = 32, nz = 32;
  w.make_dataset = [=] {
    Dataset d;
    d.arrays.emplace("a0", f32_1d(nx * ny * nz));
    d.arrays.emplace("anext", f32_1d(nx * ny * nz));
    fill(d.arrays.at("a0"), 303);
    fill(d.arrays.at("anext"), 304);
    d.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
    d.scalars.emplace("ny", rt::ScalarValue::of_i32(ny));
    d.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
    d.scalars.emplace("c0", rt::ScalarValue::of_f32(0.5f));
    d.scalars.emplace("c1", rt::ScalarValue::of_f32(0.0833f));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 304.olbm: D2Q9-flavoured lattice Boltzmann collision. The array-of-
// structures source grid makes every read uncoalesced (stride 9), the
// structure-of-arrays destination is coalesced — the classic LBM layout
// problem.
// ---------------------------------------------------------------------------
Workload make_spec_olbm() {
  Workload w;
  w.name = "304.olbm";
  w.suite = "SPEC";
  w.description = "lattice Boltzmann collision, AoS gather (uncoalesced)";
  w.function = "olbm";
  w.time_steps = 2;
  w.outputs = {"dst"};
  w.source = R"(
void olbm(int n, float omega, const float *src, float *dst) {
  #pragma acc parallel loop gang vector(128) small(src, dst)
  for (c = 0; c < n; c++) {
    float f0 = src[c * 9 + 0];
    float f1 = src[c * 9 + 1];
    float f2 = src[c * 9 + 2];
    float f3 = src[c * 9 + 3];
    float f4 = src[c * 9 + 4];
    float f5 = src[c * 9 + 5];
    float f6 = src[c * 9 + 6];
    float f7 = src[c * 9 + 7];
    float f8 = src[c * 9 + 8];
    float rho = f0 + f1 + f2 + f3 + f4 + f5 + f6 + f7 + f8;
    float ux = (f1 - f3 + f5 - f6 - f7 + f8) / rho;
    float uy = (f2 - f4 + f5 + f6 - f7 - f8) / rho;
    float usq = 1.5f * (ux * ux + uy * uy);
    dst[c + 0 * n] = f0 - omega * (f0 - 0.4444444f * rho * (1.0f - usq));
    dst[c + 1 * n] = f1 - omega * (f1 - 0.1111111f * rho * (1.0f + 3.0f * ux + 4.5f * ux * ux - usq));
    dst[c + 2 * n] = f2 - omega * (f2 - 0.1111111f * rho * (1.0f + 3.0f * uy + 4.5f * uy * uy - usq));
    dst[c + 3 * n] = f3 - omega * (f3 - 0.1111111f * rho * (1.0f - 3.0f * ux + 4.5f * ux * ux - usq));
    dst[c + 4 * n] = f4 - omega * (f4 - 0.1111111f * rho * (1.0f - 3.0f * uy + 4.5f * uy * uy - usq));
    dst[c + 5 * n] = f5 - omega * (f5 - 0.0277778f * rho * (1.0f + 3.0f * (ux + uy) + 4.5f * (ux + uy) * (ux + uy) - usq));
    dst[c + 6 * n] = f6 - omega * (f6 - 0.0277778f * rho * (1.0f + 3.0f * (uy - ux) + 4.5f * (uy - ux) * (uy - ux) - usq));
    dst[c + 7 * n] = f7 - omega * (f7 - 0.0277778f * rho * (1.0f - 3.0f * (ux + uy) + 4.5f * (ux + uy) * (ux + uy) - usq));
    dst[c + 8 * n] = f8 - omega * (f8 - 0.0277778f * rho * (1.0f + 3.0f * (ux - uy) + 4.5f * (ux - uy) * (ux - uy) - usq));
  }
}
)";
  const int n = 16384;
  w.make_dataset = [=] {
    Dataset d;
    d.arrays.emplace("src", f32_1d(9 * n));
    d.arrays.emplace("dst", f32_1d(9 * n));
    fill(d.arrays.at("src"), 41, 0.8, 1.2);
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d.scalars.emplace("omega", rt::ScalarValue::of_f32(1.85f));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 314.omriq: MRI reconstruction Q computation — per-voxel summation over
// k-space samples. The voxel coordinates are loop-invariant in the sample
// loop and the phase tables are read twice per sample: prime scalar-
// replacement territory.
// ---------------------------------------------------------------------------
Workload make_spec_omriq() {
  Workload w;
  w.name = "314.omriq";
  w.suite = "SPEC";
  w.description = "MRI-Q k-space summation, invariant + intra reuse";
  w.function = "omriq";
  w.outputs = {"Qr", "Qi"};
  w.source = R"(
void omriq(int nx, int nk,
           const float *kx, const float *ky, const float *kz,
           const float *x, const float *y, const float *z,
           const float *phiR, const float *phiI,
           float *Qr, float *Qi) {
  #pragma acc parallel loop gang vector(128) small(kx, ky, kz, x, y, z, phiR, phiI, Qr, Qi)
  for (i = 0; i < nx; i++) {
    float qr = 0.0f;
    float qi = 0.0f;
    #pragma acc loop seq
    for (k = 0; k < nk; k++) {
      float e = 6.2831853f * (kx[k] * x[i] + ky[k] * y[i] + kz[k] * z[i]);
      float ce = cos(e);
      float se = sin(e);
      qr = qr + phiR[k] * ce - phiI[k] * se;
      qi = qi + phiR[k] * se + phiI[k] * ce;
    }
    Qr[i] = qr;
    Qi[i] = qi;
  }
}
)";
  const int nx = 8192, nk = 64;
  w.make_dataset = [=] {
    Dataset d;
    for (const char* name : {"kx", "ky", "kz"}) {
      d.arrays.emplace(name, f32_1d(nk));
      fill(d.arrays.at(name), 314 + name[1]);
    }
    for (const char* name : {"x", "y", "z", "phiR", "phiI"}) {
      std::int64_t len = (name[0] == 'p') ? nk : nx;
      d.arrays.emplace(name, f32_1d(len));
      fill(d.arrays.at(name), 100 + name[0]);
    }
    d.arrays.emplace("Qr", f32_1d(nx));
    d.arrays.emplace("Qi", f32_1d(nx));
    d.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
    d.scalars.emplace("nk", rt::ScalarValue::of_i32(nk));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 350.md: Lennard-Jones-flavoured neighbor-list force computation. The own-
// particle position (pos[i*3+c]) is invariant across the neighbor loop; the
// neighbor gather is data-dependent (uncoalesced).
// ---------------------------------------------------------------------------
Workload make_spec_md() {
  Workload w;
  w.name = "350.md";
  w.suite = "SPEC";
  w.description = "molecular dynamics neighbor forces, indirect gather";
  w.function = "md";
  w.outputs = {"frc"};
  w.source = R"(
void md(int np, int nn, const float *pos, const int *nbr, float *frc) {
  #pragma acc parallel loop gang vector(128) small(pos, nbr, frc)
  for (i = 0; i < np; i++) {
    float fx = 0.0f;
    float fy = 0.0f;
    float fz = 0.0f;
    #pragma acc loop seq
    for (j = 0; j < nn; j++) {
      int nb = nbr[i * nn + j];
      float dx = pos[nb * 3 + 0] - pos[i * 3 + 0];
      float dy = pos[nb * 3 + 1] - pos[i * 3 + 1];
      float dz = pos[nb * 3 + 2] - pos[i * 3 + 2];
      float r2 = dx * dx + dy * dy + dz * dz + 0.01f;
      float ir2 = 1.0f / r2;
      float ir6 = ir2 * ir2 * ir2;
      float force = ir6 * (ir6 - 0.5f) * ir2;
      fx = fx + force * dx;
      fy = fy + force * dy;
      fz = fz + force * dz;
    }
    frc[i * 3 + 0] = fx;
    frc[i * 3 + 1] = fy;
    frc[i * 3 + 2] = fz;
  }
}
)";
  const int np = 4096, nn = 24;
  w.make_dataset = [=] {
    Dataset d;
    d.arrays.emplace("pos", f32_1d(3 * np));
    d.arrays.emplace("frc", f32_1d(3 * np));
    fill(d.arrays.at("pos"), 350, -1.0, 1.0);
    driver::HostArray nbr = i32_1d(static_cast<std::int64_t>(np) * nn);
    std::uint64_t s = 7777;
    const std::int64_t count = nbr.element_count();
    for (std::int64_t t = 0; t < count; ++t) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      nbr.set_int(t, static_cast<std::int64_t>(s % np));
    }
    d.arrays.emplace("nbr", std::move(nbr));
    d.scalars.emplace("np", rt::ScalarValue::of_i32(np));
    d.scalars.emplace("nn", rt::ScalarValue::of_i32(nn));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 352.ep: embarrassingly parallel Gaussian-pair generation (compute bound,
// divergent accept test, one atomic counter).
// ---------------------------------------------------------------------------
Workload make_spec_ep() {
  Workload w;
  w.name = "352.ep";
  w.suite = "SPEC";
  w.description = "embarrassingly parallel pseudo-random pairs, compute bound";
  w.function = "ep";
  w.outputs = {"res", "cnt"};
  w.source = R"(
void ep(int n, const float *seeds, float *res, float *cnt) {
  #pragma acc parallel loop gang vector(128) small(seeds, res)
  for (i = 0; i < n; i++) {
    float s = seeds[i];
    float sx = 0.0f;
    float sy = 0.0f;
    float accepted = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < 12; t++) {
      s = s * 1.3137f + 0.1234f;
      s = s - floor(s);
      float x1 = 2.0f * s - 1.0f;
      s = s * 2.7183f + 0.7261f;
      s = s - floor(s);
      float x2 = 2.0f * s - 1.0f;
      float t2 = x1 * x1 + x2 * x2;
      if (t2 <= 1.0f) {
        float safe = max(t2, 0.000001f);
        float f = sqrt(-2.0f * log(safe) / safe);
        sx = sx + x1 * f;
        sy = sy + x2 * f;
        accepted = accepted + 1.0f;
      }
    }
    res[i] = sx + sy;
    cnt[0] += accepted;
  }
}
)";
  const int n = 16384;
  w.make_dataset = [=] {
    Dataset d;
    d.arrays.emplace("seeds", f32_1d(n));
    d.arrays.emplace("res", f32_1d(n));
    d.arrays.emplace("cnt", f32_1d(1));
    fill(d.arrays.at("seeds"), 352, 0.0, 1.0);
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    return d;
  };
  return w;
}

}  // namespace safara::workloads::detail
