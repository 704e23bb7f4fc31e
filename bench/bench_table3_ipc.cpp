// Table 3 reproduction: the cost of IPC in proxy-based checkpointing.
//
// cublasSdot / cublasSgemv / cublasSgemm at operand sizes 1/10/100 MB under
// three backends:
//   native   — trampolined API, no interposition cost modelling;
//   CRAC     — the CRAC interposer + fs-switch kernel calls (expected ~=
//              native: pointers pass directly to the lower half);
//   CMA/IPC  — the proxy process: per call, operands ship from application
//              to proxy via Cross-Memory-Attach (or socket fallback), the
//              routine runs there, and results ship back — CRUM/CRCUDA's
//              structural cost.
// Times are ms per call, as in the paper.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_table.hpp"
#include "common/rng.hpp"
#include "cublas/cublas.hpp"
#include "proxy/client_api.hpp"

namespace {

using namespace crac;
using namespace crac::bench;

struct OpSpec {
  const char* name;
  // rows/cols chosen so the dominant operand is `mb` megabytes of floats.
  int m(std::size_t mb) const {
    if (std::string_view(name) == "cublasSdot") {
      return static_cast<int>(mb << 20 >> 2);  // vector length
    }
    // gemv/gemm: square matrix of mb MB -> edge = sqrt(mb MB / 4)
    std::size_t edge = 1;
    while ((edge + 1) * (edge + 1) * 4 <= (mb << 20)) ++edge;
    return static_cast<int>(edge);
  }
};

// One timed pass with operands resident device-side (native/CRAC) or
// shipped per call (proxy). Runs until `min_calls` AND `min_seconds` are
// both reached (adaptive, so sub-millisecond and multi-second ops are
// measured with comparable relative noise on a loaded single-core box).
double time_op(cuda::CudaApi& api, blas::cublasHandle_t handle,
               const char* op, int m, int min_calls, double min_seconds,
               bool ship_per_call, const std::vector<float>& host_a,
               const std::vector<float>& host_b, float* da, float* db,
               float* dc) {
  WallTimer t;
  float result = 0;
  int done = 0;
  // -1 is an untimed warm-up call (first-touch page faults, caches).
  for (int c = -1; c < min_calls || t.elapsed_s() < min_seconds; ++c, ++done) {
    if (c == 0) t.reset();
    if (ship_per_call) {
      // The proxy pattern: application buffers cross the process boundary
      // on every call.
      api.cudaMemcpy(da, host_a.data(), host_a.size() * sizeof(float),
                     cuda::cudaMemcpyHostToDevice);
      api.cudaMemcpy(db, host_b.data(), host_b.size() * sizeof(float),
                     cuda::cudaMemcpyHostToDevice);
    }
    if (std::string_view(op) == "cublasSdot") {
      blas::cublasSdot(handle, m, da, 1, db, 1, &result);
    } else if (std::string_view(op) == "cublasSgemv") {
      blas::cublasSgemv(handle, 'N', m, m, 1.0f, da, m, db, 1, 0.0f, dc, 1);
      if (ship_per_call) {
        api.cudaMemcpy(const_cast<float*>(host_b.data()), dc,
                       static_cast<std::size_t>(m) * sizeof(float),
                       cuda::cudaMemcpyDeviceToHost);
      }
    } else {
      blas::cublasSgemm(handle, 'N', 'N', m, m, m, 1.0f, da, m, db, m, 0.0f,
                        dc, m);
      if (ship_per_call) {
        api.cudaMemcpy(const_cast<float*>(host_a.data()), dc,
                       static_cast<std::size_t>(m) * m * sizeof(float),
                       cuda::cudaMemcpyDeviceToHost);
      }
    }
  }
  api.cudaDeviceSynchronize();
  return t.elapsed_ms() / std::max(1, done - 1);  // warm-up excluded
}

struct BackendBuffers {
  float* da = nullptr;
  float* db = nullptr;
  float* dc = nullptr;
};

BackendBuffers alloc_buffers(cuda::CudaApi& api, const char* op, int m,
                             const std::vector<float>& host_a,
                             const std::vector<float>& host_b) {
  BackendBuffers buf;
  void* p = nullptr;
  const std::size_t a_elems = host_a.size();
  const std::size_t b_elems = host_b.size();
  const std::size_t c_elems = std::string_view(op) == "cublasSgemm"
                                  ? static_cast<std::size_t>(m) * m
                                  : static_cast<std::size_t>(m);
  api.cudaMalloc(&p, a_elems * sizeof(float));
  buf.da = static_cast<float*>(p);
  api.cudaMalloc(&p, b_elems * sizeof(float));
  buf.db = static_cast<float*>(p);
  api.cudaMalloc(&p, c_elems * sizeof(float));
  buf.dc = static_cast<float*>(p);
  api.cudaMemcpy(buf.da, host_a.data(), a_elems * sizeof(float),
                 cuda::cudaMemcpyHostToDevice);
  api.cudaMemcpy(buf.db, host_b.data(), b_elems * sizeof(float),
                 cuda::cudaMemcpyHostToDevice);
  return buf;
}

}  // namespace

int main() {
  print_header("Table 3: CRAC vs IPC-based proxy (CMA), per-call latency",
               "Table 3 (cublasSdot/Sgemv/Sgemm at 1/10/100 MB)");

  const int min_calls = 3;
  const double min_seconds = 1.0 * scale();
  const std::size_t sizes_mb[] = {1, 4, 10, 100};
  const char* ops[] = {"cublasSdot", "cublasSgemv", "cublasSgemm"};
  proxy::ProxyClientApi::Options popts;
  popts.host.staging_bytes = std::size_t{256} << 20;
  std::printf("proxy transport: %s\n\n",
              proxy::ProxyClientApi(popts).cma_available()
                  ? "CMA"
                  : "socket (no Cross-Memory-Attach)");

  Report report("table3");
  Table& table = report.table(
      "ipc", {"op", "size_mb"},
      {lower("native_ms", "%.3f"), lower("crac_ms", "%.3f"),
       lower("crac_overhead_pct", "%.1f"), lower("ipc_ms", "%.3f"),
       lower("ipc_overhead_pct", "%.0f")});
  for (const char* op : ops) {
    OpSpec spec{op};
    for (std::size_t mb : sizes_mb) {
      // 100MB gemm is O(m^3) with m~5000 — out of laptop range for the
      // simulated device; scale gemm's operand cap.
      if (std::string_view(op) == "cublasSgemm" && mb > 4 && scale() <= 1.0) {
        continue;
      }
      const int m = spec.m(mb);
      const std::size_t a_elems = std::string_view(op) == "cublasSdot"
                                      ? static_cast<std::size_t>(m)
                                      : static_cast<std::size_t>(m) * m;
      const std::size_t b_elems = std::string_view(op) == "cublasSgemm"
                                      ? static_cast<std::size_t>(m) * m
                                      : static_cast<std::size_t>(m);
      Rng rng(1234);
      std::vector<float> host_a(a_elems), host_b(b_elems);
      for (auto& v : host_a) v = rng.next_float(-1.0f, 1.0f);
      for (auto& v : host_b) v = rng.next_float(-1.0f, 1.0f);

      // One pass per backend: operands resident device-side (native, CRAC)
      // or shipped per call (the proxy).
      auto time_backend = [&](cuda::CudaApi& api, bool ship_per_call) {
        blas::cublasHandle_t handle = nullptr;
        blas::cublasCreate(&handle, api);
        auto buf = alloc_buffers(api, op, m, host_a, host_b);
        const double ms =
            time_op(api, handle, op, m, min_calls, min_seconds,
                    ship_per_call, host_a, host_b, buf.da, buf.db, buf.dc);
        blas::cublasDestroy(handle);
        return ms;
      };
      Table::Row& row = table.row({op, mb});
      row.repeat([&]() -> Status {
        double native_ms = 0, crac_ms = 0, ipc_ms = 0;
        {
          NativeBackend backend;
          native_ms = time_backend(backend.api(), false);
        }
        {
          CracContext ctx(crac_options());
          crac_ms = time_backend(ctx.api(), false);
        }
        {
          proxy::ProxyClientApi api(popts);
          ipc_ms = time_backend(api, true);
        }
        row.add("native_ms", native_ms);
        row.add("crac_ms", crac_ms);
        row.add("crac_overhead_pct", overhead_pct(native_ms, crac_ms));
        row.add("ipc_ms", ipc_ms);
        row.add("ipc_overhead_pct", overhead_pct(native_ms, ipc_ms));
        return OkStatus();
      });
    }
  }
  table.print();
  if (scale() <= 1.0) {
    std::printf("(cublasSgemm above 4MB is skipped at scale<=1; set "
                "CRAC_BENCH_SCALE>1)\n");
  }
  std::printf("\nshape check (paper): CRAC ~= native (<4%%); CMA/IPC 1-4 "
              "orders of magnitude slower for transfer-dominated ops, "
              "narrowing to a few hundred %% for compute-dominated Sgemm.\n");
  return report.write();
}
