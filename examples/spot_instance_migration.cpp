// Spot-instance migration scenario (paper §1, motivation (d)) — the real
// two-endpoint version.
//
// A long-running iterative GPU solver (Jacobi on a 2D grid) receives a
// "spot instance reclaimed" notice mid-run. Instance #1 (a forked child —
// its own process, its own CRAC context) checkpoints on demand and streams
// the image *directly into the replacement instance over a socket*:
// ckpt::SocketSink frames the live checkpoint as a CRACSHP1 stream, and
// instance #2 restores while it receives — ckpt::StreamingSpoolSource::start
// validates the stream header and hands the restart path a source
// immediately, the directory scan and section restores chase the receive
// frontier, and the restart completes (stream trailer verified) essentially
// as the last bytes land. Time-to-resume is max(transfer, restore), not
// transfer + restore. No shared filesystem, no intermediate image file on
// disk — the bytes a dying instance writes are the bytes the replacement
// restores, concurrently, while #1 is still draining.
//
// The restored solve carries to completion and its final residual must
// match an uninterrupted run exactly (byte-identical live restore).
//
// All host-side solver state (iteration counter, configuration) lives in
// the CRAC upper-half heap, so the restarted process recovers it through
// the context's root pointer — no application-specific checkpoint code.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <vector>

#include "ckpt/remote.hpp"
#include "crac/context.hpp"
#include "simcuda/module.hpp"

namespace {

using namespace crac;

void jacobi_kernel(void* const* args, const cuda::KernelBlock& blk) {
  const auto* in = cuda::kernel_arg<const float*>(args, 0);
  auto* out = cuda::kernel_arg<float*>(args, 1);
  const auto n = cuda::kernel_arg<std::uint64_t>(args, 2);
  blk.for_each_thread([&](const sim::Dim3& t) {
    const std::size_t idx = blk.global_x(t.x);
    if (idx >= n * n) return;
    const std::size_t r = idx / n;
    const std::size_t c = idx % n;
    const float center = in[idx];
    const float north = r > 0 ? in[idx - n] : 1.0f;  // hot boundary
    const float south = r + 1 < n ? in[idx + n] : 0.0f;
    const float west = c > 0 ? in[idx - 1] : 0.0f;
    const float east = c + 1 < n ? in[idx + 1] : 0.0f;
    out[idx] = 0.2f * (center + north + south + west + east);
  });
}

cuda::KernelModule g_module("spot_migration.cu");

// Everything the solver needs to resume lives in this upper-heap struct;
// the CRAC image restores it at the same address.
struct SolverState {
  std::uint64_t n = 0;
  int iteration = 0;
  int total_iterations = 0;
  float* grid_a = nullptr;  // device pointers survive restart verbatim
  float* grid_b = nullptr;
};

constexpr std::uint64_t kEdge = 256;
constexpr int kTotalIters = 200;
constexpr int kReclaimAt = 73;  // the spot notice arrives mid-run

SolverState* build_solver(CracContext& ctx) {
  auto st_mem = ctx.heap().alloc(sizeof(SolverState));
  auto* st = new (*st_mem) SolverState();
  st->n = kEdge;
  st->total_iterations = kTotalIters;
  void* a = nullptr;
  void* b = nullptr;
  ctx.api().cudaMalloc(&a, kEdge * kEdge * sizeof(float));
  ctx.api().cudaMalloc(&b, kEdge * kEdge * sizeof(float));
  ctx.api().cudaMemset(a, 0, kEdge * kEdge * sizeof(float));
  ctx.api().cudaMemset(b, 0, kEdge * kEdge * sizeof(float));
  st->grid_a = static_cast<float*>(a);
  st->grid_b = static_cast<float*>(b);
  return st;
}

double run_iterations(CracContext& ctx, SolverState* st, int upto,
                      const char* phase) {
  auto& api = ctx.api();
  const std::uint64_t cells = st->n * st->n;
  for (; st->iteration < upto; ++st->iteration) {
    float* src = (st->iteration % 2 == 0) ? st->grid_a : st->grid_b;
    float* dst = (st->iteration % 2 == 0) ? st->grid_b : st->grid_a;
    cuda::launch(api, &jacobi_kernel,
                 cuda::dim3{static_cast<unsigned>((cells + 127) / 128), 1, 1},
                 cuda::dim3{128, 1, 1}, 0,
                 static_cast<const float*>(src), dst, st->n);
    api.cudaDeviceSynchronize();
  }
  float* final_grid = (st->iteration % 2 == 0) ? st->grid_a : st->grid_b;
  std::vector<float> host(cells);
  api.cudaMemcpy(host.data(), final_grid, cells * sizeof(float),
                 cuda::cudaMemcpyDeviceToHost);
  double sum = 0;
  for (float v : host) sum += v;
  std::printf("  [%s] iteration %d/%d, grid sum %.6f\n", phase,
              st->iteration, st->total_iterations, sum);
  return sum;
}

// Instance #1: runs until the reclaim notice, then checkpoints straight
// into the migration socket and dies. Never touches a filesystem path.
[[noreturn]] void run_reclaimed_instance(int ship_fd) {
  std::printf("spot instance #1 (pid %d): starting solve...\n",
              static_cast<int>(::getpid()));
  CracContext ctx;
  g_module.register_with(ctx.api());
  SolverState* st = build_solver(ctx);
  ctx.set_root(st);

  run_iterations(ctx, st, kReclaimAt, "instance-1");
  std::printf("spot instance #1: RECLAIM NOTICE — shipping checkpoint to "
              "the replacement instance\n");
  ckpt::SocketSink sink(ship_fd, "migration socket");
  auto report = ctx.checkpoint_to_sink(sink);
  if (!report.ok()) {
    std::fprintf(stderr, "checkpoint ship failed: %s\n",
                 report.status().to_string().c_str());
    ::_exit(1);
  }
  std::printf("spot instance #1: shipped %llu bytes live; terminating.\n",
              static_cast<unsigned long long>(report->image_bytes));
  ::_exit(0);
}

}  // namespace

int main() {
  // Pre-fork so both instances inherit it: a write to a dead peer must
  // surface as a named IoError through the Status path, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  // Kernel registry is populated pre-fork so instance #1, the restored
  // instance, and the oracle all share the same module definition.
  g_module.add_kernel<const float*, float*, std::uint64_t>(&jacobi_kernel,
                                                           "jacobi");

  // The "network" between the dying instance and its replacement.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    std::perror("socketpair");
    return 1;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    run_reclaimed_instance(fds[1]);  // never returns
  }
  ::close(fds[1]);

  // Instance #2: restore while receiving. start() validates the stream
  // header and returns immediately; a receiver thread spools frames into
  // bounded memory while restart_from_source rebuilds the context, each
  // section restore blocking only until its bytes land. Restore work
  // (directory scan, decompress, device refill, replay) overlaps #1's
  // checkpoint+transfer instead of following it.
  std::printf("spot instance #2 (pid %d): restoring while the checkpoint "
              "streams in...\n",
              static_cast<int>(::getpid()));
  ckpt::StreamingSpoolSource::Options spool_opts;
  spool_opts.origin = "migration socket";
  auto spool = ckpt::StreamingSpoolSource::start(fds[0], spool_opts);
  if (!spool.ok()) {
    std::fprintf(stderr, "receive failed: %s\n",
                 spool.status().to_string().c_str());
    return 1;
  }

  double interrupted_sum = 0;
  {
    RestartReport report;
    auto restored =
        CracContext::restart_from_source(std::move(*spool), {}, &report);
    ::close(fds[0]);
    int child_status = 0;
    ::waitpid(pid, &child_status, 0);
    if (!restored.ok()) {
      std::fprintf(stderr, "restart failed: %s\n",
                   restored.status().to_string().c_str());
      return 1;
    }
    if (child_status != 0) {
      std::fprintf(stderr, "instance #1 exited with status %d\n",
                   child_status);
      return 1;
    }
    std::printf("spot instance #2: restarted %s the transfer in %.3fs\n",
                report.overlapped_receive ? "overlapped with" : "after",
                report.total_s);
    CracContext& ctx = **restored;
    auto* st = static_cast<SolverState*>(ctx.root());
    std::printf("spot instance #2: resuming at iteration %d\n",
                st->iteration);
    interrupted_sum =
        run_iterations(ctx, st, st->total_iterations, "instance-2");
  }

  // Oracle: the same solve without interruption.
  double uninterrupted_sum = 0;
  {
    CracContext ctx;
    g_module.register_with(ctx.api());
    SolverState* st = build_solver(ctx);
    uninterrupted_sum = run_iterations(ctx, st, kTotalIters, "oracle");
  }

  if (interrupted_sum != uninterrupted_sum) {
    std::fprintf(stderr, "FAILED: migrated result %.9f != oracle %.9f\n",
                 interrupted_sum, uninterrupted_sum);
    return 1;
  }
  std::printf("OK: live-migrated solve matches the uninterrupted solve "
              "exactly (%.6f), with no image file on disk.\n",
              interrupted_sum);
  return 0;
}
