// Figure 3 reproduction: checkpoint and restart times for the Rodinia
// benchmarks, with checkpoint image sizes and the phases each splits into.
// Methodology follows §4.4.1: compression disabled, checkpoint triggered at
// a (seeded-random) point mid-run; restart constructs a fresh context from
// the image and replays the full CUDA log. The arena_ablation_bytes column
// is the §3.2.3 ablation: the image size had CRAC saved the whole committed
// allocation arenas instead of only active allocations.
//
// The sweeps after it price the checkpoint fabric: LZ ("gzip on")
// checkpoint and restore throughput, serial whole-buffer (the v1 path and
// the paper's reason to disable gzip) against the chunked-parallel
// pipeline; loopback shipping; restore-while-receiving; the zero-run codec;
// COW capture pause; fleet serving; delta checkpoints; durable registry
// recovery. Every cell runs reps() times; rows print and record through
// bench::Table into BENCH_fig3.json.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_table.hpp"
#include "ckpt/compressor.hpp"
#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "common/crc32.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "proxy/client_api.hpp"
#include "registry/registry.hpp"

namespace {

using namespace crac;
using bench::Table;
using ckpt::Codec;

constexpr const char* kMbs = "%.1f";
constexpr const char* kInt = "%.0f";

// Mixed-entropy synthetic image payload: run-heavy spans (zeroed/initialized
// buffers) interleaved with noise (packed floats), the shape real drained
// allocations take.
std::vector<std::byte> synthetic_image_payload(std::size_t n,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out;
  out.reserve(n);
  while (out.size() < n) {
    if (rng.next_below(3) != 0) {
      const auto value = static_cast<std::byte>(rng.next_below(8));
      const std::size_t run = 64 + rng.next_below(4000);
      for (std::size_t i = 0; i < run && out.size() < n; ++i) {
        out.push_back(value);
      }
    } else {
      const std::size_t run = 64 + rng.next_below(2000);
      for (std::size_t i = 0; i < run && out.size() < n; ++i) {
        out.push_back(static_cast<std::byte>(rng.next_u64()));
      }
    }
  }
  return out;
}

// Mostly-zero payload: the shape a freshly-initialized training arena or a
// sparsely-touched managed heap takes — long zero spans with islands of
// real data. This is the zero-run codec's home turf.
std::vector<std::byte> mostly_zero_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n, std::byte{0});
  // ~6% of the bytes are noise islands scattered through the zeros.
  std::size_t at = 0;
  while (at < n) {
    at += 2048 + rng.next_below(8192);
    const std::size_t island = 64 + rng.next_below(512);
    for (std::size_t i = 0; i < island && at < n; ++i, ++at) {
      out[at] = static_cast<std::byte>(rng.next_u64() | 1);
    }
  }
  return out;
}

double mbs(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / (1 << 20) / seconds;
}

// A sweep's size knob: the env var if set, else its quick or full default.
std::size_t env_size(const char* name, std::size_t quick_size,
                     std::size_t full_size) {
  return static_cast<std::size_t>(env_int(
      name,
      static_cast<std::int64_t>(bench::quick() ? quick_size : full_size)));
}

// Pulls every byte of section `index` through the streaming decode path;
// fails unless exactly `expect` bytes arrive.
Status drain_section(ckpt::ImageReader& reader, std::size_t index,
                     std::uint64_t expect) {
  CRAC_ASSIGN_OR_RETURN(auto stream,
                        reader.open_section(reader.sections()[index]));
  std::vector<std::byte> slice(1 << 20);
  std::uint64_t total = 0;
  for (;;) {
    CRAC_ASSIGN_OR_RETURN(std::size_t n,
                          stream.read_some(slice.data(), slice.size()));
    if (n == 0) break;
    total += n;
  }
  if (total != expect) {
    return Internal("restore delivered " + std::to_string(total) + " of " +
                    std::to_string(expect) + " bytes");
  }
  return OkStatus();
}

// One write + restore pass of the chunked pipeline: the restore leg streams
// the just-written image back through MemorySource and the decode-ahead
// reader. Adds write_mbs, restore_mbs and image_bytes to `row`.
Status chunked_cell(Table::Row& row, const std::vector<std::byte>& payload,
                    std::size_t threads, std::size_t chunk_size,
                    Codec codec) {
  ThreadPool pool(threads);
  ckpt::MemorySink sink;
  ckpt::ImageWriter::Options opts;
  opts.codec = codec;
  opts.chunk_size = chunk_size;
  opts.pool = &pool;
  ckpt::ImageWriter writer(&sink, opts);
  WallTimer t;
  CRAC_RETURN_IF_ERROR(
      writer.begin_section(ckpt::SectionType::kDeviceBuffers, "synthetic"));
  CRAC_RETURN_IF_ERROR(writer.append(payload.data(), payload.size()));
  CRAC_RETURN_IF_ERROR(writer.end_section());
  CRAC_RETURN_IF_ERROR(writer.finish());
  const double write_s = t.elapsed_s();

  t.reset();
  ckpt::ImageReader::Options ropts;
  ropts.pool = &pool;
  CRAC_ASSIGN_OR_RETURN(
      auto reader,
      ckpt::ImageReader::open(std::make_unique<ckpt::MemorySource>(
                                  sink.bytes().data(), sink.bytes().size()),
                              ropts));
  CRAC_RETURN_IF_ERROR(drain_section(reader, 0, payload.size()));
  row.add("write_mbs", mbs(payload.size(), write_s));
  row.add("restore_mbs", mbs(payload.size(), t.elapsed_s()));
  row.add("image_bytes", static_cast<double>(sink.bytes().size()));
  return OkStatus();
}

// ---- Rodinia checkpoint / restart -----------------------------------------
void run_rodinia(Table& table) {
  Rng rng(42);
  for (workloads::Workload* w : workloads::rodinia_workloads()) {
    const auto params = bench::scaled_params(w);
    const std::string path =
        "/tmp/crac_bench_" + std::string(w->name()) + ".img";
    // Random mid-run trigger, drawn once per app so every repetition
    // checkpoints at the same point. Iteration-driven apps fire somewhere in
    // the first 75% of the hooks; apps whose hook counts something else (BFS
    // levels, streamcluster candidates) in the first few dozen firings.
    const int span = params.iterations > 1 ? params.iterations * 3 / 4 : 60;
    const int fire_after =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(std::max(2, span))));
    Table::Row& row = table.row({w->name()});
    row.repeat([&]() -> Status {
      Result<CheckpointReport> ckpt = Internal("checkpoint never ran");
      std::uint64_t arena_committed = 0;
      {
        CracContext ctx(bench::crac_options());
        bool done = false;
        auto hook = [&](int iteration) {
          if (done || iteration < fire_after) return;
          ckpt = ctx.checkpoint(path);
          done = true;
        };
        CRAC_RETURN_IF_ERROR(bench::status_of(w->run(ctx.api(), params, hook)));
        // Very short run: checkpoint at the end instead.
        if (!done) ckpt = ctx.checkpoint(path);
        CRAC_RETURN_IF_ERROR(bench::status_of(ckpt));
        auto& dev = ctx.process().lower().device();
        arena_committed = dev.device_arena().committed_bytes() +
                          dev.pinned_arena().committed_bytes() +
                          ctx.process().heap().committed_bytes();
      }
      RestartReport restart;
      const Status restored = bench::status_of(CracContext::restart_from_image(
          path, bench::crac_options(), &restart));
      std::remove(path.c_str());
      CRAC_RETURN_IF_ERROR(restored);
      row.add("ckpt_s", ckpt->total_s);
      row.add("restart_s", restart.total_s);
      row.add("image_bytes", static_cast<double>(ckpt->image_bytes));
      row.add("arena_ablation_bytes",
              static_cast<double>(arena_committed + ckpt->image_bytes));
      row.add("calls_replayed",
              static_cast<double>(restart.replay.calls_replayed));
      row.add("ckpt_drain_s", ckpt->drain_s);
      row.add("ckpt_memory_s", ckpt->memory_s);
      row.add("ckpt_write_s", ckpt->write_s);
      row.add("ckpt_pause_s", ckpt->pause_s);
      row.add("restart_read_s", restart.read_s);
      row.add("restart_memory_s", restart.memory_s);
      row.add("restart_replay_s", restart.replay_s);
      return OkStatus();
    });
  }
}

// ---- LZ checkpoint + restore throughput -----------------------------------
//
// Serial whole-buffer LZ, both directions, is the v1 work: CRC32 plus
// (de)compression of the entire section on one thread. It is the bar every
// chunked-parallel threads × chunk-size cell must beat.
void run_lz_sweeps(Table& serial, Table& chunked) {
  const std::size_t mb = env_size("CRAC_BENCH_CKPT_MB", 8, 64);
  const std::size_t n = mb << 20;
  std::printf("\nLZ checkpoint + restore throughput, MB/s (%zuMB synthetic "
              "image):\n", mb);
  const auto payload = synthetic_image_payload(n, 1234);

  Table::Row& row = serial.row({});
  row.repeat([&]() -> Status {
    WallTimer t;
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    const auto packed = ckpt::compress(payload, Codec::kLz);
    const double write_s = t.elapsed_s();
    t.reset();
    CRAC_ASSIGN_OR_RETURN(auto raw, ckpt::decompress(packed.data(),
                                                     packed.size(), Codec::kLz,
                                                     payload.size()));
    if (crc32(raw.data(), raw.size()) != crc) {
      return Corrupt("serial restore CRC mismatch");
    }
    row.add("write_mbs", mbs(n, write_s));
    row.add("restore_mbs", mbs(n, t.elapsed_s()));
    return OkStatus();
  });
  serial.print();

  const unsigned hw = bench::hardware_threads();
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  std::vector<std::size_t> chunk_sizes = {256u << 10, 1u << 20, 4u << 20};
  if (bench::quick()) {
    thread_counts = hw > 1 ? std::vector<std::size_t>{1, hw}
                           : std::vector<std::size_t>{1};
    chunk_sizes = {1u << 20};
  }
  for (std::size_t threads : thread_counts) {
    for (std::size_t chunk : chunk_sizes) {
      Table::Row& cell = chunked.row({threads, chunk});
      cell.repeat([&] {
        return chunked_cell(cell, payload, threads, chunk, Codec::kLz);
      });
    }
  }
  chunked.print();
}

// ---- live checkpoint shipping over a loopback socketpair ------------------
//
// The payload is written through ImageWriter -> SocketSink into one end of a
// socketpair from a writer thread while this thread receives the whole
// stream into a StreamingSpoolSource (start, then wait_complete) and streams
// it back out through the reader — the full live-migration pipeline (frame,
// ship, spool, scan, decode) with no filesystem image.
Status ship_cell(Table::Row& row, const std::vector<std::byte>& payload,
                 std::size_t threads, std::size_t spool_cap) {
  ThreadPool pool(threads);
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return IoError("socketpair failed");
  }
  WallTimer t;
  Status ship_status = OkStatus();
  std::thread shipper([&] {
    ckpt::SocketSink sink(fds[1], "bench ship socket");
    ckpt::ImageWriter::Options opts;
    opts.codec = Codec::kLz;
    opts.pool = &pool;
    ckpt::ImageWriter writer(&sink, opts);
    ship_status = [&]() -> Status {
      CRAC_RETURN_IF_ERROR(writer.begin_section(
          ckpt::SectionType::kDeviceBuffers, "synthetic"));
      CRAC_RETURN_IF_ERROR(writer.append(payload.data(), payload.size()));
      CRAC_RETURN_IF_ERROR(writer.end_section());
      CRAC_RETURN_IF_ERROR(writer.finish());
      return sink.close();
    }();
    ::close(fds[1]);
  });

  ckpt::StreamingSpoolSource::Options sopts;
  sopts.spool_cap_bytes = spool_cap;
  sopts.origin = "bench ship socket";
  auto spool = ckpt::StreamingSpoolSource::start(fds[0], sopts);
  const Status received =
      spool.ok() ? (*spool)->wait_complete() : spool.status();
  // Close the receive end before joining: if the receive failed early the
  // shipper may be blocked writing a full socketpair buffer, and only the
  // peer close (EPIPE — SIGPIPE is ignored in main) unblocks it.
  ::close(fds[0]);
  shipper.join();
  CRAC_RETURN_IF_ERROR(received);
  CRAC_RETURN_IF_ERROR(ship_status);
  const std::uint64_t spooled = (*spool)->outcome()->spooled_to_disk_bytes;

  ckpt::ImageReader::Options ropts;
  ropts.pool = &pool;
  CRAC_ASSIGN_OR_RETURN(auto reader,
                        ckpt::ImageReader::open(std::move(*spool), ropts));
  CRAC_RETURN_IF_ERROR(drain_section(reader, 0, payload.size()));
  row.add("mbs", mbs(payload.size(), t.elapsed_s()));
  row.add("spooled_to_disk_bytes", static_cast<double>(spooled));
  return OkStatus();
}

void run_ship_sweep(Table& table) {
  const std::size_t mb = env_size("CRAC_BENCH_CKPT_MB", 8, 64);
  const std::size_t n = mb << 20;
  std::printf("\nlive checkpoint shipping, loopback socketpair (%zuMB "
              "synthetic image; end-to-end ship+restore MB/s):\n", mb);
  const auto payload = synthetic_image_payload(n, 9876);

  const unsigned hw = bench::hardware_threads();
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  if (bench::quick()) thread_counts = {hw};
  // In-memory spool (cap comfortably above the image) against a spilling
  // spool capped at a fraction of it — the migration-on-a-small-host case.
  const std::size_t in_memory = n + (std::size_t{8} << 20);
  const std::size_t spill = std::max<std::size_t>(n / 16,
                                                  ckpt::kMinSpoolCapBytes);
  for (std::size_t threads : thread_counts) {
    for (std::size_t cap : {in_memory, spill}) {
      Table::Row& row = table.row(
          {threads, cap == spill ? "spill-to-disk" : "in-memory"});
      row.repeat([&] { return ship_cell(row, payload, threads, cap); });
    }
  }
  table.print();
}

// ---- restore-while-receiving: serialized vs overlapped time-to-restart ----
//
// The sender paces the logical payload onto a socketpair at a fixed rate (a
// stand-in for a migration NIC), and the receiver runs the full reader-side
// restart work: spool, directory scan, chunk decode, integrity sweep. The
// serialized leg (StreamingSpoolSource::start, then wait_complete) spools
// the entire stream before the scan starts, so it pays transfer + restore;
// the overlapped leg (the same spool read at once, through the reader's
// incremental scan) restores while receiving and should approach
// max(transfer, restore).
//
// The sweep runs two image shapes. Several sections is the shape a real
// image has (heap state, upper memory, log, per-subsystem buffers) and
// pipelines at section granularity. ONE giant section is the adversarial
// shape: the reader publishes the section on its header and decodes chunk
// frames behind the receive frontier, so the single-section rows must show
// the same overlap win.
Result<double> paced_restart_leg(const std::vector<std::byte>& payload,
                                 ThreadPool* send_pool, ThreadPool* recv_pool,
                                 double mb_per_s, bool overlapped,
                                 std::size_t sections) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return IoError("socketpair failed");
  }
  Status ship_status = OkStatus();
  WallTimer t;
  std::thread shipper([&] {
    ckpt::SocketSink sink(fds[1], "bench paced socket");
    ckpt::ImageWriter::Options opts;
    opts.codec = Codec::kLz;
    opts.pool = send_pool;
    ckpt::ImageWriter writer(&sink, opts);
    ship_status = [&]() -> Status {
      const std::size_t slice = 256 << 10;
      const std::size_t per_section =
          (payload.size() + sections - 1) / sections;
      WallTimer pace;
      std::size_t sent = 0;
      for (std::size_t s = 0; s < sections; ++s) {
        CRAC_RETURN_IF_ERROR(writer.begin_section(
            ckpt::SectionType::kDeviceBuffers,
            "synthetic" + std::to_string(s)));
        const std::size_t end =
            std::min(payload.size(), (s + 1) * per_section);
        while (sent < end) {
          const std::size_t n = std::min(slice, end - sent);
          CRAC_RETURN_IF_ERROR(writer.append(payload.data() + sent, n));
          sent += n;
          const double ahead =
              static_cast<double>(sent) / (mb_per_s * (1 << 20)) -
              pace.elapsed_s();
          if (ahead > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
          }
        }
        CRAC_RETURN_IF_ERROR(writer.end_section());
      }
      CRAC_RETURN_IF_ERROR(writer.finish());
      return sink.close();
    }();
    ::close(fds[1]);
  });

  // Drain every section through the streaming decode path, then the
  // integrity gate — the reader-side work a restart performs.
  const Status restored = [&]() -> Status {
    CRAC_ASSIGN_OR_RETURN(auto spool, ckpt::StreamingSpoolSource::start(fds[0]));
    // The serialized leg waits for the verified trailer, so the reader
    // sees end_known() and scans the whole directory up front.
    if (!overlapped) CRAC_RETURN_IF_ERROR(spool->wait_complete());
    ckpt::ImageReader::Options ropts;
    ropts.pool = recv_pool;
    CRAC_ASSIGN_OR_RETURN(auto reader,
                          ckpt::ImageReader::open(std::move(spool), ropts));
    std::vector<std::byte> slice(1 << 20);
    for (std::size_t i = 0;; ++i) {
      CRAC_ASSIGN_OR_RETURN(const ckpt::SectionInfo* sec,
                            reader.section_at(i));
      if (sec == nullptr) break;
      CRAC_ASSIGN_OR_RETURN(auto stream, reader.open_section(*sec));
      for (;;) {
        CRAC_ASSIGN_OR_RETURN(std::size_t n,
                              stream.read_some(slice.data(), slice.size()));
        if (n == 0) break;
      }
    }
    return reader.verify_unread_sections();
  }();
  const double elapsed = t.elapsed_s();
  ::close(fds[0]);
  shipper.join();
  CRAC_RETURN_IF_ERROR(restored);
  CRAC_RETURN_IF_ERROR(ship_status);
  return elapsed;
}

void run_overlap_sweep(Table& table) {
  const std::size_t mb = env_size("CRAC_BENCH_OVERLAP_MB", 4, 16);
  std::printf("\nrestore-while-receiving, paced loopback sender (%zuMB "
              "payload; first-wire-byte to restart-complete seconds):\n", mb);
  const auto payload = synthetic_image_payload(mb << 20, 2468);
  // One pool per endpoint: in a real migration the sender's compression and
  // the receiver's decode run on different machines, so sharing one pool
  // would charge the overlapped leg contention the serialized leg never
  // pays.
  ThreadPool send_pool(bench::hardware_threads());
  ThreadPool recv_pool(bench::hardware_threads());
  std::vector<double> paces = {256.0, 64.0};
  if (bench::quick()) paces = {256.0};
  for (const double pace : paces) {
    for (const std::size_t sections : {std::size_t{8}, std::size_t{1}}) {
      Table::Row& row = table.row({pace, sections});
      row.repeat([&]() -> Status {
        CRAC_ASSIGN_OR_RETURN(double ser,
                              paced_restart_leg(payload, &send_pool,
                                                &recv_pool, pace, false,
                                                sections));
        CRAC_ASSIGN_OR_RETURN(double ovl,
                              paced_restart_leg(payload, &send_pool,
                                                &recv_pool, pace, true,
                                                sections));
        row.add("serialized_s", ser);
        row.add("overlapped_s", ovl);
        row.add("speedup", ser / ovl);
        return OkStatus();
      });
    }
  }
  table.print();
}

// ---- zero-run codec on mostly-zero arenas ---------------------------------
void run_zero_run_sweep(Table& table) {
  const std::size_t mb = env_size("CRAC_BENCH_CKPT_MB", 8, 64);
  std::printf("\nzero-run codec on a mostly-zero arena (%zuMB, ~94%% zero "
              "bytes; write/restore MB/s and image size):\n", mb);
  const auto payload = mostly_zero_payload(mb << 20, 8642);
  const struct {
    Codec codec;
    const char* name;
  } codecs[] = {{Codec::kLz, "lz"}, {Codec::kZeroRunLz, "zero-run+lz"}};
  for (const auto& c : codecs) {
    Table::Row& row = table.row({c.name});
    row.repeat([&] {
      return chunked_cell(row, payload, bench::hardware_threads(), 1u << 20,
                          c.codec);
    });
  }
  table.print();
}

// ---- COW capture: pause-vs-footprint sweep --------------------------------
//
// The zero-pause claim, measured: one device buffer per footprint, one
// checkpoint per mode. Stop-the-world holds the application frozen for the
// whole capture (pause ≈ total), so its pause grows with footprint; the
// COW capture releases the world right after drain + tracker advance +
// overlay arm, so its pause should stay flat.
void run_cow_pause_sweep(Table& table) {
  std::vector<std::size_t> footprints = {16, 64};
  if (bench::quick()) footprints = {4, 16};
  std::printf("\nCOW capture pause vs footprint (application-frozen and "
              "total seconds per mode):\n");
  for (const std::size_t mb : footprints) {
    const std::size_t n = mb << 20;
    const auto payload = synthetic_image_payload(n, 555 + mb);
    Table::Row& row = table.row({mb});
    row.repeat([&]() -> Status {
      double pause[2] = {0, 0};
      for (const bool cow : {false, true}) {
        const std::string path = "/tmp/crac_bench_cow_pause.img";
        CracOptions opts = bench::crac_options();
        opts.cow_capture = cow;
        CracContext ctx(opts);
        void* dev = nullptr;
        if (ctx.api().cudaMalloc(&dev, n) != cuda::cudaSuccess ||
            ctx.api().cudaMemcpy(dev, payload.data(), n,
                                 cuda::cudaMemcpyHostToDevice) !=
                cuda::cudaSuccess) {
          return Internal("device fill failed");
        }
        auto report = ctx.checkpoint(path);
        std::remove(path.c_str());
        CRAC_RETURN_IF_ERROR(bench::status_of(report));
        pause[cow] = report->pause_s;
        row.add(cow ? "cow_pause_s" : "stw_pause_s", report->pause_s);
        row.add(cow ? "cow_total_s" : "stw_total_s", report->total_s);
        if (cow) {
          row.add("snapstore_peak_bytes",
                  static_cast<double>(report->snapstore_peak_bytes));
        }
      }
      row.add("pause_ratio", pause[1] / pause[0]);
      return OkStatus();
    });
  }
  table.print();
}

// ---- fleet serving sweep --------------------------------------------------
//
// One event-loop proxy server and N attached clients hammering small RPCs
// on its one device — the serving shape the epoll loop exists for. Reported
// per client count: aggregate small-RPC throughput, and the registry's dedup
// of two images of the cell's seeded payload, the second with one 64 KiB
// island rewritten.
Status fleet_cell(Table::Row& row, const proxy::ProxyClientApi::Options& opts,
                  std::size_t clients, const std::vector<std::byte>& payload,
                  int rpc_iters) {
  proxy::ProxyClientApi owner(opts);
  std::atomic<std::uint64_t> rpcs{0};
  std::atomic<bool> failed{false};
  // The clock times RPCs only: it starts once every client has attached
  // (connect, Hello, CMA probe) and allocated, and stops when the last
  // client's last RPC returns.
  std::latch attached(static_cast<std::ptrdiff_t>(clients));
  std::latch go(1);
  std::vector<double> last_rpc_s(clients, 0.0);
  WallTimer wall;
  std::vector<std::thread> hammer;
  for (std::size_t c = 0; c < clients; ++c) {
    hammer.emplace_back([&, c] {
      proxy::ProxyClientApi api(owner.host());
      void* p = nullptr;
      const bool allocated = api.cudaMalloc(&p, 64 << 10) == cuda::cudaSuccess;
      if (!allocated) failed = true;
      attached.count_down();
      go.wait();
      if (!allocated) return;
      std::vector<char> host(4096, 'f');
      for (int i = 0; i < rpc_iters; ++i) {
        if (api.cudaMemcpy(p, host.data(), host.size(),
                           cuda::cudaMemcpyHostToDevice) !=
            cuda::cudaSuccess) {
          failed = true;
          return;
        }
        rpcs.fetch_add(1, std::memory_order_relaxed);
      }
      last_rpc_s[c] = wall.elapsed_s();
      (void)api.cudaFree(p);
    });
  }
  attached.wait();
  wall.reset();
  go.count_down();
  for (auto& t : hammer) t.join();
  if (failed.load()) return Internal("fleet RPC failed");
  const double hammer_s =
      *std::max_element(last_rpc_s.begin(), last_rpc_s.end());

  // Registry dedup of the two images: the second differs from the first in
  // one 64 KiB island, so it should intern mostly into the first's chunks.
  std::vector<std::byte> edited = payload;
  const std::size_t at = edited.size() / 2;
  const std::size_t island =
      std::min<std::size_t>(64 << 10, edited.size() - at);
  for (std::size_t b = at; b < at + island; ++b) edited[b] = ~edited[b];
  registry::CheckpointRegistry reg;
  std::uint64_t after_first = 0;
  const std::vector<std::byte>* versions[] = {&payload, &edited};
  for (int v = 0; v < 2; ++v) {
    ckpt::ImageWriter w(Codec::kStore);
    w.add_section(ckpt::SectionType::kDeviceBuffers, "fleet-device",
                  *versions[v]);
    const auto image = w.serialize();
    auto sink = reg.begin_put(v == 0 ? "fleet-a" : "fleet-b");
    CRAC_RETURN_IF_ERROR(sink->write(image.data(), image.size()));
    CRAC_RETURN_IF_ERROR(sink->close());
    CRAC_RETURN_IF_ERROR(reg.commit(*sink));
    if (v == 0) after_first = reg.stats().store.stored_bytes;
  }
  row.add("rpcs_per_s", static_cast<double>(rpcs.load()) / hammer_s);
  row.add("dedup_single_bytes", static_cast<double>(after_first));
  row.add("dedup_pair_bytes",
          static_cast<double>(reg.stats().store.stored_bytes));
  return OkStatus();
}

void run_fleet_sweep(Table& table) {
  const std::size_t mb = env_size("CRAC_BENCH_FLEET_MB", 4, 16);
  const int rpc_iters = bench::quick() ? 50 : 200;
  std::vector<std::size_t> counts = {1, 2, 4, 8};
  if (bench::quick()) counts = {1, 4};
  std::printf("\nfleet serving: one proxy server, N clients (registry dedup "
              "over two %zuMB images):\n", mb);
  proxy::ProxyClientApi::Options opts;
  opts.host.device.device_capacity = 512 << 20;
  opts.host.device.pinned_capacity = 64 << 20;
  opts.host.device.managed_capacity = 256 << 20;
  opts.host.device.device_chunk = 8 << 20;
  opts.host.staging_bytes = 32 << 20;
  for (const std::size_t clients : counts) {
    const auto payload = synthetic_image_payload(mb << 20, 777 + clients);
    Table::Row& row = table.row({clients});
    row.repeat(
        [&] { return fleet_cell(row, opts, clients, payload, rpc_iters); });
  }
  table.print();
}

// ---- incremental (delta) checkpoint sweep ---------------------------------
//
// One device buffer, one full checkpoint, then a dirty-fraction sweep: touch
// 2% / 10% / 50% of the buffer (64KiB islands spread uniformly, the shape a
// training step's parameter updates take) and take a checkpoint_delta after
// each. The number to watch is delta_bytes / full_bytes tracking the dirty
// fraction; the time win follows the byte win because the drain only copies
// dirty chunks off the device. Each repetition ends with a timed chain
// restore of every delta in turn (chain_restore_s: merge base -> ... ->
// delta, then restore it), so the sweep also drives base -> delta -> delta
// resolution end to end.
constexpr double kDirtyFractions[] = {0.02, 0.10, 0.50};

Status delta_rep(const std::vector<Table::Row*>& rows, std::size_t n,
                 const std::vector<std::byte>& host) {
  std::vector<std::string> images = {"/tmp/crac_bench_delta_base.img"};
  const Status run = [&]() -> Status {
    // Scoped: the context must be destroyed before the chain restore
    // builds a fresh one (the split process owns fixed VAs).
    {
      CracContext ctx(bench::crac_options());
      auto& api = ctx.api();
      void* dev = nullptr;
      if (api.cudaMalloc(&dev, n) != cuda::cudaSuccess ||
          api.cudaMemcpy(dev, host.data(), n, cuda::cudaMemcpyHostToDevice) !=
              cuda::cudaSuccess) {
        return Internal("device fill failed");
      }
      CRAC_ASSIGN_OR_RETURN(CheckpointReport full,
                            ctx.checkpoint(images.front()));
      for (std::size_t f = 0; f < rows.size(); ++f) {
        // Touch the fraction of the buffer in 64KiB islands spread uniformly.
        const std::size_t island = 64u << 10;
        const std::size_t islands = std::max<std::size_t>(
            1, static_cast<std::size_t>(kDirtyFractions[f] *
                                        static_cast<double>(n)) /
                   island);
        const std::size_t stride = n / islands;
        for (std::size_t i = 0; i < islands; ++i) {
          const std::size_t off = i * stride;
          if (api.cudaMemcpy(static_cast<std::byte*>(dev) + off,
                             host.data() + off, std::min(island, n - off),
                             cuda::cudaMemcpyHostToDevice) !=
              cuda::cudaSuccess) {
            return Internal("dirtying memcpy failed");
          }
        }
        images.push_back("/tmp/crac_bench_delta_" + std::to_string(f + 1) +
                         ".img");
        CRAC_ASSIGN_OR_RETURN(CheckpointReport delta,
                              ctx.checkpoint_delta(images.back()));
        Table::Row& row = *rows[f];
        row.add("full_bytes", static_cast<double>(full.image_bytes));
        row.add("delta_bytes", static_cast<double>(delta.image_bytes));
        row.add("full_s", full.total_s);
        row.add("delta_s", delta.total_s);
        row.add("delta_ratio", static_cast<double>(delta.image_bytes) /
                                   static_cast<double>(full.image_bytes));
      }
    }
    // Chain restores: each delta resolves base + every intermediate. Each
    // restarted context goes before the next starts (fixed VAs again).
    for (std::size_t f = 0; f < rows.size(); ++f) {
      WallTimer t;
      CRAC_ASSIGN_OR_RETURN(auto restarted,
                            CracContext::restart_from_image(
                                images[f + 1], bench::crac_options()));
      const double restore_s = t.elapsed_s();
      restarted.reset();
      rows[f]->add("chain_restore_s", restore_s);
    }
    return OkStatus();
  }();
  for (const auto& p : images) std::remove(p.c_str());
  return run;
}

void run_delta_sweep(Table& table) {
  const std::size_t mb = env_size("CRAC_BENCH_DELTA_MB", 8, 64);
  const std::size_t n = mb << 20;
  std::printf("\nincremental (delta) checkpoints (%zuMB device buffer; "
              "delta size and time vs the full image, then a chain "
              "restore of each delta):\n", mb);
  const auto host = synthetic_image_payload(n, 777);
  std::vector<Table::Row*> rows;
  for (const double fraction : kDirtyFractions) {
    rows.push_back(&table.row({fraction}));
  }
  for (int r = 0; r < bench::reps(); ++r) {
    const Status s = delta_rep(rows, n, host);
    if (s.ok()) continue;
    std::fprintf(stderr, "delta_checkpoint: %s\n", s.to_string().c_str());
    for (Table::Row* row : rows) row->fail();
    break;
  }
  table.print();
}

// ---- durable registry recovery sweep --------------------------------------
//
// Builds a durable registry corpus (N committed images, distinct synthetic
// payloads so dedup does not collapse the slab), drops the registry
// object, then times a cold recover() of a fresh registry over the same
// directory — the restart path the kill-and-recover campaign proves
// correct and this sweep prices. A recovery that fails or serves the wrong
// image count fails the row.
void remove_registry_dir(const std::string& dir) {
  for (const char* f : {"chunks.slab", "wal.log", "manifest", "manifest.tmp",
                        "chunks.slab.tmp"}) {
    std::remove((dir + "/" + f).c_str());
  }
  ::rmdir(dir.c_str());
}

Status registry_cell(Table::Row& row, const std::string& dir,
                     std::size_t images, std::size_t image_kb) {
  remove_registry_dir(dir);
  registry::RegistryOptions opts;
  opts.dir = dir;
  WallTimer put_timer;
  registry::RegistryStats stats;
  {
    registry::CheckpointRegistry reg(opts);
    CRAC_RETURN_IF_ERROR(reg.recover());
    for (std::size_t i = 0; i < images; ++i) {
      std::vector<std::byte> payload(image_kb << 10);
      for (std::size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<std::byte>((b * 13 + i * 131 + 7) & 0xFF);
      }
      ckpt::ImageWriter w(Codec::kStore);
      w.add_section(ckpt::SectionType::kDeviceBuffers, "device-arena",
                    std::move(payload));
      const auto image = w.serialize();
      auto sink = reg.begin_put("img-" + std::to_string(i));
      CRAC_RETURN_IF_ERROR(sink->write(image.data(), image.size()));
      CRAC_RETURN_IF_ERROR(sink->close());
      CRAC_RETURN_IF_ERROR(reg.commit(*sink));
    }
    stats = reg.stats();
  }  // registry destroyed: only the directory survives
  const double put_s = put_timer.elapsed_s();

  registry::CheckpointRegistry fresh(opts);
  WallTimer recover_timer;
  CRAC_RETURN_IF_ERROR(fresh.recover());
  const double recover_s = std::max(recover_timer.elapsed_s(), 1e-9);
  if (fresh.stats().images != images) {
    return Corrupt("recovered " + std::to_string(fresh.stats().images) +
                   " of " + std::to_string(images) + " images");
  }
  row.add("stored_bytes", static_cast<double>(stats.store.stored_bytes));
  row.add("slab_file_bytes", static_cast<double>(stats.disk.slab_file_bytes));
  row.add("put_s", put_s);
  row.add("recover_s", recover_s);
  row.add("recover_mbs", mbs(stats.store.stored_bytes, recover_s));
  return OkStatus();
}

void run_registry_recovery_sweep(Table& table) {
  const std::size_t image_kb = env_size("CRAC_BENCH_REGISTRY_KB", 256, 1024);
  std::vector<std::size_t> counts = {4, 16, 64};
  if (bench::quick()) counts = {2, 8};
  std::printf("\ndurable registry recovery (N committed images of %zuKB, "
              "cold recover() over the directory):\n", image_kb);
  const std::string dir =
      "/tmp/crac_bench_registry_" + std::to_string(::getpid());
  for (const std::size_t images : counts) {
    Table::Row& row = table.row({images});
    row.repeat([&] { return registry_cell(row, dir, images, image_kb); });
  }
  remove_registry_dir(dir);
  table.print();
}

}  // namespace

int main() {
  // Socket writes to a dead peer must surface as EPIPE through the Status
  // path, not kill the bench.
  std::signal(SIGPIPE, SIG_IGN);

  bench::print_header(
      "Figure 3: Rodinia checkpoint/restart times and image sizes",
      "Figure 3 (gzip disabled, checkpoint at a random mid-run point)");
  using bench::higher;
  using bench::lower;
  bench::Report report("fig3");

  Table& rodinia = report.table(
      "rodinia", {"name"},
      {lower("ckpt_s"), lower("restart_s"), lower("image_bytes", kInt),
       lower("arena_ablation_bytes", kInt), lower("calls_replayed", kInt),
       lower("ckpt_drain_s"), lower("ckpt_memory_s"), lower("ckpt_write_s"),
       lower("ckpt_pause_s"), lower("restart_read_s"),
       lower("restart_memory_s"), lower("restart_replay_s")});
  run_rodinia(rodinia);
  rodinia.print();
  std::printf("\nshape check (paper): ckpt & restart < 1s at paper scale; "
              "restart > ckpt for malloc/free-heavy apps (heartwall, "
              "streamcluster); image size tracks ACTIVE allocations, the "
              "arena ablation is strictly larger.\n");

  Table& serial = report.table(
      "serial_lz", {}, {higher("write_mbs", kMbs), higher("restore_mbs", kMbs)});
  Table& chunked = report.table(
      "chunked_parallel_lz", {"threads", "chunk_bytes"},
      {higher("write_mbs", kMbs), higher("restore_mbs", kMbs),
       lower("image_bytes", kInt)});
  run_lz_sweeps(serial, chunked);
  std::printf("\nshape check (CRACIMG2): on a multi-core runner the "
              "chunked-parallel rows should beat serial whole-buffer LZ in "
              "both directions and scale with threads; on one core they "
              "should roughly match it (chunking overhead is per-chunk "
              "headers; restore additionally holds only the bounded "
              "decode-ahead window resident, never the image).\n");

  run_ship_sweep(report.table(
      "ship_loopback", {"threads", "spool"},
      {higher("mbs", kMbs), lower("spooled_to_disk_bytes", kInt)}));
  std::printf("\nshape check (shipping): the in-memory rows should track "
              "the chunked-parallel restore numbers minus socket copies; "
              "the spill rows pay one extra write+read of the overflow "
              "bytes and should trail them. Peak spool residency stays "
              "under the cap in both (asserted in remote_test, not "
              "here).\n");

  run_overlap_sweep(report.table(
      "restore_while_receiving", {"sender_pace_mbs", "sections"},
      {lower("serialized_s"), lower("overlapped_s"),
       higher("speedup", "%.2f")}));
  std::printf("\nshape check (overlap): overlapped should beat serialized "
              "at every pace (remote_test asserts the ordering property; "
              "this shows the magnitude). Serialized pays transfer + "
              "restore; overlapped approaches max(transfer, restore), so "
              "the speedup grows toward 1 + restore/transfer as the sender "
              "slows. The 1-section rows isolate chunk-granular decode. On "
              "a single-core host the overlap can only hide the sender's "
              "pacing stalls, not compute, so slow paces show the effect "
              "and fast paces converge to 1x.\n");

  run_zero_run_sweep(report.table(
      "zero_run_codec", {"codec"},
      {higher("write_mbs", kMbs), higher("restore_mbs", kMbs),
       lower("image_bytes", kInt)}));
  std::printf("\nshape check (zero-run): on a ~94%%-zero arena the zero-run "
              "image should be several times smaller than plain LZ and both "
              "directions faster (the eliding scan touches each zero byte "
              "once; LZ window-matches them). chunk_test asserts the "
              "codec's round-trip and hostile-input behavior.\n");

  run_cow_pause_sweep(report.table(
      "cow_pause", {"mb"},
      {lower("stw_pause_s"), lower("cow_pause_s"), lower("stw_total_s"),
       lower("cow_total_s"), lower("snapstore_peak_bytes", kInt),
       lower("pause_ratio")}));
  std::printf("\nshape check (cow pause): the stop-the-world pause grows "
              "with footprint (it IS the capture); the COW pause stays "
              "flat — drain streams, advance trackers, arm the overlay, "
              "snapshot upper memory — so pause_ratio falls as footprint "
              "grows and must be under 0.10 at the largest footprint "
              "(snapstore_test asserts byte-identity of the two modes; the "
              "CI bench smoke asserts the ratio).\n");

  run_fleet_sweep(report.table(
      "fleet_throughput", {"clients"},
      {higher("rpcs_per_s", "%.0f"), lower("dedup_single_bytes", kInt),
       lower("dedup_pair_bytes", kInt)}));
  std::printf("\nshape check (fleet): rpcs/s should grow with client count "
              "until the loop thread or cores saturate (never collapse), "
              "and the registry's two-image bytes stay well under 2x one "
              "image (scenario_fleet_test asserts the serving behavior; the "
              "CI bench smoke asserts the dedup ratio).\n");

  run_delta_sweep(report.table(
      "delta_checkpoint", {"dirty_fraction"},
      {lower("full_bytes", kInt), lower("delta_bytes", kInt), lower("full_s"),
       lower("delta_s"), lower("delta_ratio"), lower("chain_restore_s")}));
  std::printf("\nshape check (delta): delta image size should track the "
              "dirty fraction (2%% dirty => well under 10%% of the full "
              "image; the floor is the always-full sections — log, upper "
              "memory, residency), and delta time should fall with it. "
              "delta_test asserts chain restores are byte-identical to full "
              "ones.\n");

  run_registry_recovery_sweep(report.table(
      "registry_recovery", {"images"},
      {lower("stored_bytes", kInt), lower("slab_file_bytes", kInt),
       lower("put_s"), lower("recover_s"), higher("recover_mbs", kMbs)}));
  std::printf("\nshape check (registry recovery): recovery reads record "
              "headers, the manifest and the WAL, never payloads, so "
              "recover_s stays in the milliseconds and far under re-PUTting "
              "the corpus; recover_mbs is stored bytes over that time, not "
              "a read rate, and grows with the corpus. Every row must "
              "recover the exact committed image count "
              "(registry_durability_test asserts byte-identity and the "
              "kill-point invariants; the CI bench smoke asserts every row "
              "recovered).\n");

  return report.write();
}
