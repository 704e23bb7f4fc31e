// Figure 3 reproduction: checkpoint and restart times for the Rodinia
// benchmarks, with checkpoint image sizes. Methodology follows §4.4.1:
// compression disabled, checkpoint triggered at a (seeded-random) point
// mid-run; restart constructs a fresh context from the image and replays
// the full CUDA log.
//
// Also prints the §3.2.3 ablation: the image size had CRAC saved the whole
// committed allocation arenas instead of only active allocations.
//
// The second table is the ablation the CRACIMG2 pipeline exists for: LZ
// ("gzip on") checkpoint AND restore throughput on a synthetic GPU-sized
// image — serial whole-buffer (the v1 path and the paper's reason to
// disable gzip) against the chunked-parallel write pipeline and the
// streaming restore pipeline (ckpt::Source + decompress-ahead prefetch),
// across one threads × chunk-size sweep so both directions land in the
// same table. Sized by CRAC_BENCH_CKPT_MB (default 64).
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/source.hpp"

#include "bench/bench_util.hpp"
#include "ckpt/chunk.hpp"
#include "ckpt/compressor.hpp"
#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "proxy/client_api.hpp"
#include "registry/registry.hpp"

namespace {

// Mixed-entropy synthetic image payload: run-heavy spans (zeroed/initialized
// buffers) interleaved with noise (packed floats), the shape real drained
// allocations take.
std::vector<std::byte> synthetic_image_payload(std::size_t n,
                                               std::uint64_t seed) {
  crac::Rng rng(seed);
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
  crac::Rng rng(seed);
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

// Quick mode (CRAC_BENCH_QUICK=1): shrink every sweep matrix to its corner
// cells so the whole binary finishes in CI-smoke time while still driving
// each pipeline end to end.
bool quick() { return crac::env_int("CRAC_BENCH_QUICK", 0) != 0; }

struct SweepCell {
  double write_mbs = -1.0;
  double restore_mbs = -1.0;
  std::uint64_t image_bytes = 0;
};

// ---- machine-readable output ----------------------------------------------
//
// Every sweep appends its cells here and main() serializes the lot to
// BENCH_fig3.json (path override: CRAC_BENCH_JSON), so CI can archive runs
// as artifacts and diff them without scraping the human tables. The
// checked-in copy is one reference run — read shapes, not absolutes.
struct BenchJson {
  struct Rodinia {
    std::string name;
    bool ok = false;
    double ckpt_s = 0, restart_s = 0;
    std::uint64_t image_bytes = 0, ablation_bytes = 0, replayed = 0;
  };
  struct Cell {  // chunked-parallel cells
    std::size_t threads = 0, chunk = 0;
    double write_mbs = -1, restore_mbs = -1;
  };
  struct Ship {
    std::size_t threads = 0;
    bool spill = false;
    double mbs = -1;
    std::uint64_t spooled_to_disk = 0;
  };
  struct Overlap {
    double pace_mbs = 0;
    std::size_t sections = 0;
    double serialized_s = -1, overlapped_s = -1;
  };
  struct ZeroRun {
    std::string codec;
    double write_mbs = -1, restore_mbs = -1;
    std::uint64_t image_bytes = 0;
  };
  struct Prefetch {
    std::size_t threads = 0;
    double restart_s = -1;
    std::uint64_t pages_restored = 0;
  };
  struct Delta {
    double dirty_fraction = 0;
    std::uint64_t full_bytes = 0, delta_bytes = 0;
    double full_s = -1, delta_s = -1;
  };
  struct CowPause {
    std::size_t mb = 0;
    double stw_pause_s = -1, cow_pause_s = -1;
    double stw_total_s = -1, cow_total_s = -1;
    std::uint64_t snapstore_peak = 0;
  };
  struct Fleet {
    std::size_t clients = 0;
    double rpcs_per_s = -1;   // small-RPC throughput across all clients
    double ship_mbs = -1;     // aggregate of two concurrent shipments
    std::uint64_t dedup_single_bytes = 0;  // registry bytes after image 1
    std::uint64_t dedup_pair_bytes = 0;    // registry bytes after image 2
  };
  struct RegistryRecovery {
    std::size_t images = 0;
    std::uint64_t stored_bytes = 0;     // deduped payload bytes on disk
    std::uint64_t slab_file_bytes = 0;  // chunks.slab size at recovery
    double put_s = -1;      // wall time to PUT the corpus
    double recover_s = -1;  // cold recover() over the same directory;
                            // -1 also flags a corpus/verification failure
    double recover_mbs = -1;
  };

  std::vector<Rodinia> rodinia;
  double serial_write_mbs = 0, serial_restore_mbs = 0;
  std::vector<Cell> chunked;
  std::vector<Ship> ship;
  std::vector<Overlap> overlap;
  std::vector<ZeroRun> zero_run;
  std::vector<Prefetch> prefetch;
  std::vector<Delta> delta;
  std::vector<CowPause> cow_pause;
  std::vector<Fleet> fleet;
  std::vector<RegistryRecovery> registry_recovery;

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
  }
  static std::string num(std::uint64_t v) { return std::to_string(v); }

  std::string emit() const {
    std::string s = "{\n  \"bench\": \"fig3_rodinia_ckpt\",\n";
    s += "  \"hardware_threads\": " +
         num(static_cast<std::size_t>(std::max(
             1u, std::thread::hardware_concurrency()))) +
         ",\n";
    s += "  \"quick\": " + std::string(quick() ? "true" : "false") + ",\n";
    s += "  \"rodinia\": [\n";
    for (std::size_t i = 0; i < rodinia.size(); ++i) {
      const auto& r = rodinia[i];
      s += "    {\"name\": \"" + r.name +
           "\", \"ok\": " + (r.ok ? "true" : "false") +
           ", \"ckpt_s\": " + num(r.ckpt_s) +
           ", \"restart_s\": " + num(r.restart_s) +
           ", \"image_bytes\": " + num(r.image_bytes) +
           ", \"arena_ablation_bytes\": " + num(r.ablation_bytes) +
           ", \"calls_replayed\": " + num(r.replayed) + "}";
      s += i + 1 < rodinia.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"serial_lz\": {\"write_mbs\": " + num(serial_write_mbs) +
         ", \"restore_mbs\": " + num(serial_restore_mbs) + "},\n";
    s += "  \"chunked_parallel_lz\": [\n";
    for (std::size_t i = 0; i < chunked.size(); ++i) {
      const auto& c = chunked[i];
      s += "    {\"threads\": " + num(c.threads) +
           ", \"chunk_bytes\": " + num(c.chunk) +
           ", \"write_mbs\": " + num(c.write_mbs) +
           ", \"restore_mbs\": " + num(c.restore_mbs) + "}";
      s += i + 1 < chunked.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"ship_loopback\": [\n";
    for (std::size_t i = 0; i < ship.size(); ++i) {
      const auto& c = ship[i];
      s += "    {\"threads\": " + num(c.threads) + ", \"spool\": \"" +
           (c.spill ? "spill-to-disk" : "in-memory") +
           "\", \"mbs\": " + num(c.mbs) +
           ", \"spooled_to_disk_bytes\": " + num(c.spooled_to_disk) + "}";
      s += i + 1 < ship.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"restore_while_receiving\": [\n";
    for (std::size_t i = 0; i < overlap.size(); ++i) {
      const auto& c = overlap[i];
      s += "    {\"sender_pace_mbs\": " + num(c.pace_mbs) +
           ", \"sections\": " + num(c.sections) +
           ", \"serialized_s\": " + num(c.serialized_s) +
           ", \"overlapped_s\": " + num(c.overlapped_s) + "}";
      s += i + 1 < overlap.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"zero_run_codec\": [\n";
    for (std::size_t i = 0; i < zero_run.size(); ++i) {
      const auto& c = zero_run[i];
      s += "    {\"codec\": \"" + c.codec +
           "\", \"write_mbs\": " + num(c.write_mbs) +
           ", \"restore_mbs\": " + num(c.restore_mbs) +
           ", \"image_bytes\": " + num(c.image_bytes) + "}";
      s += i + 1 < zero_run.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"uvm_prefetch_restart\": [\n";
    for (std::size_t i = 0; i < prefetch.size(); ++i) {
      const auto& c = prefetch[i];
      s += "    {\"ckpt_threads\": " + num(c.threads) +
           ", \"restart_s\": " + num(c.restart_s) +
           ", \"uvm_pages_restored\": " + num(c.pages_restored) + "}";
      s += i + 1 < prefetch.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"delta_checkpoint\": [\n";
    for (std::size_t i = 0; i < delta.size(); ++i) {
      const auto& c = delta[i];
      s += "    {\"dirty_fraction\": " + num(c.dirty_fraction) +
           ", \"full_bytes\": " + num(c.full_bytes) +
           ", \"delta_bytes\": " + num(c.delta_bytes) +
           ", \"full_s\": " + num(c.full_s) +
           ", \"delta_s\": " + num(c.delta_s) + "}";
      s += i + 1 < delta.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"cow_pause\": [\n";
    for (std::size_t i = 0; i < cow_pause.size(); ++i) {
      const auto& c = cow_pause[i];
      s += "    {\"mb\": " + num(static_cast<std::uint64_t>(c.mb)) +
           ", \"stw_pause_s\": " + num(c.stw_pause_s) +
           ", \"cow_pause_s\": " + num(c.cow_pause_s) +
           ", \"stw_total_s\": " + num(c.stw_total_s) +
           ", \"cow_total_s\": " + num(c.cow_total_s) +
           ", \"snapstore_peak_bytes\": " + num(c.snapstore_peak) + "}";
      s += i + 1 < cow_pause.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"fleet_throughput\": [\n";
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const auto& c = fleet[i];
      s += "    {\"clients\": " + num(static_cast<std::uint64_t>(c.clients)) +
           ", \"rpcs_per_s\": " + num(c.rpcs_per_s) +
           ", \"ship_mbs\": " + num(c.ship_mbs) +
           ", \"dedup_single_bytes\": " + num(c.dedup_single_bytes) +
           ", \"dedup_pair_bytes\": " + num(c.dedup_pair_bytes) + "}";
      s += i + 1 < fleet.size() ? ",\n" : "\n";
    }
    s += "  ],\n";
    s += "  \"registry_recovery\": [\n";
    for (std::size_t i = 0; i < registry_recovery.size(); ++i) {
      const auto& c = registry_recovery[i];
      s += "    {\"images\": " + num(static_cast<std::uint64_t>(c.images)) +
           ", \"stored_bytes\": " + num(c.stored_bytes) +
           ", \"slab_file_bytes\": " + num(c.slab_file_bytes) +
           ", \"put_s\": " + num(c.put_s) +
           ", \"recover_s\": " + num(c.recover_s) +
           ", \"recover_mbs\": " + num(c.recover_mbs) + "}";
      s += i + 1 < registry_recovery.size() ? ",\n" : "\n";
    }
    s += "  ]\n}\n";
    return s;
  }
};

// Returns write + restore MB/s for one threads × chunk-size cell, or
// negative values if a pipeline errored (a silent failure must not
// masquerade as a throughput number). The restore leg streams the just-
// written image back through MemorySource + the decompress-ahead reader.
SweepCell chunked_parallel_cell(const std::vector<std::byte>& payload,
                                std::size_t threads, std::size_t chunk_size,
                                crac::ckpt::Codec codec = crac::ckpt::Codec::kLz) {
  using namespace crac::ckpt;
  SweepCell cell;
  crac::ThreadPool pool(threads);
  MemorySink sink;
  {
    ImageWriter::Options opts;
    opts.codec = codec;
    opts.chunk_size = chunk_size;
    opts.pool = &pool;
    ImageWriter writer(&sink, opts);
    crac::WallTimer t;
    const bool ok =
        writer.begin_section(SectionType::kDeviceBuffers, "synthetic").ok() &&
        writer.append(payload.data(), payload.size()).ok() &&
        writer.end_section().ok() && writer.finish().ok();
    if (!ok) {
      std::fprintf(stderr, "chunked-parallel write failed: %s\n",
                   writer.status().to_string().c_str());
      return cell;
    }
    cell.write_mbs =
        static_cast<double>(payload.size()) / (1 << 20) / t.elapsed_s();
    cell.image_bytes = sink.bytes().size();
  }
  {
    crac::WallTimer t;
    ImageReader::Options ropts;
    ropts.pool = &pool;
    auto reader = ImageReader::open(
        std::make_unique<MemorySource>(sink.bytes().data(),
                                       sink.bytes().size()),
        ropts);
    if (!reader.ok()) {
      std::fprintf(stderr, "restore open failed: %s\n",
                   reader.status().to_string().c_str());
      return cell;
    }
    auto stream = reader->open_section(reader->sections()[0]);
    if (!stream.ok()) return cell;
    std::vector<std::byte> slice(1 << 20);
    std::uint64_t total = 0;
    for (;;) {
      auto n = stream->read_some(slice.data(), slice.size());
      if (!n.ok()) {
        std::fprintf(stderr, "restore stream failed: %s\n",
                     n.status().to_string().c_str());
        return cell;
      }
      if (*n == 0) break;
      total += *n;
    }
    if (total != payload.size()) {
      std::fprintf(stderr,
                   "restore stream delivered %llu of %zu bytes\n",
                   static_cast<unsigned long long>(total), payload.size());
      return cell;
    }
    cell.restore_mbs =
        static_cast<double>(payload.size()) / (1 << 20) / t.elapsed_s();
  }
  return cell;
}

void run_chunked_parallel_sweep(BenchJson& json) {
  using namespace crac;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_CKPT_MB", quick() ? 8 : 64));
  const std::size_t n = mb << 20;
  std::printf("\nchunked-parallel LZ checkpoint + restore throughput (%zuMB "
              "synthetic image; cells are write/restore MB/s):\n", mb);
  const auto payload = synthetic_image_payload(n, 1234);

  // Serial whole-buffer LZ, both directions: the v1 work — CRC32 plus
  // (de)compression of the entire section on one thread. This is the bar
  // every chunked variant must beat.
  double serial_write_mbs = 0, serial_restore_mbs = 0;
  {
    WallTimer t;
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    const auto packed = ckpt::compress(payload, ckpt::Codec::kLz);
    serial_write_mbs = static_cast<double>(n) / (1 << 20) / t.elapsed_s();
    t.reset();
    auto raw = ckpt::decompress(packed.data(), packed.size(), ckpt::Codec::kLz,
                                payload.size());
    if (!raw.ok()) {
      // A broken restore path must not masquerade as an (instant) baseline.
      std::fprintf(stderr, "serial restore failed: %s\n",
                   raw.status().to_string().c_str());
      return;
    }
    const std::uint32_t crc_back = crc32(raw->data(), raw->size());
    serial_restore_mbs = static_cast<double>(n) / (1 << 20) / t.elapsed_s();
    std::printf("%-24s %7.1f / %-9.1f (crc 0x%08x/0x%08x, compressed to %s)\n",
                "serial whole-buffer", serial_write_mbs, serial_restore_mbs,
                crc, crc_back, format_size(packed.size()).c_str());
  }
  json.serial_write_mbs = serial_write_mbs;
  json.serial_restore_mbs = serial_restore_mbs;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  std::vector<std::size_t> chunk_sizes = {256u << 10, 1u << 20, 4u << 20};
  if (quick()) {
    thread_counts = hw > 1 ? std::vector<std::size_t>{1, hw}
                           : std::vector<std::size_t>{1};
    chunk_sizes = {1u << 20};
  }

  std::printf("%-24s %17s %17s %17s\n", "chunked-parallel", "256KB-chunk",
              "1MB-chunk", "4MB-chunk");
  double best_write = 0, best_restore = 0;
  for (std::size_t threads : thread_counts) {
    std::printf("  %2zu thread%s           ", threads,
                threads == 1 ? " " : "s");
    for (std::size_t chunk : chunk_sizes) {
      const SweepCell cell = chunked_parallel_cell(payload, threads, chunk);
      json.chunked.push_back(
          {threads, chunk, cell.write_mbs, cell.restore_mbs});
      if (cell.write_mbs < 0) {
        std::printf("      FAILED     ");
        continue;
      }
      best_write = std::max(best_write, cell.write_mbs);
      if (cell.restore_mbs < 0) {
        // Keep the valid write number; only the restore leg failed.
        std::printf(" %7.1f/%-8s", cell.write_mbs, "FAILED");
        continue;
      }
      best_restore = std::max(best_restore, cell.restore_mbs);
      std::printf(" %7.1f/%-8.1f", cell.write_mbs, cell.restore_mbs);
    }
    std::printf("\n");
  }
  std::printf("best chunked-parallel: write %.2fx serial, restore %.2fx "
              "serial (hardware threads: %u)\n",
              best_write / serial_write_mbs,
              best_restore / serial_restore_mbs, hw);
}

// One spool-cap × threads cell of the loopback ship sweep: the payload is
// written through ImageWriter -> SocketSink into one end of a socketpair
// from a writer thread while the main thread receives the whole stream
// into a StreamingSpoolSource (start, then wait_complete) and streams it
// back out through the reader — the full live-migration pipeline (frame,
// ship, spool, scan, decode) with no filesystem image. Negative = a failed
// leg.
struct ShipCell {
  double mbs = -1.0;
  std::uint64_t spooled_to_disk = 0;
};

ShipCell ship_loopback_cell(const std::vector<std::byte>& payload,
                            std::size_t threads, std::size_t spool_cap) {
  using namespace crac::ckpt;
  ShipCell cell;
  crac::ThreadPool pool(threads);
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return cell;

  crac::WallTimer t;
  crac::Status ship_status = crac::OkStatus();
  std::thread shipper([&] {
    SocketSink sink(fds[1], "bench ship socket");
    ImageWriter::Options opts;
    opts.codec = Codec::kLz;
    opts.pool = &pool;
    ImageWriter writer(&sink, opts);
    ship_status = [&]() -> crac::Status {
      CRAC_RETURN_IF_ERROR(writer.begin_section(SectionType::kDeviceBuffers,
                                                "synthetic"));
      CRAC_RETURN_IF_ERROR(writer.append(payload.data(), payload.size()));
      CRAC_RETURN_IF_ERROR(writer.end_section());
      CRAC_RETURN_IF_ERROR(writer.finish());
      return sink.close();
    }();
    ::close(fds[1]);
  });

  StreamingSpoolSource::Options sopts;
  sopts.spool_cap_bytes = spool_cap;
  sopts.origin = "bench ship socket";
  auto spool = StreamingSpoolSource::start(fds[0], sopts);
  const crac::Status received =
      spool.ok() ? (*spool)->wait_complete() : spool.status();
  // Close the receive end before joining: if the receive failed early the
  // shipper may be blocked writing a full socketpair buffer, and only the
  // peer close (EPIPE — SIGPIPE is ignored in main) unblocks it.
  ::close(fds[0]);
  shipper.join();
  if (!received.ok() || !ship_status.ok()) {
    std::fprintf(stderr, "ship leg failed: %s\n",
                 (!received.ok() ? received : ship_status)
                     .to_string()
                     .c_str());
    return cell;
  }
  cell.spooled_to_disk = (*spool)->outcome()->spooled_to_disk_bytes;

  ImageReader::Options ropts;
  ropts.pool = &pool;
  auto reader = ImageReader::open(std::move(*spool), ropts);
  if (!reader.ok()) return cell;
  auto stream = reader->open_section(reader->sections()[0]);
  if (!stream.ok()) return cell;
  std::vector<std::byte> slice(1 << 20);
  std::uint64_t total = 0;
  for (;;) {
    auto n = stream->read_some(slice.data(), slice.size());
    if (!n.ok()) {
      std::fprintf(stderr, "spooled restore failed: %s\n",
                   n.status().to_string().c_str());
      return cell;
    }
    if (*n == 0) break;
    total += *n;
  }
  if (total != payload.size()) return cell;
  cell.mbs = static_cast<double>(payload.size()) / (1 << 20) / t.elapsed_s();
  return cell;
}

void run_ship_sweep(BenchJson& json) {
  using namespace crac;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_CKPT_MB", quick() ? 8 : 64));
  const std::size_t n = mb << 20;
  std::printf("\nlive checkpoint shipping, loopback socketpair (%zuMB "
              "synthetic image; cells are end-to-end ship+restore MB/s):\n",
              mb);
  const auto payload = synthetic_image_payload(n, 9876);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  if (quick()) thread_counts = {hw};
  // In-memory spool (cap comfortably above the image) against a spilling
  // spool capped at a fraction of it — the migration-on-a-small-host case.
  const std::size_t caps[] = {(n + (std::size_t{8} << 20)),
                              std::max<std::size_t>(n / 16,
                                                    ckpt::kMinSpoolCapBytes)};
  std::printf("%-24s %17s %17s\n", "spool \xc3\x97 threads", "in-memory",
              "spill-to-disk");
  for (std::size_t threads : thread_counts) {
    std::printf("  %2zu thread%s           ", threads,
                threads == 1 ? " " : "s");
    for (std::size_t cap : caps) {
      const ShipCell cell = ship_loopback_cell(payload, threads, cap);
      json.ship.push_back(
          {threads, cap < n, cell.mbs, cell.spooled_to_disk});
      if (cell.mbs < 0) {
        std::printf("      FAILED     ");
        continue;
      }
      std::printf(" %8.1f (%s)", cell.mbs,
                  cell.spooled_to_disk > 0 ? "disk" : "mem ");
    }
    std::printf("\n");
  }
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
// shape: before chunk-granular overlap it pipelined nothing (the scan
// stalled until the section's last byte landed); now the reader publishes
// the section on its header and decodes chunk frames behind the receive
// frontier, so the single-section column must show the same overlap win.
constexpr std::size_t kOverlapSections = 8;

double paced_restart_leg(const std::vector<std::byte>& payload,
                         crac::ThreadPool* send_pool,
                         crac::ThreadPool* recv_pool, double mb_per_s,
                         bool overlapped, std::size_t sections) {
  using namespace crac::ckpt;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  crac::Status ship_status = crac::OkStatus();
  crac::WallTimer t;
  std::thread shipper([&] {
    SocketSink sink(fds[1], "bench paced socket");
    ImageWriter::Options opts;
    opts.codec = Codec::kLz;
    opts.pool = send_pool;
    ImageWriter writer(&sink, opts);
    ship_status = [&]() -> crac::Status {
      const std::size_t slice = 256 << 10;
      const std::size_t per_section =
          (payload.size() + sections - 1) / sections;
      crac::WallTimer pace;
      std::size_t sent = 0;
      for (std::size_t s = 0; s < sections; ++s) {
        CRAC_RETURN_IF_ERROR(writer.begin_section(
            SectionType::kDeviceBuffers, "synthetic" + std::to_string(s)));
        const std::size_t end =
            std::min(payload.size(), (s + 1) * per_section);
        while (sent < end) {
          const std::size_t n = std::min(slice, end - sent);
          CRAC_RETURN_IF_ERROR(writer.append(payload.data() + sent, n));
          sent += n;
          const double target_s =
              static_cast<double>(sent) / (mb_per_s * (1 << 20));
          const double ahead = target_s - pace.elapsed_s();
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

  double elapsed = -1;
  {
    std::unique_ptr<Source> src;
    auto s = StreamingSpoolSource::start(fds[0]);
    // The serialized leg waits for the verified trailer, so the reader
    // sees end_known() and scans the whole directory up front.
    if (s.ok() && (overlapped || (*s)->wait_complete().ok())) {
      src = std::move(*s);
    }
    if (src != nullptr) {
      ImageReader::Options ropts;
      ropts.pool = recv_pool;
      auto reader = ImageReader::open(std::move(src), ropts);
      if (reader.ok()) {
        // Drain every section through the streaming decode path, then the
        // integrity gate — the reader-side work a restart performs.
        std::vector<std::byte> slice(1 << 20);
        bool ok = true;
        for (std::size_t i = 0; ok; ++i) {
          auto sec = reader->section_at(i);
          if (!sec.ok()) {
            ok = false;
            break;
          }
          if (*sec == nullptr) break;
          auto stream = reader->open_section(**sec);
          if (!stream.ok()) {
            ok = false;
            break;
          }
          for (;;) {
            auto n = stream->read_some(slice.data(), slice.size());
            if (!n.ok()) {
              ok = false;
              break;
            }
            if (*n == 0) break;
          }
        }
        if (ok && reader->verify_unread_sections().ok()) {
          elapsed = t.elapsed_s();
        }
      }
    }
  }
  ::close(fds[0]);
  shipper.join();
  if (!ship_status.ok()) return -1;
  return elapsed;
}

void run_overlap_sweep(BenchJson& json) {
  using namespace crac;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_OVERLAP_MB", quick() ? 4 : 16));
  const std::size_t n = mb << 20;
  std::printf("\nrestore-while-receiving, paced loopback sender (%zuMB "
              "payload; cells are first-wire-byte to restart-complete "
              "seconds; the 1-section rows only overlap at all because of "
              "chunk-granular decode):\n",
              mb);
  const auto payload = synthetic_image_payload(n, 2468);
  // One pool per endpoint: in a real migration the sender's compression and
  // the receiver's decode run on different machines, so sharing one pool
  // would charge the overlapped leg contention the serialized leg never
  // pays.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool send_pool(hw);
  ThreadPool recv_pool(hw);

  std::vector<double> paces = {256.0, 64.0};
  if (quick()) paces = {256.0};
  const std::size_t section_counts[] = {kOverlapSections, 1};
  std::printf("%-24s %12s %12s %9s\n", "pace \xc3\x97 sections \xc3\x97 mode",
              "serialized", "overlapped", "speedup");
  for (const double pace : paces) {
    for (const std::size_t sections : section_counts) {
      const double ser = paced_restart_leg(payload, &send_pool, &recv_pool,
                                           pace, false, sections);
      const double ovl = paced_restart_leg(payload, &send_pool, &recv_pool,
                                           pace, true, sections);
      json.overlap.push_back({pace, sections, ser, ovl});
      if (ser < 0 || ovl < 0) {
        std::printf("  %5.0f MB/s \xc3\x97 %zu            FAILED\n", pace,
                    sections);
        continue;
      }
      std::printf("  %5.0f MB/s \xc3\x97 %zu sec%s %9.3fs %11.3fs %8.2fx\n",
                  pace, sections, sections == 1 ? " " : "s", ser, ovl,
                  ser / ovl);
    }
  }
}

// ---- zero-run codec on mostly-zero arenas ---------------------------------
void run_zero_run_sweep(BenchJson& json) {
  using namespace crac;
  using crac::ckpt::Codec;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_CKPT_MB", quick() ? 8 : 64));
  const std::size_t n = mb << 20;
  std::printf("\nzero-run codec on a mostly-zero arena (%zuMB, ~94%% zero "
              "bytes; write/restore MB/s and image size):\n",
              mb);
  const auto payload = mostly_zero_payload(n, 8642);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const struct {
    Codec codec;
    const char* name;
  } codecs[] = {{Codec::kLz, "lz"}, {Codec::kZeroRunLz, "zero-run+lz"}};
  for (const auto& c : codecs) {
    const SweepCell cell =
        chunked_parallel_cell(payload, hw, 1u << 20, c.codec);
    json.zero_run.push_back(
        {c.name, cell.write_mbs, cell.restore_mbs, cell.image_bytes});
    if (cell.write_mbs < 0 || cell.restore_mbs < 0) {
      std::printf("  %-14s FAILED\n", c.name);
    } else {
      std::printf("  %-14s %8.1f / %-8.1f  image %s\n", c.name,
                  cell.write_mbs, cell.restore_mbs,
                  format_size(cell.image_bytes).c_str());
    }
  }
}

// ---- replay-time UVM prefetch restore -------------------------------------
//
// A managed-memory-heavy context: the restart's replay tail must re-apply
// every range's residency bitmap (pool-parallel when ckpt_threads > 1,
// inline when 1). Cells are full restart_from_image wall seconds, median of
// reps(); the threaded row's win is bounded by how much of the restart IS
// bitmap application, so a modest delta on a small image is expected — the
// crac_test suite asserts byte-identity of the two paths, this shows cost.
void run_uvm_prefetch_sweep(BenchJson& json) {
  using namespace crac;
  using namespace crac::bench;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_UVM_MB", quick() ? 4 : 16));
  constexpr std::size_t kRanges = 8;
  const std::size_t bytes = (mb << 20) / kRanges;
  const std::string path = "/tmp/crac_bench_uvm_prefetch.img";
  std::printf("\nreplay-time UVM residency restore (%zu managed ranges of "
              "%s; cells are restart seconds, median of %d):\n",
              kRanges, format_size(bytes).c_str(), reps());
  {
    CracContext ctx(crac_options());
    auto& api = ctx.api();
    for (std::size_t r = 0; r < kRanges; ++r) {
      void* managed = nullptr;
      if (api.cudaMallocManaged(&managed, bytes, cuda::cudaMemAttachGlobal) !=
          crac::cuda::cudaSuccess) {
        std::printf("  managed alloc FAILED\n");
        return;
      }
      auto* words = static_cast<std::uint32_t*>(managed);
      for (std::size_t i = 0; i < bytes / 4; ++i) {
        words[i] = static_cast<std::uint32_t>((r + 1) * 2654435761u + i);
      }
      // Distinct device-resident prefix per range so every bitmap differs.
      const std::size_t resident = bytes * (r + 1) / (kRanges + 1);
      if (api.cudaMemPrefetchAsync(managed, resident, 0, 0) != crac::cuda::cudaSuccess) {
        std::printf("  prefetch FAILED\n");
        return;
      }
    }
    if (api.cudaDeviceSynchronize() != crac::cuda::cudaSuccess ||
        !ctx.checkpoint(path).ok()) {
      std::printf("  checkpoint FAILED\n");
      return;
    }
  }

  // The threaded row always gets a real pool, even on a one-core host —
  // ckpt_threads <= 1 means "inline", which would duplicate the first row.
  const std::size_t pool_threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, pool_threads}) {
    std::vector<double> times;
    std::uint64_t pages = 0;
    bool failed = false;
    for (int r = 0; r < reps() && !failed; ++r) {
      CracOptions opts = crac_options();
      opts.ckpt_threads = threads;
      RestartReport report;
      auto restarted = CracContext::restart_from_image(path, opts, &report);
      if (!restarted.ok()) {
        std::printf("  restart FAILED: %s\n",
                    restarted.status().to_string().c_str());
        failed = true;
        break;
      }
      times.push_back(report.total_s);
      pages = (*restarted)->plugin().last_replay_stats().uvm_pages_restored;
    }
    if (failed) {
      json.prefetch.push_back({threads, -1, 0});
      continue;
    }
    const double median = bench::median_of(times);
    json.prefetch.push_back({threads, median, pages});
    std::printf("  ckpt_threads=%-2zu %9.4fs (%llu pages restored%s)\n",
                threads, median, static_cast<unsigned long long>(pages),
                threads > 1 ? ", pool-parallel" : ", inline");
  }
  std::remove(path.c_str());
}

// ---- COW capture: pause-vs-footprint sweep --------------------------------
//
// The zero-pause claim, measured: one device buffer per footprint, one
// checkpoint per mode. Stop-the-world holds the application frozen for the
// whole capture (pause ≈ total), so its pause grows with footprint; the
// COW capture releases the world right after drain + tracker advance +
// overlay arm, so its pause should stay flat — the ratio at the largest
// footprint is the number the CI smoke gate asserts (< 10%).
void run_cow_pause_sweep(BenchJson& json) {
  using namespace crac;
  using namespace crac::bench;
  std::vector<std::size_t> footprints = {16, 64};
  if (quick()) footprints = {4, 16};
  std::printf("\nCOW capture pause vs footprint (cells are "
              "application-frozen seconds, median of %d; totals in "
              "parentheses):\n",
              reps());
  std::printf("  %-10s %16s %20s %8s\n", "footprint", "stop-the-world",
              "cow (overlay)", "ratio");
  for (const std::size_t mb : footprints) {
    const std::size_t n = mb << 20;
    const auto payload = synthetic_image_payload(n, 555 + mb);
    BenchJson::CowPause row;
    row.mb = mb;
    bool failed = false;
    for (const bool cow : {false, true}) {
      std::vector<double> pauses, totals;
      std::uint64_t peak = 0;
      for (int r = 0; r < reps() && !failed; ++r) {
        const std::string path = "/tmp/crac_bench_cow_pause.img";
        CracOptions opts = crac_options();
        opts.cow_capture = cow;
        CracContext ctx(opts);
        void* dev = nullptr;
        if (ctx.api().cudaMalloc(&dev, n) != cuda::cudaSuccess ||
            ctx.api().cudaMemcpy(dev, payload.data(), n,
                                 cuda::cudaMemcpyHostToDevice) !=
                cuda::cudaSuccess) {
          failed = true;
          break;
        }
        auto report = ctx.checkpoint(path);
        std::remove(path.c_str());
        if (!report.ok()) {
          std::fprintf(stderr, "  %s checkpoint FAILED: %s\n",
                       cow ? "cow" : "stw",
                       report.status().to_string().c_str());
          failed = true;
          break;
        }
        pauses.push_back(report->pause_s);
        totals.push_back(report->total_s);
        peak = std::max(peak, report->snapstore_peak_bytes);
      }
      if (failed) break;
      const double pause = bench::median_of(pauses);
      const double total = bench::median_of(totals);
      if (cow) {
        row.cow_pause_s = pause;
        row.cow_total_s = total;
        row.snapstore_peak = peak;
      } else {
        row.stw_pause_s = pause;
        row.stw_total_s = total;
      }
    }
    json.cow_pause.push_back(row);
    if (failed || row.stw_pause_s <= 0) {
      std::printf("  %4zuMB            FAILED\n", mb);
      continue;
    }
    std::printf("  %4zuMB     %9.4fs (%6.4fs) %9.4fs (%6.4fs) %7.1f%%\n",
                mb, row.stw_pause_s, row.stw_total_s, row.cow_pause_s,
                row.cow_total_s, 100.0 * row.cow_pause_s / row.stw_pause_s);
  }
}

// ---- fleet serving sweep --------------------------------------------------
//
// One event-loop proxy server, N attached clients hammering small RPCs
// while two checkpoint shipments stream concurrently from the same device —
// the serving shape the epoll rework exists for. Reported per client count:
// aggregate small-RPC throughput, aggregate ship bandwidth, and the
// registry's dedup of the two (near-identical) shipped images. The CI
// smoke gate asserts dedup_pair_bytes < 2 * dedup_single_bytes.
void run_fleet_sweep(BenchJson& json) {
  using namespace crac;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_FLEET_MB", quick() ? 4 : 16));
  const int rpc_iters = quick() ? 50 : 200;
  std::vector<std::size_t> counts = {1, 2, 4, 8};
  if (quick()) counts = {1, 4};

  std::printf("\nfleet serving: one proxy server, N clients + 2 concurrent "
              "shipments (%zuMB device image):\n", mb);
  std::printf("  %-8s %14s %12s %18s %18s\n", "clients", "rpcs/s",
              "ship MB/s", "registry 1 image", "registry 2 images");

  proxy::ProxyClientApi::Options opts;
  opts.host.device.device_capacity = 512 << 20;
  opts.host.device.pinned_capacity = 64 << 20;
  opts.host.device.managed_capacity = 256 << 20;
  opts.host.device.device_chunk = 8 << 20;
  opts.host.staging_bytes = 32 << 20;
  opts.host.session_threads = 4;

  for (const std::size_t clients : counts) {
    proxy::ProxyClientApi owner(opts);
    const std::size_t n = mb << 20;
    const auto payload = synthetic_image_payload(n, 777 + clients);
    void* dev = nullptr;
    if (owner.cudaMalloc(&dev, n) != cuda::cudaSuccess ||
        owner.cudaMemcpy(dev, payload.data(), n,
                         cuda::cudaMemcpyHostToDevice) !=
            cuda::cudaSuccess) {
      std::printf("  %4zu     SEED FAILED\n", clients);
      json.fleet.push_back({clients, -1, -1, 0, 0});
      continue;
    }

    std::atomic<std::uint64_t> rpcs{0};
    std::atomic<bool> failed{false};
    std::vector<std::vector<std::byte>> images(2);

    // Two overlapping shipments, each on its own attached channel with a
    // dedicated consumer pumping the CRACSHP1 stream off a pipe.
    WallTimer wall;
    std::vector<std::thread> shippers;
    for (int s = 0; s < 2; ++s) {
      shippers.emplace_back([&, s] {
        proxy::ProxyClientApi shipper(owner.host(), opts);
        int pipefd[2];
        if (::pipe(pipefd) != 0) { failed = true; return; }
        Status ship_status = OkStatus();
        std::thread tx([&] {
          ship_status = shipper.ship_checkpoint(pipefd[1]);
          ::close(pipefd[1]);
        });
        ckpt::MemorySink sink;
        bool in_band = false;
        const Status pumped = ckpt::pump_ship_stream(pipefd[0], sink,
                                                     "fleet bench", &in_band);
        tx.join();
        ::close(pipefd[0]);
        if (!ship_status.ok() || !pumped.ok()) failed = true;
        images[s] = std::move(sink).take();
      });
    }

    std::vector<std::thread> hammer;
    for (std::size_t c = 0; c < clients; ++c) {
      hammer.emplace_back([&] {
        proxy::ProxyClientApi api(owner.host(), opts);
        void* p = nullptr;
        if (api.cudaMalloc(&p, 64 << 10) != cuda::cudaSuccess) {
          failed = true;
          return;
        }
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
        (void)api.cudaFree(p);
      });
    }
    for (auto& t : hammer) t.join();
    const double hammer_s = wall.elapsed_s();
    for (auto& t : shippers) t.join();
    const double ship_s = wall.elapsed_s();

    BenchJson::Fleet row;
    row.clients = clients;
    if (!failed.load()) {
      row.rpcs_per_s = static_cast<double>(rpcs.load()) / hammer_s;
      row.ship_mbs = static_cast<double>(images[0].size() +
                                         images[1].size()) /
                     (1 << 20) / ship_s;
      // Registry dedup of the two shipped images: both carry the same
      // seeded buffer, so the second should intern mostly into the first's
      // chunks.
      registry::CheckpointRegistry reg;
      const char* names[2] = {"fleet-a", "fleet-b"};
      bool stored = true;
      std::uint64_t after_first = 0;
      for (int s = 0; s < 2 && stored; ++s) {
        auto sink = reg.begin_put(names[s]);
        stored = sink->write(images[s].data(), images[s].size()).ok() &&
                 sink->close().ok() && reg.commit(*sink).ok();
        if (s == 0) after_first = reg.stats().store.stored_bytes;
      }
      if (stored) {
        row.dedup_single_bytes = after_first;
        row.dedup_pair_bytes = reg.stats().store.stored_bytes;
      }
    }
    json.fleet.push_back(row);
    if (row.rpcs_per_s < 0) {
      std::printf("  %4zu     FAILED\n", clients);
      continue;
    }
    std::printf("  %4zu %14.0f %12.1f %18s %18s\n", clients,
                row.rpcs_per_s, row.ship_mbs,
                format_size(row.dedup_single_bytes).c_str(),
                format_size(row.dedup_pair_bytes).c_str());
  }
}

// ---- incremental (delta) checkpoint sweep ---------------------------------
//
// One device buffer, one full checkpoint, then a dirty-fraction sweep: touch
// 2% / 10% / 50% of the buffer (64KiB islands spread uniformly, the shape a
// training step's parameter updates take) and take a checkpoint_delta after
// each. The number to watch is delta_bytes / full_bytes tracking the dirty
// fraction; the time win follows the byte win because the drain only copies
// dirty chunks off the device. Ends with a chain restore of the newest delta
// so the sweep also drives base -> delta -> delta resolution end to end.
void run_delta_sweep(BenchJson& json) {
  using namespace crac;
  using namespace crac::bench;
  const std::size_t mb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_DELTA_MB", quick() ? 8 : 64));
  const std::size_t n = mb << 20;
  const std::string base_path = "/tmp/crac_bench_delta_base.img";
  std::printf("\nincremental (delta) checkpoints (%zuMB device buffer; "
              "dirty-fraction sweep, delta size and time vs the full "
              "image):\n",
              mb);

  std::vector<std::string> cleanup = {base_path};
  // Scoped: the context must be destroyed before the chain restore below
  // builds a fresh one (the split process owns fixed VAs).
  {
  CracContext ctx(crac_options());
  auto& api = ctx.api();
  void* dev = nullptr;
  if (api.cudaMalloc(&dev, n) != cuda::cudaSuccess) {
    std::printf("  device alloc FAILED\n");
    return;
  }
  const auto host = synthetic_image_payload(n, 777);
  if (api.cudaMemcpy(dev, host.data(), n, cuda::cudaMemcpyHostToDevice) !=
      cuda::cudaSuccess) {
    std::printf("  initial fill FAILED\n");
    return;
  }
  auto full = ctx.checkpoint(base_path);
  if (!full.ok()) {
    std::printf("  full checkpoint FAILED: %s\n",
                full.status().to_string().c_str());
    return;
  }
  std::printf("  %-14s %12s %9s %10s\n", "checkpoint", "image",
              "vs full", "seconds");
  std::printf("  %-14s %12s %9s %10.4f\n", "full",
              format_size(full->image_bytes).c_str(), "1.00x", full->total_s);

  const double fractions[] = {0.02, 0.10, 0.50};
  int idx = 0;
  for (const double fraction : fractions) {
    // Touch `fraction` of the buffer in 64KiB islands spread uniformly.
    const std::size_t island = 64u << 10;
    const std::size_t islands = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(n)) /
               island);
    const std::size_t stride = n / islands;
    bool ok = true;
    for (std::size_t i = 0; i < islands && ok; ++i) {
      const std::size_t off = i * stride;
      const std::size_t len = std::min(island, n - off);
      ok = api.cudaMemcpy(static_cast<std::byte*>(dev) + off,
                          host.data() + off, len,
                          cuda::cudaMemcpyHostToDevice) == cuda::cudaSuccess;
    }
    const std::string path =
        "/tmp/crac_bench_delta_" + std::to_string(++idx) + ".img";
    auto delta = ok ? ctx.checkpoint_delta(path)
                    : Result<CheckpointReport>(
                          Internal("dirtying memcpy failed"));
    if (!delta.ok()) {
      std::printf("  %3.0f%% dirty     FAILED: %s\n", fraction * 100,
                  delta.status().to_string().c_str());
      json.delta.push_back({fraction, full->image_bytes, 0, full->total_s, -1});
      continue;
    }
    cleanup.push_back(path);
    json.delta.push_back({fraction, full->image_bytes, delta->image_bytes,
                          full->total_s, delta->total_s});
    std::printf("  %3.0f%% dirty     %12s %8.2fx %10.4f\n", fraction * 100,
                format_size(delta->image_bytes).c_str(),
                static_cast<double>(delta->image_bytes) /
                    static_cast<double>(full->image_bytes),
                delta->total_s);
  }
  }  // context destroyed: fixed VAs free for the restored context

  // Chain restore: the newest delta resolves base + every intermediate.
  auto restored = CracContext::restart_from_image(cleanup.back(),
                                                  crac_options());
  std::printf("  chain restore of %s: %s\n", cleanup.back().c_str(),
              restored.ok() ? "ok"
                            : restored.status().to_string().c_str());
  for (const auto& p : cleanup) std::remove(p.c_str());
}

// ---- durable registry recovery sweep --------------------------------------
//
// Builds a durable registry corpus (N committed images, distinct synthetic
// payloads so dedup does not collapse the slab), drops the registry
// object, then times a cold recover() of a fresh registry over the same
// directory — the restart path the kill-and-recover campaign proves correct
// and this sweep prices. A row whose recovery fails (or serves the wrong
// image count) reports recover_s = -1; the CI bench smoke gates on that.
void run_registry_recovery_sweep(BenchJson& json) {
  using namespace crac;
  const std::size_t image_kb = static_cast<std::size_t>(
      env_int("CRAC_BENCH_REGISTRY_KB", quick() ? 256 : 1024));
  std::vector<std::size_t> counts = {4, 16, 64};
  if (quick()) counts = {2, 8};

  std::printf("\ndurable registry recovery (N committed images of %zuKB, "
              "cold recover() over the directory):\n", image_kb);
  std::printf("  %-8s %12s %12s %10s %12s %12s\n", "images", "stored",
              "slab file", "put (s)", "recover (s)", "recover MB/s");

  const std::string dir =
      "/tmp/crac_bench_registry_" + std::to_string(::getpid());
  auto scrub = [&dir] {
    for (const char* f : {"chunks.slab", "wal.log", "manifest",
                          "manifest.tmp", "chunks.slab.tmp"}) {
      std::remove((dir + "/" + f).c_str());
    }
    ::rmdir(dir.c_str());
  };

  for (const std::size_t images : counts) {
    scrub();
    registry::RegistryOptions opts;
    opts.dir = dir;
    BenchJson::RegistryRecovery row;
    row.images = images;
    bool ok = true;
    WallTimer put_timer;
    {
      registry::CheckpointRegistry reg(opts);
      ok = reg.recover().ok();
      for (std::size_t i = 0; i < images && ok; ++i) {
        std::vector<std::byte> payload(image_kb << 10);
        for (std::size_t b = 0; b < payload.size(); ++b) {
          payload[b] = static_cast<std::byte>((b * 13 + i * 131 + 7) & 0xFF);
        }
        ckpt::ImageWriter w(ckpt::Codec::kStore);
        w.add_section(ckpt::SectionType::kDeviceBuffers, "device-arena",
                      std::move(payload));
        const auto image = w.serialize();
        auto sink = reg.begin_put("img-" + std::to_string(i));
        ok = sink->write(image.data(), image.size()).ok() &&
             sink->close().ok() && reg.commit(*sink).ok();
      }
      if (ok) {
        row.put_s = put_timer.elapsed_s();
        row.stored_bytes = reg.stats().store.stored_bytes;
        row.slab_file_bytes = reg.stats().disk.slab_file_bytes;
      }
    }  // registry destroyed: only the directory survives

    if (ok) {
      registry::CheckpointRegistry fresh(opts);
      WallTimer recover_timer;
      const bool recovered = fresh.recover().ok();
      const double recover_s = recover_timer.elapsed_s();
      if (recovered && fresh.stats().images == images) {
        row.recover_s = recover_s;
        row.recover_mbs = static_cast<double>(row.stored_bytes) / (1 << 20) /
                          std::max(recover_s, 1e-9);
      }
    }
    json.registry_recovery.push_back(row);
    if (row.recover_s < 0) {
      std::printf("  %4zu     FAILED\n", images);
      continue;
    }
    std::printf("  %4zu %12s %12s %10.4f %12.4f %12.1f\n", images,
                format_size(row.stored_bytes).c_str(),
                format_size(row.slab_file_bytes).c_str(), row.put_s,
                row.recover_s, row.recover_mbs);
  }
  scrub();
}

}  // namespace

int main() {
  using namespace crac;
  using namespace crac::bench;

  // Socket writes to a dead peer must surface as EPIPE through the Status
  // path, not kill the bench.
  std::signal(SIGPIPE, SIG_IGN);

  print_header("Figure 3: Rodinia checkpoint/restart times and image sizes",
               "Figure 3 (gzip disabled, checkpoint at a random mid-run point)");

  std::printf("%-16s %10s %10s %12s %14s %10s\n", "Benchmark", "ckpt (s)",
              "restart(s)", "image", "arena-ablation", "replayed");
  std::printf("--------------------------------------------------------------------------------\n");

  BenchJson json;
  Rng rng(42);
  for (workloads::Workload* w : workloads::rodinia_workloads()) {
    const auto params = scaled_params(w);
    const std::string path =
        "/tmp/crac_bench_" + std::string(w->name()) + ".img";

    CheckpointReport ckpt;
    std::uint64_t arena_committed = 0;
    {
      CracContext ctx(crac_options());
      // Random mid-run trigger: fire once somewhere in the first ~75% of
      // the iteration hooks.
      bool done = false;
      // Iteration-driven apps: fire somewhere in the first 75%; apps whose
      // hook counts something else (BFS levels, streamcluster candidates)
      // get a random point in the first few dozen hook firings.
      const int span =
          params.iterations > 1 ? params.iterations * 3 / 4 : 60;
      int fire_after =
          1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                  std::max(2, span))));
      auto hook = [&](int iteration) {
        if (done || iteration < fire_after) return;
        auto report = ctx.checkpoint(path);
        if (report.ok()) ckpt = *report;
        done = true;
      };
      auto run = w->run(ctx.api(), params, hook);
      if (!run.ok()) {
        std::printf("%-16s  FAILED: %s\n", w->name(),
                    run.status().to_string().c_str());
        json.rodinia.push_back({w->name(), false, 0, 0, 0, 0, 0});
        continue;
      }
      if (!done) {
        // Very short run: checkpoint at the end instead.
        auto report = ctx.checkpoint(path);
        if (report.ok()) ckpt = *report;
      }
      // §3.2.3 ablation: a whole-arena checkpoint would carry every
      // committed arena byte rather than just the active allocations.
      auto& dev = ctx.process().lower().device();
      arena_committed = dev.device_arena().committed_bytes() +
                        dev.pinned_arena().committed_bytes() +
                        ctx.process().heap().committed_bytes();
    }

    RestartReport restart;
    {
      auto restored =
          CracContext::restart_from_image(path, crac_options(), &restart);
      if (!restored.ok()) {
        std::printf("%-16s  RESTART FAILED: %s\n", w->name(),
                    restored.status().to_string().c_str());
        json.rodinia.push_back({w->name(), false, 0, 0, 0, 0, 0});
        continue;
      }
    }
    const std::uint64_t ablation = arena_committed + ckpt.image_bytes;
    std::printf("%-16s %10.4f %10.4f %12s %14s %10zu\n", w->name(),
                ckpt.total_s, restart.total_s,
                format_size(ckpt.image_bytes).c_str(),
                format_size(ablation).c_str(),
                restart.replay.calls_replayed);
    json.rodinia.push_back({w->name(), true, ckpt.total_s, restart.total_s,
                            ckpt.image_bytes, ablation,
                            restart.replay.calls_replayed});
    std::remove(path.c_str());
  }
  std::printf("\nshape check (paper): ckpt & restart < 1s at paper scale; "
              "restart > ckpt for malloc/free-heavy apps (heartwall, "
              "streamcluster); image size tracks ACTIVE allocations, the "
              "arena ablation is strictly larger.\n");

  run_chunked_parallel_sweep(json);
  std::printf("\nshape check (CRACIMG2): on a multi-core runner the "
              "chunked-parallel rows should beat serial whole-buffer LZ in "
              "both directions and scale with threads; on one core they "
              "should roughly match it (chunking overhead is per-chunk "
              "headers; restore additionally holds only the bounded "
              "decode-ahead window resident, never the image).\n");

  run_ship_sweep(json);
  std::printf("\nshape check (shipping): the in-memory column should track "
              "the chunked-parallel restore numbers minus socket copies; "
              "the spill column pays one extra write+read of the overflow "
              "bytes and should trail it. Peak spool residency stays under "
              "the cap in both columns (asserted in remote_test, not "
              "here).\n");

  run_overlap_sweep(json);
  std::printf("\nshape check (overlap): the overlapped column should beat "
              "serialized at every pace (remote_test asserts the ordering "
              "property; this shows the magnitude). Serialized pays "
              "transfer + restore; overlapped approaches max(transfer, "
              "restore), so the speedup grows toward 1 + restore/transfer "
              "as the sender slows. The 1-section rows isolate "
              "chunk-granular decode: before it, a single giant section "
              "pinned overlapped == serialized. On a single-core host the "
              "overlap can only hide the sender's pacing stalls, not "
              "compute, so slow paces show the effect and fast paces "
              "converge to 1x.\n");

  run_zero_run_sweep(json);
  std::printf("\nshape check (zero-run): on a ~94%%-zero arena the zero-run "
              "image should be several times smaller than plain LZ and both "
              "directions faster (the eliding scan touches each zero byte "
              "once; LZ window-matches them). chunk_test asserts the "
              "codec's round-trip and hostile-input behavior.\n");

  run_uvm_prefetch_sweep(json);
  std::printf("\nshape check (uvm prefetch): the pool-parallel row should "
              "be no slower than inline, with the gap bounded by the share "
              "of restart spent applying residency bitmaps. crac_test "
              "asserts the two paths restore byte-identical state.\n");

  run_cow_pause_sweep(json);
  std::printf("\nshape check (cow pause): the stop-the-world pause grows "
              "with footprint (it IS the capture); the COW pause stays "
              "flat — drain streams, advance trackers, arm the overlay, "
              "snapshot upper memory — so the ratio falls as footprint "
              "grows and must be under 10%% at the largest footprint "
              "(snapstore_test asserts byte-identity of the two modes; the "
              "CI bench smoke asserts the ratio).\n");

  run_fleet_sweep(json);
  std::printf("\nshape check (fleet): rpcs/s should grow with client count "
              "until the loop thread or cores saturate (never collapse — a "
              "shipment must not stall unrelated RPCs), ship MB/s holds "
              "roughly flat across client counts, and the registry's "
              "two-image bytes stay well under 2x one image "
              "(scenario_fleet_test asserts the serving behavior; the CI "
              "bench smoke asserts the dedup ratio).\n");

  run_delta_sweep(json);
  std::printf("\nshape check (delta): delta image size should track the "
              "dirty fraction (2%% dirty => well under 10%% of the full "
              "image; the floor is the always-full sections — log, upper "
              "memory, residency), and delta time should fall with it. "
              "delta_test asserts chain restores are byte-identical to full "
              "ones.\n");

  run_registry_recovery_sweep(json);
  std::printf("\nshape check (registry recovery): recover time should grow "
              "roughly linearly with stored bytes (one sequential slab scan "
              "plus manifest/WAL replay) and stay far under re-PUTting the "
              "corpus; every row must recover the exact committed image "
              "count (registry_durability_test asserts byte-identity and "
              "the kill-point invariants; the CI bench smoke asserts every "
              "row recovered).\n");

  const char* json_path = std::getenv("CRAC_BENCH_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_fig3.json";
  const std::string doc = json.emit();
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("\nmachine-readable results: %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
