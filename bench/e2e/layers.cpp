// Per-layer probes shared by the workloads: timed CRAC construction, the
// per-trial layer counters, and the isolated checkpoint-stage waterfall.
#include <cstdio>
#include <cstring>
#include <tuple>

#include "bench.hpp"
#include "ckpt/image.hpp"
#include "common/crc32.hpp"
#include "simgpu/device.hpp"

namespace crac::bench {

std::unique_ptr<crac::CracContext> timed_context(bool traced, Report& r) {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<CracContext> ctx;
  {
    Span s("crac.context_init");
    ctx = std::make_unique<CracContext>(bench_options());
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  r.value("init_ms", ms);
  if (traced) r.value("crac.context_init_s", ms * 1e-3);
  return ctx;
}

void report_context_layers(crac::CracContext& ctx, Report& r) {
  sim::Device& dev = ctx.process().lower().device();
  r.value("splitproc.transitions", static_cast<double>(ctx.cuda_calls()));
  r.value("crac.log_records", static_cast<double>(ctx.plugin().log().size()));
  r.value("uvm.host_faults", static_cast<double>(dev.uvm().stats().host_faults));
  r.value("simgpu.device_committed_mb",
          static_cast<double>(dev.device_arena().committed_bytes()) / 1e6);
  std::uint64_t calls = 0;
  for (int k = 0; k < kCallKinds; ++k) {
    calls += Tracer::get().telemetry.calls[kCracSide][k].count();
  }
  r.value("crac.calls", static_cast<double>(calls));
}

void report_checkpoint(const CheckpointReport& c, Report& r) {
  r.value("report.drain_s", c.drain_s);
  r.value("report.write_s", c.write_s);
  r.value("report.pause_s", c.pause_s);
  r.value("report.raw_mb", static_cast<double>(c.raw_bytes) / 1e6);
}

void report_restart(const RestartReport& s, Report& r) {
  r.value("report.read_s", s.read_s);
  r.value("report.replay_s", s.replay_s);
  r.value("report.calls_replayed", static_cast<double>(s.replay.calls_replayed));
}

void stage_waterfall(const std::vector<std::byte>& image,
                     const std::string& scratch, Report& r) {
  Span span("ckpt.waterfall");
  const double mb = static_cast<double>(image.size()) / 1e6;
  auto rate = [&](const char* key, std::int64_t t0) {
    r.value(key, mb / (static_cast<double>(now_ns() - t0) * 1e-9));
  };
  // Touch the destination first so the floor measures copying, not faults.
  std::vector<std::byte> copy(image.size(), std::byte{1});
  {
    Span s("ckpt.memcpy");
    const std::int64_t t0 = now_ns();
    std::memcpy(copy.data(), image.data(), image.size());
    rate("ckpt.memcpy_mbs", t0);
  }
  {
    Span s("ckpt.crc32");
    const std::int64_t t0 = now_ns();
    volatile std::uint32_t crc = crc32(image.data(), image.size());
    (void)crc;
    rate("ckpt.crc32_mbs", t0);
  }

  std::vector<std::tuple<ckpt::SectionType, std::string, std::vector<std::byte>>>
      sections;
  std::size_t chunk = ckpt::kDefaultChunkSize;
  {
    Span s("ckpt.decode");
    const std::int64_t t0 = now_ns();
    auto reader = ckpt::ImageReader::open(
        std::make_unique<ckpt::MemorySource>(image.data(), image.size()));
    if (!reader.ok()) return r.fail("waterfall decode: " + reader.status().to_string());
    chunk = reader->chunk_size();
    for (std::size_t i = 0;; ++i) {
      auto sec = reader->section_at(i);
      if (!sec.ok()) return r.fail("waterfall decode: " + sec.status().to_string());
      if (*sec == nullptr) break;
      auto bytes = reader->read_section(**sec);
      if (!bytes.ok()) return r.fail("waterfall decode: " + bytes.status().to_string());
      sections.emplace_back((*sec)->type, (*sec)->name, std::move(*bytes));
    }
    rate("ckpt.decode_mbs", t0);
  }
  {
    Span s("ckpt.encode");
    const std::int64_t t0 = now_ns();
    ckpt::MemorySink sink;
    ckpt::ImageWriter::Options wo;
    wo.chunk_size = chunk;
    ckpt::ImageWriter writer(&sink, wo);
    Status st;
    for (auto& [type, name, payload] : sections) {
      if (st.ok()) st = writer.begin_section(type, name);
      if (st.ok()) st = writer.append(payload.data(), payload.size());
      if (st.ok()) st = writer.end_section();
    }
    if (st.ok()) st = writer.finish();
    if (!st.ok()) return r.fail("waterfall encode: " + st.to_string());
    rate("ckpt.encode_mbs", t0);
  }
  {
    Span s("ckpt.filesink");
    const std::int64_t t0 = now_ns();
    auto sink = ckpt::FileSink::open(scratch);
    Status st = sink.ok() ? (*sink)->write(image.data(), image.size()) : sink.status();
    if (st.ok()) st = (*sink)->close();
    if (!st.ok()) return r.fail("waterfall filesink: " + st.to_string());
    rate("ckpt.filesink_mbs", t0);
  }
  {
    Span s("ckpt.filesource");
    const std::int64_t t0 = now_ns();
    auto src = ckpt::FileSource::open(scratch);
    Status st = src.ok() ? (*src)->read(copy.data(), copy.size()) : src.status();
    if (!st.ok()) return r.fail("waterfall filesource: " + st.to_string());
    rate("ckpt.filesource_mbs", t0);
  }
  std::remove(scratch.c_str());
}

}  // namespace crac::bench
