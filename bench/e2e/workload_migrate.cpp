// migrate: live checkpoint shipping. Each trial forks a sender, which runs
// an app to a seeded hook invocation and streams checkpoint_to_sink through
// a SocketSink over a socketpair, and a receiver, which meanwhile restores
// with restart_from_source over StreamingSpoolSource::start — the
// restore-while-receiving path. Both then re-capture into a MemorySink and
// every section's CRC must agree, except the random image-id.
//
// The same capture/restore code as ckpt-file, but through the CRACSHP1 wire
// and the receive/restore overlap instead of a file: a win on files that
// costs the socket path shows up here.
#include <sys/socket.h>
#include <unistd.h>

#include <optional>

#include "bench.hpp"
#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "common/crc32.hpp"
#include "timed.hpp"

namespace crac::bench {

namespace {

const std::vector<std::string> kApps = {
    "nw", "bfs", "unified_memory_streams", "mini_hypre", "streamcluster", "hotspot"};

// Re-captures the context into memory and reports each section's CRC as
// "crc:<index>:<name>". Returns the image for the caller's waterfall.
std::vector<std::byte> recapture(CracContext& ctx, Report& r) {
  Span span("ckpt.recapture");
  ckpt::MemorySink sink;
  auto c = ctx.checkpoint_to_sink(sink);
  if (!c.ok()) {
    r.fail("re-capture: " + c.status().to_string());
    return {};
  }
  std::vector<std::byte> image = std::move(sink).take();
  auto reader = ckpt::ImageReader::open(
      std::make_unique<ckpt::MemorySource>(image.data(), image.size()));
  if (!reader.ok()) {
    r.fail("re-capture read: " + reader.status().to_string());
    return {};
  }
  for (std::size_t i = 0;; ++i) {
    auto sec = reader->section_at(i);
    if (!sec.ok() || *sec == nullptr) break;
    auto bytes = reader->read_section(**sec);
    if (!bytes.ok()) {
      r.fail("re-capture read: " + bytes.status().to_string());
      break;
    }
    r.value("crc:" + std::to_string(i) + ":" + (*sec)->name,
            crc32(bytes->data(), bytes->size()));
  }
  return image;
}

void sender(const AppSpec& a, int fire, int fd, const std::string& scratch,
            bool traced, Report& r) {
  std::unique_ptr<CracContext> owned = timed_context(traced, r);
  CracContext& ctx = *owned;
  cuda::CudaApi* api = &ctx.api();
  std::optional<TimedApi> timed;
  if (traced) api = &timed.emplace(api, kCracSide);
  int calls = 0;
  std::optional<Span> app_span;
  auto hook = [&](int) {
    if (++calls != fire) return;
    const std::int64_t t0 = now_ns();
    r.value("t_start", static_cast<double>(t0));
    ckpt::SocketSink socket(fd, "migration socket");
    TimedSink timed_sink(&socket);
    ckpt::Sink& sink = traced ? static_cast<ckpt::Sink&>(timed_sink) : socket;
    Result<CheckpointReport> c = [&] {
      Span s("ckpt.checkpoint_to_sink");
      return ctx.checkpoint_to_sink(sink);
    }();
    r.value("ship_ms", static_cast<double>(now_ns() - t0) * 1e-6);
    if (!c.ok()) {
      (void)socket.abort();
      r.fail("checkpoint_to_sink: " + c.status().to_string());
      r.finish_and_exit();
    }
    std::vector<std::byte> image = recapture(ctx, r);
    r.value("floor_ms", memcpy_floor_ms(c->image_bytes));
    if (traced) {
      report_checkpoint(*c, r);
      r.value("remote.sink_block_s", timed_sink.blocked_s());
      report_context_layers(ctx, r);
      if (!image.empty()) stage_waterfall(image, scratch, r);
    }
    // The sender's job ends with the shipment; skip the rest of the run.
    app_span->end();
    r.finish_and_exit();
  };
  app_span.emplace("crac.app_run");
  Result<workloads::WorkloadResult> res = a.w->run(*api, a.params, hook);
  r.fail(res.ok() ? "hook never fired" : res.status().to_string());
}

void receiver(int fd, bool traced, Report& r) {
  auto started = ckpt::StreamingSpoolSource::start(fd);
  if (!started.ok()) return r.fail("receive: " + started.status().to_string());
  auto counters = std::make_shared<TimedSource::Counters>();
  std::unique_ptr<ckpt::Source> source = std::move(*started);
  if (traced) source = std::make_unique<TimedSource>(std::move(source), counters);
  RestartReport report;
  const std::int64_t t0 = now_ns();
  auto ctx = [&] {
    Span s("ckpt.restart_from_source");
    return CracContext::restart_from_source(std::move(source), bench_options(), &report);
  }();
  const std::int64_t t1 = now_ns();
  if (!ctx.ok()) return r.fail("restart_from_source: " + ctx.status().to_string());
  r.value("t_end", static_cast<double>(t1));
  r.value("restore_ms", static_cast<double>(t1 - t0) * 1e-6);
  if (traced) {
    report_restart(report, r);
    r.value("remote.source_wait_s", static_cast<double>(counters->wait_ns) * 1e-9);
    r.value("remote.source_reads", static_cast<double>(counters->reads));
    r.value("remote.overlapped", report.overlapped_receive ? 1 : 0);
  }
  recapture(**ctx, r);
}

// Sender and receiver re-captures must agree section by section; only the
// random image-id may differ.
bool same_state(const Outcome& s, const Outcome& rcv) {
  auto crcs = [](const Outcome& o) {
    std::map<std::string, double> m;
    for (const auto& [k, v] : o.values) {
      if (k.rfind("crc:", 0) == 0 && k.find(":image-id") == std::string::npos) m[k] = v;
    }
    return m;
  };
  const auto a = crcs(s);
  return !a.empty() && a == crcs(rcv);
}

}  // namespace

void run_migrate(Run& run) {
  const std::vector<AppSpec> set = apps(kApps, run.opt.seed);
  Rng rng(run.opt.seed);
  const std::vector<int> order = schedule(static_cast<int>(set.size()), run.opt.seed);

  // One trial = one shipment.
  auto shipment = [&](int k, const AppSpec& a, int fire, bool traced) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      Child failed;
      failed.out.failure = "socketpair failed";
      return std::pair<Child, Child>{failed, failed};
    }
    const std::string scratch = tmp_path(run, "ship" + std::to_string(k));
    Child rcv = Child::spawn(
        [&](Report& r) {
          ::close(sv[0]);
          receiver(sv[1], traced, r);
        },
        k, traced);
    Child snd = Child::spawn(
        [&](Report& r) {
          ::close(sv[1]);
          sender(a, fire, sv[0], scratch, traced, r);
        },
        k, traced);
    ::close(sv[0]);
    ::close(sv[1]);
    collect({&rcv, &snd}, 60);
    std::remove(scratch.c_str());
    return std::pair<Child, Child>{std::move(snd), std::move(rcv)};
  };
  // Set-up is one uncounted warm-up shipment (page cache, lazily built
  // tables) of the same app at the same point whatever the seed, so its
  // cost does not depend on which app the schedule puts first.
  const AppSpec warm = app("hotspot", run.opt.seed);
  timed_setup<int>(
      run,
      [&] {
        shipment(-1, warm, warm.hook_calls / 2, false);
        return 0;
      },
      [](int&) {});

  const std::int64_t end = now_ns() + static_cast<std::int64_t>(run.opt.seconds * 1e9);
  for (int k = 0; now_ns() < end; ++k) {
    const int idx = order[static_cast<std::size_t>(k) % order.size()];
    const AppSpec& a = set[static_cast<std::size_t>(idx)];
    const int fire = pick_fire_index(a, rng);
    const bool traced = traced_trial(run.opt.trace, k, static_cast<int>(order.size()));
    auto [snd, rcv] = shipment(k, a, fire, traced);
    Outcome o;
    if (!snd.out.failure.empty()) {
      o.failure = "sender " + snd.out.failure;
    } else if (!rcv.out.failure.empty()) {
      o.failure = "receiver " + rcv.out.failure;
    } else if (!same_state(snd.out, rcv.out)) {
      o.failure = "mismatch: re-captured sections differ";
      o.mismatch = true;
    }
    const bool ok = run.tally(o, a.w->name());
    run.absorb(snd);
    run.absorb(rcv);
    if (!ok) continue;
    const double resume_ms = (rcv.out.at("t_end") - snd.out.at("t_start")) * 1e-6;
    if (traced) {
      run.traced_op.add(idx, resume_ms);
      continue;
    }
    run.op.add(idx, resume_ms);
    run.aux.add(idx, snd.out.at("ship_ms"));
    run.ready.add(idx, rcv.out.at("restore_ms"));
    run.rss.add(idx, rcv.out.maxrss_mb);
    run.overhead.add(idx, resume_ms / snd.out.at("floor_ms"));
  }
}

}  // namespace crac::bench
