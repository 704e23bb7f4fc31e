// registry: two client connections against a durable RegistryHost
// (session_threads = 2), closed loop, 80% GET / 20% PUT, in four epochs.
// Each epoch ends with shutdown() and a timed respawn on the same dir.
//
// The corpus, built at set-up, is 8 apps x (1 full + 2 checkpoint_delta
// images); GET names follow a Zipf(0.9) draw over it with a fixed rank
// order (fulls hottest), so the seed changes the draw sequence, not which
// image is hot. PUTs replace 8 scratch names, alternating two
// later-iteration full images of each app. This is the only workload
// where registry store/persist/dedup and the WAL do the work: PUT beside
// GET, server-side delta materialization, and recovery.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ckpt/delta.hpp"
#include "common/crc32.hpp"
#include "registry/client.hpp"
#include "registry/server.hpp"

namespace crac::bench {

namespace {

const std::vector<std::string> kApps = {"cfd",  "hotspot",    "hotspot3d",  "kmeans",
                                        "srad", "mini_hpgmg", "mini_hypre", "streamcluster"};
constexpr int kScratch = 8;
constexpr int kClients = 2;
constexpr int kEpochs = 4;
constexpr double kGetShare = 0.8;
constexpr double kZipfS = 0.9;
constexpr int kStatEvery = 16;  // ops between a client's STAT probes

struct Image {
  std::string name;   // registry name
  std::string path;   // local file PUT under that name
  std::uint32_t crc = 0;  // CRC a GET must return (deltas: the folded chain)
};

// Images per corpus app, in capture order: the GET set (a full image and
// two deltas chained on it), then two later full images the PUTs alternate.
// The PUT payloads are captures of their own, so no image-id in the
// registry is ever held by two names.
constexpr const char* kKinds[] = {"full", "d1", "d2", "late1", "late2"};
constexpr int kGetKinds = 3;
constexpr int kCaptures = 5;

struct Corpus {
  std::vector<Image> images;       // GET set: [kind * apps + app], kind 0..2
  std::vector<Image> late;         // PUT payloads: [v * apps + app], v 0..1
  std::string dir;                 // corpus files
  std::string registry_dir;
  std::unique_ptr<registry::RegistryHost> host;
};

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  std::vector<std::byte> out(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size()));
  return out;
}

// Runs the app under CRAC and captures kKinds at evenly spaced hook
// invocations; reports the CRC a GET of each image must return. The capture points are fixed, not seeded, so the corpus (delta
// sizes above all) has the same shape for every seed; the seed still
// drives the apps' inputs and the op sequence.
void make_images(const AppSpec& a, const std::string& stem, Report& r) {
  CracContext ctx(bench_options());
  const int slot = std::max(1, a.hook_calls / (kCaptures + 1));
  int fire[kCaptures];
  for (int i = 0; i < kCaptures; ++i) fire[i] = (i + 1) * slot;
  int calls = 0, next = 0;
  std::string error;
  auto hook = [&](int) {
    ++calls;
    while (next < kCaptures && calls >= fire[next] && error.empty()) {
      const std::string path = stem + "." + kKinds[next];
      const bool delta = next > 0 && next < kGetKinds;
      auto rep = delta ? ctx.checkpoint_delta(path) : ctx.checkpoint(path);
      if (!rep.ok()) error = std::string(kKinds[next]) + ": " + rep.status().to_string();
      ++next;
    }
  };
  auto res = a.w->run(ctx.api(), a.params, hook);
  if (!error.empty()) return r.fail(error);
  if (!res.ok()) return r.fail(res.status().to_string());
  if (next < kCaptures) return r.fail("hook fired too few times");
  for (const char* kind : kKinds) {
    const std::string path = stem + "." + kind;
    auto bytes = ckpt::materialize_image_chain(path);
    if (!bytes.ok()) return r.fail("materialize: " + bytes.status().to_string());
    r.value(std::string("crc_") + kind, crc32(bytes->data(), bytes->size()));
  }
}

// The PUT payload of scratch name k on its nth PUT: late2, late1, late2, ...
// (set-up leaves late1 there).
const Image& scratch_payload(const Corpus& c, int k, std::uint64_t nth) {
  const std::size_t apps_n = c.late.size() / 2;
  return c.late[(nth % 2 == 1 ? apps_n : 0) + static_cast<std::size_t>(k)];
}

std::string scratch_name(int k) { return "scratch/" + std::to_string(k); }

Status put_file(registry::RegistryClient& client, const std::string& name,
                const std::string& path) {
  const std::vector<std::byte> bytes = read_file(path);
  if (bytes.empty()) return IoError("cannot read " + path);
  return client.put_bytes(name, bytes);
}

Result<registry::RegistryStatsWire> stat_host(const registry::RegistryHost& host) {
  auto fd = host.connect();
  if (!fd.ok()) return fd.status();
  registry::RegistryClient client(*fd);
  return client.stat();
}

Result<registry::RegistryHost> spawn_host(const std::string& dir) {
  registry::RegistryHostOptions ho;
  ho.dir = dir;
  ho.session_threads = kClients;
  return registry::RegistryHost::spawn(ho);
}

Corpus build_corpus(Run& run, int rep) {
  Corpus c;
  c.dir = tmp_path(run, "corpus" + std::to_string(rep));
  c.registry_dir = tmp_path(run, "registry" + std::to_string(rep));
  std::filesystem::create_directories(c.dir);
  const std::vector<AppSpec> set = apps(kApps, run.opt.seed);
  std::vector<Outcome> made(set.size());
  // Corpus captures are retried (three tries in all): a crash here is not a
  // measured operation, and the corpus must be complete.
  std::vector<std::size_t> pending(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) pending[i] = i;
  for (int attempt = 0; attempt < 3 && !pending.empty(); ++attempt) {
    std::vector<Child::Body> bodies;
    for (std::size_t i : pending) {
      bodies.push_back([&, i](Report& r) { make_images(set[i], c.dir + "/" + kApps[i], r); });
    }
    const std::vector<Outcome> done = run_parallel(bodies, 120);
    std::vector<std::size_t> still;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      made[pending[j]] = done[j];
      if (!done[j].failure.empty()) still.push_back(pending[j]);
    }
    pending = std::move(still);
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (!made[i].failure.empty()) {
      throw std::runtime_error("corpus " + kApps[i] + ": " + made[i].failure);
    }
  }
  c.images.resize(kGetKinds * set.size());
  c.late.resize((kCaptures - kGetKinds) * set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (int k = 0; k < kCaptures; ++k) {
      Image img;
      img.name = kApps[i] + "/" + kKinds[k];
      img.path = c.dir + "/" + kApps[i] + "." + kKinds[k];
      img.crc = static_cast<std::uint32_t>(made[i].at(std::string("crc_") + kKinds[k]));
      auto& dst = k < kGetKinds ? c.images : c.late;
      const int slot = k < kGetKinds ? k : k - kGetKinds;
      dst[static_cast<std::size_t>(slot) * set.size() + i] = img;
    }
  }

  auto host = spawn_host(c.registry_dir);
  if (!host.ok()) throw std::runtime_error("spawn: " + host.status().to_string());
  c.host = std::make_unique<registry::RegistryHost>(std::move(*host));
  // Ingest in a child: parents before their deltas, then the scratch names.
  const Outcome ingest = run_child(
      [&](Report& r) {
        auto fd = c.host->connect();
        if (!fd.ok()) return r.fail(fd.status().to_string());
        registry::RegistryClient client(*fd);
        for (const Image& img : c.images) {
          if (Status s = put_file(client, img.name, img.path); !s.ok()) {
            return r.fail(img.name + ": " + s.to_string());
          }
        }
        for (int k = 0; k < kScratch; ++k) {
          if (Status s = put_file(client, scratch_name(k), scratch_payload(c, k, 0).path);
              !s.ok()) {
            return r.fail(scratch_name(k) + ": " + s.to_string());
          }
        }
      },
      0, false, 120);
  if (!ingest.failure.empty()) throw std::runtime_error("ingest: " + ingest.failure);
  // Restart the host on its directory, as each epoch ends, so every epoch's
  // load (and peak RSS) meets a host that started by recovering, never the
  // one whose peak includes ingesting the corpus.
  c.host->shutdown();
  auto recovered = spawn_host(c.registry_dir);
  if (!recovered.ok()) throw std::runtime_error("respawn: " + recovered.status().to_string());
  c.host = std::make_unique<registry::RegistryHost>(std::move(*recovered));
  auto st = stat_host(*c.host);
  if (!st.ok() || st->images != c.images.size() + kScratch) {
    throw std::runtime_error("ingest: registry holds the wrong image count");
  }
  return c;
}

void discard(Corpus& c) {
  if (c.host) c.host->shutdown();
  c.host.reset();
  std::error_code ec;
  std::filesystem::remove_all(c.dir, ec);
  std::filesystem::remove_all(c.registry_dir, ec);
}

// ---------------------------------------------------------- /proc reads --

// The number after `key` in /proc/<pid>/<file> (status: kB; io: bytes).
double proc_field(pid_t pid, const char* file, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr);
  }
  return 0;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t paren = all.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(all.substr(paren + 2));
  std::string f;
  double utime = 0, stime = 0;
  // Fields after the command: state is #3; utime #14, stime #15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::strtod(f.c_str(), nullptr);
    if (i == 15) stime = std::strtod(f.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ------------------------------------------------------------- the load --

// One client's closed loop until `end_ns`; one record per op:
// "<kind> <group> <ms> <floor_ms> <bytes> <ok> [reason]" with kind
// get/put/stat; floor_ms (GETs only) is memcpy_floor_ms of the bytes got.
void client_loop(const Corpus& c, int client, std::uint64_t seed, std::int64_t end_ns,
                 std::vector<std::string>& out) {
  auto fd = c.host->connect();
  if (!fd.ok()) {
    out.push_back("get -1 0 0 0 0 connect: " + fd.status().to_string());
    return;
  }
  registry::RegistryClient rc(*fd);
  Rng rng(seed);
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t r = 1; r <= c.images.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), kZipfS);
    cdf.push_back(total);
  }
  std::uint64_t puts[kScratch] = {};
  bool put_ok[kScratch] = {};
  std::uint32_t last_put_crc[kScratch] = {};
  char buf[96];
  auto emit = [&](const char* kind, int group, std::int64_t t0, std::int64_t t1,
                  double floor_ms, std::uint64_t bytes, const Status& s) {
    std::snprintf(buf, sizeof(buf), "%s %d %.6f %.6f %llu ", kind, group,
                  static_cast<double>(t1 - t0) * 1e-6, floor_ms,
                  static_cast<unsigned long long>(bytes));
    out.push_back(buf + (s.ok() ? std::string("1") : "0 " + s.to_string().substr(0, 120)));
  };
  for (int op = 0; now_ns() < end_ns; ++op) {
    if (op % kStatEvery == kStatEvery - 1) {
      Span span("registry.stat");
      const std::int64_t t0 = now_ns();
      auto st = rc.stat();
      emit("stat", 0, t0, now_ns(), 0, 0, status_of(st));
    }
    if (rng.next_double() < kGetShare) {
      // Rank r is image r: the fulls of every app are the hottest ranks,
      // then the first deltas, then the second.
      const double u = rng.next_double() * total;
      const std::size_t idx = std::min(
          static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
          cdf.size() - 1);
      const Image& img = c.images[idx];
      Span span("registry.get");
      const std::int64_t t0 = now_ns();
      auto got = rc.get_bytes(img.name);
      const std::int64_t t1 = now_ns();
      Status s = status_of(got);
      if (s.ok() && crc32(got->data(), got->size()) != img.crc) {
        s = Corrupt("mismatch: GET " + img.name + " CRC differs from the image PUT");
      }
      const std::size_t n = s.ok() ? got->size() : 0;
      emit("get", static_cast<int>(idx), t0, t1, n > 0 ? memcpy_floor_ms(n) : 0, n, s);
    } else {
      const int k = client * (kScratch / kClients) +
                    static_cast<int>(rng.next_below(kScratch / kClients));
      const Image& payload = scratch_payload(c, k, ++puts[k]);
      const std::vector<std::byte> bytes = read_file(payload.path);
      Span span("registry.put");
      const std::int64_t t0 = now_ns();
      Status s = rc.put_bytes(scratch_name(k), bytes);
      emit("put", k, t0, now_ns(), 0, bytes.size(), s);
      if (s.ok()) {
        put_ok[k] = true;
        last_put_crc[k] = payload.crc;
      }
    }
    if (!rc.usable()) break;
  }
  // Every scratch name this client wrote must read back as its last PUT.
  for (int j = 0; j < kScratch / kClients; ++j) {
    const int k = client * (kScratch / kClients) + j;
    if (!put_ok[k] || !rc.usable()) continue;
    auto got = rc.get_bytes(scratch_name(k));
    Status s = status_of(got);
    if (s.ok() && crc32(got->data(), got->size()) != last_put_crc[k]) {
      s = Corrupt("mismatch: " + scratch_name(k) + " does not read back as its last PUT");
    }
    if (!s.ok()) out.push_back("verify -1 0 0 0 0 " + s.to_string().substr(0, 120));
  }
}

void load(const Corpus& c, std::uint64_t seed, std::int64_t end_ns, Report& r) {
  std::vector<std::string> recs[kClients];
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      client_loop(c, t, seed * 31 + static_cast<std::uint64_t>(t), end_ns, recs[t]);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& v : recs) {
    for (const auto& line : v) r.record(line);
  }
}

}  // namespace

void run_registry(Run& run) {
  int rep = 0;
  Corpus corpus = timed_setup<Corpus>(
      run, [&] { return build_corpus(run, rep++); }, discard);
  const double committed = static_cast<double>(corpus.images.size() + kScratch);

  std::vector<double> get_ms, put_ms, stat_ms, recover_mbs;
  double get_bytes = 0, get_s = 0, put_bytes = 0, host_cpu = 0, host_written = 0;
  registry::RegistryStatsWire last{};
  double host_cpu0 = proc_cpu_s(corpus.host->pid());
  double io0 = proc_field(corpus.host->pid(), "io", "write_bytes:");

  const int epochs = run.opt.quick ? 2 : kEpochs;
  const std::int64_t start = now_ns();
  for (int e = 0; e < epochs; ++e) {
    const bool traced = run.opt.trace && e % 2 == 0;
    const std::int64_t end =
        start + static_cast<std::int64_t>(run.opt.seconds * 1e9 * (e + 1) / epochs);
    const std::uint64_t load_seed = run.opt.seed * 1000 + static_cast<std::uint64_t>(e);
    Child c = Child::spawn([&](Report& r) { load(corpus, load_seed, end, r); }, e, traced);
    collect({&c}, 60 + run.opt.seconds);
    run.absorb(c);
    if (!c.out.failure.empty()) run.tally(c.out, "load client");

    const pid_t pid = corpus.host->pid();
    const double cpu = proc_cpu_s(pid) - host_cpu0;
    const double written = proc_field(pid, "io", "write_bytes:") - io0;
    const double hwm_mb = proc_field(pid, "status", "VmHWM:") / 1024.0;
    std::size_t ops = 0;
    for (const std::string& rec : c.out.records) {
      std::istringstream in(rec);
      std::string kind, reason;
      int group = 0, ok = 0;
      double ms = 0, floor_ms = 0, bytes = 0;
      in >> kind >> group >> ms >> floor_ms >> bytes >> ok;
      std::getline(in, reason);
      Outcome o;
      if (!ok) {
        o.failure = reason.empty() ? "failed" : reason.substr(1);
        o.mismatch = o.failure.find("mismatch") != std::string::npos;
      }
      if (!run.tally(o, "registry " + kind)) continue;
      ++ops;
      if (kind == "get") {
        (traced ? run.traced_op : run.op).add(group, ms);
        if (!traced) run.overhead.add(group, ms / floor_ms);
        get_ms.push_back(ms);
        get_bytes += bytes;
        get_s += ms * 1e-3;
      } else if (kind == "put") {
        if (!traced) run.aux.add(group, ms);
        put_ms.push_back(ms);
        put_bytes += bytes;
      } else if (kind == "stat") {
        stat_ms.push_back(ms);
      }
    }
    host_cpu += cpu;
    host_written += written;
    if (auto st = stat_host(*corpus.host); st.ok()) last = *st;
    if (!traced && ops > 0) run.rss.add(0, hwm_mb);

    // Shutdown, then time the respawn on the same dir to the first good STAT.
    {
      Span span("registry.shutdown");
      corpus.host->shutdown();
    }
    corpus.host.reset();
    const std::int64_t t0 = now_ns();
    Result<registry::RegistryStatsWire> st = Internal("not spawned");
    {
      Span span("registry.respawn");
      auto host = spawn_host(corpus.registry_dir);
      if (!host.ok()) {
        run.tally_failure("registry respawn " + host.status().to_string());
        break;
      }
      corpus.host = std::make_unique<registry::RegistryHost>(std::move(*host));
      st = stat_host(*corpus.host);
    }
    const double ready_s = static_cast<double>(now_ns() - t0) * 1e-9;
    Outcome o;
    if (!st.ok()) {
      o.failure = st.status().to_string();
    } else if (static_cast<double>(st->images) != committed) {
      o.failure = "mismatch: " + std::to_string(st->images) + " images after respawn, " +
                  std::to_string(static_cast<long long>(committed)) + " committed";
      o.mismatch = true;
    }
    if (!run.tally(o, "registry respawn")) break;
    run.ready.add(0, ready_s * 1e3);
    recover_mbs.push_back(static_cast<double>(st->slab_file_bytes) / 1e6 / ready_s);
    host_cpu0 = proc_cpu_s(corpus.host->pid());
    io0 = proc_field(corpus.host->pid(), "io", "write_bytes:");
  }
  discard(corpus);

  run.layer["registry.put_ms_p90"] = quantile(put_ms, 0.9);
  run.layer["registry.get_mbs"] = get_s > 0 ? get_bytes / 1e6 / get_s : 0;
  run.layer["registry.stat_ms_p50"] = median(stat_ms);
  run.layer["registry.host_cpu_s"] = host_cpu;
  run.layer["registry.write_bytes_per_put_byte"] = put_bytes > 0 ? host_written / put_bytes : 0;
  run.layer["registry.stored_mb"] = static_cast<double>(last.stored_bytes) / 1e6;
  run.layer["registry.logical_mb"] = static_cast<double>(last.logical_bytes) / 1e6;
  run.layer["registry.dedup_ratio"] =
      last.stored_bytes > 0
          ? static_cast<double>(last.logical_bytes) / static_cast<double>(last.stored_bytes)
          : 0;
  run.layer["registry.unique_chunks"] = static_cast<double>(last.unique_chunks);
  run.layer["registry.slab_file_mb"] = static_cast<double>(last.slab_file_bytes) / 1e6;
  run.layer["registry.wal_mb"] = static_cast<double>(last.wal_bytes) / 1e6;
  run.layer["registry.recover_mbs"] = median(recover_mbs);
}

}  // namespace crac::bench
