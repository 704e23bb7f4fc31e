#include "crac/crac_plugin.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "ckpt/dirty.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"

namespace crac {

namespace {

constexpr const char* kSectionLog = "cuda-log";
constexpr const char* kSectionAllocs = "allocations";
constexpr const char* kSectionUvm = "uvm-residency";
constexpr const char* kSectionStreams = "streams";
constexpr const char* kSectionFatbins = "fatbins";

cuda::cudaMemcpyKind refill_kind(AllocKind kind) {
  switch (kind) {
    case AllocKind::kDevice: return cuda::cudaMemcpyHostToDevice;
    case AllocKind::kManaged: return cuda::cudaMemcpyDefault;
    case AllocKind::kPinnedHost: return cuda::cudaMemcpyHostToHost;
  }
  return cuda::cudaMemcpyDefault;
}

cuda::cudaMemcpyKind drain_kind(AllocKind kind) {
  switch (kind) {
    case AllocKind::kDevice: return cuda::cudaMemcpyDeviceToHost;
    case AllocKind::kManaged: return cuda::cudaMemcpyDefault;
    case AllocKind::kPinnedHost: return cuda::cudaMemcpyHostToHost;
  }
  return cuda::cudaMemcpyDefault;
}

}  // namespace

CracPlugin::CracPlugin(SplitProcess* process)
    : cuda::ForwardingApi(&process->api()), process_(process) {}

void CracPlugin::log_alloc(LogOp op, void* p, std::size_t n, unsigned flags,
                           AllocKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord rec;
  rec.op = op;
  rec.size = n;
  rec.flags = flags;
  rec.addr = reinterpret_cast<std::uint64_t>(p);
  log_.append(std::move(rec));
  active_.emplace(reinterpret_cast<std::uint64_t>(p),
                  ActiveAlloc{n, kind, flags});
}

cuda::cudaError_t CracPlugin::cudaMalloc(void** p, std::size_t n) {
  const cuda::cudaError_t err = inner()->cudaMalloc(p, n);
  if (err == cuda::cudaSuccess) {
    log_alloc(LogOp::kMallocDevice, *p, n, 0, AllocKind::kDevice);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaFree(void* p) {
  const cuda::cudaError_t err = inner()->cudaFree(p);
  if (err == cuda::cudaSuccess && p != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op = LogOp::kFree;
    rec.addr = reinterpret_cast<std::uint64_t>(p);
    log_.append(std::move(rec));
    active_.erase(reinterpret_cast<std::uint64_t>(p));
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaMallocHost(void** p, std::size_t n) {
  const cuda::cudaError_t err = inner()->cudaMallocHost(p, n);
  if (err == cuda::cudaSuccess) {
    log_alloc(LogOp::kMallocHost, *p, n, 0, AllocKind::kPinnedHost);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaHostAlloc(void** p, std::size_t n,
                                            unsigned flags) {
  const cuda::cudaError_t err = inner()->cudaHostAlloc(p, n, flags);
  if (err == cuda::cudaSuccess) {
    log_alloc(LogOp::kHostAlloc, *p, n, flags, AllocKind::kPinnedHost);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaFreeHost(void* p) {
  const cuda::cudaError_t err = inner()->cudaFreeHost(p);
  if (err == cuda::cudaSuccess && p != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op = LogOp::kFreeHost;
    rec.addr = reinterpret_cast<std::uint64_t>(p);
    log_.append(std::move(rec));
    active_.erase(reinterpret_cast<std::uint64_t>(p));
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaMallocManaged(void** p, std::size_t n,
                                                unsigned flags) {
  const cuda::cudaError_t err = inner()->cudaMallocManaged(p, n, flags);
  if (err == cuda::cudaSuccess) {
    log_alloc(LogOp::kMallocManaged, *p, n, flags, AllocKind::kManaged);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaStreamCreate(cuda::cudaStream_t* stream) {
  const cuda::cudaError_t err = inner()->cudaStreamCreate(stream);
  if (err == cuda::cudaSuccess) {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op = LogOp::kStreamCreate;
    rec.addr = *stream;
    log_.append(std::move(rec));
    live_streams_.push_back(*stream);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaStreamDestroy(cuda::cudaStream_t stream) {
  const cuda::cudaError_t err = inner()->cudaStreamDestroy(stream);
  if (err == cuda::cudaSuccess) {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op = LogOp::kStreamDestroy;
    rec.addr = stream;
    log_.append(std::move(rec));
    std::erase(live_streams_, stream);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaEventCreate(cuda::cudaEvent_t* event) {
  const cuda::cudaError_t err = inner()->cudaEventCreate(event);
  if (err == cuda::cudaSuccess) {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op = LogOp::kEventCreate;
    rec.addr = *event;
    log_.append(std::move(rec));
    live_events_.push_back(*event);
  }
  return err;
}

cuda::cudaError_t CracPlugin::cudaEventDestroy(cuda::cudaEvent_t event) {
  const cuda::cudaError_t err = inner()->cudaEventDestroy(event);
  if (err == cuda::cudaSuccess) {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op = LogOp::kEventDestroy;
    rec.addr = event;
    log_.append(std::move(rec));
    std::erase(live_events_, event);
  }
  return err;
}

cuda::FatBinaryHandle CracPlugin::cudaRegisterFatBinary(
    const cuda::FatBinaryDesc* desc) {
  cuda::FatBinaryHandle handle = inner()->cudaRegisterFatBinary(desc);
  std::lock_guard<std::mutex> lock(mu_);
  FatbinEntry entry;
  entry.desc = desc != nullptr ? *desc : cuda::FatBinaryDesc{};
  entry.handle = handle;
  const std::string module =
      entry.desc.module_name != nullptr ? entry.desc.module_name : "";
  const std::size_t seq = fatbins_.size();
  fatbins_.push_back(std::move(entry));
  handle_to_seq_[handle] = seq;
  LogRecord rec;
  rec.op = LogOp::kRegisterFatBinary;
  rec.addr = seq;
  rec.name = module;
  log_.append(std::move(rec));
  return handle;
}

void CracPlugin::cudaRegisterFunction(cuda::FatBinaryHandle handle,
                                      const cuda::KernelRegistration& reg) {
  inner()->cudaRegisterFunction(handle, reg);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handle_to_seq_.find(handle);
  if (it == handle_to_seq_.end()) {
    CRAC_WARN() << "register_function with handle unknown to plugin";
    return;
  }
  fatbins_[it->second].functions.push_back(reg);
  LogRecord rec;
  rec.op = LogOp::kRegisterFunction;
  rec.addr = it->second;
  rec.aux = reinterpret_cast<std::uint64_t>(reg.host_fn);
  rec.name = reg.name != nullptr ? reg.name : "";
  log_.append(std::move(rec));
}

void CracPlugin::cudaUnregisterFatBinary(cuda::FatBinaryHandle handle) {
  inner()->cudaUnregisterFatBinary(handle);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handle_to_seq_.find(handle);
  if (it == handle_to_seq_.end()) return;
  fatbins_[it->second].unregistered = true;
  LogRecord rec;
  rec.op = LogOp::kUnregisterFatBinary;
  rec.addr = it->second;
  log_.append(std::move(rec));
  handle_to_seq_.erase(it);
}

std::size_t CracPlugin::active_allocation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

std::uint64_t CracPlugin::active_allocation_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [addr, a] : active_) total += a.size;
  return total;
}

// ---------------------------------------------------------------------------
// precheckpoint: drain
// ---------------------------------------------------------------------------

Status CracPlugin::quiesce() {
  // Drain the queue of pending work, as CheCUDA did and CRAC still does —
  // before any section (the context's memory sections included) captures
  // state.
  if (inner()->cudaDeviceSynchronize() != cuda::cudaSuccess) {
    return Internal("device synchronize failed during drain");
  }
  return OkStatus();
}

Status CracPlugin::precheckpoint(ckpt::ImageWriter& image) {
  // On the orchestrated checkpoint path freeze() already ran (and in COW
  // mode release() too — the application may be running again right now);
  // the idempotent call below is then a no-op. A standalone precheckpoint
  // freezes here and releases before returning, which replaces the old
  // defensive re-quiesce: same safety, no double synchronize, and the
  // freeze/release pairing assert stays satisfied.
  const bool self_frozen = !frozen_.has_value();
  CRAC_RETURN_IF_ERROR(freeze());
  FrozenCapture fc = std::move(*frozen_);
  frozen_.reset();

  // Sections stream in the order restart consumes them (fat binaries, log,
  // allocation contents, residency, stream inventory), so a restore-while-
  // receiving peer replays each one as it lands instead of waiting behind
  // sections it needs first. All metadata comes straight out of the frozen
  // capture; only allocation *contents* are read now, through the overlay.
  image.add_section(ckpt::SectionType::kMetadata, kSectionFatbins,
                    std::move(fc.fatbins));
  CRAC_RETURN_IF_ERROR(image.status());

  image.add_section(ckpt::SectionType::kCudaApiLog, kSectionLog,
                    std::move(fc.log));
  CRAC_RETURN_IF_ERROR(image.status());

  // Copy the contents of every allocation *active at the freeze instant* to
  // the image — not the arenas (§3.2.3).
  CRAC_RETURN_IF_ERROR(drain_allocations(image, fc));

  // The residency bitmaps captured at freeze time.
  CRAC_RETURN_IF_ERROR(
      image.begin_section(ckpt::SectionType::kUvmResidency, kSectionUvm));
  CRAC_RETURN_IF_ERROR(
      image.append(fc.uvm_payload.data(), fc.uvm_payload.size()));
  CRAC_RETURN_IF_ERROR(image.end_section());

  // Live stream/event inventory (consumed only by the restart-side
  // integrity sweep today).
  CRAC_RETURN_IF_ERROR(drain_streams(image, fc));

  if (self_frozen) CRAC_RETURN_IF_ERROR(release());
  return OkStatus();
}

void CracPlugin::set_delta_plan(const DeltaDrainPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  delta_plan_ = plan;
}

void CracPlugin::clear_delta_plan() {
  std::lock_guard<std::mutex> lock(mu_);
  delta_plan_.reset();
}

namespace {

std::uint64_t fingerprint_table(
    const std::vector<std::pair<std::uint64_t, ActiveAlloc>>& table) {
  // FNV-1a over (addr, size, kind, flags) in address order — the exact
  // inputs that determine the drained payload's extent layout.
  std::uint64_t fp = 1469598103934665603ULL;
  auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (v >> (i * 8)) & 0xff;
      fp *= 1099511628211ULL;
    }
  };
  for (const auto& [addr, a] : table) {
    mix(addr);
    mix(a.size);
    mix(static_cast<std::uint64_t>(a.kind));
    mix(a.flags);
  }
  return fp;
}

}  // namespace

std::uint64_t CracPlugin::allocation_fingerprint() const {
  std::vector<std::pair<std::uint64_t, ActiveAlloc>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.assign(active_.begin(), active_.end());
  }
  return fingerprint_table(snapshot);
}

Status CracPlugin::freeze() {
  if (frozen_.has_value()) return OkStatus();  // idempotent
  CRAC_RETURN_IF_ERROR(quiesce());

  FrozenCapture fc;
  std::optional<DeltaDrainPlan> plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fc.allocs.assign(active_.begin(), active_.end());
    plan = delta_plan_;
    delta_plan_.reset();  // one-shot: every capture re-arms explicitly

    // The full call log, replayed verbatim at restart (§3.2.4).
    fc.log = log_.serialize();

    // Fat-binary registration records for §3.2.5 re-registration.
    ByteWriter w;
    w.put_u64(fatbins_.size());
    for (const FatbinEntry& fb : fatbins_) {
      w.put_u64(reinterpret_cast<std::uint64_t>(fb.desc.module_name));
      w.put_u64(fb.desc.binary_hash);
      w.put_u8(fb.unregistered ? 1 : 0);
      w.put_u64(fb.functions.size());
      for (const cuda::KernelRegistration& fn : fb.functions) {
        w.put_u64(reinterpret_cast<std::uint64_t>(fn.host_fn));
        w.put_u64(reinterpret_cast<std::uint64_t>(fn.device_fn));
        // The argument-size table is serialized by value: a restarted
        // process has no live KernelModule to point back into.
        w.put_u64(fn.arg_count);
        for (std::size_t i = 0; i < fn.arg_count; ++i) {
          w.put_u64(fn.arg_sizes[i]);
        }
        w.put_string(fn.name != nullptr ? fn.name : "");
      }
    }
    fc.fatbins = std::move(w).take();

    // Live stream/event inventory.
    ByteWriter s;
    s.put_u64(live_streams_.size());
    for (cuda::cudaStream_t st : live_streams_) s.put_u64(st);
    s.put_u64(live_events_.size());
    for (cuda::cudaEvent_t e : live_events_) s.put_u64(e);
    fc.streams = std::move(s).take();
  }

  // UVM residency is part of the frozen instant: captured now, while the
  // world is stopped, so post-release faults can't smear it. Bitmaps are
  // ~1 bit per page — KBs of staging, not payload.
  {
    // Residency bitmap per managed allocation — simulator introspection
    // that stands in for the driver's internal page state; see DESIGN.md.
    const auto& uvm = process_->lower().device().uvm();
    const std::size_t page = uvm.page_size();
    ByteWriter uvm_payload;
    std::vector<std::pair<std::uint64_t, ActiveAlloc>> managed;
    for (const auto& [addr, a] : fc.allocs) {
      if (a.kind == AllocKind::kManaged) managed.emplace_back(addr, a);
    }
    uvm_payload.put_u64(page);
    uvm_payload.put_u64(managed.size());
    for (const auto& [addr, a] : managed) {
      const std::size_t n_pages = (a.size + page - 1) / page;
      uvm_payload.put_u64(addr);
      uvm_payload.put_u64(n_pages);
      std::vector<std::uint8_t> bitmap((n_pages + 7) / 8, 0);
      for (std::size_t i = 0; i < n_pages; ++i) {
        auto res = uvm.residency(reinterpret_cast<void*>(addr + i * page));
        if (res.ok() && *res == sim::PageResidency::kDevice) {
          bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        }
      }
      uvm_payload.put_bytes(bitmap.data(), bitmap.size());
    }
    fc.uvm_payload = std::move(uvm_payload).take();
  }

  // Resolve the delta plan now, not at drain time: the dirty runs must be
  // computed before the context advances the trackers and before any
  // post-release write marks land — those belong to the *next* delta.
  if (plan.has_value()) {
    if (fingerprint_table(fc.allocs) == plan->alloc_fingerprint) {
      fc.delta = true;
      ckpt::DirtyTracker& tracker = process_->lower().device().device_dirty();
      for (const auto& [addr, a] : fc.allocs) {
        if (a.kind != AllocKind::kDevice || a.size == 0) continue;
        auto& runs = fc.dirty_runs[addr];
        tracker.for_each_dirty(reinterpret_cast<const void*>(addr),
                               static_cast<std::size_t>(a.size),
                               plan->base_device_gen,
                               [&runs](std::size_t o, std::size_t l) {
                                 runs.emplace_back(o, l);
                               });
      }
    } else {
      // The allocation table changed shape since the base: chunk offsets no
      // longer line up, so the only correct delta is no delta.
      CRAC_INFO() << "delta drain fell back to a full drain: "
                  << "allocation table changed since the base checkpoint";
    }
  }

  frozen_ = std::move(fc);
  frozen_world_ = true;
  return OkStatus();
}

Status CracPlugin::release() {
  frozen_world_ = false;
  return OkStatus();
}

CracPlugin::~CracPlugin() {
#ifndef NDEBUG
  CRAC_CHECK_MSG(!frozen_world_,
                 "CracPlugin destroyed while frozen — freeze()/release() "
                 "went unpaired");
#endif
}

Status CracPlugin::read_frozen_contents(std::uint64_t addr, std::size_t n,
                                        AllocKind kind, std::byte* dst) {
  auto& device = process_->lower().device();
  if (device.snap_overlay().armed()) {
    // COW drain: read the frozen pre-image directly through the overlay.
    // Going through the CUDA API would enqueue on stream 0 — behind
    // application ops whose workers may be parked in copy_before_write
    // (snapstore backpressure), i.e. waiting on *us* to finish.
    return device.snap_overlay().read_range(
        reinterpret_cast<const void*>(addr), n, dst);
  }
  // Stop-the-world drain: through the CUDA API itself (D2H copy), as the
  // real plugin must.
  const cuda::cudaError_t err = inner()->cudaMemcpy(
      dst, reinterpret_cast<void*>(addr), n, drain_kind(kind));
  if (err != cuda::cudaSuccess) {
    return Internal("drain memcpy failed: " +
                    std::string(cuda::cudaGetErrorString(err)));
  }
  return OkStatus();
}

Status CracPlugin::drain_allocations(ckpt::ImageWriter& image,
                                     const FrozenCapture& fc) {
  last_drain_was_delta_ = false;
  if (fc.delta) return drain_allocations_delta(image, fc);
  CRAC_RETURN_IF_ERROR(
      image.begin_section(ckpt::SectionType::kDeviceBuffers, kSectionAllocs));
  ByteWriter count;
  count.put_u64(fc.allocs.size());
  CRAC_RETURN_IF_ERROR(image.append(count.data(), count.size()));
  // Each allocation's frozen contents land straight in the writer's chunk
  // buffer: the overlay read (COW) or the D2H copy (stop-the-world) is the
  // only copy the bytes take on their way to the sink.
  for (const auto& [addr, a] : fc.allocs) {
    ByteWriter rec;
    rec.put_u64(addr);
    rec.put_u64(a.size);
    rec.put_u8(static_cast<std::uint8_t>(a.kind));
    rec.put_u32(a.flags);
    CRAC_RETURN_IF_ERROR(image.append(rec.data(), rec.size()));
    const AllocKind kind = a.kind;
    CRAC_RETURN_IF_ERROR(image.append_with(
        a.size, [this, addr = addr, kind](std::byte* dst, std::size_t len,
                                          std::uint64_t off) {
          return read_frozen_contents(addr + off, len, kind, dst);
        }));
  }
  return image.end_section();
}

Status CracPlugin::drain_allocations_delta(ckpt::ImageWriter& image,
                                           const FrozenCapture& fc) {
  // Rebuild the full drain's payload layout as an extent map — header
  // extents hold their literal bytes, content extents their device address
  // — without materializing any contents. The fingerprint match guarantees
  // this layout is byte-compatible with the base image's section.
  struct Extent {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    bool header = false;
    std::vector<std::byte> encoded;  // header extents only
    std::uint64_t addr = 0;          // content extents only
    AllocKind kind = AllocKind::kDevice;
  };
  std::vector<Extent> extents;
  std::uint64_t off = 0;
  auto push_header = [&](ByteWriter&& w) {
    Extent e;
    e.off = off;
    e.len = w.size();
    e.header = true;
    e.encoded = std::move(w).take();
    off += e.len;
    extents.push_back(std::move(e));
  };

  ckpt::DirtyTracker& tracker = process_->lower().device().device_dirty();
  // Delta entries use the tracker's granule, not the (much larger) image
  // chunk: a sparse write pattern pays one tracker chunk per island, which
  // is what makes a 2%-dirty delta a ~2%-sized image.
  const std::uint64_t granule = tracker.chunk_bytes();
  std::set<std::uint64_t> dirty;
  auto mark_payload = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t c = lo / granule; c <= (hi - 1) / granule; ++c) {
      dirty.insert(c);
    }
  };
  ByteWriter count;
  count.put_u64(fc.allocs.size());
  push_header(std::move(count));
  for (const auto& [addr, a] : fc.allocs) {
    ByteWriter rec;
    rec.put_u64(addr);
    rec.put_u64(a.size);
    rec.put_u8(static_cast<std::uint8_t>(a.kind));
    rec.put_u32(a.flags);
    push_header(std::move(rec));
    if (a.size == 0) continue;
    Extent e;
    e.off = off;
    e.len = a.size;
    e.addr = addr;
    e.kind = a.kind;
    const std::uint64_t content_off = off;
    off += a.size;
    extents.push_back(std::move(e));
    if (a.kind == AllocKind::kDevice) {
      // The O(dirty) narrowing: only device-buffer chunks written since the
      // base generation enter the delta. The runs were pinned at freeze()
      // time, so COW-era writes racing this drain cannot bloat them.
      auto runs = fc.dirty_runs.find(addr);
      if (runs != fc.dirty_runs.end()) {
        for (const auto& [o, l] : runs->second) {
          mark_payload(content_off + o, content_off + o + l);
        }
      }
    } else {
      // Pinned and managed memory is host-writable without any interposable
      // call, so its contents ship in full in every delta — correctness
      // over compactness (DESIGN note in docs/image_format.md).
      mark_payload(content_off, content_off + a.size);
    }
  }
  const std::uint64_t full_raw_size = off;

  CRAC_RETURN_IF_ERROR(
      image.begin_section(ckpt::SectionType::kDeltaChunks, kSectionAllocs));
  ByteWriter hdr;
  hdr.put_u32(static_cast<std::uint32_t>(ckpt::SectionType::kDeviceBuffers));
  hdr.put_u64(granule);
  hdr.put_u64(full_raw_size);
  hdr.put_u64(dirty.size());
  CRAC_RETURN_IF_ERROR(image.append(hdr.data(), hdr.size()));

  std::vector<std::byte> chunk;
  for (const std::uint64_t c : dirty) {
    const std::uint64_t lo = c * granule;
    const std::uint64_t hi = std::min(lo + granule, full_raw_size);
    chunk.assign(static_cast<std::size_t>(hi - lo), std::byte{0});
    // First extent whose end lies past `lo`; extents are contiguous and
    // ascending, so ends are sorted too.
    auto it = std::upper_bound(
        extents.begin(), extents.end(), lo,
        [](std::uint64_t v, const Extent& e) { return v < e.off + e.len; });
    for (; it != extents.end() && it->off < hi; ++it) {
      const std::uint64_t s = std::max(lo, it->off);
      const std::uint64_t t = std::min(hi, it->off + it->len);
      std::byte* dst = chunk.data() + static_cast<std::size_t>(s - lo);
      if (it->header) {
        std::memcpy(dst, it->encoded.data() + (s - it->off),
                    static_cast<std::size_t>(t - s));
        continue;
      }
      // Bounded copy of just the overlapped slice — the only content bytes
      // a delta capture ever moves off the device.
      CRAC_RETURN_IF_ERROR(
          read_frozen_contents(it->addr + (s - it->off),
                               static_cast<std::size_t>(t - s), it->kind, dst));
    }
    ByteWriter entry;
    entry.put_u64(c);
    entry.put_u64(chunk.size());
    CRAC_RETURN_IF_ERROR(image.append(entry.data(), entry.size()));
    CRAC_RETURN_IF_ERROR(image.append(chunk.data(), chunk.size()));
  }
  CRAC_RETURN_IF_ERROR(image.end_section());
  last_drain_was_delta_ = true;
  return OkStatus();
}

Status CracPlugin::drain_streams(ckpt::ImageWriter& image,
                                 const FrozenCapture& fc) {
  CRAC_RETURN_IF_ERROR(
      image.begin_section(ckpt::SectionType::kStreams, kSectionStreams));
  CRAC_RETURN_IF_ERROR(image.append(fc.streams.data(), fc.streams.size()));
  return image.end_section();
}

Status CracPlugin::resume() {
  // Execution continues in the original process: the lower half was never
  // destroyed, so nothing to rebuild. The release keeps legacy
  // stop-the-world flows paired (idempotent when the COW orchestration
  // already released at the end of its pause window).
  return release();
}

// ---------------------------------------------------------------------------
// restart: replay
// ---------------------------------------------------------------------------

Status CracPlugin::restart(ckpt::ImageReader& image) {
  auto stats = replay_into_fresh_lower_half(image);
  if (!stats.ok()) return stats.status();
  last_replay_ = *stats;
  return OkStatus();
}

Result<ReplayStats> CracPlugin::replay_into_fresh_lower_half(
    ckpt::ImageReader& image) {
  ReplayStats stats;

  // Reset plugin state; everything is rebuilt from the image.
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_.clear();
    active_.clear();
    fatbins_.clear();
    reg_storage_.clear();
    handle_to_seq_.clear();
    live_streams_.clear();
    live_events_.clear();
  }

  // 1. Reconstruct fat-binary registration records (§3.2.5). The embedded
  //    pointers refer to upper-half objects that were restored at their
  //    original addresses before this hook runs. The section streams off
  //    the image source like every other restore read.
  const ckpt::SectionInfo* fat =
      image.find(ckpt::SectionType::kMetadata, kSectionFatbins);
  if (fat == nullptr) {
    CRAC_RETURN_IF_ERROR(image.directory_status());
    return Corrupt("image missing fatbin section");
  }
  {
    CRAC_ASSIGN_OR_RETURN(auto r, image.open_section(*fat));
    std::uint64_t count = 0;
    CRAC_RETURN_IF_ERROR(r.get_u64(count));
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint64_t i = 0; i < count; ++i) {
      FatbinEntry fb;
      std::uint64_t module_name = 0, hash = 0, fn_count = 0;
      std::uint8_t unregistered = 0;
      CRAC_RETURN_IF_ERROR(r.get_u64(module_name));
      CRAC_RETURN_IF_ERROR(r.get_u64(hash));
      CRAC_RETURN_IF_ERROR(r.get_u8(unregistered));
      CRAC_RETURN_IF_ERROR(r.get_u64(fn_count));
      fb.desc.module_name = reinterpret_cast<const char*>(module_name);
      fb.desc.binary_hash = hash;
      fb.unregistered = unregistered != 0;
      for (std::uint64_t k = 0; k < fn_count; ++k) {
        std::uint64_t host_fn = 0, device_fn = 0, arg_count = 0;
        CRAC_RETURN_IF_ERROR(r.get_u64(host_fn));
        CRAC_RETURN_IF_ERROR(r.get_u64(device_fn));
        CRAC_RETURN_IF_ERROR(r.get_u64(arg_count));
        auto storage = std::make_unique<RegStorage>();
        for (std::uint64_t a = 0; a < arg_count; ++a) {
          std::uint64_t size = 0;
          CRAC_RETURN_IF_ERROR(r.get_u64(size));
          storage->arg_sizes.push_back(size);
        }
        CRAC_RETURN_IF_ERROR(r.get_string(storage->name));
        cuda::KernelRegistration reg;
        reg.host_fn = reinterpret_cast<const void*>(host_fn);
        reg.device_fn = reinterpret_cast<cuda::KernelFn>(device_fn);
        reg.name = storage->name.c_str();
        reg.arg_sizes = storage->arg_sizes.data();
        reg.arg_count = storage->arg_sizes.size();
        reg_storage_.push_back(std::move(storage));
        fb.functions.push_back(reg);
      }
      fatbins_.push_back(std::move(fb));
    }
  }

  // 2. Load the call log. The log section is metadata-sized (records, not
  //    buffer contents), so materializing it is within the restore budget.
  const ckpt::SectionInfo* log_sec =
      image.find(ckpt::SectionType::kCudaApiLog, kSectionLog);
  if (log_sec == nullptr) {
    CRAC_RETURN_IF_ERROR(image.directory_status());
    return Corrupt("image missing cuda-log section");
  }
  CRAC_ASSIGN_OR_RETURN(auto log_bytes, image.read_section(*log_sec));
  auto log = CudaApiLog::deserialize(log_bytes);
  if (!log.ok()) return log.status();

  // 3. Replay the *entire* sequence in original order. Allocation addresses
  //    must reproduce exactly (the lower-half allocator is deterministic and
  //    its VA bases are fixed); any mismatch is fatal because upper-half
  //    pointers into these buffers were restored verbatim.
  cuda::CudaApi* api = inner();
  auto verify_addr = [&](std::uint64_t got, std::uint64_t want,
                         const LogRecord& rec) -> Status {
    if (got != want) {
      return DeterminismViolation(
          std::string(to_string(rec.op)) + " replayed to 0x" +
          std::to_string(got) + " but original was 0x" +
          std::to_string(want));
    }
    return OkStatus();
  };

  for (const LogRecord& rec : log->records()) {
    ++stats.calls_replayed;
    switch (rec.op) {
      case LogOp::kMallocDevice: {
        void* p = nullptr;
        if (api->cudaMalloc(&p, rec.size) != cuda::cudaSuccess) {
          return Internal("replay cudaMalloc failed");
        }
        CRAC_RETURN_IF_ERROR(
            verify_addr(reinterpret_cast<std::uint64_t>(p), rec.addr, rec));
        std::lock_guard<std::mutex> lock(mu_);
        active_.emplace(reinterpret_cast<std::uint64_t>(p),
                        ActiveAlloc{rec.size, AllocKind::kDevice, rec.flags});
        ++stats.allocations_restored;
        break;
      }
      case LogOp::kMallocHost:
      case LogOp::kHostAlloc: {
        void* p = nullptr;
        const cuda::cudaError_t err =
            rec.op == LogOp::kMallocHost
                ? api->cudaMallocHost(&p, rec.size)
                : api->cudaHostAlloc(&p, rec.size, rec.flags);
        if (err != cuda::cudaSuccess) {
          return Internal("replay host alloc failed");
        }
        CRAC_RETURN_IF_ERROR(
            verify_addr(reinterpret_cast<std::uint64_t>(p), rec.addr, rec));
        std::lock_guard<std::mutex> lock(mu_);
        active_.emplace(reinterpret_cast<std::uint64_t>(p),
                        ActiveAlloc{rec.size, AllocKind::kPinnedHost,
                                    rec.flags});
        ++stats.allocations_restored;
        break;
      }
      case LogOp::kMallocManaged: {
        void* p = nullptr;
        if (api->cudaMallocManaged(&p, rec.size, rec.flags) !=
            cuda::cudaSuccess) {
          return Internal("replay cudaMallocManaged failed");
        }
        CRAC_RETURN_IF_ERROR(
            verify_addr(reinterpret_cast<std::uint64_t>(p), rec.addr, rec));
        std::lock_guard<std::mutex> lock(mu_);
        active_.emplace(reinterpret_cast<std::uint64_t>(p),
                        ActiveAlloc{rec.size, AllocKind::kManaged, rec.flags});
        ++stats.allocations_restored;
        break;
      }
      case LogOp::kFree: {
        if (api->cudaFree(reinterpret_cast<void*>(rec.addr)) !=
            cuda::cudaSuccess) {
          return Internal("replay cudaFree failed");
        }
        std::lock_guard<std::mutex> lock(mu_);
        active_.erase(rec.addr);
        ++stats.frees_replayed;
        break;
      }
      case LogOp::kFreeHost: {
        if (api->cudaFreeHost(reinterpret_cast<void*>(rec.addr)) !=
            cuda::cudaSuccess) {
          return Internal("replay cudaFreeHost failed");
        }
        std::lock_guard<std::mutex> lock(mu_);
        active_.erase(rec.addr);
        ++stats.frees_replayed;
        break;
      }
      case LogOp::kStreamCreate: {
        cuda::cudaStream_t s = 0;
        if (api->cudaStreamCreate(&s) != cuda::cudaSuccess) {
          return Internal("replay cudaStreamCreate failed");
        }
        CRAC_RETURN_IF_ERROR(verify_addr(s, rec.addr, rec));
        std::lock_guard<std::mutex> lock(mu_);
        live_streams_.push_back(s);
        ++stats.streams_recreated;
        break;
      }
      case LogOp::kStreamDestroy: {
        if (api->cudaStreamDestroy(rec.addr) != cuda::cudaSuccess) {
          return Internal("replay cudaStreamDestroy failed");
        }
        std::lock_guard<std::mutex> lock(mu_);
        std::erase(live_streams_, rec.addr);
        break;
      }
      case LogOp::kEventCreate: {
        cuda::cudaEvent_t e = 0;
        if (api->cudaEventCreate(&e) != cuda::cudaSuccess) {
          return Internal("replay cudaEventCreate failed");
        }
        CRAC_RETURN_IF_ERROR(verify_addr(e, rec.addr, rec));
        std::lock_guard<std::mutex> lock(mu_);
        live_events_.push_back(e);
        ++stats.events_recreated;
        break;
      }
      case LogOp::kEventDestroy: {
        if (api->cudaEventDestroy(rec.addr) != cuda::cudaSuccess) {
          return Internal("replay cudaEventDestroy failed");
        }
        std::lock_guard<std::mutex> lock(mu_);
        std::erase(live_events_, rec.addr);
        break;
      }
      case LogOp::kRegisterFatBinary: {
        std::lock_guard<std::mutex> lock(mu_);
        if (rec.addr >= fatbins_.size()) {
          return Corrupt("fatbin sequence id out of range in log");
        }
        FatbinEntry& fb = fatbins_[rec.addr];
        // Handle patching (§3.2.5): the fresh lower half hands out a new
        // handle; all subsequent log records reference the sequence id.
        fb.handle = api->cudaRegisterFatBinary(&fb.desc);
        handle_to_seq_[fb.handle] = rec.addr;
        ++stats.fatbins_reregistered;
        break;
      }
      case LogOp::kRegisterFunction: {
        std::lock_guard<std::mutex> lock(mu_);
        if (rec.addr >= fatbins_.size()) {
          return Corrupt("fatbin sequence id out of range in log");
        }
        FatbinEntry& fb = fatbins_[rec.addr];
        const auto* host_fn = reinterpret_cast<const void*>(rec.aux);
        const cuda::KernelRegistration* found = nullptr;
        for (const auto& fn : fb.functions) {
          if (fn.host_fn == host_fn) {
            found = &fn;
            break;
          }
        }
        if (found == nullptr) {
          return Corrupt("log references unknown kernel registration: " +
                         rec.name);
        }
        api->cudaRegisterFunction(fb.handle, *found);
        ++stats.kernels_reregistered;
        break;
      }
      case LogOp::kUnregisterFatBinary: {
        std::lock_guard<std::mutex> lock(mu_);
        if (rec.addr >= fatbins_.size()) {
          return Corrupt("fatbin sequence id out of range in log");
        }
        api->cudaUnregisterFatBinary(fatbins_[rec.addr].handle);
        handle_to_seq_.erase(fatbins_[rec.addr].handle);
        break;
      }
    }
  }

  // Keep the replayed log as our own: a future checkpoint must replay the
  // same full history again.
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_ = std::move(*log);
  }

  // 4. Refill active allocations with their drained contents.
  CRAC_RETURN_IF_ERROR(refill_allocations(image, &stats));

  // 5. Restore UVM residency (extension beyond the paper; see DESIGN.md).
  CRAC_RETURN_IF_ERROR(restore_uvm_residency(image, &stats));

  last_replay_ = stats;
  return stats;
}

Status CracPlugin::refill_allocations(ckpt::ImageReader& image,
                                      ReplayStats* stats) {
  const ckpt::SectionInfo* sec =
      image.find(ckpt::SectionType::kDeviceBuffers, kSectionAllocs);
  if (sec == nullptr) {
    CRAC_RETURN_IF_ERROR(image.directory_status());
    return Corrupt("image missing allocations section");
  }
  CRAC_ASSIGN_OR_RETURN(auto r, image.open_section(*sec));
  std::uint64_t count = 0;
  CRAC_RETURN_IF_ERROR(r.get_u64(count));
  // Each decoded span goes straight from the chunk it was decoded into to
  // the device: no staging copy, whatever the allocation's size.
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t addr = 0, size = 0;
    std::uint8_t kind_raw = 0;
    std::uint32_t flags = 0;
    CRAC_RETURN_IF_ERROR(r.get_u64(addr));
    CRAC_RETURN_IF_ERROR(r.get_u64(size));
    CRAC_RETURN_IF_ERROR(r.get_u8(kind_raw));
    CRAC_RETURN_IF_ERROR(r.get_u32(flags));
    if (size > r.remaining()) {
      return Corrupt("allocation contents overrun the section payload");
    }
    const cuda::cudaMemcpyKind kind =
        refill_kind(static_cast<AllocKind>(kind_raw));
    CRAC_RETURN_IF_ERROR(r.read_with(
        size, [this, addr, kind](const std::byte* src, std::size_t len,
                                 std::uint64_t off) -> Status {
          // Refill through the CUDA API itself (H2D copy), as the real
          // plugin must.
          const cuda::cudaError_t err = inner()->cudaMemcpy(
              reinterpret_cast<void*>(addr + off), src, len, kind);
          if (err != cuda::cudaSuccess) {
            return Internal("refill memcpy failed: " +
                            std::string(cuda::cudaGetErrorString(err)));
          }
          return OkStatus();
        }));
    stats->bytes_refilled += size;
  }
  return OkStatus();
}

Status CracPlugin::restore_uvm_residency(ckpt::ImageReader& image,
                                         ReplayStats* stats) {
  const ckpt::SectionInfo* sec =
      image.find(ckpt::SectionType::kUvmResidency, kSectionUvm);
  if (sec == nullptr) {
    // Optional section — but "not found" on a live shipment can also mean
    // the stream died mid-directory; don't silently skip over that.
    CRAC_RETURN_IF_ERROR(image.directory_status());
    return OkStatus();
  }
  CRAC_ASSIGN_OR_RETURN(auto r, image.open_section(*sec));
  std::uint64_t page = 0, ranges = 0;
  CRAC_RETURN_IF_ERROR(r.get_u64(page));
  CRAC_RETURN_IF_ERROR(r.get_u64(ranges));
  auto& uvm = process_->lower().device().uvm();
  if (page != uvm.page_size()) {
    return FailedPrecondition("UVM page size changed across restart");
  }
  // Per-range application: walk the bitmap and prefetch contiguous
  // device-resident runs back to the device. Each range's refill (the
  // ordering hazard: a refill write to an armed page re-faults and clobbers
  // the restored residency) already completed in step 4.
  for (std::uint64_t i = 0; i < ranges; ++i) {
    std::uint64_t addr = 0, n_pages = 0;
    CRAC_RETURN_IF_ERROR(r.get_u64(addr));
    CRAC_RETURN_IF_ERROR(r.get_u64(n_pages));
    // Divide before rounding so a hostile n_pages near 2^64 cannot wrap
    // the byte count to zero and sail past the bound.
    const std::uint64_t bitmap_bytes = n_pages / 8 + (n_pages % 8 != 0);
    if (bitmap_bytes > r.remaining()) {
      return Corrupt("uvm residency bitmap overruns the section payload");
    }
    std::vector<std::uint8_t> bitmap(static_cast<std::size_t>(bitmap_bytes));
    CRAC_RETURN_IF_ERROR(r.read(bitmap.data(), bitmap.size()));
    std::uint64_t run_start = 0;
    std::uint64_t run_len = 0;
    auto flush_run = [&]() -> Status {
      if (run_len == 0) return OkStatus();
      CRAC_RETURN_IF_ERROR(
          uvm.prefetch(reinterpret_cast<void*>(addr + run_start * page),
                       run_len * page, /*to_device=*/true));
      stats->uvm_pages_restored += run_len;
      run_len = 0;
      return OkStatus();
    };
    for (std::uint64_t p = 0; p < n_pages; ++p) {
      const bool device = (bitmap[p / 8] >> (p % 8)) & 1;
      if (device) {
        if (run_len == 0) run_start = p;
        ++run_len;
      } else {
        CRAC_RETURN_IF_ERROR(flush_run());
      }
    }
    CRAC_RETURN_IF_ERROR(flush_run());
  }
  return OkStatus();
}

}  // namespace crac
