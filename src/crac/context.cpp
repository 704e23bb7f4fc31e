#include "crac/context.hpp"

#include <cstdio>
#include <cstring>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "ckpt/dirty.hpp"
#include "ckpt/memory_section.hpp"
#include "ckpt/source.hpp"

namespace crac {

namespace {
constexpr const char* kSectionUpperMemory = "upper-memory";
constexpr const char* kSectionHeapState = "heap-allocator";
constexpr const char* kSectionRoot = "root";

}  // namespace

CracContext::CracContext(const CracOptions& options) : options_(options) {
  process_ = std::make_unique<SplitProcess>(options_.split);
  plugin_ = std::make_unique<CracPlugin>(process_.get());
  registry_.register_plugin(plugin_.get());
}

CracContext::~CracContext() = default;

ThreadPool* CracContext::ckpt_pool() {
  std::size_t threads = options_.ckpt_threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  // One worker buys no parallelism over the calling thread; encode inline.
  if (threads <= 1) return nullptr;
  if (ckpt_pool_ == nullptr) {
    ckpt_pool_ = std::make_unique<ThreadPool>(threads);
  }
  return ckpt_pool_.get();
}

Result<CheckpointReport> CracContext::checkpoint(const std::string& path) {
  auto result = checkpoint_to_temp(path);
  if (!result.ok()) {
    // Never leave a truncated partial image where a good one may have
    // been: the stream went to a sibling temp file, which we discard.
    std::remove(temp_image_path(path).c_str());
  }
  if (result.ok()) {
    // This image is now the newest committed link; later deltas chain
    // onto it.
    delta_base_ = last_captured_;
    delta_base_->path = path;
  }
  return result;
}

Result<CheckpointReport> CracContext::checkpoint_delta(
    const std::string& path) {
  if (!delta_base_.has_value()) {
    return FailedPrecondition(
        "no base image to delta against: take a full checkpoint() first");
  }
  if (process_->lower().device().device_dirty().epoch() !=
      delta_base_->device_epoch) {
    return FailedPrecondition(
        "device memory was restored since the base image '" +
        delta_base_->path +
        "' was written, so its dirty history no longer describes this "
        "context: take a full checkpoint() first");
  }
  pending_delta_ = DeltaRequest{delta_base_->image_id, delta_base_->path};
  plugin_->set_delta_plan(
      {delta_base_->device_gen, delta_base_->alloc_fingerprint});
  auto result = checkpoint(path);
  pending_delta_.reset();
  plugin_->clear_delta_plan();  // one-shot anyway; clears the failure path
  return result;
}

std::string CracContext::temp_image_path(const std::string& path) {
  return path + ".tmp";
}

Result<CheckpointReport> CracContext::checkpoint_to_sink(ckpt::Sink& sink) {
  CheckpointReport report;
  WallTimer total;

  // Streaming pipeline: sections are chunked, chunks compressed/CRC'd on
  // the pool, frames written straight to the sink — the image is never
  // resident in memory. This core is transport-agnostic: it neither knows
  // nor cares whether the sink is a temp file or a live socket to the
  // replacement instance.
  ckpt::ImageWriter::Options wopts;
  wopts.codec = options_.codec;
  wopts.chunk_size = options_.ckpt_chunk_bytes;
  wopts.pool = ckpt_pool();
  if (pending_delta_.has_value()) {
    // v4 header: name the parent image this capture deltas against.
    wopts.parent_id = pending_delta_->parent_id;
    wopts.parent_path = pending_delta_->parent_path;
  }
  ckpt::ImageWriter writer(&sink, wopts);

  // Sections are written in the order restart consumes them (heap state,
  // upper memory, root, then the plugin sections): the stream order IS the
  // restore order, which is what lets a restore-while-receiving peer start
  // rebuilding from the first sections while the later ones are still in
  // flight (docs/image_format.md, "Streaming restore ordering contract").

  // 1. Freeze: plugins stop the world (device drain) and pin their logical
  //    snapshot — the call log, allocation table, residency bitmaps, and
  //    (for deltas) the exact dirty runs. The application pause clock
  //    starts here.
  sim::Device& dev = process_->lower().device();
  const bool cow = options_.cow_capture;
  WallTimer pause;
  {
    WallTimer t;
    CRAC_RETURN_IF_ERROR(registry_.run_freeze());
    report.drain_s = t.elapsed_s();
  }
  // Any failure from here on must end the pause and tear down the overlay;
  // both release paths are idempotent, so the success path simply runs them
  // early. (A local class in a member function retains the enclosing
  // function's access to registry_.)
  struct CaptureGuard {
    CracContext* ctx;
    sim::Device* dev;
    bool active = true;
    ~CaptureGuard() {
      if (!active) return;
      dev->release_snapshot();
      (void)ctx->registry_.run_release();
    }
  } guard{this, &dev};

  // With the world stopped, stamp the image's identity and advance the
  // dirty trackers: everything marked before this instant belongs to THIS
  // capture, everything after to the next one. The capture state is what a
  // later checkpoint_delta() deltas against.
  {
    last_image_id_ = ckpt::random_hex_id();
    last_captured_.image_id = last_image_id_;
    last_captured_.device_gen = dev.device_dirty().advance();
    dev.pinned_dirty().advance();
    dev.managed_dirty().advance();
    last_captured_.device_epoch = dev.device_dirty().epoch();
    last_captured_.alloc_fingerprint = plugin_->allocation_fingerprint();
    std::vector<std::byte> id(last_image_id_.size());
    std::memcpy(id.data(), last_image_id_.data(), id.size());
    // First section in the stream, so chain resolution can identify a
    // parent from its directory without touching any payload.
    writer.add_section(ckpt::SectionType::kMetadata, ckpt::kSectionImageId,
                       std::move(id));
    CRAC_RETURN_IF_ERROR(writer.status());
  }

  // 2. Upper-half memory snapshot (what DMTCP does for the host process),
  //    heap allocator state first — restart must commit the heap span
  //    before it can place region contents.
  {
    WallTimer t;
    writer.add_section(ckpt::SectionType::kMetadata, kSectionHeapState,
                       sim::encode_arena_snapshot(process_->heap().snapshot()));
    const auto records = process_->upper_regions();
    report.upper_regions = records.size();
    CRAC_RETURN_IF_ERROR(writer.status());
    CRAC_RETURN_IF_ERROR(writer.begin_section(
        ckpt::SectionType::kMemoryRegions, kSectionUpperMemory));
    CRAC_RETURN_IF_ERROR(ckpt::append_memory_records(writer, records));
    CRAC_RETURN_IF_ERROR(writer.end_section());
    ByteWriter root_writer;
    root_writer.put_u64(reinterpret_cast<std::uint64_t>(root_));
    writer.add_section(ckpt::SectionType::kMetadata, kSectionRoot,
                       std::move(root_writer).take());
    report.memory_s = t.elapsed_s();
  }

  // 3. End the pause (COW mode): arm the snapshot overlay over the arenas
  //    and release the plugins — the application resumes NOW, while the
  //    drain below reads the frozen state through the overlay and racing
  //    writes preserve their pre-images into the snapstore first. In
  //    stop-the-world mode the world stays frozen through the drain.
  if (cow) {
    CRAC_RETURN_IF_ERROR(dev.arm_snapshot());
    CRAC_RETURN_IF_ERROR(registry_.run_release());
    report.pause_s = pause.elapsed_s();
  }

  // 4. Plugin drain: active allocations, residency, the log, fat binaries,
  //    stream inventory — again in replay-consumption order.
  {
    WallTimer t;
    CRAC_RETURN_IF_ERROR(registry_.run_precheckpoint(writer));
    report.drain_s += t.elapsed_s();
  }

  // 5. Drain the chunk pipeline and close the sink — for a file sink this
  //    flushes the temp file, for a socket sink it ships the stream trailer
  //    that tells the peer the image arrived whole.
  {
    WallTimer t;
    report.raw_bytes = writer.raw_bytes();
    CRAC_RETURN_IF_ERROR(writer.finish());
    CRAC_RETURN_IF_ERROR(sink.close());
    report.write_s = t.elapsed_s();
  }

  // 6. Capture complete: disarm the overlay (COW) or end the pause (STW),
  //    then run the resume hooks.
  if (cow) {
    const ckpt::SnapOverlay::Stats snap = dev.snap_overlay().stats();
    report.snapstore_peak_bytes = snap.peak_store_bytes;
    report.snapstore_preserved_chunks = snap.chunks_preserved;
    dev.release_snapshot();
  } else {
    CRAC_RETURN_IF_ERROR(registry_.run_release());
    report.pause_s = pause.elapsed_s();
  }
  guard.active = false;
  CRAC_RETURN_IF_ERROR(registry_.run_resume());

  report.total_s = total.elapsed_s();
  report.cow_capture = cow;
  report.active_allocations = plugin_->active_allocation_count();
  report.image_bytes = sink.bytes_written();
  report.image_id = last_image_id_;
  report.delta_image = pending_delta_.has_value();
  return report;
}

Result<CheckpointReport> CracContext::checkpoint_to_temp(
    const std::string& path) {
  // Streams to a temp file that replaces `path` only after the image is
  // complete, so a failed checkpoint can never destroy the previous image
  // at the same path.
  const std::string tmp = temp_image_path(path);
  auto file = ckpt::FileSink::open(tmp);
  if (!file.ok()) return file.status();
  auto result = checkpoint_to_sink(**file);
  if (!result.ok()) return result;
  CheckpointReport report = *result;

  WallTimer t;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError("cannot move " + tmp + " into place as " + path);
  }
  report.write_s += t.elapsed_s();
  report.total_s += t.elapsed_s();

  CRAC_INFO() << "checkpoint written to " << path << " ("
              << format_size(report.image_bytes) << ", "
              << report.upper_regions << " upper regions, "
              << report.active_allocations << " active CUDA allocations) in "
              << report.total_s << "s";
  return report;
}

Status CracContext::restore_from_reader(ckpt::ImageReader& reader,
                                        RestartReport* report) {
  // A delta image is a patch, not a restorable state: its kDeltaChunks
  // sections only mean something against the parent. The restart verbs
  // materialize the chain before ever reaching this core.
  if (reader.is_delta()) {
    return FailedPrecondition(
        "cannot restore directly from a delta image (parent id '" +
        reader.parent_id() +
        "'): materialize its chain into a full image first — "
        "restart_from_image/restart_in_place do this automatically");
  }

  // 1. Upper-half memory: heap allocator state first (commits the heap
  //    span), then region contents byte-for-byte. Everything streams off
  //    the image source — region bytes decode chunk by chunk (prefetched on
  //    the checkpoint pool) straight into their mapped targets, so restore
  //    never stages a whole section, let alone the whole image.
  WallTimer t;
  const ckpt::SectionInfo* heap_sec =
      reader.find(ckpt::SectionType::kMetadata, kSectionHeapState);
  if (heap_sec == nullptr) {
    // A live shipment that died mid-directory also comes back as "not
    // found"; report the stream's own error, not a misleading absence.
    CRAC_RETURN_IF_ERROR(reader.directory_status());
    return Corrupt("image missing heap state");
  }
  {
    // Small metadata section: materialize and decode through the
    // arena-snapshot codec.
    CRAC_ASSIGN_OR_RETURN(auto bytes, reader.read_section(*heap_sec));
    CRAC_ASSIGN_OR_RETURN(
        auto heap_snap, sim::decode_arena_snapshot(bytes.data(), bytes.size()));
    CRAC_RETURN_IF_ERROR(process_->heap().restore(heap_snap));
  }

  const ckpt::SectionInfo* mem_sec =
      reader.find(ckpt::SectionType::kMemoryRegions, kSectionUpperMemory);
  if (mem_sec == nullptr) {
    CRAC_RETURN_IF_ERROR(reader.directory_status());
    return Corrupt("image missing upper memory");
  }
  {
    CRAC_ASSIGN_OR_RETURN(auto stream, reader.open_section(*mem_sec));
    std::uint64_t count = 0;
    CRAC_RETURN_IF_ERROR(stream.get_u64(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      ckpt::MemoryRecord rec;  // header only; contents stream below
      CRAC_RETURN_IF_ERROR(ckpt::decode_memory_record_header(stream, rec));
      CRAC_RETURN_IF_ERROR(
          process_->validate_upper_target(rec.addr, rec.size, rec.name));
      // The validated target is the destination buffer itself: decoded
      // chunks land in place with zero staging copies.
      CRAC_RETURN_IF_ERROR(
          stream.read(reinterpret_cast<void*>(rec.addr), rec.size));
    }
  }

  const ckpt::SectionInfo* root_sec =
      reader.find(ckpt::SectionType::kMetadata, kSectionRoot);
  if (root_sec != nullptr) {
    CRAC_ASSIGN_OR_RETURN(auto stream, reader.open_section(*root_sec));
    std::uint64_t root = 0;
    CRAC_RETURN_IF_ERROR(stream.get_u64(root));
    root_ = reinterpret_cast<void*>(root);
  }
  if (report != nullptr) report->memory_s = t.elapsed_s();

  // 2. Plugin restart: full-log replay, refill, residency, re-registration.
  t.reset();
  const Status restarted = registry_.run_restart(reader);
  if (report != nullptr) report->replay_s = t.elapsed_s();
  if (report != nullptr) report->replay = plugin_->last_replay_stats();
  CRAC_RETURN_IF_ERROR(restarted);

  // 3. Integrity backstop: lazy reading must not weaken the old guarantee
  // that a successful restart has CRC-checked the whole image. Sections no
  // consumer pulled (e.g. the stream inventory) get a skip-read here.
  return reader.verify_unread_sections();
}

Status CracContext::restore_from_source(std::unique_ptr<ckpt::Source> source,
                                        RestartReport* report) {
  // Open = directory scan only (headers + chunk frames); payload bytes
  // stream during restore with decode prefetched on the checkpoint pool.
  // The source is wherever the image lives — a file or a spool still
  // receiving off a socket; this core cannot tell. For a still-filling
  // source the reader defers the directory and restore runs overlapped
  // with the transfer (restore-while-receiving).
  WallTimer t;
  const bool overlapped = !source->end_known();
  ckpt::ImageReader::Options ropts;
  ropts.pool = ckpt_pool();
  auto reader = ckpt::ImageReader::open(std::move(source), ropts);
  if (!reader.ok()) return reader.status();
  if (report != nullptr) {
    report->read_s = t.elapsed_s();
    report->overlapped_receive = overlapped;
  }
  return restore_from_reader(*reader, report);
}

Result<std::unique_ptr<CracContext>> CracContext::restart_from_source(
    std::unique_ptr<ckpt::Source> source, const CracOptions& options,
    RestartReport* report) {
  WallTimer total;
  const std::string origin = source->describe();
  auto ctx = std::make_unique<CracContext>(options);
  RestartReport local;
  CRAC_RETURN_IF_ERROR(ctx->restore_from_source(std::move(source), &local));
  local.total_s = total.elapsed_s();
  if (report != nullptr) *report = local;
  CRAC_INFO() << "restarted from " << origin << " in " << local.total_s
              << "s (replayed " << local.replay.calls_replayed
              << " CUDA calls)";
  return ctx;
}

Result<std::unique_ptr<CracContext>> CracContext::restart_from_image(
    const std::string& path, const CracOptions& options,
    RestartReport* report) {
  // Delta images restore through their materialized chain: base applied
  // first, every delta's patches newest-last, restored as one merged full
  // image. The probe is cheap (directory scan only) and non-delta images
  // take the streaming path below untouched.
  {
    auto probe = ckpt::ImageReader::from_file(path);
    if (probe.ok() && probe->is_delta()) {
      auto merged = ckpt::materialize_image_chain(path);
      if (!merged.ok()) return merged.status();
      return restart_from_source(
          std::make_unique<ckpt::MemorySource>(std::move(*merged)), options,
          report);
    }
  }

  // Thin wrapper: open the file and hand it to the transport-agnostic core.
  auto source = ckpt::FileSource::open(path);
  if (!source.ok()) return source.status();
  return restart_from_source(std::move(*source), options, report);
}

Result<RestartReport> CracContext::restart_in_place(const std::string& path) {
  RestartReport report;
  WallTimer total;

  WallTimer t;
  ckpt::ImageReader::Options ropts;
  ropts.pool = ckpt_pool();
  auto reader = ckpt::ImageReader::from_file(path, ropts);
  if (!reader.ok()) return reader.status();
  if (reader->is_delta()) {
    // Same chain resolution as restart_from_image: merge base + deltas into
    // one full image and restore that through the unchanged path.
    auto merged = ckpt::materialize_image_chain(path);
    if (!merged.ok()) return merged.status();
    reader = ckpt::ImageReader::from_bytes(std::move(*merged), ropts);
    if (!reader.ok()) return reader.status();
  }
  report.read_s = t.elapsed_s();

  // The paper's restart sequence: the old lower half (and with it the whole
  // stateful CUDA library) is discarded; a new one is loaded at the same
  // fixed addresses; the dispatch table is re-initialized in place.
  process_->discard_lower_half();
  CRAC_RETURN_IF_ERROR(process_->load_fresh_lower_half());

  CRAC_RETURN_IF_ERROR(restore_from_reader(*reader, &report));
  report.total_s = total.elapsed_s();
  return report;
}

}  // namespace crac
