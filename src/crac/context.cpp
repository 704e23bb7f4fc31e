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
}

CracContext::~CracContext() = default;

ThreadPool* CracContext::ckpt_pool() {
  const std::size_t threads = std::thread::hardware_concurrency();
  // One worker buys no parallelism over the calling thread; encode inline.
  if (threads <= 1) return nullptr;
  if (ckpt_pool_ == nullptr) {
    ckpt_pool_ = std::make_unique<ThreadPool>(threads);
  }
  return ckpt_pool_.get();
}

Result<CheckpointReport> CracContext::checkpoint(const std::string& path) {
  return capture_to_file(path, nullptr);
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
  const DeltaBaseState base = *delta_base_;
  return capture_to_file(path, &base);
}

Result<CheckpointReport> CracContext::checkpoint_to_sink(ckpt::Sink& sink) {
  return capture(sink, nullptr, nullptr);
}

Result<CheckpointReport> CracContext::capture(ckpt::Sink& sink,
                                             const DeltaBaseState* base,
                                             DeltaBaseState* captured) {
  CheckpointReport report;
  WallTimer total;

  // Streaming pipeline: sections are chunked, chunks compressed/CRC'd on
  // the pool, frames written straight to the sink — the image is never
  // resident in memory. This core is transport-agnostic: it neither knows
  // nor cares whether the sink is a temp file or a live socket to the
  // replacement instance.
  ckpt::ImageWriter::Options wopts;
  wopts.codec = options_.codec;
  wopts.pool = ckpt_pool();
  std::optional<DeltaDrainPlan> plan;
  if (base != nullptr) {
    // v4 header: name the parent image this capture deltas against; the
    // drain narrows device contents to what changed since it.
    wopts.parent_id = base->image_id;
    wopts.parent_path = base->path;
    plan = DeltaDrainPlan{base->device_gen, base->alloc_fingerprint};
  }
  ckpt::ImageWriter writer(&sink, wopts);

  // Sections are written in the order restart consumes them (heap state,
  // upper memory, root, then the plugin sections): the stream order IS the
  // restore order, which is what lets a restore-while-receiving peer start
  // rebuilding from the first sections while the later ones are still in
  // flight (docs/image_format.md, "Streaming restore ordering contract").

  // 1. Freeze: the plugin stops the world (device drain) and pins its
  //    logical snapshot — the call log, allocation table, residency
  //    bitmaps, and (for deltas) the exact dirty runs. The application
  //    pause clock starts here.
  sim::Device& dev = process_->lower().device();
  const bool cow = options_.cow_capture;
  WallTimer pause;
  WallTimer t;
  CRAC_ASSIGN_OR_RETURN(CracPlugin::FrozenCapture frozen,
                        plugin_->freeze(plan));
  report.drain_s = t.elapsed_s();
  // Any failure from here on must tear down the overlay; release_snapshot()
  // is idempotent, so the success path simply runs it early.
  struct OverlayGuard {
    sim::Device& dev;
    ~OverlayGuard() { dev.release_snapshot(); }
  } overlay_guard{dev};

  // With the world stopped, stamp the image's identity and advance the
  // dirty trackers: everything marked before this instant belongs to THIS
  // capture, everything after to the next one. The capture state is what a
  // later checkpoint_delta() deltas against.
  DeltaBaseState state;
  state.image_id = ckpt::random_hex_id();
  state.device_gen = dev.device_dirty().advance();
  dev.pinned_dirty().advance();
  dev.managed_dirty().advance();
  state.device_epoch = dev.device_dirty().epoch();
  state.alloc_fingerprint = plugin_->allocation_fingerprint();
  {
    std::vector<std::byte> id(state.image_id.size());
    std::memcpy(id.data(), state.image_id.data(), id.size());
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
    t.reset();
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
  //    — the application resumes NOW, while the drain below reads the
  //    frozen state through the overlay and racing writes preserve their
  //    pre-images into the snapstore first. In stop-the-world mode the
  //    world stays frozen through the drain.
  if (cow) {
    CRAC_RETURN_IF_ERROR(dev.arm_snapshot());
    report.pause_s = pause.elapsed_s();
  }

  // 4. Plugin sections: active allocations, residency, the log, fat
  //    binaries, stream inventory — again in replay-consumption order.
  t.reset();
  CRAC_RETURN_IF_ERROR(plugin_->write_sections(writer, std::move(frozen)));
  report.drain_s += t.elapsed_s();

  // 5. Drain the chunk pipeline and close the sink — for a file sink this
  //    flushes the temp file, for a socket sink it ships the stream trailer
  //    that tells the peer the image arrived whole.
  t.reset();
  report.raw_bytes = writer.raw_bytes();
  CRAC_RETURN_IF_ERROR(writer.finish());
  CRAC_RETURN_IF_ERROR(sink.close());
  report.write_s = t.elapsed_s();

  // 6. Capture complete: disarm the overlay (COW) or end the pause (STW).
  if (cow) {
    const ckpt::SnapOverlay::Stats snap = dev.snap_overlay().stats();
    report.snapstore_peak_bytes = snap.peak_store_bytes;
    report.snapstore_preserved_chunks = snap.chunks_preserved;
    dev.release_snapshot();
  } else {
    report.pause_s = pause.elapsed_s();
  }

  report.total_s = total.elapsed_s();
  report.cow_capture = cow;
  report.active_allocations = plugin_->active_allocation_count();
  report.image_bytes = sink.bytes_written();
  report.image_id = state.image_id;
  report.delta_image = base != nullptr;
  last_image_id_ = state.image_id;
  if (captured != nullptr) *captured = std::move(state);
  return report;
}

Result<CheckpointReport> CracContext::capture_to_file(
    const std::string& path, const DeltaBaseState* base) {
  // Streams to a temp file that replaces `path` only after the image is
  // complete: a failed checkpoint never destroys the previous image at the
  // path, and its partial stream is discarded with the temp file.
  const std::string tmp = path + ".tmp";
  DeltaBaseState captured;
  auto file = ckpt::FileSink::open(tmp);
  Result<CheckpointReport> result =
      file.ok() ? capture(**file, base, &captured) : file.status();
  WallTimer t;
  if (result.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    result = IoError("cannot move " + tmp + " into place as " + path);
  }
  if (!result.ok()) {
    std::remove(tmp.c_str());
    return result;
  }
  result->write_s += t.elapsed_s();
  result->total_s += t.elapsed_s();
  // This image is now the newest committed link; later deltas chain onto
  // it.
  delta_base_ = std::move(captured);
  delta_base_->path = path;

  CRAC_INFO() << "checkpoint written to " << path << " ("
              << format_size(result->image_bytes) << ", "
              << result->upper_regions << " upper regions, "
              << result->active_allocations << " active CUDA allocations) in "
              << result->total_s << "s";
  return result;
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
  const Status restarted = plugin_->restart(reader);
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

Result<std::unique_ptr<ckpt::Source>> CracContext::open_image_source(
    const std::string& path) {
  CRAC_ASSIGN_OR_RETURN(std::unique_ptr<ckpt::Source> file,
                        ckpt::FileSource::open(path));
  // Only the header is read to tell a full image from a delta. A header
  // that does not parse is left for the reader's open to name.
  std::byte header[ckpt::kImageHeaderBytes];
  if (file->read(header, sizeof(header)).ok()) {
    auto parsed = ckpt::parse_image_header(header);
    if (parsed.ok() && parsed->is_delta()) {
      // Delta images restore through their materialized chain: base applied
      // first, every delta's patches newest-last, restored as one merged
      // full image.
      CRAC_ASSIGN_OR_RETURN(auto merged, ckpt::materialize_image_chain(path));
      return std::unique_ptr<ckpt::Source>(
          std::make_unique<ckpt::MemorySource>(std::move(merged)));
    }
  }
  CRAC_RETURN_IF_ERROR(file->seek(0));
  return file;
}

Result<std::unique_ptr<CracContext>> CracContext::restart_from_image(
    const std::string& path, const CracOptions& options,
    RestartReport* report) {
  CRAC_ASSIGN_OR_RETURN(auto source, open_image_source(path));
  return restart_from_source(std::move(source), options, report);
}

Result<RestartReport> CracContext::restart_in_place(const std::string& path) {
  RestartReport report;
  WallTimer total;

  // The image is opened and scanned before the lower half goes: an image
  // that cannot be read leaves this context as it was.
  WallTimer t;
  CRAC_ASSIGN_OR_RETURN(auto source, open_image_source(path));
  ckpt::ImageReader::Options ropts;
  ropts.pool = ckpt_pool();
  CRAC_ASSIGN_OR_RETURN(auto reader,
                        ckpt::ImageReader::open(std::move(source), ropts));
  report.read_s = t.elapsed_s();

  // The paper's restart sequence: the old lower half (and with it the whole
  // stateful CUDA library) is discarded; a new one is loaded at the same
  // fixed addresses; the dispatch table is re-initialized in place.
  process_->discard_lower_half();
  CRAC_RETURN_IF_ERROR(process_->load_fresh_lower_half());

  CRAC_RETURN_IF_ERROR(restore_from_reader(reader, &report));
  report.total_s = total.elapsed_s();
  return report;
}

}  // namespace crac
