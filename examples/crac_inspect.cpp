// crac_inspect — checkpoint-image inspector.
//
// Dumps the structure of a .crac image: sections with sizes and integrity
// status, the CUDA call log (the replay script), active allocations with
// kinds, the stream/event inventory, UVM residency summary, and upper-half
// memory regions. Useful for debugging images and for understanding what a
// checkpoint actually contains.
//
//   $ ./crac_inspect app.crac [--log] [--regions]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "ckpt/delta.hpp"
#include "ckpt/image.hpp"
#include "ckpt/memory_section.hpp"
#include "common/bytes.hpp"
#include "crac/api_log.hpp"

namespace {

using namespace crac;

const char* section_type_name(ckpt::SectionType t) {
  switch (t) {
    case ckpt::SectionType::kMetadata: return "metadata";
    case ckpt::SectionType::kMemoryRegions: return "memory-regions";
    case ckpt::SectionType::kCudaApiLog: return "cuda-api-log";
    case ckpt::SectionType::kDeviceBuffers: return "device-buffers";
    case ckpt::SectionType::kManagedBuffers: return "managed-buffers";
    case ckpt::SectionType::kUvmResidency: return "uvm-residency";
    case ckpt::SectionType::kStreams: return "streams";
    case ckpt::SectionType::kDeltaChunks: return "delta-chunks";
  }
  return "?";
}

const char* alloc_kind_name(std::uint8_t kind) {
  switch (kind) {
    case 0: return "device ";
    case 1: return "pinned ";
    case 2: return "managed";
  }
  return "?";
}

void dump_allocations(const std::vector<std::byte>& payload) {
  ByteReader r(payload);
  std::uint64_t count = 0;
  if (!r.get_u64(count).ok()) return;
  std::printf("  %" PRIu64 " active allocations:\n", count);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t addr = 0, size = 0;
    std::uint8_t kind = 0;
    std::uint32_t flags = 0;
    if (!r.get_u64(addr).ok() || !r.get_u64(size).ok() ||
        !r.get_u8(kind).ok() || !r.get_u32(flags).ok() ||
        !r.skip(size).ok()) {
      std::printf("  (truncated)\n");
      return;
    }
    total += size;
    if (i < 20) {
      std::printf("    [%s] 0x%012" PRIx64 "  %10s  flags=0x%x\n",
                  alloc_kind_name(kind), addr, format_size(size).c_str(),
                  flags);
    } else if (i == 20) {
      std::printf("    ... (%" PRIu64 " more)\n", count - 20);
    }
  }
  std::printf("  total payload: %s\n", format_size(total).c_str());
}

void dump_delta(const std::vector<std::byte>& payload) {
  ByteReader r(payload);
  std::uint32_t target = 0;
  std::uint64_t granule = 0, full_raw = 0, entries = 0;
  if (!r.get_u32(target).ok() || !r.get_u64(granule).ok() ||
      !r.get_u64(full_raw).ok() || !r.get_u64(entries).ok()) {
    std::printf("  (truncated)\n");
    return;
  }
  std::uint64_t dirty_bytes = 0;
  for (std::uint64_t i = 0; i < entries; ++i) {
    std::uint64_t index = 0, len = 0;
    if (!r.get_u64(index).ok() || !r.get_u64(len).ok() || !r.skip(len).ok()) {
      std::printf("  (truncated)\n");
      return;
    }
    dirty_bytes += len;
  }
  const std::uint64_t chunks = granule == 0 ? 0 : (full_raw + granule - 1) / granule;
  std::printf("  patches a %s [%s] section: %" PRIu64 "/%" PRIu64
              " chunks dirty (%s granule), %s of delta payload\n",
              format_size(full_raw).c_str(),
              section_type_name(static_cast<ckpt::SectionType>(target)),
              entries, chunks, format_size(granule).c_str(),
              format_size(dirty_bytes).c_str());
}

void dump_log(const std::vector<std::byte>& payload, bool full) {
  auto log = CudaApiLog::deserialize(payload);
  if (!log.ok()) {
    std::printf("  (unparseable: %s)\n", log.status().to_string().c_str());
    return;
  }
  std::printf("  %zu records (the restart replay script)\n", log->size());
  const LogOp kOps[] = {
      LogOp::kMallocDevice, LogOp::kMallocHost, LogOp::kHostAlloc,
      LogOp::kMallocManaged, LogOp::kFree, LogOp::kFreeHost,
      LogOp::kStreamCreate, LogOp::kStreamDestroy, LogOp::kEventCreate,
      LogOp::kEventDestroy, LogOp::kRegisterFatBinary,
      LogOp::kRegisterFunction, LogOp::kUnregisterFatBinary};
  for (LogOp op : kOps) {
    const std::size_t n = log->count(op);
    if (n > 0) std::printf("    %-26s x%zu\n", to_string(op), n);
  }
  if (full) {
    std::printf("  full log:\n");
    for (std::size_t i = 0; i < log->size(); ++i) {
      const LogRecord& rec = log->records()[i];
      std::printf("    %5zu  %-26s addr=0x%012" PRIx64 " size=%" PRIu64
                  " %s\n",
                  i, to_string(rec.op), rec.addr, rec.size,
                  rec.name.c_str());
    }
  }
}

void dump_regions(const std::vector<std::byte>& payload, bool full) {
  auto records = ckpt::decode_memory_records(payload);
  if (!records.ok()) {
    std::printf("  (unparseable)\n");
    return;
  }
  std::uint64_t total = 0;
  for (const auto& r : *records) total += r.size;
  std::printf("  %zu upper-half regions, %s\n", records->size(),
              format_size(total).c_str());
  if (full) {
    for (const auto& r : *records) {
      std::printf("    0x%012" PRIx64 "  %10s  prot=%u  %s\n", r.addr,
                  format_size(r.size).c_str(), r.prot, r.name.c_str());
    }
  }
}

void dump_streams(const std::vector<std::byte>& payload) {
  ByteReader r(payload);
  std::uint64_t n_streams = 0;
  if (!r.get_u64(n_streams).ok()) return;
  std::printf("  live streams: %" PRIu64 " (", n_streams);
  for (std::uint64_t i = 0; i < n_streams; ++i) {
    std::uint64_t id = 0;
    if (!r.get_u64(id).ok()) break;
    std::printf("%s%" PRIu64, i == 0 ? "" : ",", id);
  }
  std::uint64_t n_events = 0;
  if (!r.get_u64(n_events).ok()) return;
  std::printf(") live events: %" PRIu64 "\n", n_events);
}

void dump_uvm(const std::vector<std::byte>& payload) {
  ByteReader r(payload);
  std::uint64_t page = 0, ranges = 0;
  if (!r.get_u64(page).ok() || !r.get_u64(ranges).ok()) return;
  std::uint64_t device_pages = 0, total_pages = 0;
  for (std::uint64_t i = 0; i < ranges; ++i) {
    std::uint64_t addr = 0, n_pages = 0;
    if (!r.get_u64(addr).ok() || !r.get_u64(n_pages).ok()) return;
    std::vector<std::uint8_t> bitmap((n_pages + 7) / 8);
    if (!r.get_bytes(bitmap.data(), bitmap.size()).ok()) return;
    total_pages += n_pages;
    for (std::uint64_t p = 0; p < n_pages; ++p) {
      if ((bitmap[p / 8] >> (p % 8)) & 1) ++device_pages;
    }
  }
  std::printf("  UVM page size %s; %" PRIu64 " managed ranges, %" PRIu64
              "/%" PRIu64 " pages device-resident at checkpoint\n",
              format_size(page).c_str(), ranges, device_pages, total_pages);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <image.crac> [--log] [--regions] [--verify]\n"
                 "  --log      dump every CUDA log record\n"
                 "  --regions  dump every upper-half memory region\n"
                 "  --verify   skip-read CRC check of every section "
                 "(per-section OK/corrupt report, no payload decoding)\n",
                 argv[0]);
    return 2;
  }
  bool full_log = false, full_regions = false, verify = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log") == 0) full_log = true;
    if (std::strcmp(argv[i], "--regions") == 0) full_regions = true;
    if (std::strcmp(argv[i], "--verify") == 0) verify = true;
  }

  auto reader = ckpt::ImageReader::from_file(argv[1]);
  if (!reader.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                 reader.status().to_string().c_str());
    return 1;
  }
  std::printf("%s: %zu sections (CRACIMG%u)\n", argv[1],
              reader->sections().size(), reader->version());
  // A delta image only means something against its chain; print the chain
  // membership (newest first, full base last) so an operator can see at a
  // glance which files a restore of this image will touch.
  if (reader->is_delta()) {
    std::printf("delta image: parent id %s at '%s'\n",
                reader->parent_id().c_str(), reader->parent_path().c_str());
    auto chain = ckpt::describe_image_chain(argv[1]);
    if (!chain.ok()) {
      std::printf("  chain unresolvable: %s\n",
                  chain.status().to_string().c_str());
    } else {
      std::printf("chain (%zu images, newest first):\n", chain->size());
      for (std::size_t i = 0; i < chain->size(); ++i) {
        const auto& link = (*chain)[i];
        std::printf("  %zu: %-5s %-32s id=%s  delta-sections=%" PRIu64 "\n", i,
                    link.delta ? "delta" : "base", link.path.c_str(),
                    link.image_id.empty() ? "(none)" : link.image_id.c_str(),
                    link.delta_sections);
      }
    }
  }
  // --verify: the restore path's verify_unread_sections() machinery, run
  // per section for a report instead of a single verdict — each section is
  // skip-read (chunks decode and CRC-check on the way past, nothing is
  // materialized), so verifying a multi-GiB image holds at most one decode
  // window resident.
  if (verify) {
    bool verified_ok = true;
    for (const auto& sec : reader->sections()) {
      auto stream = reader->open_section(sec);
      const Status s =
          stream.ok() ? stream->skip(sec.raw_size) : stream.status();
      std::printf("[%-14s] %-24s %10s  %s\n", section_type_name(sec.type),
                  sec.name.c_str(), format_size(sec.raw_size).c_str(),
                  s.ok() ? "OK" : s.to_string().c_str());
      if (!s.ok()) verified_ok = false;
    }
    if (!verified_ok) {
      std::fprintf(stderr,
                   "CORRUPT: one or more sections failed integrity checks\n");
      return 1;
    }
    std::printf("all section CRCs valid\n");
    return 0;
  }

  // Payloads stream off the image on demand; materializing each section
  // here is what verifies its chunk CRCs, so a damaged section reports
  // inline and the tool still dumps the healthy ones.
  bool all_ok = true;
  for (const auto& sec : reader->sections()) {
    std::printf("\n[%s] \"%s\" — %s\n", section_type_name(sec.type),
                sec.name.c_str(), format_size(sec.raw_size).c_str());
    auto payload = reader->read_section(sec);
    if (!payload.ok()) {
      std::printf("  %s\n", payload.status().to_string().c_str());
      all_ok = false;
      continue;
    }
    switch (sec.type) {
      case ckpt::SectionType::kCudaApiLog: dump_log(*payload, full_log); break;
      case ckpt::SectionType::kDeviceBuffers: dump_allocations(*payload); break;
      case ckpt::SectionType::kMemoryRegions:
        dump_regions(*payload, full_regions);
        break;
      case ckpt::SectionType::kStreams: dump_streams(*payload); break;
      case ckpt::SectionType::kUvmResidency: dump_uvm(*payload); break;
      case ckpt::SectionType::kDeltaChunks: dump_delta(*payload); break;
      case ckpt::SectionType::kMetadata:
        if (sec.name == ckpt::kSectionImageId) {
          std::printf("  image id: %.*s\n", static_cast<int>(payload->size()),
                      reinterpret_cast<const char*>(payload->data()));
        }
        break;
      default: break;
    }
  }
  if (!all_ok) {
    std::fprintf(stderr, "CORRUPT: one or more sections failed integrity checks\n");
    return 1;
  }
  std::printf("\nall section CRCs valid\n");
  return 0;
}
