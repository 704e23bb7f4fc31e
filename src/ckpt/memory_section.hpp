// Serialization of upper-half memory regions into / out of image sections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace crac::ckpt {

class ImageWriter;
class SectionStream;

struct MemoryRecord {
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  std::uint32_t prot = 0;
  std::string name;
  std::vector<std::byte> bytes;  // exactly `size` bytes
};

// Encodes records (headers + contents) into one section payload.
std::vector<std::byte> encode_memory_records(
    const std::vector<MemoryRecord>& records);

// Streams records into the currently-open section of `image`, one record at
// a time, each record's contents read straight from where they are mapped,
// [addr, addr + size): the only copy is into the writer's chunk buffer.
// The caller guarantees those ranges are readable and unchanging (the world
// is frozen); `bytes` is not used.
Status append_memory_records(ImageWriter& image,
                             const std::vector<MemoryRecord>& records);

Result<std::vector<MemoryRecord>> decode_memory_records(
    const std::vector<std::byte>& payload);

// Streaming counterpart: reads one record's header (addr/size/prot/name —
// `bytes` stays empty) off an open section stream. The caller pulls the
// following `size` content bytes itself, in slices, so a multi-GiB region
// never needs a record-sized staging buffer.
Status decode_memory_record_header(SectionStream& stream, MemoryRecord& out);

}  // namespace crac::ckpt
