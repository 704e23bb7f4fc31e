#include "ckpt/memory_section.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "ckpt/image.hpp"

namespace crac::ckpt {

namespace {

// The single definition of the per-record wire layout; both the whole-buffer
// and streaming encoders go through it so they cannot drift apart.
void put_record_header(ByteWriter& w, const MemoryRecord& r) {
  w.put_u64(r.addr);
  w.put_u64(r.size);
  w.put_u32(r.prot);
  w.put_string(r.name);
}

}  // namespace

Status append_memory_records(ImageWriter& image,
                             const std::vector<MemoryRecord>& records) {
  ByteWriter header;
  header.put_u64(records.size());
  CRAC_RETURN_IF_ERROR(image.append(header.data(), header.size()));
  for (const MemoryRecord& r : records) {
    ByteWriter w;
    put_record_header(w, r);
    CRAC_RETURN_IF_ERROR(image.append(w.data(), w.size()));
    CRAC_RETURN_IF_ERROR(image.append(reinterpret_cast<const void*>(r.addr),
                                      static_cast<std::size_t>(r.size)));
  }
  return OkStatus();
}

std::vector<std::byte> encode_memory_records(
    const std::vector<MemoryRecord>& records) {
  ByteWriter w;
  w.put_u64(records.size());
  for (const MemoryRecord& r : records) {
    put_record_header(w, r);
    w.put_bytes(r.bytes.data(), r.bytes.size());
  }
  return std::move(w).take();
}

Result<std::vector<MemoryRecord>> decode_memory_records(
    const std::vector<std::byte>& payload) {
  ByteReader r(payload);
  std::uint64_t count = 0;
  CRAC_RETURN_IF_ERROR(r.get_u64(count));
  std::vector<MemoryRecord> out;
  // Each record costs at least 24 encoded bytes (addr, size, prot, name
  // length); a hostile count cannot demand more reserve than that.
  out.reserve(std::min<std::uint64_t>(count, r.remaining() / 24));
  for (std::uint64_t i = 0; i < count; ++i) {
    MemoryRecord rec;
    CRAC_RETURN_IF_ERROR(r.get_u64(rec.addr));
    CRAC_RETURN_IF_ERROR(r.get_u64(rec.size));
    CRAC_RETURN_IF_ERROR(r.get_u32(rec.prot));
    CRAC_RETURN_IF_ERROR(r.get_string(rec.name));
    if (rec.size > r.remaining()) {
      return Corrupt("memory record '" + rec.name +
                     "' contents overrun the section payload");
    }
    rec.bytes.resize(rec.size);
    CRAC_RETURN_IF_ERROR(r.get_bytes(rec.bytes.data(), rec.size));
    out.push_back(std::move(rec));
  }
  return out;
}

Status decode_memory_record_header(SectionStream& stream, MemoryRecord& out) {
  CRAC_RETURN_IF_ERROR(stream.get_u64(out.addr));
  CRAC_RETURN_IF_ERROR(stream.get_u64(out.size));
  CRAC_RETURN_IF_ERROR(stream.get_u32(out.prot));
  CRAC_RETURN_IF_ERROR(stream.get_string(out.name));
  if (out.size > stream.remaining()) {
    return Corrupt("memory record '" + out.name +
                   "' contents overrun the section payload");
  }
  return OkStatus();
}

}  // namespace crac::ckpt
