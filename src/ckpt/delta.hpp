// Incremental (delta) checkpoint chains.
//
// A v4 delta image patches a *parent* full image: its header names the
// parent (id + path hint), and its kDeltaChunks sections carry sparse
// (chunk index, payload) pairs against the like-named section of the
// parent. Restore never interprets a delta directly — a ChainMerge streams
// the chain base -> ... -> delta out as one merged full image, and that is
// restored through the unchanged full-image path, so a delta restore is
// byte-identical to a full restore by construction.
//
// kDeltaChunks payload layout (one section per patched target section):
//
//   [u32 target_section_type][u64 payload_chunk_bytes]
//   [u64 full_raw_size][u64 entry_count]
//   entry*: [u64 chunk_index][u64 byte_len][byte_len payload bytes]
//
// Entries are ascending by chunk_index; each patches
// [chunk_index * payload_chunk_bytes, + byte_len) of the target section's
// raw payload. byte_len < payload_chunk_bytes is only legal for the final
// chunk of the payload. full_raw_size must equal the parent section's raw
// size — a delta is only valid against the exact payload layout it was
// computed from (the producer enforces that with an allocation-table
// fingerprint and falls back to a full section on mismatch).
//
// Image identity: every checkpoint writes a kMetadata section named
// "image-id" holding a random id; a delta's header parent_id must match the
// id *inside* the parent file, so a swapped/overwritten parent fails by
// name instead of merging garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ckpt/image.hpp"
#include "ckpt/sink.hpp"

namespace crac::ckpt {

// Name of the kMetadata section holding the image's random identity.
inline constexpr char kSectionImageId[] = "image-id";

// Upper bound on base -> delta -> delta ... chain length; a longer chain is
// rejected by name (it almost certainly means a parent-path cycle).
inline constexpr std::size_t kMaxDeltaChainDepth = 16;

// The "image-id" metadata payload of an opened image, or NotFound when the
// image predates image ids.
Result<std::string> read_image_id(ImageReader& reader);

// The full image a delta chain stands for, planned once and then streamed
// to a Sink without ever holding the image.
//
// plan() reads the links' directories and every kDeltaChunks section's
// entry table, and runs every check of the chain before a byte is written:
// each delta's parent image id against its merged parent, target presence
// and size, entry order, length and range. write() then emits the merged
// full image in the leaf's section order, codec, chunk size and version:
//
//   * a chunk no patch touches goes out as the stored frame of the link
//     that holds it, payload copied and header re-framed (a v4 link's
//     24-byte frames become 20-byte ones in a v2 merge), when that link's
//     codec and chunk size match the leaf's; otherwise it is rebuilt;
//   * a patched chunk is rebuilt: the parent chunk is decoded only when the
//     patches leave part of it, patches apply newest-last, and the result
//     is CRC'd and encoded with the leaf's codec.
//
// A byte a newer patch overwrites is never read. The output is
// byte-identical to decoding every section, patching it and re-encoding it
// through an ImageWriter. Peak memory is one output chunk plus the entry
// tables.
//
// Integrity: copied frames keep the CRC their restore checks, and decoded
// chunks are CRC-checked, but entry tables and verbatim patch bytes are
// read as stored, and a patch goes out under a fresh CRC. So the caller
// vouches for the links first: the registry checks every link with
// RegistrySource::verify(), materialize_image_chain() CRC-checks every
// delta link.
class ChainMerge {
 public:
  struct Link {
    ImageReader reader;
    // Prefix for the errors of this link's merge (empty: none), e.g.
    // "delta image '<path>' (parent '<parent path>')".
    std::string origin;
  };

  // `chain` runs newest first: chain[0] is the image asked for, each link's
  // parent is the next, and chain.back() is the full base.
  static Result<ChainMerge> plan(std::vector<Link> chain);

  // Exact byte count write() emits: from the plan for a store-codec leaf
  // (every frame is its header plus raw bytes), by a dry run into a
  // counting sink for a compressing one.
  Result<std::uint64_t> size();

  // Streams the merged image into `out` and flushes it (the caller closes).
  Status write(Sink& out);

 private:
  // One patch: target bytes [offset, offset + len) come from the `len`
  // bytes at `at` in the delta section's payload.
  struct Entry {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    std::uint64_t at = 0;
  };
  // One kDeltaChunks section's entry table.
  struct Layer {
    std::size_t link = 0;
    std::size_t section = 0;  // index in the link's directory
    std::vector<Entry> entries;
  };
  // Where one section of a link's merged image comes from: a full section
  // of `base_link`, patched by `layers` (indexes into layers_), oldest
  // first. Those are the links between the base and the link itself, so
  // the oldest belongs to base_link - 1.
  struct Resolved {
    SectionType type{};
    std::string name;
    std::uint64_t raw_size = 0;
    std::size_t base_link = 0;
    std::size_t base = 0;  // index in the base link's directory
    std::vector<std::size_t> layers;
  };
  class LayerCursor;

  ChainMerge() = default;
  Status plan_link(std::size_t link, std::vector<Resolved>& view);
  Result<std::vector<std::byte>> read_resolved(const Resolved& r);
  Status write_section(const Resolved& r, Sink& out);
  Status copy_or_rebuild(const Resolved& r, std::uint64_t lo, std::size_t n,
                         Sink& out);
  Status encode_and_write(Sink& out);
  Status annotate(std::size_t link, Status s) const;
  const SectionInfo& section_of(std::size_t link, std::size_t index) const {
    return links_[link].reader.sections()[index];
  }

  std::vector<Link> links_;
  std::vector<Layer> layers_;
  std::vector<Resolved> sections_;  // the leaf's merged sections, in order
  Codec codec_ = Codec::kStore;
  std::size_t chunk_size_ = 0;
  ChunkFraming framing_ = ChunkFraming::kV2;
  std::vector<std::byte> chunk_;   // the output chunk being rebuilt
  std::vector<std::byte> packed_;  // its compressed form, or a copied
                                   // frame's stored bytes
};

// Materializes the full image equivalent to the chain ending at `path`:
// resolves parents by the path hint and merges the chain through a
// ChainMerge (each parent's embedded image-id verified against the child's
// parent_id, named Corrupt on mismatch), returning the merged image bytes —
// a restorable full (non-delta) image. A non-delta `path` returns its bytes
// unchanged.
Result<std::vector<std::byte>> materialize_image_chain(
    const std::string& path);

// One image in a delta chain, newest first (chain[0] is the queried image,
// chain.back() the full base).
struct ChainLink {
  std::string path;
  std::string image_id;   // empty when the image carries no image-id section
  std::string parent_id;  // empty for the full base
  bool delta = false;
  std::uint64_t delta_sections = 0;  // kDeltaChunks sections in this image
};

// Walks the chain ending at `path` without materializing payloads (used by
// crac_inspect to print chain membership). Verifies parent ids like
// materialize_image_chain.
Result<std::vector<ChainLink>> describe_image_chain(const std::string& path);

}  // namespace crac::ckpt
