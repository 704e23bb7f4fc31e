#include "ckpt/delta.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "common/bytes.hpp"
#include "ckpt/sink.hpp"

namespace crac::ckpt {

namespace {

// Granule cap mirrors kMaxChunkSize's role: the header's chunk granule
// bounds per-entry allocations, so it must itself be bounded.
constexpr std::uint64_t kMaxDeltaGranule = std::uint64_t{1} << 30;
// [u32 target type][u64 granule][u64 full raw size][u64 entry count]
constexpr std::size_t kDeltaHeaderBytes = 4 + 8 + 8 + 8;
// [u64 chunk index][u64 byte len], ahead of each entry's payload
constexpr std::size_t kEntryHeaderBytes = 8 + 8;
constexpr char kMagicV2[8] = {'C', 'R', 'A', 'C', 'I', 'M', 'G', '2'};

// Fixed-size prefix of a kDeltaChunks section payload.
struct DeltaSectionHeader {
  SectionType target_type{};
  std::uint64_t payload_chunk_bytes = 0;
  std::uint64_t full_raw_size = 0;
  std::uint64_t entry_count = 0;
};

// The hostile-value gates on a delta section's fixed header: a delta of a
// delta, a zero or oversized granule, an implausible entry count.
Status parse_delta_header(const std::byte* p, DeltaSectionHeader& out) {
  std::uint32_t type_raw = 0;
  std::memcpy(&type_raw, p, 4);
  std::memcpy(&out.payload_chunk_bytes, p + 4, 8);
  std::memcpy(&out.full_raw_size, p + 12, 8);
  std::memcpy(&out.entry_count, p + 20, 8);
  out.target_type = static_cast<SectionType>(type_raw);
  if (out.target_type == SectionType::kDeltaChunks) {
    return Corrupt("delta section targets another delta section");
  }
  if (out.payload_chunk_bytes == 0 ||
      out.payload_chunk_bytes > kMaxDeltaGranule) {
    return Corrupt("delta section declares an invalid chunk granule of " +
                   std::to_string(out.payload_chunk_bytes) + " bytes");
  }
  // At most one entry per granule of the target payload (+1 for a ragged
  // tail); a larger claim cannot be honest.
  const std::uint64_t max_entries =
      out.full_raw_size / out.payload_chunk_bytes + 1;
  if (out.entry_count > max_entries) {
    return Corrupt("delta section declares " +
                   std::to_string(out.entry_count) + " entries against a " +
                   std::to_string(out.full_raw_size) + "-byte target");
  }
  return OkStatus();
}

std::uint64_t get_u64_at(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

// The version and framing an ImageWriter gives a full image of `codec`:
// codecs beyond kLz need v3's per-chunk codec ids.
bool needs_v3(Codec codec) {
  return static_cast<std::uint32_t>(codec) >
         static_cast<std::uint32_t>(Codec::kLz);
}

// Reads a section's raw payload at rising positions straight out of its
// stored chunks: a verbatim chunk's bytes are read as stored, with no
// decode and no CRC pass (ChainMerge's callers have checked them), and a
// compressed chunk is decoded once and kept. plan() reads entry tables and
// write() reads patch bytes through it, so a patch lands in the output
// chunk with one copy.
class PayloadReader {
 public:
  PayloadReader(ImageReader& reader, const SectionInfo& section)
      : reader_(reader), section_(section) {}

  Status read(std::uint64_t pos, void* out, std::size_t n) {
    if (pos > section_.raw_size || n > section_.raw_size - pos) {
      return Corrupt("checkpoint section '" + section_.name +
                     "' read past end of payload");
    }
    const auto& chunks = section_.chunks;
    auto* dst = static_cast<std::byte*>(out);
    while (n > 0) {
      if (chunks.empty()) {
        return FailedPrecondition("checkpoint section '" + section_.name +
                                  "' has no chunk index");
      }
      while (chunk_ + 1 < chunks.size() &&
             chunks[chunk_ + 1].raw_offset <= pos) {
        ++chunk_;
        framed_ = false;
        decoded_.clear();
      }
      if (!framed_) {
        CRAC_RETURN_IF_ERROR(reader_.read_stored(section_, chunk_, frame_));
        framed_ = true;
      }
      const std::uint64_t within = pos - chunks[chunk_].raw_offset;
      if (within >= frame_.raw_size) {
        return Corrupt("checkpoint section '" + section_.name +
                       "' chunk index disagrees with its frames");
      }
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, frame_.raw_size - within));
      if (frame_.stored_size == frame_.raw_size) {
        CRAC_RETURN_IF_ERROR(
            reader_.read_stored(section_, chunk_, frame_, within, dst, take));
      } else {
        if (decoded_.empty()) {
          std::vector<std::byte> stored(
              static_cast<std::size_t>(frame_.stored_size));
          CRAC_RETURN_IF_ERROR(reader_.read_stored(
              section_, chunk_, frame_, 0, stored.data(), stored.size()));
          DecodedChunk chunk = decode_chunk(frame_, std::move(stored));
          if (!chunk.status.ok()) {
            return Status(chunk.status.code(),
                          "checkpoint section '" + section_.name +
                              "' chunk #" + std::to_string(chunk_) + ": " +
                              chunk.status.message());
          }
          decoded_ = std::move(chunk.raw);
        }
        std::memcpy(dst, decoded_.data() + within, take);
      }
      dst += take;
      pos += take;
      n -= take;
    }
    return OkStatus();
  }

 private:
  ImageReader& reader_;
  const SectionInfo& section_;
  std::size_t chunk_ = 0;  // the chunk holding the last position read
  bool framed_ = false;    // frame_ is chunk_'s
  ChunkFrame frame_;
  std::vector<std::byte> decoded_;  // chunk_'s bytes, when it is compressed
};

}  // namespace

Result<std::string> read_image_id(ImageReader& reader) {
  const SectionInfo* sec = reader.find(SectionType::kMetadata, kSectionImageId);
  if (sec == nullptr) {
    CRAC_RETURN_IF_ERROR(reader.directory_status());
    return NotFound("image carries no image-id section");
  }
  CRAC_ASSIGN_OR_RETURN(auto payload, reader.read_section(*sec));
  return std::string(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
}

// ---------------------------------------------------------------------------
// ChainMerge
// ---------------------------------------------------------------------------

// One layer's entries walked in target order while write() walks a
// section's output chunks. An entry that straddles an output chunk boundary
// yields a piece in each.
class ChainMerge::LayerCursor {
 public:
  // Bytes [a, b) of the target come from payload position `at`.
  struct Piece {
    std::uint64_t a, b, at;
  };

  LayerCursor(ChainMerge& merge, const Layer& layer)
      : layer_(layer),
        payload_(merge.links_[layer.link].reader,
                 merge.section_of(layer.link, layer.section)) {}

  // Replaces `out` with the pieces of [lo, hi) this layer patches.
  void collect(std::uint64_t lo, std::uint64_t hi, std::vector<Piece>& out) {
    out.clear();
    for (std::size_t i = next_;
         i < layer_.entries.size() && layer_.entries[i].offset < hi; ++i) {
      const Entry& e = layer_.entries[i];
      const std::uint64_t a = std::max(lo, e.offset);
      out.push_back(Piece{a, std::min(hi, e.offset + e.len),
                          e.at + (a - e.offset)});
      if (e.offset + e.len <= hi) next_ = i + 1;  // done with it
    }
  }

  // Copies target bytes [x, y) of `piece` to `dst`.
  Status copy(const Piece& piece, std::uint64_t x, std::uint64_t y,
              std::byte* dst) {
    return payload_.read(piece.at + (x - piece.a), dst,
                         static_cast<std::size_t>(y - x));
  }

  std::size_t link() const noexcept { return layer_.link; }

 private:
  const Layer& layer_;
  PayloadReader payload_;
  std::size_t next_ = 0;  // first entry not yet used in full
};

namespace {

// Disjoint, ascending spans of one output chunk.
class Coverage {
 public:
  void clear() { spans_.clear(); }

  // Calls gap(x, y) for every part [x, y) of [a, b) not yet covered, in
  // order, then covers [a, b).
  template <typename Gap>
  Status cover(std::uint64_t a, std::uint64_t b, const Gap& gap) {
    std::uint64_t at = a;
    std::size_t first = spans_.size();  // first span touching [a, b]
    std::size_t last = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto [s, e] = spans_[i];
      if (e < a || s > b) continue;
      first = std::min(first, i);
      last = i + 1;
      if (s > at) CRAC_RETURN_IF_ERROR(gap(at, std::min(s, b)));
      at = std::max(at, e);
    }
    if (at < b) CRAC_RETURN_IF_ERROR(gap(at, b));
    if (first == spans_.size()) {
      const auto pos = std::lower_bound(
          spans_.begin(), spans_.end(), std::make_pair(a, b));
      spans_.insert(pos, {a, b});
    } else {
      const std::uint64_t s = std::min(a, spans_[first].first);
      const std::uint64_t e = std::max(b, spans_[last - 1].second);
      spans_.erase(spans_.begin() + static_cast<std::ptrdiff_t>(first) + 1,
                   spans_.begin() + static_cast<std::ptrdiff_t>(last));
      spans_[first] = {s, e};
    }
    return OkStatus();
  }

  std::uint64_t bytes() const {
    std::uint64_t n = 0;
    for (const auto& [s, e] : spans_) n += e - s;
    return n;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans_;
};

}  // namespace

Result<ChainMerge> ChainMerge::plan(std::vector<Link> chain) {
  if (chain.empty()) return InvalidArgument("merge of an empty delta chain");
  ChainMerge merge;
  merge.links_ = std::move(chain);
  const std::size_t n = merge.links_.size();
  for (std::size_t l = 0; l < n; ++l) {
    ImageReader& reader = merge.links_[l].reader;
    CRAC_RETURN_IF_ERROR(reader.scan_to_end());
    if (reader.is_delta() != (l + 1 < n)) {
      return InvalidArgument(
          "delta chain link #" + std::to_string(l) +
          (reader.is_delta() ? " is a delta with no parent link"
                             : " is a full image with a child link"));
    }
  }
  // The base's merged image is the base itself; each delta, oldest first,
  // turns its parent's view into its own.
  std::vector<Resolved> view;
  const auto& base = merge.links_[n - 1].reader.sections();
  for (std::size_t i = 0; i < base.size(); ++i) {
    view.push_back(Resolved{base[i].type, base[i].name, base[i].raw_size,
                            n - 1, i, {}});
  }
  for (std::size_t l = n - 1; l-- > 0;) {
    if (Status s = merge.plan_link(l, view); !s.ok()) {
      return merge.annotate(l, std::move(s));
    }
  }
  merge.sections_ = std::move(view);
  const ImageReader& leaf = merge.links_[0].reader;
  merge.codec_ = leaf.codec();
  merge.chunk_size_ =
      leaf.chunk_size() > 0 ? leaf.chunk_size() : kDefaultChunkSize;
  merge.framing_ = needs_v3(merge.codec_) ? ChunkFraming::kV3
                                          : ChunkFraming::kV2;
  return merge;
}

Status ChainMerge::plan_link(std::size_t l, std::vector<Resolved>& view) {
  const auto find = [&view](SectionType type,
                            const std::string& name) -> const Resolved* {
    for (const Resolved& r : view) {
      if (r.type == type && r.name == name) return &r;
    }
    return nullptr;
  };
  ImageReader& reader = links_[l].reader;

  // Identity gate: the merged parent must be the image the delta was
  // computed against, not merely whatever sits under the remembered name.
  std::optional<std::string> parent_id;
  if (const Resolved* id = find(SectionType::kMetadata, kSectionImageId)) {
    if (auto bytes = read_resolved(*id); bytes.ok()) {
      parent_id.emplace(reinterpret_cast<const char*>(bytes->data()),
                        bytes->size());
    }
  }
  if (!parent_id || *parent_id != reader.parent_id()) {
    return Corrupt("delta expects parent image id '" + reader.parent_id() +
                   "' but its materialized parent holds " +
                   (parent_id ? "id '" + *parent_id + "'"
                              : std::string("no image id")));
  }

  // The delta's sections in order: a kDeltaChunks section stands for its
  // patched target, every other section shadows the parent's outright, and
  // sections only the parent has drop out.
  std::vector<Resolved> next;
  for (std::size_t i = 0; i < reader.sections().size(); ++i) {
    const SectionInfo& sec = reader.sections()[i];
    if (sec.type != SectionType::kDeltaChunks) {
      next.push_back(Resolved{sec.type, sec.name, sec.raw_size, l, i, {}});
      continue;
    }
    PayloadReader table(reader, sec);
    std::byte head[kDeltaHeaderBytes];
    CRAC_RETURN_IF_ERROR(table.read(0, head, sizeof(head)));
    DeltaSectionHeader header;
    CRAC_RETURN_IF_ERROR(parse_delta_header(head, header));
    const Resolved* target = find(header.target_type, sec.name);
    if (target == nullptr) {
      return Corrupt("delta patches section '" + sec.name +
                     "' absent from its parent image");
    }
    if (target->raw_size != header.full_raw_size) {
      return Corrupt("delta against section '" + sec.name + "' expects a " +
                     std::to_string(header.full_raw_size) +
                     "-byte target but the parent section holds " +
                     std::to_string(target->raw_size) + " bytes");
    }
    Layer layer{l, i, {}};
    std::uint64_t pos = kDeltaHeaderBytes;
    std::uint64_t prev_index = 0;
    for (std::uint64_t e = 0; e < header.entry_count; ++e) {
      std::byte entry[kEntryHeaderBytes];
      CRAC_RETURN_IF_ERROR(table.read(pos, entry, sizeof(entry)));
      pos += sizeof(entry);
      const std::uint64_t index = get_u64_at(entry);
      const std::uint64_t len = get_u64_at(entry + 8);
      if (e > 0 && index <= prev_index) {
        return Corrupt("delta section '" + sec.name +
                       "' entries out of order");
      }
      prev_index = index;
      if (len == 0 || len > header.payload_chunk_bytes) {
        return Corrupt("delta section '" + sec.name +
                       "' entry with invalid length " + std::to_string(len));
      }
      if (index > header.full_raw_size / header.payload_chunk_bytes) {
        return Corrupt("delta section '" + sec.name +
                       "' entry past end of target payload");
      }
      const std::uint64_t offset = index * header.payload_chunk_bytes;
      if (offset + len > header.full_raw_size) {
        return Corrupt("delta section '" + sec.name +
                       "' entry past end of target payload");
      }
      if (len > sec.raw_size - pos) {
        return Corrupt("checkpoint section '" + sec.name +
                       "' read past end of payload");
      }
      layer.entries.push_back(Entry{offset, len, pos});
      pos += len;
    }
    Resolved patched = *target;
    patched.layers.push_back(layers_.size());
    layers_.push_back(std::move(layer));
    next.push_back(std::move(patched));
  }
  view = std::move(next);
  return OkStatus();
}

Result<std::vector<std::byte>> ChainMerge::read_resolved(const Resolved& r) {
  std::vector<std::byte> out(static_cast<std::size_t>(r.raw_size));
  CRAC_RETURN_IF_ERROR(links_[r.base_link].reader.read(
      section_of(r.base_link, r.base), 0, out.data(), out.size()));
  for (std::size_t index : r.layers) {
    const Layer& layer = layers_[index];
    for (const Entry& e : layer.entries) {
      CRAC_RETURN_IF_ERROR(links_[layer.link].reader.read(
          section_of(layer.link, layer.section), e.at,
          out.data() + e.offset, static_cast<std::size_t>(e.len)));
    }
  }
  return out;
}

Result<std::uint64_t> ChainMerge::size() {
  if (codec_ != Codec::kStore) {
    // Compressed sizes are known only once the rebuilt chunks are encoded.
    DiscardSink counter;
    CRAC_RETURN_IF_ERROR(write(counter));
    return counter.bytes_written();
  }
  const std::uint64_t frame = frame_header_bytes(framing_);
  std::uint64_t total = sizeof(kMagicV2) + 4 + 4 + 8;
  for (const Resolved& r : sections_) {
    const std::uint64_t chunks = (r.raw_size + chunk_size_ - 1) / chunk_size_;
    total += 4 + 4 + r.name.size() + chunks * frame + r.raw_size + frame;
  }
  return total;
}

Status ChainMerge::write(Sink& out) {
  ByteWriter header;
  header.put_bytes(kMagicV2, sizeof(kMagicV2));
  header.put_u32(needs_v3(codec_) ? 3 : 2);
  header.put_u32(static_cast<std::uint32_t>(codec_));
  header.put_u64(chunk_size_);
  CRAC_RETURN_IF_ERROR(out.write(header.data(), header.size()));
  for (const Resolved& r : sections_) {
    CRAC_RETURN_IF_ERROR(write_section(r, out));
  }
  return out.flush();
}

Status ChainMerge::write_section(const Resolved& r, Sink& out) {
  ByteWriter header;
  header.put_u32(static_cast<std::uint32_t>(r.type));
  header.put_string(r.name);
  CRAC_RETURN_IF_ERROR(out.write(header.data(), header.size()));

  std::vector<LayerCursor> layers;
  layers.reserve(r.layers.size());
  for (std::size_t index : r.layers) layers.emplace_back(*this, layers_[index]);
  std::vector<std::vector<LayerCursor::Piece>> pieces(layers.size());
  // The base chunk's errors belong to the merge of the link that patches
  // it, as they would when that link's merge decoded it.
  const std::size_t base_owner = r.layers.empty() ? r.base_link
                                                  : r.base_link - 1;
  Coverage covered;
  const auto nothing = [](std::uint64_t, std::uint64_t) { return OkStatus(); };
  for (std::uint64_t lo = 0; lo < r.raw_size; lo += chunk_size_) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_size_, r.raw_size - lo));
    const std::uint64_t hi = lo + n;
    covered.clear();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      layers[i].collect(lo, hi, pieces[i]);
      for (const auto& p : pieces[i]) (void)covered.cover(p.a, p.b, nothing);
    }
    if (covered.bytes() == 0) {
      CRAC_RETURN_IF_ERROR(
          annotate(base_owner, copy_or_rebuild(r, lo, n, out)));
      continue;
    }
    // Patched: start from the parent chunk only where the patches leave
    // part of it; then each byte comes from the newest layer patching it,
    // so bytes a newer layer overwrites are never read.
    chunk_.resize(n);
    if (covered.bytes() < n) {
      CRAC_RETURN_IF_ERROR(annotate(
          base_owner, links_[r.base_link].reader.read(
                          section_of(r.base_link, r.base), lo, chunk_.data(),
                          n)));
    }
    covered.clear();
    for (std::size_t i = layers.size(); i-- > 0;) {
      for (const auto& p : pieces[i]) {
        CRAC_RETURN_IF_ERROR(annotate(
            layers[i].link(),
            covered.cover(p.a, p.b, [&](std::uint64_t x, std::uint64_t y) {
              return layers[i].copy(p, x, y, chunk_.data() + (x - lo));
            })));
      }
    }
    CRAC_RETURN_IF_ERROR(encode_and_write(out));
  }
  return write_chunk_terminator(out, framing_);
}

Status ChainMerge::copy_or_rebuild(const Resolved& r, std::uint64_t lo,
                                   std::size_t n, Sink& out) {
  ImageReader& base = links_[r.base_link].reader;
  const SectionInfo& sec = section_of(r.base_link, r.base);
  const std::size_t index = static_cast<std::size_t>(lo / chunk_size_);
  // The stored frame is exactly what encoding these bytes would give when
  // its link chunks and encodes like the output: same codec, same chunk
  // size, a frame on the same boundary holding a chunk of the same codec.
  if (base.version() >= 2 && base.codec() == codec_ &&
      base.chunk_size() == chunk_size_ && index < sec.chunks.size() &&
      sec.chunks[index].raw_offset == lo) {
    ChunkFrame frame;
    CRAC_RETURN_IF_ERROR(base.read_stored(sec, index, frame));
    const Codec stored_codec =
        frame.stored_size == frame.raw_size ? Codec::kStore : codec_;
    if (frame.raw_size == n &&
        frame.codec == static_cast<std::uint32_t>(stored_codec)) {
      packed_.resize(static_cast<std::size_t>(frame.stored_size));
      CRAC_RETURN_IF_ERROR(base.read_stored(sec, index, frame, 0,
                                            packed_.data(), packed_.size()));
      return write_chunk(out, frame, packed_.data(), framing_);
    }
  }
  chunk_.resize(n);
  CRAC_RETURN_IF_ERROR(base.read(sec, lo, chunk_.data(), n));
  return encode_and_write(out);
}

Status ChainMerge::encode_and_write(Sink& out) {
  const ChunkFrame frame = encode_chunk(chunk_, codec_, packed_);
  const bool verbatim = frame.stored_size == frame.raw_size;
  return write_chunk(out, frame, verbatim ? chunk_.data() : packed_.data(),
                     framing_);
}

Status ChainMerge::annotate(std::size_t link, Status s) const {
  const std::string& origin = links_[link].origin;
  if (s.ok() || origin.empty()) return s;
  return Status(s.code(), origin + ": " + s.message());
}

Result<std::vector<std::byte>> materialize_image_chain(
    const std::string& path) {
  std::vector<ChainMerge::Link> chain;
  std::string cur = path;
  for (std::size_t depth = 0;; ++depth) {
    if (depth >= kMaxDeltaChainDepth) {
      return Corrupt("delta chain at '" + cur + "' exceeds " +
                     std::to_string(kMaxDeltaChainDepth) +
                     " images (parent cycle?)");
    }
    CRAC_ASSIGN_OR_RETURN(auto reader, ImageReader::from_file(cur));
    if (!reader.is_delta()) {
      if (chain.empty()) {  // a full image stands for itself, byte for byte
        CRAC_ASSIGN_OR_RETURN(auto file, FileSource::open(path));
        std::vector<std::byte> bytes(static_cast<std::size_t>(file->size()));
        CRAC_RETURN_IF_ERROR(file->read(bytes.data(), bytes.size()));
        return bytes;
      }
      chain.push_back(ChainMerge::Link{std::move(reader), ""});
      break;
    }
    std::string parent = reader.parent_path();
    if (parent.empty()) {
      return Corrupt("delta image '" + cur + "' names no parent path");
    }
    std::string origin =
        "delta image '" + cur + "' (parent '" + parent + "')";
    chain.push_back(ChainMerge::Link{std::move(reader), std::move(origin)});
    cur = std::move(parent);
  }
  // The merge copies patch bytes as stored: CRC-check every delta link
  // first, as decoding it whole would.
  for (ChainMerge::Link& link : chain) {
    if (!link.reader.is_delta()) continue;
    if (Status s = link.reader.verify_unread_sections(); !s.ok()) {
      return Status(s.code(), link.origin + ": " + s.message());
    }
  }
  CRAC_ASSIGN_OR_RETURN(auto merge, ChainMerge::plan(std::move(chain)));
  MemorySink sink;
  CRAC_RETURN_IF_ERROR(merge.write(sink));
  return std::move(sink).take();
}

Result<std::vector<ChainLink>> describe_image_chain(const std::string& path) {
  std::vector<ChainLink> chain;
  std::string cur = path;
  for (std::size_t depth = 0;; ++depth) {
    if (depth >= kMaxDeltaChainDepth) {
      return Corrupt("delta chain at '" + path + "' exceeds " +
                     std::to_string(kMaxDeltaChainDepth) +
                     " images (parent cycle?)");
    }
    CRAC_ASSIGN_OR_RETURN(auto reader, ImageReader::from_file(cur));
    CRAC_RETURN_IF_ERROR(reader.scan_to_end());
    ChainLink link;
    link.path = cur;
    link.delta = reader.is_delta();
    link.parent_id = reader.parent_id();
    auto id = read_image_id(reader);
    if (id.ok()) link.image_id = *id;
    for (const SectionInfo& sec : reader.sections()) {
      if (sec.type == SectionType::kDeltaChunks) ++link.delta_sections;
    }
    if (!chain.empty() && chain.back().parent_id != link.image_id) {
      return Corrupt("delta image '" + chain.back().path +
                     "' expects parent image id '" + chain.back().parent_id +
                     "' but '" + cur + "' holds " +
                     (link.image_id.empty()
                          ? std::string("no image id")
                          : "id '" + link.image_id + "'"));
    }
    const bool is_delta = link.delta;
    const std::string parent_path = reader.parent_path();
    chain.push_back(std::move(link));
    if (!is_delta) return chain;
    if (parent_path.empty()) {
      return Corrupt("delta image '" + cur + "' names no parent path");
    }
    cur = parent_path;
  }
}

}  // namespace crac::ckpt
