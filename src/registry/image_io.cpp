#include "registry/image_io.hpp"

#include <algorithm>
#include <cstring>

#include "common/bytes.hpp"
#include "ckpt/delta.hpp"
#include "ckpt/image.hpp"

namespace crac::registry {

namespace {

std::uint32_t get_u32_at(const std::vector<std::byte>& b, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + off, 4);
  return v;  // ByteWriter is little-endian; so is every producer here
}

}  // namespace

StoredImage::~StoredImage() {
  for (const auto& seg : segments_) {
    if (seg.chunk) store_->release(seg.key());
  }
}

RegistrySink::RegistrySink(std::string name, std::shared_ptr<ChunkStore> store)
    : name_(std::move(name)), store_(std::move(store)) {
  image_ = std::shared_ptr<StoredImage>(new StoredImage());
  image_->name_ = name_;
  image_->store_ = store_;
  need_ = ckpt::kImageHeaderBytes;
}

RegistrySink::~RegistrySink() = default;  // image_ releases refs if uncommitted

void RegistrySink::append_literal(const std::byte* data, std::size_t size) {
  if (size == 0) return;
  auto& segs = image_->segments_;
  auto& lits = image_->literals_;
  // Extend the open literal segment when this byte range is contiguous
  // with it; otherwise start a new one.
  if (!segs.empty() && !segs.back().chunk &&
      segs.back().logical_offset + segs.back().size == consumed_) {
    segs.back().size += size;
  } else {
    StoredImage::Segment seg;
    seg.logical_offset = consumed_;
    seg.size = size;
    seg.lit_offset = lits.size();
    segs.push_back(seg);
  }
  lits.insert(lits.end(), data, data + size);
  consumed_ += size;
}

Status RegistrySink::admit_chunk() {
  // Decode-verify before admission: the store's key promises "these stored
  // bytes decode to raw_size bytes with this CRC", and a registry that
  // interned an unverified frame would serve the corruption to every future
  // receiver. The decode costs one pass per chunk at PUT time and makes
  // GET-side trust free. The frame decodes where it landed: a verbatim
  // chunk is its own raw form, a compressed one decodes into raw_, and
  // both buffers come back for the next chunk.
  const bool verbatim = frame_.stored_size == frame_.raw_size;
  ckpt::DecodedChunk decoded =
      ckpt::decode_chunk(frame_, std::move(buf_), std::move(raw_));
  buf_ = std::move(verbatim ? decoded.raw : decoded.spare);
  raw_ = std::move(verbatim ? decoded.spare : decoded.raw);
  CRAC_RETURN_IF_ERROR(decoded.status);
  const std::vector<std::byte>& raw = verbatim ? buf_ : raw_;
  if (raw.size() != frame_.raw_size) {
    return Corrupt("chunk decoded to " + std::to_string(raw.size()) +
                   " bytes, frame declared " +
                   std::to_string(frame_.raw_size));
  }
  // The image's identity rides inside it as the "image-id" metadata
  // section; capture its raw bytes so the registry can resolve delta
  // parent edges by id without re-parsing stored images.
  if (cur_section_type_ ==
          static_cast<std::uint32_t>(ckpt::SectionType::kMetadata) &&
      cur_section_name_ == ckpt::kSectionImageId) {
    image_->image_id_.append(reinterpret_cast<const char*>(raw.data()),
                             raw.size());
  }
  StoredImage::Segment seg;
  seg.size = ckpt::frame_header_bytes(header_.framing()) + frame_.stored_size;
  seg.logical_offset = consumed_ - seg.size;  // header already consumed
  seg.chunk = true;
  seg.frame = frame_;
  CRAC_RETURN_IF_ERROR(store_->put(seg.key(), buf_.data(), buf_.size()));
  image_->segments_.push_back(seg);
  ++image_->chunk_count_;
  image_->raw_bytes_ += frame_.raw_size;
  return OkStatus();
}

Status RegistrySink::do_write(const void* data, std::size_t size) {
  if (state_ == State::kFailed) return OkStatus();  // draining (see header)
  const auto* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < size && state_ != State::kFailed) {
    const std::size_t take = std::min(size - off, need_ - buf_.size());
    buf_.insert(buf_.end(), p + off, p + off + take);
    off += take;
    if (buf_.size() < need_) break;
    if (Status s = consume(); !s.ok()) {
      error_ = s;
      state_ = State::kFailed;
      buf_.clear();
      // Keep accepting bytes so the transport pump drains the stream and
      // the connection stays framed; close() reports this error.
    }
  }
  return OkStatus();
}

Status RegistrySink::consume() {
  switch (state_) {
    case State::kFileHeader: {
      CRAC_ASSIGN_OR_RETURN(header_, ckpt::parse_image_header(buf_.data()));
      image_->framing_ = header_.framing();
      append_literal(buf_.data(), buf_.size());
      buf_.clear();
      if (header_.is_delta()) {
        state_ = State::kParentHeader;
        stage_ = 0;
        need_ = 4;
      } else {
        state_ = State::kSectionHeader;
        stage_ = 0;
        need_ = 8;
      }
      return OkStatus();
    }
    case State::kParentHeader: {
      // Two [u32 len][bytes] strings (parent_id, parent_path), each arriving
      // as a length stage then a payload stage.
      if (stage_ % 2 == 0) {
        const std::uint32_t len = get_u32_at(buf_, buf_.size() - 4);
        if (len > ckpt::kMaxSectionNameBytes) {
          return Corrupt(ckpt::name_cap_error("parent string", len));
        }
        if (len > 0) {
          ++stage_;
          need_ = buf_.size() + len;
          return OkStatus();
        }
        stage_ += 2;  // empty string: no payload stage
      } else {
        ++stage_;
      }
      if (stage_ >= 4) {
        // buf_ holds the complete [string parent_id][string parent_path]
        // pair; capture both so the registry can record the chain edge.
        ByteReader parent(buf_.data(), buf_.size());
        CRAC_RETURN_IF_ERROR(parent.get_string(image_->parent_id_));
        CRAC_RETURN_IF_ERROR(parent.get_string(image_->parent_path_));
        if (image_->parent_id_.empty()) {
          return Corrupt("v4 delta image with an empty parent id");
        }
        append_literal(buf_.data(), buf_.size());
        buf_.clear();
        state_ = State::kSectionHeader;
        stage_ = 0;
        need_ = 8;
      } else {
        need_ = buf_.size() + 4;  // next string's length field
      }
      return OkStatus();
    }
    case State::kSectionHeader: {
      if (stage_ == 0) {
        const std::uint32_t name_len = get_u32_at(buf_, 4);
        if (name_len > ckpt::kMaxSectionNameBytes) {
          return Corrupt(ckpt::name_cap_error("section name", name_len));
        }
        if (name_len > 0) {
          stage_ = 1;
          need_ = buf_.size() + name_len;
          return OkStatus();
        }
      }
      cur_section_type_ = get_u32_at(buf_, 0);
      CRAC_RETURN_IF_ERROR(header_.check_section_type(cur_section_type_));
      cur_section_name_.assign(reinterpret_cast<const char*>(buf_.data()) + 8,
                               buf_.size() - 8);
      append_literal(buf_.data(), buf_.size());
      buf_.clear();
      state_ = State::kChunkHeader;
      stage_ = 0;
      need_ = ckpt::frame_header_bytes(header_.framing());
      return OkStatus();
    }
    case State::kChunkHeader: {
      ByteReader reader(buf_.data(), buf_.size());
      CRAC_RETURN_IF_ERROR(ckpt::read_chunk_frame(
          reader, frame_, header_.framing(), header_.codec));
      if (frame_.raw_size == 0 && frame_.stored_size == 0) {
        // Section terminator: literal bytes, back to the section boundary.
        append_literal(buf_.data(), buf_.size());
        buf_.clear();
        state_ = State::kSectionHeader;
        stage_ = 0;
        need_ = 8;
        return OkStatus();
      }
      if (frame_.raw_size > header_.chunk_size ||
          frame_.stored_size > frame_.raw_size || frame_.stored_size == 0) {
        return Corrupt("hostile chunk frame (raw " +
                       std::to_string(frame_.raw_size) + ", stored " +
                       std::to_string(frame_.stored_size) +
                       ", image chunk size " +
                       std::to_string(header_.chunk_size) +
                       ")");
      }
      consumed_ += buf_.size();  // header bytes belong to the chunk segment
      buf_.clear();
      state_ = State::kChunkPayload;
      need_ = frame_.stored_size;
      return OkStatus();
    }
    case State::kChunkPayload: {
      consumed_ += buf_.size();
      CRAC_RETURN_IF_ERROR(admit_chunk());
      buf_.clear();
      state_ = State::kChunkHeader;
      need_ = ckpt::frame_header_bytes(header_.framing());
      return OkStatus();
    }
    case State::kFailed:
      return OkStatus();
  }
  return Internal("unreachable registry sink state");
}

Status RegistrySink::close() {
  if (closed_) return error_;
  closed_ = true;
  if (error_.ok()) {
    if (state_ == State::kFileHeader && consumed_ == 0 && buf_.empty()) {
      error_ = Corrupt("empty image stream");
    } else if (state_ != State::kSectionHeader || stage_ != 0 ||
               !buf_.empty()) {
      error_ = Corrupt("image stream truncated mid-" +
                       std::string(state_ == State::kChunkPayload
                                       ? "chunk"
                                       : "header"));
    }
  }
  if (!error_.ok()) {
    image_.reset();  // releases every interned reference
    return error_;
  }
  image_->image_bytes_ = consumed_;
  return OkStatus();
}

std::shared_ptr<StoredImage> RegistrySink::take_image() {
  if (!closed_ || !error_.ok()) return nullptr;
  return std::move(image_);
}

Status RegistrySource::read(void* out, std::size_t size) {
  if (pos_ > image_->image_bytes() ||
      size > image_->image_bytes() - pos_) {
    return Corrupt(describe() + ": read past end of image");
  }
  if (payloads_.empty()) CRAC_RETURN_IF_ERROR(verify());
  auto* dst = static_cast<std::byte*>(out);
  const auto& segs = image_->segments();
  // Find the segment containing pos_: first segment starting after it,
  // minus one.
  auto it = std::upper_bound(
      segs.begin(), segs.end(), pos_,
      [](std::uint64_t pos, const StoredImage::Segment& seg) {
        return pos < seg.logical_offset;
      });
  if (it != segs.begin()) --it;
  std::size_t done = 0;
  while (done < size) {
    if (it == segs.end()) {
      return Internal(describe() + ": segment map hole at offset " +
                      std::to_string(pos_));
    }
    const auto& seg = *it;
    const std::uint64_t seg_pos = pos_ - seg.logical_offset;
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        size - done, seg.size - seg_pos));
    if (!seg.chunk) {
      std::memcpy(dst + done,
                  image_->literals().data() + seg.lit_offset + seg_pos, n);
    } else {
      // Regenerate the frame header from the stored key fields (they ARE
      // the header), then pread payload bytes out of the slab generation
      // verify() pinned.
      const std::size_t header_bytes =
          ckpt::frame_header_bytes(image_->framing());
      ByteWriter header;
      header.put_u64(seg.frame.raw_size);
      header.put_u64(seg.frame.stored_size);
      if (image_->framing() == ckpt::ChunkFraming::kV3) {
        header.put_u32(seg.frame.codec);
      }
      header.put_u32(seg.frame.crc);
      std::size_t copied = 0;
      if (seg_pos < header_bytes) {
        copied = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, header_bytes - seg_pos));
        std::memcpy(dst + done, header.data() + seg_pos, copied);
      }
      if (copied < n) {
        CRAC_RETURN_IF_ERROR(payloads_[it - segs.begin()].read(
            seg_pos + copied - header_bytes, dst + done + copied, n - copied));
      }
    }
    done += n;
    pos_ += n;
    if (seg_pos + n == seg.size) ++it;  // segment drained; else pos_ stays
                                        // inside it for the next pass
  }
  return OkStatus();
}

Status RegistrySource::verify() {
  const auto& segs = image_->segments();
  std::vector<ChunkStore::Payload> payloads(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (!segs[i].chunk) continue;
    CRAC_ASSIGN_OR_RETURN(payloads[i], image_->store().payload(segs[i].key()));
  }
  payloads_ = std::move(payloads);
  return OkStatus();
}

Status RegistrySource::seek(std::uint64_t offset) {
  if (offset > image_->image_bytes()) {
    return Corrupt(describe() + ": seek past end of image");
  }
  pos_ = offset;
  return OkStatus();
}

}  // namespace crac::registry
