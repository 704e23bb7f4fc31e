#include "ckpt/image.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/log.hpp"

namespace crac::ckpt {

namespace {
constexpr char kMagicV2[8] = {'C', 'R', 'A', 'C', 'I', 'M', 'G', '2'};
// Magics of retired layouts — the monolithic v1 image and the striped
// multi-file manifest: recognized only to reject them by name
// (docs/image_format.md, the v1 section and "One layout: no sharded
// images").
constexpr char kMagicV1[8] = {'C', 'R', 'A', 'C', 'I', 'M', 'G', '1'};
constexpr char kMagicSharded[8] = {'C', 'R', 'A', 'C', 'S', 'H', 'R', 'D'};
constexpr std::uint32_t kVersion2 = 2;
constexpr std::uint32_t kVersion3 = 3;
constexpr std::uint32_t kVersion4 = 4;

// Codecs beyond kLz need per-chunk codec ids, which only the v3 chunk-frame
// layout carries; picking the version (and framing) off the codec keeps
// every pre-existing configuration byte-identical on disk.
bool needs_v3(Codec codec) {
  return static_cast<std::uint32_t>(codec) >
         static_cast<std::uint32_t>(Codec::kLz);
}
Status check_name_cap(const char* what, const std::string& name) {
  if (name.size() <= kMaxSectionNameBytes) return OkStatus();
  return InvalidArgument(name_cap_error(what, name.size()));
}
}  // namespace

std::string name_cap_error(const std::string& what, std::uint64_t len) {
  return what + " of " + std::to_string(len) + " bytes exceeds the " +
         std::to_string(kMaxSectionNameBytes) + "-byte cap";
}

Result<ImageHeader> parse_image_header(const std::byte* bytes) {
  if (std::memcmp(bytes, kMagicV1, sizeof(kMagicV1)) == 0) {
    return Corrupt(
        "CRACIMG1 image of the retired monolithic v1 layout: it is no "
        "longer readable; only chunked CRACIMG2 images are supported");
  }
  if (std::memcmp(bytes, kMagicSharded, sizeof(kMagicSharded)) == 0) {
    return Corrupt(
        "CRACSHRD manifest of a sharded multi-file image: that layout is "
        "retired and no longer readable; only single-file CRACIMG2 images "
        "are supported");
  }
  if (std::memcmp(bytes, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Corrupt("bad checkpoint image magic");
  }
  ByteReader r(bytes + sizeof(kMagicV2), kImageHeaderBytes - sizeof(kMagicV2));
  ImageHeader h;
  std::uint32_t codec_raw = 0;
  CRAC_RETURN_IF_ERROR(r.get_u32(h.version));
  CRAC_RETURN_IF_ERROR(r.get_u32(codec_raw));
  CRAC_RETURN_IF_ERROR(r.get_u64(h.chunk_size));
  if (h.version < kVersion2 || h.version > kVersion4) {
    return Corrupt("unsupported image version " + std::to_string(h.version));
  }
  // Route unknown codec ids to a named error here, before any chunk is
  // decoded — a forward-version codec must never reach the decompressor as
  // a misinterpreted id.
  if (!codec_known(codec_raw)) {
    return Corrupt("unknown image codec id " + std::to_string(codec_raw));
  }
  h.codec = static_cast<Codec>(codec_raw);
  // Codecs beyond kLz require per-chunk codec ids, i.e. version-3 framing;
  // a version-2 header claiming one is malformed, not merely new.
  if (h.version == kVersion2 && needs_v3(h.codec)) {
    return Corrupt("image codec id " + std::to_string(codec_raw) +
                   " requires image version 3");
  }
  if (h.chunk_size == 0) return Corrupt("image with zero chunk size");
  // The declared chunk size bounds every per-chunk allocation in the
  // decoders, so it must itself be bounded against hostile headers.
  if (h.chunk_size > kMaxChunkSize) {
    return Corrupt("image chunk size exceeds the " +
                   format_size(kMaxChunkSize) + " limit");
  }
  return h;
}

Status ImageHeader::check_section_type(std::uint32_t type) const {
  if (type == static_cast<std::uint32_t>(SectionType::kDeltaChunks) &&
      !is_delta()) {
    return Corrupt("delta-chunk section in a non-delta (v" +
                   std::to_string(version) + ") image");
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// ImageWriter
// ---------------------------------------------------------------------------

ImageWriter::ImageWriter(Codec codec)
    : own_sink_(std::make_unique<MemorySink>()), sink_(own_sink_.get()) {
  options_.codec = codec;
}

ImageWriter::ImageWriter(Sink* sink, const Options& options)
    : options_(options), sink_(sink) {
  if (options_.chunk_size == 0) options_.chunk_size = kDefaultChunkSize;
  // Readers reject images declaring more than kMaxChunkSize; never write
  // an image that cannot be restored.
  if (options_.chunk_size > kMaxChunkSize) options_.chunk_size = kMaxChunkSize;
}

ImageWriter::~ImageWriter() = default;

std::uint32_t ImageWriter::image_version() const noexcept {
  if (!options_.parent_id.empty()) return kVersion4;
  return needs_v3(options_.codec) ? kVersion3 : kVersion2;
}

Status ImageWriter::write_header() {
  if (header_written_) return OkStatus();
  ByteWriter w;
  w.put_bytes(kMagicV2, sizeof(kMagicV2));
  const std::uint32_t version = image_version();
  w.put_u32(version);
  w.put_u32(static_cast<std::uint32_t>(options_.codec));
  w.put_u64(options_.chunk_size);
  if (version == kVersion4) {
    CRAC_RETURN_IF_ERROR(check_name_cap("parent id", options_.parent_id));
    CRAC_RETURN_IF_ERROR(check_name_cap("parent path", options_.parent_path));
    w.put_string(options_.parent_id);
    w.put_string(options_.parent_path);
  }
  CRAC_RETURN_IF_ERROR(sink_->write(w.data(), w.size()));
  header_written_ = true;
  return OkStatus();
}

Status ImageWriter::begin_section(SectionType type, std::string name) {
  if (!error_.ok()) return error_;
  if (finished_) {
    return (error_ = FailedPrecondition("begin_section after finish"));
  }
  if (in_section_) {
    return (error_ = FailedPrecondition("nested begin_section (section '" +
                                        name + "')"));
  }
  CRAC_RETURN_IF_ERROR((error_ = check_name_cap("section name", name)));
  CRAC_RETURN_IF_ERROR((error_ = write_header()));
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(type));
  w.put_string(name);
  CRAC_RETURN_IF_ERROR((error_ = sink_->write(w.data(), w.size())));
  if (pipeline_ == nullptr) {
    pipeline_ = std::make_unique<ChunkPipeline>(
        sink_, options_.codec, options_.chunk_size, options_.pool,
        image_version() >= kVersion3 ? ChunkFraming::kV3 : ChunkFraming::kV2);
  }
  in_section_ = true;
  return OkStatus();
}

Status ImageWriter::append(const void* data, std::size_t size) {
  if (!error_.ok()) return error_;
  if (!in_section_) {
    return (error_ = FailedPrecondition("append outside a section"));
  }
  error_ = pipeline_->append(data, size);
  return error_;
}

Status ImageWriter::append_with(std::uint64_t size, const Fill& fill) {
  if (!error_.ok()) return error_;
  if (!in_section_) {
    return (error_ = FailedPrecondition("append outside a section"));
  }
  error_ = pipeline_->append_with(size, fill);
  return error_;
}

Status ImageWriter::end_section() {
  if (!error_.ok()) return error_;
  if (!in_section_) {
    return (error_ = FailedPrecondition("end_section without begin_section"));
  }
  in_section_ = false;
  error_ = pipeline_->end_section();
  if (error_.ok()) ++section_count_;
  return error_;
}

Status ImageWriter::finish() {
  if (!error_.ok()) return error_;
  if (finished_) return OkStatus();
  if (in_section_) {
    return (error_ = FailedPrecondition("finish with a section still open"));
  }
  // An image with zero sections is still an image: emit the header.
  CRAC_RETURN_IF_ERROR((error_ = write_header()));
  finished_ = true;
  error_ = sink_->flush();
  return error_;
}

void ImageWriter::add_section(SectionType type, std::string name,
                              std::vector<std::byte> payload) {
  // v1-era producers treat section addition as infallible; the first
  // failure is latched and surfaced by finish()/write_file()/status().
  if (!begin_section(type, std::move(name)).ok()) return;
  if (!append(payload.data(), payload.size()).ok()) return;
  (void)end_section();
}

std::vector<std::byte> ImageWriter::serialize() {
  CRAC_CHECK(own_sink_ != nullptr);  // buffered mode only
  CRAC_CHECK(!consumed_);            // serialize()/write_file() are one-shot
  if (!finish().ok()) {
    CRAC_WARN() << "image serialize failed: " << error_.to_string();
    return {};
  }
  // Moving out avoids a second image-sized buffer; the writer is finished
  // at this point, so the sink's storage has no further use.
  consumed_ = true;
  return std::move(*own_sink_).take();
}

Status ImageWriter::write_file(const std::string& path) {
  CRAC_CHECK(own_sink_ != nullptr);  // buffered mode only
  if (consumed_) {
    return FailedPrecondition("image buffer already consumed by serialize()");
  }
  CRAC_RETURN_IF_ERROR(finish());
  auto file = FileSink::open(path);
  if (!file.ok()) return file.status();  // buffer intact: retryable
  consumed_ = true;
  CRAC_RETURN_IF_ERROR(
      (*file)->write(own_sink_->bytes().data(), own_sink_->bytes().size()));
  return (*file)->close();
}

// ---------------------------------------------------------------------------
// SectionStream
// ---------------------------------------------------------------------------

Status SectionStream::refill() {
  if (!error_.ok()) return error_;
  if (reader_ != nullptr && reader_->stream_epoch() != epoch_) {
    return (error_ = FailedPrecondition(
                "checkpoint section '" + name_ +
                "' stream invalidated by a later read on the same image"));
  }
  bool end = false;
  // The consumed chunk's capacity rides back into the unpipeline's buffer
  // pool (refill only runs once chunk_ is exhausted): one vector
  // round-trips, so steady-state decode allocates nothing per chunk — the
  // buffer_allocs() property restore_test pins.
  std::vector<std::byte> next = std::move(chunk_);
  Status s = unpipe_->next(next, end);
  if (reader_ != nullptr) {
    reader_->note_stream_peak(unpipe_->buffered_peak_bytes());
  }
  if (!s.ok()) {
    return (error_ = Status(s.code(), "checkpoint section '" + name_ + "' " +
                                          s.message()));
  }
  if (end) {
    if (!size_known_) {
      // Deferred section drained to its terminator: the payload turned out
      // to be exactly what was delivered. Report back so the directory
      // finalizes the entry and the scan resumes past this section.
      raw_size_ = delivered_;
      size_known_ = true;
      if (reader_ != nullptr) {
        reader_->note_section_end(section_index_, delivered_);
      }
      chunk_.clear();
      chunk_pos_ = 0;
      return OkStatus();  // with an empty chunk_: callers treat as EOF
    }
    return (error_ = Corrupt("checkpoint section '" + name_ +
                             "' shorter than declared"));
  }
  chunk_ = std::move(next);
  chunk_pos_ = 0;
  return OkStatus();
}

void SectionStream::note_progress() {
  // Full delivery of the declared payload means every chunk decoded and
  // CRC-verified — only then may the verify backstop skip this section.
  // Unknown-size sections report via note_section_end() at their
  // terminator instead (raw_size_ is not meaningful before then).
  if (size_known_ && delivered_ == raw_size_ && reader_ != nullptr) {
    reader_->note_section_fully_read(section_index_);
  }
}

Status SectionStream::pull(std::uint64_t n, const Consume& consume,
                           const char* verb) {
  if (!error_.ok()) return error_;
  const auto past_end = [&] {
    return (error_ = Corrupt("checkpoint section '" + name_ + "' " + verb +
                             " past end of payload"));
  };
  if (n > remaining()) return past_end();
  std::uint64_t done = 0;
  while (done < n) {
    if (chunk_pos_ == chunk_.size()) {
      CRAC_RETURN_IF_ERROR(refill());
      // Only reachable in unknown-size mode: the terminator resolved
      // mid-pull, so the caller asked for more than the section holds.
      if (chunk_.empty()) return past_end();
    }
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n - done, chunk_.size() - chunk_pos_));
    if (consume) {
      CRAC_RETURN_IF_ERROR(
          (error_ = consume(chunk_.data() + chunk_pos_, take, done)));
    }
    chunk_pos_ += take;
    delivered_ += take;
    done += take;
  }
  note_progress();
  return OkStatus();
}

Status SectionStream::read_with(std::uint64_t n, const Consume& consume) {
  return pull(n, consume, "read");
}

Status SectionStream::read(void* out, std::size_t n) {
  auto* dst = static_cast<std::byte*>(out);
  return pull(n,
              [dst](const std::byte* src, std::size_t len,
                    std::uint64_t offset) {
                std::memcpy(dst + offset, src, len);
                return OkStatus();
              },
              "read");
}

Result<std::size_t> SectionStream::read_some(void* out, std::size_t n) {
  if (!error_.ok()) return error_;
  if (n == 0 || remaining() == 0) return std::size_t{0};
  if (chunk_pos_ == chunk_.size()) {
    CRAC_RETURN_IF_ERROR(refill());
    if (chunk_.empty()) return std::size_t{0};  // unknown-size end resolved
  }
  // Deliver from the current chunk only — a short count at a chunk
  // boundary, never 0 before end of section.
  const std::size_t take = std::min(n, chunk_.size() - chunk_pos_);
  std::memcpy(out, chunk_.data() + chunk_pos_, take);
  chunk_pos_ += take;
  delivered_ += take;
  note_progress();
  return take;
}

Status SectionStream::skip(std::uint64_t n) {
  // Chunks still decode (and CRC-verify) on the way past; a skip is a read
  // without the copy, not an integrity exemption.
  return pull(n, nullptr, "skip");
}

Status SectionStream::get_u8(std::uint8_t& out) {
  return read(&out, sizeof(out));
}
Status SectionStream::get_u32(std::uint32_t& out) {
  return read(&out, sizeof(out));
}
Status SectionStream::get_u64(std::uint64_t& out) {
  return read(&out, sizeof(out));
}

Status SectionStream::get_string(std::string& out) {
  std::uint32_t len = 0;
  CRAC_RETURN_IF_ERROR(get_u32(len));
  if (len > remaining()) {
    return (error_ = Corrupt("checkpoint section '" + name_ +
                             "' truncated string"));
  }
  // A section still filling off a live shipment reports remaining() near
  // 2^64, so the length alone must not size the buffer: it grows a bounded
  // piece at a time, only as the string's bytes actually arrive.
  constexpr std::size_t kPiece = 64 << 10;
  out.clear();
  while (out.size() < len) {
    const std::size_t at = out.size();
    out.resize(at + std::min<std::size_t>(kPiece, len - at));
    CRAC_RETURN_IF_ERROR(read(out.data() + at, out.size() - at));
  }
  return OkStatus();
}

std::uint64_t SectionStream::buffered_peak_bytes() const noexcept {
  return unpipe_->buffered_peak_bytes();
}

std::uint64_t SectionStream::buffer_allocs() const noexcept {
  return unpipe_->buffer_allocs();
}

// ---------------------------------------------------------------------------
// ImageReader
// ---------------------------------------------------------------------------

namespace {

Status read_u32(Source& s, std::uint32_t& v) { return s.read(&v, sizeof(v)); }

// Reads a section name or v4 parent string. remaining() bounds the claim
// for a complete source; the cap is what bounds it while a live shipment's
// size is still unknown.
Status read_capped_string(Source& s, const char* what, std::string& out) {
  std::uint32_t len = 0;
  CRAC_RETURN_IF_ERROR(read_u32(s, len));
  if (len > kMaxSectionNameBytes) return Corrupt(name_cap_error(what, len));
  if (len > s.remaining()) return Corrupt(std::string("truncated ") + what);
  out.resize(len);
  return s.read(out.data(), len);
}

}  // namespace

Status ImageReader::walk_section_chunks(SectionInfo& sec) {
  // Walk the chunk frames, skipping stored payload bytes: the scan costs
  // ~24 directory bytes per chunk no matter how large the image is. Every
  // header precedes the payload it describes, so on a live shipment these
  // reads block only until this section's bytes have landed — never on
  // later sections.
  sec.chunks.clear();
  std::uint64_t raw_offset = 0;
  for (;;) {
    const std::uint64_t frame_at = source_->position();
    ChunkFrame frame;
    CRAC_RETURN_IF_ERROR(
        read_chunk_frame(*source_, frame, header_.framing(), header_.codec));
    if (frame.raw_size == 0 && frame.stored_size == 0) break;
    if (frame.raw_size > header_.chunk_size) {
      return Corrupt("checkpoint section '" + sec.name +
                     "' chunk exceeds declared chunk size");
    }
    if (frame.stored_size > frame.raw_size) {
      return Corrupt("checkpoint section '" + sec.name +
                     "' chunk stored size exceeds raw size");
    }
    // A compressed chunk (stored < raw) cannot decode to more than the
    // codec's maximum expansion of its actual stored bytes; rejecting the
    // claim here keeps every later raw_size-derived allocation
    // proportional to bytes the file really contains. (kZeroRunLz is
    // unbounded; its chunks rely on the raw_size <= chunk_size gate above.)
    if (frame.stored_size != frame.raw_size &&
        frame.raw_size >
            max_decoded_size(static_cast<Codec>(frame.codec),
                             static_cast<std::size_t>(frame.stored_size))) {
      return Corrupt("checkpoint section '" + sec.name +
                     "' chunk declares implausible decompressed size");
    }
    sec.chunks.push_back(SectionInfo::ChunkRef{frame_at, raw_offset});
    raw_offset += frame.raw_size;
    CRAC_RETURN_IF_ERROR(source_->skip(frame.stored_size));
  }
  sec.raw_size = raw_offset;
  sec.size_known = true;
  return OkStatus();
}

Status ImageReader::resolve_deferred() {
  if (!deferred_) return OkStatus();
  deferred_ = false;
  SectionInfo& sec = sections_.back();
  // A stream may have drained the section already (note_section_end);
  // the scan cursor then already sits past it.
  if (sec.size_known) return OkStatus();
  // Nobody read it (or a reader abandoned it part-way): walk its frames to
  // find the end. The spool retains received bytes, so this is a cheap
  // index rebuild over data that has already landed (blocking only for
  // whatever tail is still in flight).
  ++stream_epoch_;  // the walk moves the cursor: a live stream must yield
  CRAC_RETURN_IF_ERROR(source_->seek(sec.payload_offset));
  CRAC_RETURN_IF_ERROR(walk_section_chunks(sec));
  scan_pos_ = source_->position();
  return OkStatus();
}

void ImageReader::note_section_end(std::size_t index,
                                   std::uint64_t raw_size) noexcept {
  if (index >= sections_.size()) return;
  SectionInfo& sec = sections_[index];
  sec.raw_size = raw_size;
  sec.size_known = true;
  note_section_fully_read(index);
  // The stream's cursor sits just past the section terminator — exactly
  // where the next section header starts.
  scan_pos_ = source_->position();
  if (index + 1 == sections_.size()) deferred_ = false;
}

Status ImageReader::scan_one_v2() {
  // A header-only trailing section must be settled before the scan can
  // look past it.
  CRAC_RETURN_IF_ERROR(resolve_deferred());
  // The scan resumes at its own cursor — payload reads in between are free
  // to move the source around.
  CRAC_RETURN_IF_ERROR(source_->seek(scan_pos_));
  CRAC_ASSIGN_OR_RETURN(bool end, source_->at_end(scan_pos_));
  if (end) {
    scanned_all_ = true;
    return OkStatus();
  }
  ++stream_epoch_;  // the scan moves the cursor: live streams yield

  SectionInfo sec;
  std::uint32_t type_raw = 0;
  CRAC_RETURN_IF_ERROR(read_u32(*source_, type_raw));
  CRAC_RETURN_IF_ERROR(header_.check_section_type(type_raw));
  CRAC_RETURN_IF_ERROR(read_capped_string(*source_, "section name", sec.name));
  sec.type = static_cast<SectionType>(type_raw);
  sec.payload_offset = source_->position();

  if (!source_->end_known()) {
    // The source is still filling: publish the section on its header alone
    // so a consumer can open it and decode chunks behind the receive
    // frontier (chunk-granular overlap). Size and chunk index resolve when
    // a stream drains it or the next extension walks past it.
    sec.size_known = false;
    sections_.push_back(std::move(sec));
    consumed_.push_back(0);
    deferred_ = true;
    return OkStatus();
  }

  CRAC_RETURN_IF_ERROR(walk_section_chunks(sec));
  scan_pos_ = source_->position();
  sections_.push_back(std::move(sec));
  consumed_.push_back(0);
  return OkStatus();
}

namespace {

// A failed scan must name the image it rejected; Source-level errors
// already do, directory-level ones (bad magic, truncated field) get the
// origin prefixed here.
Status annotate_with_origin(Status s, const std::string& origin) {
  if (s.ok() || s.message().find(origin) != std::string::npos) return s;
  return Status(s.code(), origin + ": " + s.message());
}

}  // namespace

Status ImageReader::extend_directory() {
  CRAC_RETURN_IF_ERROR(scan_error_);
  Status s = scan_one_v2();
  if (!s.ok()) {
    scan_error_ = annotate_with_origin(std::move(s), source_->describe());
    return scan_error_;
  }
  return OkStatus();
}

Status ImageReader::scan_to_end() {
  CRAC_RETURN_IF_ERROR(scan_error_);
  while (!scanned_all_) CRAC_RETURN_IF_ERROR(extend_directory());
  return OkStatus();
}

Status ImageReader::scan() {
  std::byte header[kImageHeaderBytes];
  CRAC_RETURN_IF_ERROR(source_->read(header, sizeof(header)));
  CRAC_ASSIGN_OR_RETURN(header_, parse_image_header(header));
  if (header_.is_delta()) {
    // Delta headers name their parent (real ids are 16 hex chars, paths a
    // few hundred bytes).
    CRAC_RETURN_IF_ERROR(
        read_capped_string(*source_, "parent id", parent_id_));
    CRAC_RETURN_IF_ERROR(
        read_capped_string(*source_, "parent path", parent_path_));
    if (parent_id_.empty()) {
      return Corrupt("delta image header missing its parent image id");
    }
  }
  scan_pos_ = source_->position();
  if (!source_->end_known()) {
    // Restore-while-receiving: the source is still filling. Defer the
    // directory to find()/section_at()/scan_to_end(), which extend it one
    // section at a time as the stream lands.
    return OkStatus();
  }
  while (!scanned_all_) CRAC_RETURN_IF_ERROR(scan_one_v2());
  return OkStatus();
}

Result<ImageReader> ImageReader::open(std::unique_ptr<Source> source,
                                      const Options& options) {
  ImageReader reader;
  reader.source_ = std::move(source);
  reader.pool_ = options.pool;
  Status s = reader.scan();
  if (!s.ok()) {
    return annotate_with_origin(std::move(s), reader.source_->describe());
  }
  return reader;
}

Result<ImageReader> ImageReader::from_bytes(std::vector<std::byte> bytes,
                                            const Options& options) {
  return open(std::make_unique<MemorySource>(std::move(bytes)), options);
}

Result<ImageReader> ImageReader::from_file(const std::string& path,
                                           const Options& options) {
  auto source = FileSource::open(path);
  if (!source.ok()) return source.status();
  return open(std::move(*source), options);
}

const SectionInfo* ImageReader::find(SectionType type,
                                     const std::string& name) {
  std::size_t i = 0;
  for (;;) {
    for (; i < sections_.size(); ++i) {
      const SectionInfo& s = sections_[i];
      if (s.type == type && (name.empty() || s.name == name)) return &s;
    }
    if (scanned_all_ || !extend_directory().ok()) return nullptr;
  }
}

Result<const SectionInfo*> ImageReader::section_at(std::size_t index) {
  while (index >= sections_.size()) {
    if (scanned_all_) return static_cast<const SectionInfo*>(nullptr);
    CRAC_RETURN_IF_ERROR(extend_directory());
  }
  return &sections_[index];
}

std::size_t ImageReader::index_of(const SectionInfo& section) const {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (&sections_[i] == &section) return i;
  }
  CRAC_CHECK(false);  // section must belong to this reader
  return sections_.size();
}

Result<SectionStream> ImageReader::open_section(const SectionInfo& section) {
  const std::size_t index = index_of(section);
  SectionStream stream(this, index, section.name, section.raw_size);
  stream.size_known_ = section.size_known;
  stream.epoch_ = ++stream_epoch_;  // takes the cursor; invalidates priors
  // A stream marks its section consumed only once it has delivered the
  // whole payload (partial reads leave an unverified tail); an empty
  // section is trivially fully read. (Unknown-size sections resolve at
  // their terminator instead.)
  if (section.size_known && section.raw_size == 0) {
    note_section_fully_read(index);
  }
  CRAC_RETURN_IF_ERROR(source_->seek(section.payload_offset));
  stream.unpipe_ = std::make_unique<ChunkUnpipeline>(
      source_.get(), header_.codec, header_.chunk_size, pool_,
      header_.framing());
  return stream;
}

Status ImageReader::read(const SectionInfo& section, std::uint64_t offset,
                         void* out, std::size_t len) {
  if (!section.size_known) {
    // Random access needs the chunk index; settle the trailing deferred
    // section first (blocks until its bytes have landed).
    CRAC_RETURN_IF_ERROR(resolve_deferred());
  }
  if (offset + len > section.raw_size || offset + len < offset) {
    return InvalidArgument("slice [" + std::to_string(offset) + ", " +
                           std::to_string(offset + len) +
                           ") outside checkpoint section '" + section.name +
                           "' (" + std::to_string(section.raw_size) +
                           " bytes)");
  }
  if (len == 0) return OkStatus();
  ++stream_epoch_;  // random access moves the cursor: live streams yield
  if (section.chunks.empty()) {
    // A section finalized by its own stream (note_section_end) skipped the
    // directory walk; rebuild its chunk index from the retained bytes.
    SectionInfo& mut = sections_[index_of(section)];
    CRAC_RETURN_IF_ERROR(source_->seek(mut.payload_offset));
    CRAC_RETURN_IF_ERROR(walk_section_chunks(mut));
  }

  // Locate the chunk containing `offset`, then decode exactly the chunks
  // the slice overlaps, inline (random access is for small structured
  // reads; bulk restore goes through open_section()).
  auto it = std::upper_bound(
      section.chunks.begin(), section.chunks.end(), offset,
      [](std::uint64_t off, const SectionInfo::ChunkRef& c) {
        return off < c.raw_offset;
      });
  std::size_t index = static_cast<std::size_t>(it - section.chunks.begin());
  CRAC_CHECK(index > 0);  // chunks[0].raw_offset == 0 covers any offset
  --index;

  auto* p = static_cast<std::byte*>(out);
  while (len > 0) {
    CRAC_RETURN_IF_ERROR(source_->seek(section.chunks[index].file_offset));
    ChunkFrame frame;
    CRAC_RETURN_IF_ERROR(
        read_chunk_frame(*source_, frame, header_.framing(), header_.codec));
    std::vector<std::byte> stored(static_cast<std::size_t>(frame.stored_size));
    CRAC_RETURN_IF_ERROR(source_->read(stored.data(), stored.size()));
    DecodedChunk chunk = decode_chunk(frame, std::move(stored));
    if (!chunk.status.ok()) {
      return Status(chunk.status.code(),
                    "checkpoint section '" + section.name + "' chunk #" +
                        std::to_string(index) + ": " + chunk.status.message());
    }
    const auto within = static_cast<std::size_t>(
        offset - section.chunks[index].raw_offset);
    const std::size_t take = std::min(len, chunk.raw.size() - within);
    std::memcpy(p, chunk.raw.data() + within, take);
    p += take;
    offset += take;
    len -= take;
    ++index;
  }
  return OkStatus();
}

Status ImageReader::read_stored(const SectionInfo& section, std::size_t index,
                                ChunkFrame& frame, std::uint64_t offset,
                                void* out, std::size_t len) {
  if (!section.size_known) CRAC_RETURN_IF_ERROR(resolve_deferred());
  ++stream_epoch_;  // moves the cursor: live streams yield
  if (section.chunks.empty() && section.raw_size > 0) {
    // Finalized by its own stream: rebuild the chunk index, as read() does.
    SectionInfo& mut = sections_[index_of(section)];
    CRAC_RETURN_IF_ERROR(source_->seek(mut.payload_offset));
    CRAC_RETURN_IF_ERROR(walk_section_chunks(mut));
  }
  if (index >= section.chunks.size()) {
    return InvalidArgument("chunk #" + std::to_string(index) +
                           " outside checkpoint section '" + section.name +
                           "' (" + std::to_string(section.chunks.size()) +
                           " chunks)");
  }
  CRAC_RETURN_IF_ERROR(source_->seek(section.chunks[index].file_offset));
  CRAC_RETURN_IF_ERROR(
      read_chunk_frame(*source_, frame, header_.framing(), header_.codec));
  if (len == 0) return OkStatus();
  if (offset > frame.stored_size || len > frame.stored_size - offset) {
    return InvalidArgument("stored range outside chunk #" +
                           std::to_string(index) + " of checkpoint section '" +
                           section.name + "'");
  }
  CRAC_RETURN_IF_ERROR(source_->skip(offset));
  return source_->read(out, len);
}

Result<std::vector<std::byte>> ImageReader::read_section(
    const SectionInfo& section) {
  CRAC_ASSIGN_OR_RETURN(auto stream, open_section(section));
  if (section.size_known) {
    std::vector<std::byte> out(static_cast<std::size_t>(section.raw_size));
    CRAC_RETURN_IF_ERROR(stream.read(out.data(), out.size()));
    return out;
  }
  // Unknown-size (deferred) section: pull chunks until the terminator
  // resolves the size — each chunk decodes as soon as its bytes land.
  std::vector<std::byte> out;
  std::vector<std::byte> buf(header_.chunk_size);
  for (;;) {
    CRAC_ASSIGN_OR_RETURN(std::size_t got,
                          stream.read_some(buf.data(), buf.size()));
    if (got == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + got);
  }
  return out;
}

Status ImageReader::verify_unread_sections() {
  // Completing the directory first makes this the stream-integrity gate for
  // live shipments too: reaching the end of the scan means the transport
  // trailer (byte count + whole-stream CRC) verified.
  CRAC_RETURN_IF_ERROR(scan_to_end());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (i < consumed_.size() && consumed_[i]) continue;
    CRAC_ASSIGN_OR_RETURN(auto stream, open_section(sections_[i]));
    CRAC_RETURN_IF_ERROR(stream.skip(sections_[i].raw_size));
  }
  return OkStatus();
}

}  // namespace crac::ckpt
