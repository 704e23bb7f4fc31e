// Registry image ingest and serve: CRACIMG2 decomposed into shared chunks.
//
// RegistrySink is a ckpt::Sink that parses the image *as it streams in* —
// an incremental push-parser over the v2/v3/v4 layout (header, section
// headers, chunk frames, terminators) that never buffers more than one
// chunk frame. Its header and section-type rules are the ones ImageReader
// applies (ckpt::parse_image_header), so the registry commits exactly the
// images a restart can open. Every chunk is decode-verified (decompress +
// CRC) before admission, then its stored bytes are interned into the
// ChunkStore under (codec, raw size, CRC); everything between chunk
// payloads (the image header, section headers, frame-free bytes) is kept
// verbatim as literal segments. Close commits the segment list; a sink
// destroyed without a successful close releases every chunk reference it
// took.
//
// Unlike most sinks, a RegistrySink *swallows* mid-stream errors: write()
// keeps accepting (and discarding) bytes after the first parse or
// verification failure, and close() reports that first error. This is
// deliberate transport manners — the registry server pumps a client's
// CRACSHP1 stream into this sink, and a sink error that stopped the pump
// mid-stream would leave unread stream bytes on the connection (desync,
// forced close). Swallowing lets the pump drain the stream fully, so a
// corrupt image is rejected *in-band* over a connection that stays usable.
//
// RegistrySource is the read-side twin: a seekable ckpt::Source that
// reconstructs the exact original byte stream — literal segments verbatim,
// chunk frame headers regenerated from the interned key (the fields are the
// key, so regeneration is byte-identical), payloads pread from the store's
// slab file under the image's chunk references. One stored image can feed
// any number of concurrent sources: the fan-out restore path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/chunk.hpp"
#include "ckpt/image.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "registry/store.hpp"

namespace crac::registry {

// One committed image: an ordered segment list over the chunk store. Owns
// one reference per chunk segment (released on destruction). Immutable
// after commit, so concurrent GET streams share it via shared_ptr freely.
class StoredImage {
 public:
  struct Segment {
    std::uint64_t logical_offset = 0;  // of this segment's first byte
    std::uint64_t size = 0;            // logical bytes covered
    // Literal: bytes at [lit_offset, lit_offset+size) in literals().
    // Chunk: a regenerated frame header + the payload the store holds
    // under key().
    bool chunk = false;
    std::uint64_t lit_offset = 0;
    ckpt::ChunkFrame frame;  // chunk segments: header fields for regen
    ChunkKey key() const noexcept {
      return ChunkKey{frame.codec, frame.raw_size, frame.crc};
    }
  };

  ~StoredImage();

  StoredImage(const StoredImage&) = delete;
  StoredImage& operator=(const StoredImage&) = delete;

  const std::string& name() const noexcept { return name_; }
  std::uint64_t image_bytes() const noexcept { return image_bytes_; }
  std::uint64_t chunk_count() const noexcept { return chunk_count_; }
  std::uint64_t raw_payload_bytes() const noexcept { return raw_bytes_; }
  ckpt::ChunkFraming framing() const noexcept { return framing_; }

  // Chain identity, captured during ingest: the image's own embedded
  // "image-id" metadata payload, and (v4 deltas) the parent named by the
  // header. parent_image() is the registry-resolved edge — the parent's
  // StoredImage once both ends are in the directory, null while the parent
  // is absent (GET of such an orphan delta is refused by name). A child's
  // shared_ptr pins the parent — and transitively its chunks — even if the
  // parent is later replaced under its name.
  const std::string& image_id() const noexcept { return image_id_; }
  const std::string& parent_id() const noexcept { return parent_id_; }
  const std::string& parent_path() const noexcept { return parent_path_; }
  bool is_delta() const noexcept { return !parent_id_.empty(); }
  std::shared_ptr<const StoredImage> parent_image() const noexcept {
    return parent_image_;
  }

  // Live RegistrySource count over this image; eviction refuses images a
  // GET session is still streaming.
  std::uint64_t open_readers() const noexcept {
    return open_readers_.load(std::memory_order_acquire);
  }

  const std::vector<Segment>& segments() const noexcept { return segments_; }
  const std::vector<std::byte>& literals() const noexcept { return literals_; }
  ChunkStore& store() const noexcept { return *store_; }

 private:
  friend class RegistrySink;
  friend class RegistrySource;
  friend class CheckpointRegistry;  // rebuilds images from durable records,
                                    // resolves parent edges
  StoredImage() = default;

  void pin_reader() const noexcept {
    open_readers_.fetch_add(1, std::memory_order_acq_rel);
  }
  void unpin_reader() const noexcept {
    open_readers_.fetch_sub(1, std::memory_order_acq_rel);
  }

  std::string name_;
  std::shared_ptr<ChunkStore> store_;
  std::vector<Segment> segments_;
  std::vector<std::byte> literals_;
  ckpt::ChunkFraming framing_ = ckpt::ChunkFraming::kV2;
  std::uint64_t image_bytes_ = 0;
  std::uint64_t chunk_count_ = 0;
  std::uint64_t raw_bytes_ = 0;
  std::string image_id_;
  std::string parent_id_;
  std::string parent_path_;
  std::shared_ptr<const StoredImage> parent_image_;  // set under registry mu_
  mutable std::atomic<std::uint64_t> open_readers_{0};
};

class RegistrySink final : public ckpt::Sink {
 public:
  // Parses into `store`; the image commits under `name` at close().
  RegistrySink(std::string name, std::shared_ptr<ChunkStore> store);
  ~RegistrySink() override;

  // Reports the first parse/verification error and, on success, finalizes
  // the image. Idempotent.
  Status close() override;

  // The committed image; non-null only after a successful close().
  std::shared_ptr<StoredImage> take_image();

 private:
  Status do_write(const void* data, std::size_t size) override;
  Status consume();                // run the state machine over buf_
  Status admit_chunk();            // verify + intern the buffered frame
  void append_literal(const std::byte* data, std::size_t size);

  enum class State {
    kFileHeader,    // magic + version + codec + chunk_size
    kParentHeader,  // v4 only: [string parent_id][string parent_path]
    kSectionHeader, // [u32 type][string name]
    kChunkHeader,   // one frame header (20 or 24 bytes)
    kChunkPayload,  // stored_size payload bytes
    kFailed,        // swallowing the remainder of the stream
  };

  std::string name_;
  std::shared_ptr<ChunkStore> store_;
  std::shared_ptr<StoredImage> image_;  // built up, handed out at close

  State state_ = State::kFileHeader;
  int stage_ = 0;                  // sub-unit progress (string parsing)
  std::vector<std::byte> buf_;     // bytes of the current unit
  std::vector<std::byte> raw_;     // a compressed chunk's decoded bytes
  std::size_t need_ = 0;           // bytes required to finish the unit
  std::uint64_t consumed_ = 0;     // logical bytes accepted pre-error
  ckpt::ImageHeader header_;       // accepted by ckpt::parse_image_header
  ckpt::ChunkFrame frame_{};       // the frame being received
  std::uint32_t cur_section_type_ = 0;  // section whose chunks are arriving
  std::string cur_section_name_;
  bool closed_ = false;
  Status error_;  // first failure; reported by close()
};

// Seekable source over one stored image (see file comment). The image (and
// transitively its chunk references) stays pinned for the source's life.
class RegistrySource final : public ckpt::Source {
 public:
  explicit RegistrySource(std::shared_ptr<const StoredImage> image)
      : image_(std::move(image)) {
    image_->pin_reader();
  }
  ~RegistrySource() override { image_->unpin_reader(); }

  RegistrySource(const RegistrySource&) = delete;
  RegistrySource& operator=(const RegistrySource&) = delete;

  Status read(void* out, std::size_t size) override;
  Status seek(std::uint64_t offset) override;

  // Looks up every chunk payload of the image, checking each against its
  // CRC the first time this process reads it, so a server can refuse a
  // damaged image before it starts streaming (Corrupt names the chunk).
  // read() does this on first use; afterwards it preads without touching
  // the store's lock.
  Status verify();

  std::uint64_t position() const noexcept override { return pos_; }
  std::uint64_t size() const noexcept override {
    return image_->image_bytes();
  }
  const StoredImage& image() const noexcept { return *image_; }
  std::string describe() const override {
    return "registry image '" + image_->name() + "'";
  }

 private:
  std::shared_ptr<const StoredImage> image_;
  std::uint64_t pos_ = 0;
  // Per segment (empty for literals), filled by verify().
  std::vector<ChunkStore::Payload> payloads_;
};

}  // namespace crac::registry
