// Checkpoint image format.
//
// Two on-disk generations, both CRC-checked and both readable by
// ImageReader:
//
// v1 ("CRACIMG1") — monolithic sections, written by seed-era code:
//
//   [magic "CRACIMG1"][u32 version=1][u32 codec][u32 section_count]
//   section*: [u32 type][string name][u64 raw_size][u64 stored_size]
//             [u8 section_codec][u32 crc32(raw)][payload bytes]
//
// v2 ("CRACIMG2") — streaming chunked sections, what ImageWriter emits:
//
//   [magic "CRACIMG2"][u32 version=2][u32 codec][u64 chunk_size]
//   section*: [u32 type][string name]
//             chunk*: [u64 raw_size][u64 stored_size][u32 crc32(raw)]
//                     [stored bytes]
//             [u64 0][u64 0][u32 0]          <- terminator frame
//   (sections run to end of image; no up-front count)
//
// v3 — identical to v2 except the header's version field reads 3 and every
// chunk frame carries an explicit per-chunk codec id (the v3 layout in
// chunk.hpp). The writer emits it only when a codec beyond kLz is selected,
// so v2-era images stay byte-identical and v2-only readers reject v3 images
// by name ("unsupported image version") instead of misdecoding them.
//
// v4 — the incremental (delta) generation: the header grows two fields
// naming the parent image this delta applies against,
//
//   [magic "CRACIMG2"][u32 version=4][u32 codec][u64 chunk_size]
//   [string parent_id][string parent_path]
//
// and sections may be kDeltaChunks — sparse (chunk index, payload) pairs
// patching the like-named section of the parent (payload layout in
// delta.hpp). v4 always uses the v3 chunk framing. The writer emits v4 only
// when Options::parent_id is set, so full images stay byte-identical to
// their generation; pre-delta readers reject v4 by name ("unsupported image
// version"), and any reader rejects a kDeltaChunks section appearing in a
// non-v4 image ("delta-chunk section ... in a non-delta image").
//
// Each v2 chunk covers up to chunk_size raw payload bytes and is
// independently compressed (stored_size == raw_size means stored verbatim)
// and CRC32'd, so the writer can fan chunk encoding out across a thread
// pool and stream frames to a Sink without ever materializing a section —
// and the reader can verify and decompress one bounded chunk at a time.
// "string" is [u32 length][bytes] everywhere.
//
// Section payload schemas are owned by their producers (the CRAC plugin for
// CUDA state, the engine for memory regions); this layer only guarantees
// integrity and round-tripping. Producers either push whole payloads with
// add_section() or stream with begin_section()/append()/end_section().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "ckpt/chunk.hpp"
#include "ckpt/compressor.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"

namespace crac::ckpt {

// Longest section name or v4 parent string (id, path) an image may carry.
// The writer refuses longer ones with InvalidArgument, and every reader
// (ImageReader, the registry's ingest) rejects them as Corrupt. Real names
// are a few dozen bytes; the cap bounds the allocation when a live
// shipment's size is still unknown and remaining() bounds nothing.
inline constexpr std::uint32_t kMaxSectionNameBytes = 4096;

// "<what> of <len> bytes exceeds the 4096-byte cap": the one wording every
// enforcer of the cap uses.
std::string name_cap_error(const std::string& what, std::uint64_t len);

enum class SectionType : std::uint32_t {
  kMetadata = 1,       // image-level key/values (hostname, timestamps, root)
  kMemoryRegions = 2,  // upper-half memory contents
  kCudaApiLog = 3,     // the allocation/registration log to replay
  kDeviceBuffers = 4,  // drained device-arena allocation contents
  kManagedBuffers = 5, // drained managed (UVM) allocation contents
  kUvmResidency = 6,   // per-page residency bitmap
  kStreams = 7,        // live stream/event inventory
  kDeltaChunks = 8,    // v4 only: sparse patch against the parent's section
};

// Directory entry for one section, built by ImageReader's open() scan
// without touching payload bytes. Consumers read `type`, `name` and
// `raw_size`; the location fields are the reader's business (public only
// because this is a dumb descriptor, not an interface).
struct SectionInfo {
  SectionType type{};
  std::string name;
  std::uint64_t raw_size = 0;  // decompressed payload bytes

  // False while the section's chunk frames have not been walked yet — the
  // chunk-granular overlap state: on a still-filling source the directory
  // publishes a section the moment its header lands, so a consumer can
  // stream its chunks while the tail is still in flight. raw_size is
  // meaningless (and `chunks` empty) until this flips true, which happens
  // either when a SectionStream drains the section to its terminator or
  // when the next directory extension walks past it.
  bool size_known = true;

  // v2/v3: byte position of the first chunk frame (start of the payload).
  std::uint64_t payload_offset = 0;

  // v2/v3: byte position of each chunk frame plus its offset within the raw
  // payload — 16 bytes per chunk, so even terabyte images index in MBs.
  // May be empty for a section finalized by its own stream (size_known but
  // never scanned); random access rebuilds it on demand.
  struct ChunkRef {
    std::uint64_t file_offset;  // of the frame header in the image
    std::uint64_t raw_offset;   // of the chunk's first byte in the payload
  };
  std::vector<ChunkRef> chunks;

  // v1: monolithic stored body (legacy images are decoded in one piece).
  std::uint64_t v1_offset = 0;
  std::uint64_t v1_stored_size = 0;
  std::uint32_t v1_crc = 0;
  Codec v1_codec = Codec::kStore;
};

// Streams CRACIMG2 images. In streaming mode the writer is constructed on
// an external Sink and producers drive begin_section/append/end_section;
// chunk compression fans out over the configured ThreadPool and frames are
// written in order as they complete. The buffered constructor keeps the
// v1-era workflow (add sections, then serialize()/write_file()) working on
// top of an internal MemorySink.
class ImageWriter {
 public:
  struct Options {
    Codec codec = Codec::kStore;
    std::size_t chunk_size = kDefaultChunkSize;
    // Chunk-encoding pool for compressing codecs; nullptr compresses on
    // the calling thread. kStore chunks always encode there.
    ThreadPool* pool = nullptr;
    // Non-empty parent_id makes this a v4 delta image patching the full
    // image whose "image-id" metadata section equals parent_id; parent_path
    // is the restore-time hint for locating that image (the chain walker
    // verifies the id before trusting it).
    std::string parent_id;
    std::string parent_path;
  };

  // Buffered mode (compat): accumulates into an internal MemorySink.
  explicit ImageWriter(Codec codec = Codec::kStore);

  // Streaming mode: bytes go to `sink` as sections are produced. The sink
  // and pool must outlive the writer.
  ImageWriter(Sink* sink, const Options& options);

  ~ImageWriter();

  ImageWriter(const ImageWriter&) = delete;
  ImageWriter& operator=(const ImageWriter&) = delete;

  // --- streaming producer API ---
  // A name longer than kMaxSectionNameBytes fails with InvalidArgument (as
  // does a parent_id or parent_path over the cap, when the header goes out).
  Status begin_section(SectionType type, std::string name);
  Status append(const void* data, std::size_t size);
  // Appends `size` bytes produced in place: the current chunk's free space
  // is lent to `fill`, once per chunk the bytes straddle, so a producer
  // reading from elsewhere (a device drain) lands its bytes straight in the
  // buffer the frame is written from. append() is its memcpy case. A
  // failing fill latches its error like any other: no frame is written for
  // the partly filled chunk.
  using Fill = ChunkPipeline::Fill;
  Status append_with(std::uint64_t size, const Fill& fill);
  Status end_section();

  // Completes the image: fails if a section is still open, flushes the
  // sink. Idempotent. No sections may be added afterwards.
  Status finish();

  // --- v1-era convenience (thin wrapper over the streaming API) ---
  void add_section(SectionType type, std::string name,
                   std::vector<std::byte> payload);

  // Buffered mode only: finishes the image and returns its bytes, consuming
  // the internal buffer (call once; use write_file() OR serialize()).
  std::vector<std::byte> serialize();

  // Buffered mode only: finishes the image and writes it to `path`.
  // (Streaming producers write through their own FileSink instead.)
  Status write_file(const std::string& path);

  std::size_t section_count() const noexcept { return section_count_; }

  // Sum of raw payload bytes appended so far (pre-compression image size —
  // the quantity Figure 3/5(c) report when gzip is off).
  std::size_t raw_bytes() const noexcept {
    return pipeline_ != nullptr ? pipeline_->raw_bytes() : 0;
  }

  // First error swallowed by the void add_section() wrapper, if any.
  const Status& status() const noexcept { return error_; }

 private:
  Status write_header();
  // 4 when a parent is named, else 3/2 off the codec (see the format notes).
  std::uint32_t image_version() const noexcept;

  Options options_;
  std::unique_ptr<MemorySink> own_sink_;  // buffered mode
  Sink* sink_;
  // One pipeline, and so one chunk buffer, for every section of the image;
  // created with the first section.
  std::unique_ptr<ChunkPipeline> pipeline_;
  bool in_section_ = false;
  bool header_written_ = false;
  bool finished_ = false;
  bool consumed_ = false;  // buffered image handed out (one-shot)
  std::size_t section_count_ = 0;
  Status error_;  // sticky
};

class ImageReader;

// Sequential pull over one section's raw payload, with decompress-ahead
// prefetch on the reader's pool (a ChunkUnpipeline under the hood for v2
// images). The consumer never holds more than the current chunk plus the
// unpipeline's bounded window resident. Borrow of the reader: streams
// share the source cursor, so at most one is usable at a time — any later
// open_section()/read() on the reader invalidates an earlier stream, whose
// next pull then fails with FailedPrecondition (enforced, not just
// documented). The reader must outlive its streams.
class SectionStream {
 public:
  SectionStream(SectionStream&&) = default;
  SectionStream& operator=(SectionStream&&) = default;

  // Exact read of `n` raw payload bytes; Corrupt past end of section.
  Status read(void* out, std::size_t n);

  // The read-side twin of ImageWriter::append_with: lends the next `n`
  // payload bytes to `consume` straight out of the decoded chunks, one call
  // per chunk they straddle (`offset` counts from the first of the `n`), so
  // a consumer writing elsewhere (a device refill) copies each byte once.
  // read() is its memcpy case. A failing consume aborts the pull with its
  // error.
  using Consume = std::function<Status(const std::byte* src, std::size_t len,
                                       std::uint64_t offset)>;
  Status read_with(std::uint64_t n, const Consume& consume);

  // Reads up to `n` bytes (may deliver a short count at chunk boundaries);
  // delivers 0 only at end of section.
  Result<std::size_t> read_some(void* out, std::size_t n);

  // Reads and discards `n` bytes (still CRC-verified chunk by chunk).
  Status skip(std::uint64_t n);

  // ByteReader-style helpers for structured payload headers.
  Status get_u8(std::uint8_t& out);
  Status get_u32(std::uint32_t& out);
  Status get_u64(std::uint64_t& out);
  Status get_string(std::string& out);

  // Total payload size. Meaningful only once size_known(); until then the
  // section is still being walked behind the receive frontier.
  std::uint64_t raw_size() const noexcept { return raw_size_; }
  // False while streaming a section whose terminator has not been reached
  // yet (chunk-granular overlap on a live shipment); flips true — and
  // raw_size()/remaining() become exact — once the stream drains it.
  bool size_known() const noexcept { return size_known_; }
  // Bytes left to read. Unknown-size sections report "effectively
  // unbounded" until the terminator resolves, so size-vs-remaining sanity
  // gates stay vacuously permissive (reads past the real end still fail,
  // with a named error).
  std::uint64_t remaining() const noexcept {
    return size_known_ ? raw_size_ - delivered_
                       : ~std::uint64_t{0} - delivered_;
  }

  // High-water mark of bytes buffered ahead of the consumer (0 for v1
  // sections, which decode in one piece).
  std::uint64_t buffered_peak_bytes() const noexcept;
  // Fresh byte-buffer allocations inside the decode pipeline (buffer-pool
  // misses). Bounded by the in-flight window, not the chunk count — the
  // steady-state decode loop recycles buffers instead of allocating per
  // chunk (0 for v1 sections).
  std::uint64_t buffer_allocs() const noexcept;

 private:
  friend class ImageReader;
  SectionStream(ImageReader* reader, std::size_t section_index,
                std::string section_name, std::uint64_t raw_size)
      : reader_(reader),
        section_index_(section_index),
        name_(std::move(section_name)),
        raw_size_(raw_size) {}

  Status refill();  // pull the next decoded chunk into chunk_
  void note_progress();  // reports full delivery back to the reader
  // read_with() under a verb for the error text ("read", "skip"); a null
  // consume discards the bytes (they are still CRC-verified).
  Status pull(std::uint64_t n, const Consume& consume, const char* verb);

  ImageReader* reader_;
  std::size_t section_index_;
  std::uint64_t epoch_ = 0;  // cursor ownership ticket (see stream_epoch())
  std::string name_;
  std::uint64_t raw_size_;
  bool size_known_ = true;
  std::unique_ptr<ChunkUnpipeline> unpipe_;  // v2; null for v1
  std::vector<std::byte> chunk_;             // current decoded chunk (whole
                                             // payload for v1 sections)
  std::size_t chunk_pos_ = 0;
  std::uint64_t delivered_ = 0;
  Status error_;  // sticky
};

// Streaming image reader. open() scans the section directory off a Source —
// headers and chunk frames only; payload bytes are skipped, not read — so
// opening a multi-GiB image costs one pass over ~24 bytes per chunk.
//
// Restore-while-receiving: when the source is still being filled
// (Source::end_known() == false — a StreamingSpoolSource fed from a live
// shipment), open() reads only the image header and builds the directory
// *incrementally*. find()/section_at() scan forward one section at a time,
// blocking only until that section's bytes have landed, so a consumer that
// reads sections in stream order restores them while later sections are
// still in flight. Because v2 writes every section and chunk header ahead
// of the payload it describes, a section is fully scannable the moment its
// last byte arrives. scan_to_end() forces the directory complete (blocking
// a streaming source until the verified end of stream); a SectionInfo* from
// find()/section_at() stays valid as the directory grows (deque-backed).
//
// Payloads stream back on demand:
//
//   * open_section() — sequential pull with decompress-ahead prefetch on
//     `options.pool`; peak resident bytes are bounded by the unpipeline
//     window, never the section size.
//   * read()         — random-access slice of a section's raw payload
//     (decodes only the chunks the slice overlaps, inline).
//   * read_section() — materializes one whole section (compat for small
//     metadata sections and pre-streaming callers).
//
// from_bytes()/from_file() are thin wrappers over MemorySource/FileSource.
// CRCs are verified as payload bytes are decoded, not at open — a reader
// that never touches a section never pays for it (and a corrupt chunk in
// one section cannot block restoring another).
class ImageReader {
 public:
  struct Options {
    // Decode-ahead pool for open_section() over compressed images; nullptr
    // decodes inline, as store-codec images always do.
    ThreadPool* pool = nullptr;
  };

  static Result<ImageReader> open(std::unique_ptr<Source> source,
                                  const Options& options);
  static Result<ImageReader> open(std::unique_ptr<Source> source) {
    return open(std::move(source), Options{});
  }

  // Compat wrappers over MemorySource/FileSource.
  static Result<ImageReader> from_bytes(std::vector<std::byte> bytes,
                                        const Options& options);
  static Result<ImageReader> from_bytes(std::vector<std::byte> bytes) {
    return from_bytes(std::move(bytes), Options{});
  }
  static Result<ImageReader> from_file(const std::string& path,
                                       const Options& options);
  static Result<ImageReader> from_file(const std::string& path) {
    return from_file(path, Options{});
  }

  ImageReader(ImageReader&&) = default;
  ImageReader& operator=(ImageReader&&) = default;

  // The directory scanned so far — complete after open() except on a
  // still-filling source, where it grows as find()/section_at()/
  // scan_to_end() walk the stream. Deque-backed: entries never move, so a
  // SectionInfo* survives later directory growth.
  const std::deque<SectionInfo>& sections() const noexcept {
    return sections_;
  }

  // First section matching `type` (and `name`, when non-empty). On a
  // still-filling source this extends the directory as needed, blocking
  // until a match is scanned or the stream ends; nullptr means "no such
  // section" only when directory_status() is OK.
  const SectionInfo* find(SectionType type, const std::string& name = "");

  // Directory entry `index`, extending the scan as needed (blocking on a
  // still-filling source until that section has arrived). nullptr when the
  // image has fewer sections — the sequential consumer's end signal.
  Result<const SectionInfo*> section_at(std::size_t index);

  // Forces the directory complete. On a still-filling source this blocks
  // until the verified end of the stream — afterwards the transport trailer
  // has been checked, which is the gate consumers use before mutating
  // durable state (validate-before-mutate). No-op on a fully scanned image.
  Status scan_to_end();

  // OK while the directory scan is healthy; the latched scan error after a
  // failed incremental extension (a find() that returned nullptr because
  // the stream died, not because the section is absent).
  const Status& directory_status() const noexcept { return scan_error_; }

  // Sequential pull over `section` (which must belong to this reader).
  Result<SectionStream> open_section(const SectionInfo& section);

  // Copies raw payload bytes [offset, offset + len) of `section` into
  // `out`. Decodes only the chunks the range overlaps.
  Status read(const SectionInfo& section, std::uint64_t offset, void* out,
              std::size_t len);

  // Copies chunk `index` of `section` as it is stored, neither decoded nor
  // CRC-checked: its frame header into `frame`, then the `len` stored bytes
  // that start `offset` bytes into its payload into `out` (len 0 reads the
  // header alone). ckpt::ChainMerge copies frames and reads patch bytes
  // through it; restore never does. FailedPrecondition on a v1 image, which
  // has no frames.
  Status read_stored(const SectionInfo& section, std::size_t index,
                     ChunkFrame& frame, std::uint64_t offset = 0,
                     void* out = nullptr, std::size_t len = 0);

  // Materializes one section's payload; peak memory is that section plus
  // the decode window.
  Result<std::vector<std::byte>> read_section(const SectionInfo& section);

  // Streams (and discards) every section not yet opened via
  // open_section()/read_section(), verifying its chunk CRCs. Restore calls
  // this last so lazy reading cannot weaken the old whole-image guarantee:
  // a completed restart has still integrity-checked every section, but
  // only pays a skip-read for the ones nothing consumed. Forces the
  // directory complete first (scan_to_end), so on a live shipment success
  // additionally implies the transport trailer verified.
  Status verify_unread_sections();

  Codec codec() const noexcept { return codec_; }
  std::uint32_t version() const noexcept { return version_; }
  std::size_t chunk_size() const noexcept { return chunk_size_; }

  // v4 delta images: the parent this image patches. Both empty for full
  // images; parent_id is guaranteed non-empty for a delta (enforced at
  // open, so is_delta() == false means "restorable on its own").
  bool is_delta() const noexcept { return !parent_id_.empty(); }
  const std::string& parent_id() const noexcept { return parent_id_; }
  const std::string& parent_path() const noexcept { return parent_path_; }

  // Largest decode-ahead high-water mark seen across this reader's streams
  // — lets restore report (and tests assert) peak resident restore memory.
  std::uint64_t buffered_peak_bytes() const noexcept { return peak_bytes_; }

 private:
  // SectionStream callbacks only — public access would let callers forge
  // consumed-section state and defeat the verify_unread_sections backstop.
  friend class SectionStream;

  void note_stream_peak(std::uint64_t peak) noexcept {
    peak_bytes_ = peak_bytes_ > peak ? peak_bytes_ : peak;
  }
  // Called by a stream once it has delivered (and therefore CRC-verified)
  // its section's entire payload; only then does verify_unread_sections()
  // get to skip the section.
  void note_section_fully_read(std::size_t index) noexcept {
    if (index < consumed_.size()) consumed_[index] = 1;
  }
  // Called by a stream the moment it drains an unknown-size (deferred)
  // section to its terminator: records the now-exact raw size, marks the
  // section consumed, and moves the directory scan cursor past it. The
  // source cursor sits just past the terminator when this runs.
  void note_section_end(std::size_t index, std::uint64_t raw_size) noexcept;
  // Bumped by every operation that moves the source cursor; a stream whose
  // ticket no longer matches refuses further pulls instead of reading
  // frames from wherever another consumer left the cursor.
  std::uint64_t stream_epoch() const noexcept { return stream_epoch_; }

  ImageReader() = default;

  Status scan();            // header + (for complete sources) full directory
  Status scan_v1();
  Status scan_v2_params();  // codec + chunk size; directory scans follow
  // Scans one section at the scan cursor, or sets scanned_all_ at end of
  // image. Moves the source cursor (bumps the stream epoch). On a complete
  // source this walks the section's chunk frames too; on a still-filling
  // source it publishes the section after the header alone (size unknown,
  // chunks deferred) so a consumer can stream it behind the receive
  // frontier — the chunk-granular overlap path.
  Status scan_one_v2();
  // Settles the trailing deferred section, if any, before the scan can move
  // on: a no-op when its stream already drained it (note_section_end), a
  // re-walk of its frames from payload_offset otherwise (the spool retains
  // the bytes, so the walk is an index rebuild, not a transfer).
  Status resolve_deferred();
  // Walks chunk frames from the current source cursor to the section
  // terminator, filling sec.chunks/raw_size and applying the per-frame
  // hostile-header gates. Leaves the cursor just past the terminator.
  Status walk_section_chunks(SectionInfo& sec);
  // scan_one_v2 with the error latched into scan_error_ (origin-annotated),
  // for the lazy extension paths.
  Status extend_directory();
  std::size_t index_of(const SectionInfo& section) const;

  // Decodes one v1 section body into `out` (monolithic legacy path).
  Status read_v1_payload(const SectionInfo& section,
                         std::vector<std::byte>& out);

  std::unique_ptr<Source> source_;
  ThreadPool* pool_ = nullptr;
  Codec codec_ = Codec::kStore;
  std::uint32_t version_ = 0;
  ChunkFraming framing_ = ChunkFraming::kV2;  // kV3 for version>=3 images
  std::size_t chunk_size_ = 0;  // v2 declared chunk size
  std::string parent_id_;       // v4: parent image identity (empty = full)
  std::string parent_path_;     // v4: where the parent was written
  // Deque, not vector: find() hands out stable pointers while the lazy scan
  // keeps appending behind them.
  std::deque<SectionInfo> sections_;
  std::vector<char> consumed_;  // parallel to sections_: fully read once
  bool scanned_all_ = false;
  // True while the last published section is header-only (size unknown);
  // the next directory extension must resolve it first.
  bool deferred_ = false;
  std::uint64_t scan_pos_ = 0;  // source offset of the next unscanned section
  Status scan_error_;           // sticky: a failed lazy directory extension
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t stream_epoch_ = 0;
};

}  // namespace crac::ckpt
