// Chunked section payloads for CRACIMG2.
//
// A section's payload is split into fixed-size chunks; each chunk is
// compressed and CRC32'd independently, then framed. Two frame layouts
// exist (see docs/image_format.md):
//
//   v2: [u64 raw_size][u64 stored_size][u32 crc32(raw)][stored bytes]
//   v3: [u64 raw_size][u64 stored_size][u32 codec][u32 crc32(raw)][stored]
//
// with stored_size == raw_size meaning the chunk is stored uncompressed
// (either the effective codec is kStore or compression failed to shrink
// this chunk). v3 adds a per-chunk codec id so codecs beyond the original
// two (e.g. Codec::kZeroRunLz) can be introduced without ambushing old
// readers: images holding any such chunk carry header version 3, which a
// v2-only reader rejects by name instead of misdecoding. A frame with
// raw_size == 0 and stored_size == 0 terminates the section's chunk list.
//
// Independence of chunks is the point: for compressing codecs
// ChunkPipeline fans chunk encoding out over a crac::ThreadPool and streams
// completed frames, in order, to a Sink — peak memory is bounded by the
// in-flight window rather than the section size, and compression throughput
// scales with cores instead of being pinned to one (the bottleneck the
// paper's Figure 3 demonstrates and the reason CRAC ships with DMTCP's gzip
// pipe off). With gzip off (kStore) a chunk's encoding is one CRC pass,
// which runs in place on the producer's thread. ChunkUnpipeline is its
// read-side twin: frames stream off a Source and decode (decompress + CRC)
// fans out ahead of the consumer under the same bounded window.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "ckpt/compressor.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"

namespace crac::ckpt {

inline constexpr std::size_t kDefaultChunkSize = std::size_t{1} << 20;
// Upper bound a reader accepts for a v2 image's declared chunk size; caps
// the per-chunk allocation a hostile header can demand.
inline constexpr std::size_t kMaxChunkSize = std::size_t{1} << 30;
inline constexpr std::size_t kChunkFrameHeaderBytes = 8 + 8 + 4;
inline constexpr std::size_t kChunkFrameHeaderBytesV3 = 8 + 8 + 4 + 4;

// Which frame layout a section's chunks use. Writers pick kV3 only when a
// codec beyond kLz is selected, so every pre-existing image stays
// byte-identical (the format-freeze guarantee the golden fixtures pin).
enum class ChunkFraming : std::uint8_t {
  kV2,  // 20-byte header, codec implied by the image header
  kV3,  // 24-byte header with an explicit per-chunk codec id
};

inline constexpr std::size_t frame_header_bytes(ChunkFraming f) noexcept {
  return f == ChunkFraming::kV3 ? kChunkFrameHeaderBytesV3
                                : kChunkFrameHeaderBytes;
}

struct ChunkFrame {
  std::uint64_t raw_size = 0;
  std::uint64_t stored_size = 0;  // == raw_size: payload stored verbatim
  // Codec the stored bytes were produced with. Serialized only by v3
  // frames; v2 readers fill it in from the image header (kStore for
  // verbatim chunks) so decode paths are layout-agnostic.
  std::uint32_t codec = 0;
  std::uint32_t crc = 0;          // over the raw (decompressed) bytes
};

// CRC32s one chunk (all of `raw`) and, per `codec`, compresses it,
// falling back to storing it verbatim when compression does not shrink it
// (kStore never compresses: a CRC is its only encoding). Returns the frame;
// its codec field records what the stored bytes actually are. When the chunk
// compressed, `packed` holds the stored bytes; otherwise `raw` is the
// payload. Pure function — safe to run concurrently.
ChunkFrame encode_chunk(const std::vector<std::byte>& raw, Codec codec,
                        std::vector<std::byte>& packed);

// Appends one framed chunk — its header, then the frame's stored_size bytes
// at `stored` — / the section terminator frame to `sink`.
Status write_chunk(Sink& sink, const ChunkFrame& frame, const std::byte* stored,
                   ChunkFraming framing = ChunkFraming::kV2);
Status write_chunk_terminator(Sink& sink,
                              ChunkFraming framing = ChunkFraming::kV2);

// Reads one frame header; the payload view follows in the reader. For v2
// frames the codec field is synthesized from `implied_codec` (kStore for
// verbatim chunks) so downstream decode never cares about the layout.
// Rejects unknown codec ids in v3 frames with a named error.
Status read_chunk_frame(ByteReader& reader, ChunkFrame& frame,
                        ChunkFraming framing = ChunkFraming::kV2,
                        Codec implied_codec = Codec::kStore);
// Same, off a Source (the payload bytes follow at the cursor).
Status read_chunk_frame(Source& source, ChunkFrame& frame,
                        ChunkFraming framing = ChunkFraming::kV2,
                        Codec implied_codec = Codec::kStore);

// One decoded chunk, or the first error its decode hit. Pure-function
// result type so decode can run on any worker thread. `spare` is whichever
// input buffer the decode did not hand back as `raw` — the unpipeline
// recycles it so steady-state decode performs no per-chunk allocation.
struct DecodedChunk {
  Status status;
  std::vector<std::byte> raw;
  std::vector<std::byte> spare;
};

// Decompresses and CRC-checks one stored chunk. Pure function — safe to run
// concurrently (the unpipeline's pool task). `scratch` donates capacity for
// the decompressed output (pass {} when recycling is not worth it).
DecodedChunk decode_chunk(const ChunkFrame& frame,
                          std::vector<std::byte> stored,
                          std::vector<std::byte> scratch = {});

// Streams section payloads through chunk encoding into a sink.
//
// Producers append bytes into one chunk buffer, either copied in (append)
// or written in place by a fill callback the buffer is lent to
// (append_with). Each full chunk is encoded, framed and written in order.
// A store-codec chunk's only encoding is its CRC, so it (and every chunk
// when there is no pool) is CRC'd — and compressed, for a compressing
// codec — straight from that buffer on the calling thread, written from it,
// and the buffer refilled: each byte is copied once, into the buffer, and
// nothing is allocated per chunk. Compressing codecs with a pool hand each
// full chunk's copy to the pool instead, keeping at most window chunks in
// flight, so a multi-GiB section never occupies more than window ×
// chunk_size bytes beyond the sink itself. The pipeline serves every
// section of an image: end_section() ends one and
// the next append starts the next in the same buffer. After any error the
// pipeline must not be used again (ImageWriter latches the error).
class ChunkPipeline {
 public:
  // Lent the chunk buffer: writes into `dst` the `len` bytes that sit
  // `offset` bytes into the current append_with() call.
  using Fill = std::function<Status(std::byte* dst, std::size_t len,
                                    std::uint64_t offset)>;

  ChunkPipeline(Sink* sink, Codec codec, std::size_t chunk_size,
                ThreadPool* pool, ChunkFraming framing = ChunkFraming::kV2);
  ~ChunkPipeline();

  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  // Appends `size` bytes, produced by `fill` directly into the chunk buffer:
  // one call per chunk the bytes straddle. A failing fill aborts the append
  // with its error, and the partly filled chunk is never framed.
  Status append_with(std::uint64_t size, const Fill& fill);
  // The memcpy case of append_with().
  Status append(const void* data, std::size_t size);
  // Ends the open section: flushes the partial tail chunk, retires every
  // in-flight chunk in order and writes the terminator frame.
  Status end_section();

  // Raw bytes appended across every section so far.
  std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }

 private:
  // One chunk encoded on the pool: its frame and stored bytes.
  struct EncodedChunk {
    ChunkFrame frame;
    std::vector<std::byte> stored;
  };

  Status flush_chunk();    // encodes and writes (or dispatches) the buffer
  Status retire_oldest();  // blocks on the oldest in-flight chunk

  Sink* sink_;
  Codec codec_;
  std::size_t chunk_size_;
  ThreadPool* pool_;  // nullptr: every chunk encodes inline
  ChunkFraming framing_;
  std::size_t max_in_flight_;
  std::deque<std::future<EncodedChunk>> in_flight_;
  std::vector<std::byte> chunk_;   // the buffer being filled
  std::size_t filled_ = 0;         // bytes of chunk_ holding payload
  std::vector<std::byte> packed_;  // inline compression output
  std::uint64_t raw_bytes_ = 0;
};

// Streams one section's chunk frames off a Source and decompresses them
// ahead of the consumer — the read-side twin of ChunkPipeline.
//
// next() hands back decoded chunks strictly in frame order. Internally the
// consumer thread reads frames sequentially off the source (cheap: header +
// stored bytes) and dispatches decode (decompress + CRC verify) to the pool,
// keeping at most `window` chunks in flight. A store-codec section has
// nothing to decompress, so it decodes inline like every section without a
// pool: window 1, one recycled buffer.
// Peak buffered bytes are therefore bounded by window × 2 × chunk_size
// (stored + raw per in-flight chunk) no matter how large the section is —
// the mirror of the write pipeline's guarantee, and the property
// restore_test.cpp asserts via buffered_peak_bytes().
class ChunkUnpipeline {
 public:
  // The source cursor must sit on the section's first chunk frame. The
  // source and pool must outlive the unpipeline.
  ChunkUnpipeline(Source* source, Codec codec, std::size_t chunk_size,
                  ThreadPool* pool, ChunkFraming framing = ChunkFraming::kV2);
  ~ChunkUnpipeline();

  ChunkUnpipeline(const ChunkUnpipeline&) = delete;
  ChunkUnpipeline& operator=(const ChunkUnpipeline&) = delete;

  // Retrieves the next decoded chunk into `out`. Once the terminator frame
  // has been consumed, returns OK with `end` set and `out` empty; the
  // source cursor then sits just past the terminator. Errors are sticky and
  // name the failing chunk index. Any capacity the caller passes in via
  // `out` is recycled into the buffer pool (steady-state consumers that
  // reuse one vector make the decode loop allocation-free).
  Status next(std::vector<std::byte>& out, bool& end);

  std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }
  // High-water mark of bytes buffered inside the unpipeline (stored + raw
  // of every in-flight chunk) — what the bounded-window tests check.
  std::uint64_t buffered_peak_bytes() const noexcept { return peak_bytes_; }
  // Fresh byte-buffer allocations (buffer-pool misses). Bounded by the
  // in-flight window — not the chunk count — once the pool is warm; the
  // steady-state no-per-chunk-allocation property restore_test asserts.
  std::uint64_t buffer_allocs() const noexcept { return buffer_allocs_; }

 private:
  Status fill();  // read + dispatch frames until the window is full
  std::vector<std::byte> take_buffer();
  void recycle_buffer(std::vector<std::byte>&& buf);

  Source* source_;
  Codec codec_;
  std::size_t chunk_size_;
  ThreadPool* pool_;
  ChunkFraming framing_;
  std::size_t max_in_flight_;
  // Each in-flight entry pairs the decode future with its buffered-bytes
  // charge (stored + raw), released when the chunk is handed out.
  std::deque<std::pair<std::future<DecodedChunk>, std::uint64_t>> in_flight_;
  // Retired buffer capacity awaiting reuse (consumer thread only).
  std::vector<std::vector<std::byte>> free_buffers_;
  std::size_t next_index_ = 0;     // frames dispatched
  std::size_t retired_index_ = 0;  // chunks handed to the consumer
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t buffered_bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t buffer_allocs_ = 0;
  bool terminator_seen_ = false;
  Status error_;  // sticky: first failure poisons the section
};

}  // namespace crac::ckpt
