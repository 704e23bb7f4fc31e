// Remote checkpoint transport: live checkpoint shipping over a file
// descriptor (socket, pipe, anything stream-like).
//
// A Sink/Source is just "somewhere ordered bytes go". What a raw socket
// lacks is (a) a way for the receiver to know where the stream ends and
// whether it arrived intact, and (b) the seekability ImageReader::open()
// needs for its directory scan. This header supplies both halves:
//
//   * SocketSink frames the ordinary CRACIMG2 logical byte stream over an fd
//     ("CRACSHP1" wire framing: CRC'd header, length-prefixed frames, a
//     trailer carrying the total byte count and a CRC32 of the whole logical
//     stream) — the write-side verb for pushing a live checkpoint to a peer
//     with no filesystem in between.
//   * StreamingSpoolSource receives such a stream into a bounded spool —
//     memory up to a configurable cap, overflow to an unlinked temp file —
//     filled by a receiver thread, with byte ranges published to the reader
//     as frames land, behind the seekable Source interface. The ordinary
//     ImageReader (directory scan, section streams, random access) runs over
//     a live shipment exactly as over a file, and restore runs concurrently
//     with the transfer instead of after it (see docs/image_format.md,
//     "Streaming restore ordering contract"). A caller that needs the whole
//     stream verified before reading calls wait_complete() first. Peak
//     resident memory is bounded by the spool cap, never the image size.
//
// Wire framing (all integers little-endian, like the rest of the format):
//
//   header:  [magic "CRACSHP1"][u32 version=1][u32 crc32(magic+version)]
//   frame*:  [u32 frame_len > 0][frame_len logical-stream bytes]
//   abort:   [u32 0xFFFFFFFF]   (optional, in place of any frame)
//   trailer: [u32 0][u64 total_bytes][u32 crc32(whole logical stream)]
//
// The abort marker is an in-band "sender gave up" terminator: a sender whose
// checkpoint fails mid-shipment emits it so the receiver fails with a named
// error *and a still-synchronized connection*, instead of wedging on a
// stream that will never finish.
//
// The logical stream inside the frames is byte-identical to the single-file
// v2 image the same writer configuration would produce, so a spooled
// shipment and a file on disk are interchangeable to every consumer (see
// docs/image_format.md, "Wire framing").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "common/status.hpp"

namespace crac::ckpt {

inline constexpr char kShipMagic[8] = {'C', 'R', 'A', 'C', 'S', 'H', 'P', '1'};
inline constexpr std::uint32_t kShipVersion = 1;
// In-band abort marker (a frame length no well-formed frame can carry): the
// sender declares the shipment dead. The receiver fails with a
// named error but keeps its transport position — the stream terminated
// in-band, so a control connection carrying it stays usable.
inline constexpr std::uint32_t kShipAbortMarker = 0xFFFFFFFFu;
// Writer-side coalescing buffer = the largest frame a well-formed stream
// contains; the receiver rejects anything bigger, which caps what a hostile
// frame header can demand in one allocation or copy.
inline constexpr std::size_t kShipFrameBytes = std::size_t{256} << 10;
inline constexpr std::size_t kShipHeaderBytes = 8 + 4 + 4;
inline constexpr std::size_t kShipTrailerBytes = 8 + 4;  // after the 0 len
// Smallest spool cap StreamingSpoolSource accepts: below this the receive
// scratch could not fit under the cap and the bound would be a lie.
inline constexpr std::size_t kMinSpoolCapBytes = std::size_t{16} << 10;
inline constexpr std::size_t kDefaultSpoolCapBytes = std::size_t{64} << 20;

// Frames the logical checkpoint stream over `fd` (borrowed, never closed
// here: sockets usually outlive one shipment). The CRC'd header goes out
// with the first bytes, frames coalesce small appends (section headers,
// chunk frames) into kShipFrameBytes writes, and close() emits the
// terminator + trailer — until then the receiver treats the stream as
// incomplete, so a writer that dies mid-checkpoint can never hand its peer
// a silently short image. Errors are sticky, like every other sink.
class SocketSink final : public Sink {
 public:
  // `origin` names the transport in error messages ("migration socket").
  explicit SocketSink(int fd, std::string origin = "ship socket");

  ~SocketSink() override;

  Status flush() override;

  // Flushes pending bytes and writes the terminator + trailer. Idempotent;
  // returns the first error seen on this sink. The fd stays open.
  Status close() override;

  // Declares the shipment dead in-band: sends the header if none went out
  // yet, then the abort marker, and closes the sink. The peer fails with a
  // named "aborted by sender" error instead of hanging on a stream that
  // will never finish — and, because the abort is in-band, a control
  // connection carrying the stream stays synchronized. Best-effort (a dead
  // fd cannot carry the marker either); returns the marker write status.
  Status abort();

 private:
  Status do_write(const void* data, std::size_t size) override;
  Status send_header();
  Status send_frame();  // ships buf_ as one [len][bytes] frame

  int fd_;
  std::string origin_;
  std::vector<std::byte> buf_;  // pending frame payload
  std::uint32_t crc_ = 0;       // running CRC of the logical stream
  std::uint64_t total_ = 0;     // logical bytes accepted
  bool header_sent_ = false;
  bool closed_ = false;
  Status error_;  // sticky
};

// Restore-while-receiving: a bounded spool filled by a receiver thread.
//
// Phase 1 — start() validates the 16-byte CRACSHP1 header synchronously
// (bad magic / bad version fail fast, before any thread exists) and hands
// back a usable Source immediately. ImageReader::open can begin its
// directory scan right away: the v2 layout puts every section and chunk
// header ahead of the payload bytes it describes, so the scan tracks the
// receive frontier instead of waiting for the whole image.
//
// Phase 2 — a receiver thread keeps spooling payload frames into a bounded
// spool (fixed memory blocks up to the cap, overflow to an unlinked temp
// file; the cap counts the receive scratch) and publishes completed byte
// ranges under a mutex/condvar. read()/at_end() block only until the requested
// range has landed; a stream failure (EOF, corrupt trailer, abort marker)
// wakes every blocked reader with the stream's named error.
//
// Release ordering: the most recently received frame is held back until the
// *next* frame header arrives, so the final payload frame of the stream is
// published only after the trailer's byte count and whole-stream CRC have
// verified — a reader can never consume the image's last bytes from a
// shipment whose trailer turns out to be damaged. (Earlier bytes may have
// been served before a late corruption is detected; consumers that must not
// mutate durable state on a bad stream gate on ImageReader::scan_to_end()
// or verify_unread_sections(), both of which reach the trailer verdict.)
//
// Threading: read/seek/at_end/position belong to one consumer thread; the
// receiver thread only appends and publishes. The destructor joins the
// receiver, which doubles as a drain — a consumer that abandons a restore
// mid-stream still consumes the remaining frames off the fd, leaving a
// control connection carrying the stream synchronized.
class StreamingSpoolSource final : public Source {
 public:
  struct Options {
    // Hard bound on resident spool memory (receive scratch included).
    std::size_t spool_cap_bytes = kDefaultSpoolCapBytes;
    // Directory for the overflow file; empty = $TMPDIR, falling back to
    // /tmp. The file is unlinked immediately after creation.
    std::string spool_dir;
    // Names the transport in error messages.
    std::string origin = "ship stream";
  };

  // Terminal state of the receive, shared out so it stays readable after
  // the source (and the ImageReader owning it) is gone. Fields are final
  // once the source is destroyed (or wait_complete() returned).
  struct Outcome {
    // OkStatus once the trailer verified; the stream's named error
    // otherwise. Meaningless until complete.
    Status status;
    bool complete = false;
    // Final receive accounting (the source itself is usually gone by the
    // time a caller wants these — the restore consumed it).
    std::uint64_t total_bytes = 0;
    // High-water mark of spool memory (memory prefix plus receive scratch);
    // never above spool_cap_bytes, for any image size.
    std::uint64_t peak_resident_bytes = 0;
    // Bytes that overflowed to the temp file (0 = the whole image fit in
    // memory and no file was ever created).
    std::uint64_t spooled_to_disk_bytes = 0;
  };

  // Reads + validates the ship header off `fd` (borrowed, never closed),
  // then spawns the receiver thread and returns. Blocks only for the
  // 16-byte header.
  static Result<std::unique_ptr<StreamingSpoolSource>> start(
      int fd, const Options& opts);
  static Result<std::unique_ptr<StreamingSpoolSource>> start(int fd) {
    return start(fd, Options{});
  }

  // Joins the receiver thread (draining any unconsumed frames off the fd).
  ~StreamingSpoolSource() override;

  // Blocks until [position, position+size) has landed and been released,
  // then serves it from the spool. Fails with the stream's error if the
  // stream dies first, or Corrupt if the verified end shows the range never
  // existed.
  Status read(void* out, std::size_t size) override;

  // Accepts any offset while the end is unknown (the scan runs ahead of
  // the frontier); Corrupt past the verified end once known. Never blocks.
  Status seek(std::uint64_t offset) override;

  std::uint64_t position() const noexcept override { return pos_; }
  // Final total once the trailer verified; kUnknownSize before that.
  std::uint64_t size() const noexcept override;
  bool end_known() const noexcept override;
  // Blocks until a byte lands at `offset` (false) or the verified end of
  // the stream is known (true; the stream's error if it died instead).
  Result<bool> at_end(std::uint64_t offset) override;
  std::string describe() const override { return origin_; }

  // Blocks until the receiver thread finishes (trailer verified or stream
  // failed) and returns the terminal stream status. After an OK return the
  // whole stream is spooled and verified, end_known() is true, and no read
  // blocks.
  Status wait_complete();

  // The shared terminal state; safe to hold past this object's lifetime.
  std::shared_ptr<const Outcome> outcome() const { return outcome_; }

 private:
  class Impl;
  explicit StreamingSpoolSource(const Options& opts);

  std::string origin_;
  std::unique_ptr<Impl> impl_;
  std::shared_ptr<Outcome> outcome_;
  std::thread receiver_;
  std::uint64_t pos_ = 0;
};

// Pumps one complete CRACSHP1 stream from `in_fd` into `sink`, validating
// the header, frame lengths, and trailer (byte count + whole-stream CRC) as
// it goes — the bridge that lands a ship stream in any Sink (the registry
// server interning a PUT, the registry client writing a GET). Blocks until
// the stream ends.
// Errors name `origin`. On return, *upstream_in_band (if non-null) tells
// whether in_fd delivered a self-delimiting end (trailer or abort marker),
// i.e. whether a control connection feeding the pump is still in sync. The
// sink is NOT closed or aborted here; the caller decides commit vs. abort
// from the returned status.
Status pump_ship_stream(int in_fd, Sink& sink, const std::string& origin,
                        bool* upstream_in_band = nullptr);

}  // namespace crac::ckpt
