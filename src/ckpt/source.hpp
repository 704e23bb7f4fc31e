// Byte sources for the streaming checkpoint reader — the read-side mirror
// of ckpt::Sink.
//
// A Source is a positioned, seekable byte origin. The CRACIMG2 reader scans
// section headers and chunk frames out of one (skipping payload bytes), then
// streams payloads back on demand, so the full image never has to be
// materialized in memory. Three implementations ship: a file and an
// in-memory buffer here, and ckpt::StreamingSpoolSource (remote.hpp), the
// spool a live socket shipment lands in. The interface is deliberately
// small so another origin (an object-store range reader) slots in without
// touching the reader.
//
// Seekability is part of the contract: the reader's directory scan and its
// random-access section reads both reposition the cursor. A strictly
// sequential origin (live socket) therefore goes through the spool.
//
// A source may still be *filling* while it is read: a StreamingSpoolSource
// serves bytes as they arrive off a live shipment, before the stream's end
// (and therefore the image's total size) is known. Such streaming sources
// report end_known() == false until the transport trailer lands, return
// kUnknownSize from size(), and block in read()/at_end() until the
// requested range has landed or the stream fails. Fully materialized
// sources (files, memory) never block and keep the defaults.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace crac::ckpt {

class Source {
 public:
  // size() while a streaming source's total is still unknown: a permissive
  // upper bound that keeps remaining()-based checks from misfiring before
  // the end of the stream has been seen.
  static constexpr std::uint64_t kUnknownSize = ~std::uint64_t{0};

  virtual ~Source() = default;

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  // Reads exactly `size` bytes at the cursor and advances it. Short input is
  // an error (Corrupt/IoError) naming the source — a checkpoint read must
  // never silently come up short. Streaming sources block until the range
  // has landed (or the stream fails, which wakes the reader with the
  // stream's named error).
  virtual Status read(void* out, std::size_t size) = 0;

  // Repositions the cursor to an absolute byte offset. A streaming source
  // accepts offsets beyond the bytes landed so far (the directory scan
  // skips ahead of the receive frontier); the next read validates.
  virtual Status seek(std::uint64_t offset) = 0;

  // Advances the cursor without reading payload bytes (how the directory
  // scan steps over stored chunks). Bounds-checked before the add so a
  // hostile size near 2^64 cannot wrap to a valid offset. (While a
  // streaming source's size is unknown the check is vacuously permissive;
  // an overshoot surfaces at the next read or at_end instead.)
  Status skip(std::uint64_t n) {
    if (n > remaining()) {
      return Corrupt(describe() + ": skip past end of image");
    }
    return seek(position() + n);
  }

  // Cursor position. Never blocks; owned by the consuming thread.
  virtual std::uint64_t position() const noexcept = 0;

  // Total size of the image, or kUnknownSize for a streaming source whose
  // trailer has not arrived yet (see end_known()).
  virtual std::uint64_t size() const noexcept = 0;

  std::uint64_t remaining() const noexcept { return size() - position(); }

  // True once the total size of this source is final. Fully materialized
  // sources are always final; a streaming source turns true when the
  // transport trailer has been received and verified. ImageReader::open
  // uses this to pick the incremental (restore-while-receiving) directory
  // scan for sources still being filled.
  virtual bool end_known() const noexcept { return true; }

  // Decides whether `offset` is at/past the end of the stream — the
  // end-of-image probe the incremental directory scan needs. A streaming
  // source blocks until a byte lands at `offset` (false) or the verified
  // end of the stream is known (true; Corrupt if the scan cursor overshot
  // the real end). Never blocks when end_known().
  virtual Result<bool> at_end(std::uint64_t offset) {
    return offset >= size();
  }

  // Human-readable origin for error messages: the path for files,
  // "<memory>" for buffers.
  virtual std::string describe() const = 0;

 protected:
  Source() = default;
};

// In-memory source; backs the from_bytes() compat wrapper and tests. Either
// owns its buffer or borrows one that must outlive it (zero-copy path for
// benchmarks re-reading the same image).
class MemorySource final : public Source {
 public:
  explicit MemorySource(std::vector<std::byte> bytes)
      : owned_(std::move(bytes)), data_(owned_.data()), size_(owned_.size()) {}
  MemorySource(const std::byte* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  Status read(void* out, std::size_t size) override;
  Status seek(std::uint64_t offset) override;

  std::uint64_t position() const noexcept override { return pos_; }
  std::uint64_t size() const noexcept override { return size_; }
  std::string describe() const override { return "<memory>"; }

 private:
  std::vector<std::byte> owned_;
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// File source. Every error names the path, so a failed restore always says
// which image file let it down.
class FileSource final : public Source {
 public:
  static Result<std::unique_ptr<FileSource>> open(const std::string& path);

  ~FileSource() override;

  Status read(void* out, std::size_t size) override;
  Status seek(std::uint64_t offset) override;

  std::uint64_t position() const noexcept override { return pos_; }
  std::uint64_t size() const noexcept override { return size_; }
  std::string describe() const override { return path_; }

 private:
  FileSource(std::FILE* f, std::string path, std::uint64_t size)
      : file_(f), path_(std::move(path)), size_(size) {}

  std::FILE* file_;
  std::string path_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

}  // namespace crac::ckpt
