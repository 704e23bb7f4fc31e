// Byte sinks for the streaming checkpoint writer.
//
// A Sink is an ordered, append-only byte destination. The CRACIMG2 writer
// streams section headers and compressed chunks into one as they are
// produced, so the full image never has to be materialized in memory. Four
// implementations ship: a file, a growable buffer and a discarding sink
// here, and ckpt::SocketSink (remote.hpp), which frames the stream over a
// socket. The interface is deliberately minimal so a new destination slots
// in without touching the writer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace crac::ckpt {

// A sink is single-producer: one thread drives write/flush/close (any
// internal concurrency is the implementation's own). Errors are sticky
// where loss is possible: once a write fails, every later call reports it,
// so a checkpoint can never claim success over a short image.
class Sink {
 public:
  virtual ~Sink() = default;

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  // Appends `size` bytes. Ordering is the caller's: the image writer is the
  // single producer and serializes chunk completions itself. May block on
  // transport backpressure (a full socket).
  Status write(const void* data, std::size_t size) {
    CRAC_RETURN_IF_ERROR(do_write(data, size));
    bytes_written_ += size;
    return OkStatus();
  }

  // Pushes buffered bytes toward the destination; blocks until they are
  // handed off (not necessarily durable — close() is the commit).
  virtual Status flush() { return OkStatus(); }

  // Completes the sink: flushes buffers and releases file descriptors (a
  // socket sink also writes its stream trailer). Blocks until done.
  // Idempotent; returns the first error seen on this sink.
  virtual Status close() { return flush(); }

  // Logical bytes accepted so far. Never blocks.
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 protected:
  Sink() = default;

 private:
  virtual Status do_write(const void* data, std::size_t size) = 0;

  std::uint64_t bytes_written_ = 0;
};

// In-memory sink; backs the buffered (v1-era) ImageWriter API and tests.
class MemorySink final : public Sink {
 public:
  MemorySink() = default;

  const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  std::vector<std::byte> take() && { return std::move(buf_); }
  // Sizes the buffer once for `n` bytes, so a producer that knows its
  // total up front never pays the growth copies.
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  Status do_write(const void* data, std::size_t size) override {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + size);
    return OkStatus();
  }

  std::vector<std::byte> buf_;
};

// Accepts and discards bytes; bytes_written() still counts them. Drains a
// stream nobody wants, or sizes one by a dry run.
class DiscardSink final : public Sink {
 private:
  Status do_write(const void* /*data*/, std::size_t /*size*/) override {
    return OkStatus();
  }
};

// Buffered file sink. close() (or destruction) flushes; a failed write is
// sticky so a checkpoint never reports success over a short file.
class FileSink final : public Sink {
 public:
  static Result<std::unique_ptr<FileSink>> open(const std::string& path);

  ~FileSink() override;

  Status flush() override;

  // Flush + fclose. Idempotent; returns the first error seen on this sink.
  Status close() override;

 private:
  FileSink(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}

  Status do_write(const void* data, std::size_t size) override;

  std::FILE* file_;
  std::string path_;
  Status error_;  // first failure, reported by every later call
};

}  // namespace crac::ckpt
