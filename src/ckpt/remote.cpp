#include "ckpt/remote.hpp"

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/fd_io.hpp"

namespace crac::ckpt {

namespace {

// Spool memory is held in fixed blocks (never realloc'd), so the resident
// bound is exact: blocks + scratch never exceed the cap, with no transient
// doubling a growing vector would sneak in.
constexpr std::size_t kSpoolBlockBytes = std::size_t{64} << 10;

struct ShipTrailer {
  std::uint64_t total_bytes = 0;
  std::uint32_t crc = 0;
};

Status check_ship_header(const std::byte* buf, const std::string& origin) {
  if (std::memcmp(buf, kShipMagic, sizeof(kShipMagic)) != 0) {
    return Corrupt(origin + ": not a checkpoint ship stream (bad magic)");
  }
  std::uint32_t version = 0, stored_crc = 0;
  std::memcpy(&version, buf + 8, 4);
  std::memcpy(&stored_crc, buf + 12, 4);
  if (crc32(buf, 12) != stored_crc) {
    return Corrupt(origin + ": ship stream header CRC mismatch");
  }
  if (version != kShipVersion) {
    return Corrupt(origin + ": unsupported ship stream version " +
                   std::to_string(version));
  }
  return OkStatus();
}

std::vector<std::byte> encode_ship_header() {
  ByteWriter w;
  w.put_bytes(kShipMagic, sizeof(kShipMagic));
  w.put_u32(kShipVersion);
  w.put_u32(crc32(w.data(), w.size()));
  return std::move(w).take();
}

using StreamHook = std::function<Status(const std::byte*, std::size_t)>;
using ProgressHook = std::function<void()>;

// The one validating walk over the frames of a CRACSHP1 stream (the 16-byte
// header has already been read and checked by the caller), shared by the
// spool and the pump so the wire format has a single parser that cannot
// drift: frame-length caps, abort-marker recognition, running CRC/byte
// count, trailer verification.
//
//   * `on_payload` sees only the logical stream bytes, in bounded slices of
//     `slice_bytes`, so resident receive memory stays capped no matter how
//     large the shipment is.
//   * `on_frame_start` fires after each nonzero frame length is accepted,
//     before its payload is read — the streaming spool's "everything before
//     this frame is now releasable" publication point.
//
// `ended_in_band`, when not null, reports whether the stream reached a
// self-delimiting end on the wire — a complete trailer (valid or not) or an
// abort marker — i.e. whether a connection carrying it is still in sync.
Status walk_ship_frames(int fd, const std::string& origin,
                        std::size_t slice_bytes, const StreamHook& on_payload,
                        const ProgressHook& on_frame_start,
                        bool* ended_in_band) {
  bool in_band = false;
  if (ended_in_band == nullptr) ended_in_band = &in_band;
  *ended_in_band = false;
  std::vector<std::byte> scratch;
  std::uint64_t total = 0;
  std::uint32_t crc = 0;
  for (;;) {
    std::uint32_t frame_len = 0;
    CRAC_RETURN_IF_ERROR(read_all_fd(fd, &frame_len, sizeof(frame_len),
                                     origin));
    if (frame_len == 0) {
      std::byte trailer[kShipTrailerBytes];
      CRAC_RETURN_IF_ERROR(
          read_all_fd(fd, trailer, sizeof(trailer), origin));
      // The full trailer has been read off `fd`: whatever the verdict, the
      // stream ended at a known wire position.
      *ended_in_band = true;
      ShipTrailer parsed;
      std::memcpy(&parsed.total_bytes, trailer, 8);
      std::memcpy(&parsed.crc, trailer + 8, 4);
      if (parsed.total_bytes != total) {
        return Corrupt(origin + ": ship trailer declares " +
                       std::to_string(parsed.total_bytes) +
                       " bytes, stream delivered " + std::to_string(total));
      }
      if (parsed.crc != crc) {
        return Corrupt(origin + ": ship stream CRC mismatch in trailer");
      }
      return OkStatus();
    }
    if (frame_len == kShipAbortMarker) {
      // As with the trailer: the marker came off `fd`, so the stream is
      // self-delimited.
      *ended_in_band = true;
      return IoError(origin + ": ship stream aborted by sender");
    }
    if (frame_len > kShipFrameBytes) {
      return Corrupt(origin + ": ship frame of " + std::to_string(frame_len) +
                     " bytes exceeds the " + std::to_string(kShipFrameBytes) +
                     "-byte limit");
    }
    if (on_frame_start) on_frame_start();
    std::size_t left = frame_len;
    while (left > 0) {
      // Frame payloads stream through a bounded scratch slice, so resident
      // bytes stay capped no matter how large the shipment is.
      const std::size_t take = std::min(left, slice_bytes);
      if (scratch.size() < take) scratch.resize(slice_bytes);
      CRAC_RETURN_IF_ERROR(read_all_fd(fd, scratch.data(), take, origin));
      crc = crc32(scratch.data(), take, crc);
      total += take;
      if (on_payload) CRAC_RETURN_IF_ERROR(on_payload(scratch.data(), take));
      left -= take;
    }
  }
}

// Header + frames: the full-stream walk the pump uses.
Status walk_ship_stream(int fd, const std::string& origin,
                        std::size_t slice_bytes, const StreamHook& on_payload,
                        bool* ended_in_band) {
  *ended_in_band = false;
  std::byte header[kShipHeaderBytes];
  CRAC_RETURN_IF_ERROR(read_all_fd(fd, header, sizeof(header), origin));
  CRAC_RETURN_IF_ERROR(check_ship_header(header, origin));
  return walk_ship_frames(fd, origin, slice_bytes, on_payload,
                          /*on_frame_start=*/nullptr, ended_in_band);
}

}  // namespace

// ---------------------------------------------------------------------------
// SpoolBuffer
// ---------------------------------------------------------------------------

// Bounded spool storage: a memory prefix in fixed 64 KiB blocks, overflow
// to an unlinked temp file. Single appender; read_at() serves any range
// below the appended frontier. Not thread-safe — StreamingSpoolSource
// brackets every call with its own mutex.
class SpoolBuffer {
 public:
  SpoolBuffer(std::size_t mem_limit, std::size_t scratch_held,
              std::string origin)
      : origin_(std::move(origin)),
        mem_limit_(mem_limit),
        scratch_held_(scratch_held),
        // The scratch is resident for the whole receive even when every
        // byte overflows to disk (mem_limit == 0) — count it from the
        // start, not only when the first memory block is allocated.
        peak_bytes_(scratch_held) {}

  ~SpoolBuffer() {
    if (file_fd_ >= 0) ::close(file_fd_);
  }

  SpoolBuffer(const SpoolBuffer&) = delete;
  SpoolBuffer& operator=(const SpoolBuffer&) = delete;

  Status append(const std::byte* data, std::size_t size) {
    while (size > 0 && mem_bytes_ < mem_limit_) {
      const auto within =
          static_cast<std::size_t>(mem_bytes_ % kSpoolBlockBytes);
      if (within == 0) {
        blocks_.push_back(std::make_unique<std::byte[]>(kSpoolBlockBytes));
        peak_bytes_ = std::max<std::uint64_t>(
            peak_bytes_, blocks_.size() * kSpoolBlockBytes + scratch_held_);
      }
      const std::size_t take = std::min(
          {size, kSpoolBlockBytes - within,
           static_cast<std::size_t>(mem_limit_ - mem_bytes_)});
      std::memcpy(blocks_.back().get() + within, data, take);
      data += take;
      size -= take;
      mem_bytes_ += take;
    }
    if (size == 0) return OkStatus();
    CRAC_RETURN_IF_ERROR(ensure_overflow_file());
    CRAC_RETURN_IF_ERROR(write_all_fd(file_fd_, data, size,
                                      origin_ + " spool overflow file"));
    file_bytes_ += size;
    return OkStatus();
  }

  // Copies [pos, pos + size) into `out`. The caller guarantees the range is
  // below appended() and will never be appended to again.
  Status read_at(std::uint64_t pos, void* out, std::size_t size) const {
    auto* p = static_cast<std::byte*>(out);
    // Memory-prefix part.
    while (size > 0 && pos < mem_bytes_) {
      const auto block = static_cast<std::size_t>(pos / kSpoolBlockBytes);
      const auto within = static_cast<std::size_t>(pos % kSpoolBlockBytes);
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>({size, kSpoolBlockBytes - within,
                                   mem_bytes_ - pos}));
      std::memcpy(p, blocks_[block].get() + within, take);
      p += take;
      pos += take;
      size -= take;
    }
    // Overflow-file part (pread straight into the caller's buffer — the
    // spool stages nothing on the read path).
    while (size > 0) {
      const auto file_off = static_cast<::off_t>(pos - mem_bytes_);
      const ::ssize_t n = ::pread(file_fd_, p, size, file_off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoError(origin_ + ": spool overflow file read failed");
      }
      if (n == 0) {
        return Corrupt(origin_ + ": spool overflow file truncated under read");
      }
      p += n;
      pos += static_cast<std::uint64_t>(n);
      size -= static_cast<std::size_t>(n);
    }
    return OkStatus();
  }

  void release_scratch() noexcept { scratch_held_ = 0; }

  std::uint64_t appended() const noexcept { return mem_bytes_ + file_bytes_; }
  std::uint64_t file_bytes() const noexcept { return file_bytes_; }
  std::uint64_t peak_bytes() const noexcept { return peak_bytes_; }

 private:
  Status ensure_overflow_file() {
    if (file_fd_ >= 0) return OkStatus();
    // Anonymous: no debris on any exit path, and no path another process
    // could observe half-written.
    auto fd = open_unlinked_temp("crac_spool_");
    if (!fd.ok()) {
      return IoError(origin_ + ": cannot create spool overflow file: " +
                     fd.status().message());
    }
    file_fd_ = *fd;
    return OkStatus();
  }

  std::string origin_;
  std::size_t mem_limit_;      // memory-prefix budget (cap minus scratch)
  std::size_t scratch_held_;   // receive scratch, counted against the cap
  std::deque<std::unique_ptr<std::byte[]>> blocks_;
  std::uint64_t mem_bytes_ = 0;   // logical bytes held in blocks_
  int file_fd_ = -1;              // unlinked overflow file
  std::uint64_t file_bytes_ = 0;  // logical bytes past the memory prefix
  std::uint64_t peak_bytes_ = 0;
};

namespace {

// Validates/defaults the cap and splits it into receive scratch + whole
// blocks of memory spool.
Status plan_spool(const StreamingSpoolSource::Options& opts,
                  std::size_t* scratch, std::size_t* mem_limit) {
  std::size_t cap = opts.spool_cap_bytes;
  if (cap == 0) cap = kDefaultSpoolCapBytes;
  if (cap < kMinSpoolCapBytes) {
    return InvalidArgument("spool cap " + std::to_string(cap) +
                           " below the " + std::to_string(kMinSpoolCapBytes) +
                           "-byte minimum (receive scratch must fit under "
                           "the cap)");
  }
  // Scratch (file-bound bytes stage through it) and the memory prefix
  // together must stay under the cap; whatever the scratch does not take is
  // whole blocks of memory spool.
  *scratch = std::min(kShipFrameBytes, cap / 2);
  *mem_limit = ((cap - *scratch) / kSpoolBlockBytes) * kSpoolBlockBytes;
  return OkStatus();
}

std::string truncated_read_message(const std::string& origin,
                                   std::size_t wanted, std::uint64_t pos,
                                   std::uint64_t remain) {
  return origin + ": truncated image (wanted " + std::to_string(wanted) +
         " bytes at offset " + std::to_string(pos) + ", " +
         std::to_string(remain) + " remain)";
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketSink
// ---------------------------------------------------------------------------

SocketSink::SocketSink(int fd, std::string origin)
    : fd_(fd), origin_(std::move(origin)) {
  buf_.reserve(kShipFrameBytes);
}

SocketSink::~SocketSink() = default;

Status SocketSink::send_header() {
  if (header_sent_) return OkStatus();
  const std::vector<std::byte> header = encode_ship_header();
  CRAC_RETURN_IF_ERROR(write_all_fd(fd_, header.data(), header.size(), origin_));
  header_sent_ = true;
  return OkStatus();
}

Status SocketSink::send_frame() {
  if (buf_.empty()) return OkStatus();
  const auto len = static_cast<std::uint32_t>(buf_.size());
  CRAC_RETURN_IF_ERROR(write_all_fd(fd_, &len, sizeof(len), origin_));
  CRAC_RETURN_IF_ERROR(write_all_fd(fd_, buf_.data(), buf_.size(), origin_));
  buf_.clear();
  return OkStatus();
}

Status SocketSink::do_write(const void* data, std::size_t size) {
  if (!error_.ok()) return error_;
  if (closed_) {
    return (error_ = FailedPrecondition(origin_ + ": write after close"));
  }
  if ((error_ = send_header()); !error_.ok()) return error_;
  crc_ = crc32(data, size, crc_);
  total_ += size;
  const auto* p = static_cast<const std::byte*>(data);
  while (size > 0) {
    if (buf_.empty() && size >= kShipFrameBytes) {
      // Bulk path: a full frame ships straight from the caller's buffer —
      // the multi-MiB slices checkpoint producers append never pay a
      // staging copy. Only sub-frame tails and small appends coalesce.
      const std::uint32_t len = kShipFrameBytes;
      if ((error_ = write_all_fd(fd_, &len, sizeof(len), origin_));
          !error_.ok()) {
        return error_;
      }
      if ((error_ = write_all_fd(fd_, p, kShipFrameBytes, origin_));
          !error_.ok()) {
        return error_;
      }
      p += kShipFrameBytes;
      size -= kShipFrameBytes;
      continue;
    }
    const std::size_t take = std::min(size, kShipFrameBytes - buf_.size());
    buf_.insert(buf_.end(), p, p + take);
    p += take;
    size -= take;
    if (buf_.size() == kShipFrameBytes) {
      if ((error_ = send_frame()); !error_.ok()) return error_;
    }
  }
  return OkStatus();
}

Status SocketSink::flush() {
  if (!error_.ok()) return error_;
  if ((error_ = send_header()).ok()) error_ = send_frame();
  return error_;
}

Status SocketSink::close() {
  if (closed_) return error_;
  CRAC_RETURN_IF_ERROR(flush());
  // Terminator + trailer: the receiver accepts the stream only after
  // verifying this byte count and CRC, so anything short of a clean close
  // reads as an incomplete shipment on the far side.
  ByteWriter w;
  w.put_u32(0);
  w.put_u64(total_);
  w.put_u32(crc_);
  error_ = write_all_fd(fd_, w.data(), w.size(), origin_);
  closed_ = true;
  return error_;
}

Status SocketSink::abort() {
  if (closed_) return error_;
  closed_ = true;
  // The pending partial frame never went out, so the wire sits at a frame
  // boundary — exactly where the abort marker is meaningful. The header
  // must precede it if nothing was sent yet (a receiver validates the
  // header before it can understand any marker).
  buf_.clear();
  Status s = send_header();
  if (s.ok()) {
    const std::uint32_t marker = kShipAbortMarker;
    s = write_all_fd(fd_, &marker, sizeof(marker), origin_);
  }
  return s;
}

// ---------------------------------------------------------------------------
// StreamingSpoolSource
// ---------------------------------------------------------------------------

// All shared receive state, guarded by one mutex. The receiver thread
// appends and publishes; the consumer thread waits on the condvar for the
// ranges it needs. Appends and copies happen under the lock — both move at
// memory/page-cache speed, so the serialization is noise next to the wire,
// and it keeps every access trivially race-free (the suites run under
// TSan).
class StreamingSpoolSource::Impl {
 public:
  Impl(std::size_t mem_limit, std::size_t scratch, const std::string& origin)
      : buf(mem_limit, scratch, origin) {}

  mutable std::mutex mu;
  std::condition_variable cv;
  SpoolBuffer buf;
  // Bytes released to readers. Trails the receive frontier by exactly the
  // frame currently being received: the last frame of the stream is
  // published only by trailer verification, so a reader can never consume
  // the image's final bytes from a shipment with a damaged trailer.
  std::uint64_t published = 0;
  std::uint64_t total = 0;  // meaningful once complete && error.ok()
  bool complete = false;    // receiver finished (either way)
  Status error;             // stream failure, sticky
};

StreamingSpoolSource::StreamingSpoolSource(const Options& opts)
    : origin_(opts.origin), outcome_(std::make_shared<Outcome>()) {}

Result<std::unique_ptr<StreamingSpoolSource>> StreamingSpoolSource::start(
    int fd, const Options& opts) {
  std::size_t scratch = 0, mem_limit = 0;
  CRAC_RETURN_IF_ERROR(plan_spool(opts, &scratch, &mem_limit));

  // Phase 1, synchronous: the 16-byte ship header. A stream that is not a
  // checkpoint shipment at all fails here, fast, before any thread or spool
  // exists — and everything after the header is the receiver thread's.
  std::byte header[kShipHeaderBytes];
  CRAC_RETURN_IF_ERROR(read_all_fd(fd, header, sizeof(header), opts.origin));
  CRAC_RETURN_IF_ERROR(check_ship_header(header, opts.origin));

  auto source =
      std::unique_ptr<StreamingSpoolSource>(new StreamingSpoolSource(opts));
  source->impl_ =
      std::make_unique<Impl>(mem_limit, scratch, source->origin_);

  // Phase 2: spool frames and publish ranges until the trailer (or the
  // stream's death).
  Impl* impl = source->impl_.get();
  Outcome* outcome = source->outcome_.get();
  const std::string origin = source->origin_;
  source->receiver_ = std::thread([fd, impl, outcome, origin, scratch] {
    const Status s = walk_ship_frames(
        fd, origin, scratch,
        [impl](const std::byte* data, std::size_t size) {
          std::lock_guard<std::mutex> lock(impl->mu);
          return impl->buf.append(data, size);
        },
        [impl] {
          // A new frame is beginning: everything already appended belongs
          // to previous frames and is now releasable.
          std::lock_guard<std::mutex> lock(impl->mu);
          impl->published = impl->buf.appended();
          impl->cv.notify_all();
        },
        /*ended_in_band=*/nullptr);
    std::lock_guard<std::mutex> lock(impl->mu);
    impl->buf.release_scratch();
    if (s.ok()) {
      // Trailer verified: the held-back final frame is released.
      impl->total = impl->buf.appended();
      impl->published = impl->total;
    } else {
      impl->error = s;
    }
    // Outcome fields are written before `complete` flips under the mutex;
    // anyone reading them has either seen complete (wait_complete) or
    // joined the thread (destruction) — both establish the ordering.
    outcome->status = s;
    outcome->total_bytes = impl->buf.appended();
    outcome->peak_resident_bytes = impl->buf.peak_bytes();
    outcome->spooled_to_disk_bytes = impl->buf.file_bytes();
    outcome->complete = true;
    impl->complete = true;
    impl->cv.notify_all();
  });
  return source;
}

StreamingSpoolSource::~StreamingSpoolSource() {
  // Joining doubles as a drain: a consumer that abandons a restore
  // mid-stream still consumes the remaining frames off the fd, so a control
  // connection carrying the shipment stays synchronized.
  if (receiver_.joinable()) receiver_.join();
}

Status StreamingSpoolSource::read(void* out, std::size_t size) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv.wait(lock, [&] {
    return impl_->complete || pos_ + size <= impl_->published;
  });
  if (pos_ + size <= impl_->published && pos_ + size >= pos_) {
    CRAC_RETURN_IF_ERROR(impl_->buf.read_at(pos_, out, size));
    pos_ += size;
    return OkStatus();
  }
  if (!impl_->error.ok()) return impl_->error;
  return Corrupt(truncated_read_message(
      origin_, size, pos_,
      pos_ <= impl_->total ? impl_->total - pos_ : 0));
}

Status StreamingSpoolSource::seek(std::uint64_t offset) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->complete && impl_->error.ok() && offset > impl_->total) {
      return Corrupt(origin_ + ": seek past end of image");
    }
  }
  // While the end is unknown the scan may park the cursor beyond the
  // receive frontier; the next read or at_end validates.
  pos_ = offset;
  return OkStatus();
}

std::uint64_t StreamingSpoolSource::size() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->complete && impl_->error.ok() ? impl_->total : kUnknownSize;
}

bool StreamingSpoolSource::end_known() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->complete && impl_->error.ok();
}

Result<bool> StreamingSpoolSource::at_end(std::uint64_t offset) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv.wait(lock, [&] {
    return impl_->complete || offset < impl_->published;
  });
  if (offset < impl_->published) return false;
  if (!impl_->error.ok()) return impl_->error;
  if (offset > impl_->total) {
    return Corrupt(origin_ +
                   ": section directory runs past the end of the shipped "
                   "stream");
  }
  return offset == impl_->total;
}

Status StreamingSpoolSource::wait_complete() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv.wait(lock, [&] { return impl_->complete; });
  return impl_->error;
}

// ---------------------------------------------------------------------------
// pump_ship_stream
// ---------------------------------------------------------------------------

Status pump_ship_stream(int in_fd, Sink& sink, const std::string& origin,
                        bool* upstream_in_band) {
  bool ended = false;
  const Status s = walk_ship_stream(
      in_fd, origin, kSpoolBlockBytes,
      [&sink](const std::byte* data, std::size_t size) {
        return sink.write(data, size);
      },
      &ended);
  if (upstream_in_band != nullptr) *upstream_in_band = ended;
  return s;
}

}  // namespace crac::ckpt
