#include "registry/persist.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/crc32.hpp"
#include "common/fd_io.hpp"

namespace crac::registry {

// ---- fault points ----------------------------------------------------------

namespace {
std::atomic<testhooks::FaultHook> g_fault_hook{nullptr};
}  // namespace

namespace testhooks {
void set_fault_hook(FaultHook hook) {
  g_fault_hook.store(hook, std::memory_order_release);
}
}  // namespace testhooks

void fault_point(const char* point) {
  if (auto* hook = g_fault_hook.load(std::memory_order_acquire)) hook(point);
}

// ---- small local helpers ---------------------------------------------------

namespace {

constexpr std::uint32_t kFormatVersion = 1;

// Opens the WAL — creating it, or restarting a creation torn before its
// header landed — positioned for appends; returns the fd and its size.
Result<std::pair<int, std::uint64_t>> open_wal(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return IoError(path + ": open failed: " + std::strerror(errno));
  }
  auto fail = [fd](Status s) {
    ::close(fd);
    return s;
  };
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return fail(IoError(path + ": fstat failed: " + std::strerror(errno)));
  }
  std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kWalFileHeaderBytes) {
    if (::ftruncate(fd, 0) != 0) {
      return fail(IoError(path + ": reset failed: " + std::strerror(errno)));
    }
    ByteWriter header;
    header.put_bytes(kWalMagic, 8);
    header.put_u32(kFormatVersion);
    if (Status s = write_all_fd(fd, header.data(), header.size(), path);
        !s.ok()) {
      return fail(s);
    }
    size = header.size();
  } else {
    char have[8];
    if (Status s = pread_all_fd(fd, have, sizeof(have), 0, path); !s.ok()) {
      return fail(s);
    }
    if (std::memcmp(have, kWalMagic, 8) != 0) {
      return fail(Corrupt(path + ": bad file magic"));
    }
  }
  // Appends go through write(); position at the end.
  if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    return fail(IoError(path + ": seek failed: " + std::strerror(errno)));
  }
  return std::make_pair(fd, size);
}

}  // namespace

// ---- image record wire format ----------------------------------------------

void encode_image_record(const ImageRecordWire& rec, ByteWriter& out) {
  out.put_string(rec.name);
  out.put_u32(rec.framing);
  out.put_u64(rec.image_bytes);
  out.put_u64(rec.raw_bytes);
  out.put_u64(rec.last_use);
  out.put_string(rec.image_id);
  out.put_string(rec.parent_id);
  out.put_string(rec.parent_path);
  out.put_u64(rec.literals.size());
  out.put_bytes(rec.literals.data(), rec.literals.size());
  out.put_u32(static_cast<std::uint32_t>(rec.segs.size()));
  for (const auto& s : rec.segs) {
    out.put_u64(s.logical_offset);
    out.put_u64(s.size);
    out.put_u8(s.chunk ? 1 : 0);
    if (s.chunk) {
      out.put_u32(s.codec);
      out.put_u64(s.raw_size);
      out.put_u64(s.stored_size);
      out.put_u32(s.crc);
    } else {
      out.put_u64(s.lit_offset);
    }
  }
}

Status decode_image_record(ByteReader& in, ImageRecordWire& out) {
  CRAC_RETURN_IF_ERROR(in.get_string(out.name));
  CRAC_RETURN_IF_ERROR(in.get_u32(out.framing));
  CRAC_RETURN_IF_ERROR(in.get_u64(out.image_bytes));
  CRAC_RETURN_IF_ERROR(in.get_u64(out.raw_bytes));
  CRAC_RETURN_IF_ERROR(in.get_u64(out.last_use));
  CRAC_RETURN_IF_ERROR(in.get_string(out.image_id));
  CRAC_RETURN_IF_ERROR(in.get_string(out.parent_id));
  CRAC_RETURN_IF_ERROR(in.get_string(out.parent_path));
  std::uint64_t lit_len = 0;
  CRAC_RETURN_IF_ERROR(in.get_u64(lit_len));
  if (lit_len > in.remaining()) {
    return Corrupt("image record: truncated literal block");
  }
  out.literals.resize(lit_len);
  CRAC_RETURN_IF_ERROR(in.get_bytes(out.literals.data(), lit_len));
  std::uint32_t seg_count = 0;
  CRAC_RETURN_IF_ERROR(in.get_u32(seg_count));
  out.segs.clear();
  // Each segment costs at least 25 encoded bytes (offset, size, kind and an
  // 8-byte literal offset); a hostile count cannot demand more reserve.
  out.segs.reserve(std::min<std::uint64_t>(seg_count, in.remaining() / 25));
  for (std::uint32_t i = 0; i < seg_count; ++i) {
    ImageRecordWire::Seg s;
    CRAC_RETURN_IF_ERROR(in.get_u64(s.logical_offset));
    CRAC_RETURN_IF_ERROR(in.get_u64(s.size));
    std::uint8_t is_chunk = 0;
    CRAC_RETURN_IF_ERROR(in.get_u8(is_chunk));
    s.chunk = is_chunk != 0;
    if (s.chunk) {
      CRAC_RETURN_IF_ERROR(in.get_u32(s.codec));
      CRAC_RETURN_IF_ERROR(in.get_u64(s.raw_size));
      CRAC_RETURN_IF_ERROR(in.get_u64(s.stored_size));
      CRAC_RETURN_IF_ERROR(in.get_u32(s.crc));
    } else {
      CRAC_RETURN_IF_ERROR(in.get_u64(s.lit_offset));
    }
    out.segs.push_back(s);
  }
  return OkStatus();
}

// ---- lifecycle -------------------------------------------------------------

DurableStore::DurableStore(std::string dir) : dir_(std::move(dir)) {}

DurableStore::~DurableStore() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

Result<std::unique_ptr<DurableStore>> DurableStore::open(
    const std::string& dir) {
  if (dir.empty()) return InvalidArgument("registry dir must be non-empty");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError(dir + ": mkdir failed: " + std::strerror(errno));
  }
  auto store = std::unique_ptr<DurableStore>(new DurableStore(dir));
  CRAC_ASSIGN_OR_RETURN(auto wal, open_wal(dir + "/wal.log"));
  store->wal_fd_ = wal.first;
  store->wal_end_ = wal.second;
  return store;
}

// ---- WAL -------------------------------------------------------------------

Status DurableStore::append_wal_locked(std::uint32_t kind,
                                       const std::vector<std::byte>& body) {
  const std::string origin = dir_ + "/wal.log";
  ByteWriter header;
  header.put_u32(kWalRecordMagic);
  header.put_u32(kind);
  header.put_u64(body.size());
  header.put_u32(crc32(body.data(), body.size()));
  header.put_u32(crc32(header.data(), header.size()));
  CRAC_RETURN_IF_ERROR(
      write_all_fd(wal_fd_, header.data(), header.size(), origin));
  fault_point("wal-record-mid");
  CRAC_RETURN_IF_ERROR(
      write_all_fd(wal_fd_, body.data(), body.size(), origin));
  CRAC_RETURN_IF_ERROR(fdatasync_fd(wal_fd_, origin));
  wal_end_ += header.size() + body.size();
  return OkStatus();
}

Status DurableStore::log_commit(const ImageRecordWire& image) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_point("slab-synced-pre-wal");
  ByteWriter body;
  encode_image_record(image, body);
  return append_wal_locked(kWalKindCommit, std::move(body).take());
}

Status DurableStore::log_remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter body;
  body.put_string(name);
  return append_wal_locked(kWalKindRemove, std::move(body).take());
}

Status DurableStore::replay_wal(
    std::map<std::string, ImageRecordWire>& images) {
  const std::string origin = dir_ + "/wal.log";
  std::uint64_t pos = kWalFileHeaderBytes;
  std::uint64_t good_end = pos;
  while (pos + kWalRecordHeaderBytes <= wal_end_) {
    std::byte header[kWalRecordHeaderBytes];
    CRAC_RETURN_IF_ERROR(
        pread_all_fd(wal_fd_, header, sizeof(header), pos, origin));
    ByteReader r(header, sizeof(header));
    std::uint32_t magic = 0, kind = 0, body_crc = 0, header_crc = 0;
    std::uint64_t body_len = 0;
    (void)r.get_u32(magic);
    (void)r.get_u32(kind);
    (void)r.get_u64(body_len);
    (void)r.get_u32(body_crc);
    (void)r.get_u32(header_crc);
    if (magic != kWalRecordMagic ||
        crc32(header, kWalRecordHeaderBytes - 4) != header_crc) {
      break;
    }
    if (pos + kWalRecordHeaderBytes + body_len > wal_end_) break;
    std::vector<std::byte> body(body_len);
    if (body_len > 0) {
      CRAC_RETURN_IF_ERROR(pread_all_fd(wal_fd_, body.data(), body_len,
                                     pos + kWalRecordHeaderBytes, origin));
    }
    if (crc32(body.data(), body.size()) != body_crc) break;
    ByteReader br(body);
    if (kind == kWalKindCommit) {
      ImageRecordWire rec;
      // A record that CRC-verifies but fails to decode is a format bug, not
      // a torn write — surface it instead of silently truncating.
      CRAC_RETURN_IF_ERROR(decode_image_record(br, rec));
      images[rec.name] = std::move(rec);
    } else if (kind == kWalKindRemove) {
      std::string name;
      CRAC_RETURN_IF_ERROR(br.get_string(name));
      images.erase(name);
    } else {
      return Corrupt(origin + ": unknown WAL record kind " +
                     std::to_string(kind));
    }
    pos += kWalRecordHeaderBytes + body_len;
    good_end = pos;
  }
  if (good_end < wal_end_) {
    truncated_wal_ = wal_end_ - good_end;
    if (::ftruncate(wal_fd_, static_cast<off_t>(good_end)) != 0) {
      return IoError(origin + ": truncate failed: " + std::strerror(errno));
    }
    if (::lseek(wal_fd_, static_cast<off_t>(good_end), SEEK_SET) < 0) {
      return IoError(origin + ": seek failed: " + std::strerror(errno));
    }
    wal_end_ = good_end;
  }
  return OkStatus();
}

// ---- manifest --------------------------------------------------------------

Status DurableStore::load_manifest(
    std::map<std::string, ImageRecordWire>& images) {
  const std::string path = dir_ + "/manifest";
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return OkStatus();  // fresh directory
    return IoError(path + ": open failed: " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return IoError(path + ": fstat failed: " + std::strerror(errno));
  }
  std::vector<std::byte> buf(static_cast<std::size_t>(st.st_size));
  Status s = buf.empty()
                 ? OkStatus()
                 : pread_all_fd(fd, buf.data(), buf.size(), 0, path);
  ::close(fd);
  CRAC_RETURN_IF_ERROR(s);
  // The manifest commits atomically via rename, so a malformed one is
  // corruption, not a torn write.
  if (buf.size() < 8 + 4 + 4 + 4 ||
      std::memcmp(buf.data(), kManifestMagic, 8) != 0) {
    return Corrupt(path + ": bad manifest header");
  }
  std::uint32_t want_crc = 0;
  std::memcpy(&want_crc, buf.data() + buf.size() - 4, 4);
  if (crc32(buf.data(), buf.size() - 4) != want_crc) {
    return Corrupt(path + ": manifest CRC mismatch");
  }
  ByteReader r(buf.data() + 8, buf.size() - 8 - 4);
  std::uint32_t version = 0, count = 0;
  CRAC_RETURN_IF_ERROR(r.get_u32(version));
  if (version != kFormatVersion) {
    return Corrupt(path + ": unsupported manifest version " +
                   std::to_string(version));
  }
  CRAC_RETURN_IF_ERROR(r.get_u32(count));
  for (std::uint32_t i = 0; i < count; ++i) {
    ImageRecordWire rec;
    CRAC_RETURN_IF_ERROR(decode_image_record(r, rec));
    images[rec.name] = std::move(rec);
  }
  return OkStatus();
}

Status DurableStore::checkpoint(const std::vector<ImageRecordWire>& images) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string live_path = dir_ + "/manifest";
  const std::string tmp_path = dir_ + "/manifest.tmp";
  ByteWriter w;
  w.put_bytes(kManifestMagic, 8);
  w.put_u32(kFormatVersion);
  w.put_u32(static_cast<std::uint32_t>(images.size()));
  for (const auto& rec : images) encode_image_record(rec, w);
  w.put_u32(crc32(w.data(), w.size()));

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return IoError(tmp_path + ": open failed: " + std::strerror(errno));
  }
  Status s = write_all_fd(fd, w.data(), w.size(), tmp_path);
  if (s.ok()) s = fdatasync_fd(fd, tmp_path);
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp_path.c_str());
    return s;
  }
  fault_point("wal-synced-pre-manifest-rename");
  if (::rename(tmp_path.c_str(), live_path.c_str()) != 0) {
    const Status r =
        IoError(tmp_path + ": rename failed: " + std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return r;
  }
  CRAC_RETURN_IF_ERROR(fsync_dir(dir_));
  // The manifest now holds everything the WAL said; restart the log.
  if (::ftruncate(wal_fd_, static_cast<off_t>(kWalFileHeaderBytes)) != 0 ||
      ::lseek(wal_fd_, static_cast<off_t>(kWalFileHeaderBytes), SEEK_SET) <
          0) {
    return IoError(dir_ + "/wal.log: truncate failed: " +
                   std::strerror(errno));
  }
  CRAC_RETURN_IF_ERROR(fdatasync_fd(wal_fd_, dir_ + "/wal.log"));
  wal_end_ = kWalFileHeaderBytes;
  return OkStatus();
}

// ---- recovery --------------------------------------------------------------

Result<std::vector<ImageRecordWire>> DurableStore::load() {
  std::lock_guard<std::mutex> lock(mu_);
  // A manifest.tmp is a checkpoint that never reached its rename commit
  // point — stale by definition.
  ::unlink((dir_ + "/manifest.tmp").c_str());
  std::map<std::string, ImageRecordWire> images;
  CRAC_RETURN_IF_ERROR(load_manifest(images));
  CRAC_RETURN_IF_ERROR(replay_wal(images));
  std::vector<ImageRecordWire> out;
  out.reserve(images.size());
  for (auto& [name, rec] : images) out.push_back(std::move(rec));
  return out;
}

std::uint64_t DurableStore::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_end_ > kWalFileHeaderBytes ? wal_end_ - kWalFileHeaderBytes : 0;
}

std::uint64_t DurableStore::truncated_wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_wal_;
}

}  // namespace crac::registry
