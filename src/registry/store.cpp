#include "registry/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/fd_io.hpp"
#include "registry/persist.hpp"

namespace crac::registry {

class SlabFile {
 public:
  SlabFile(int fd, std::string origin) : fd_(fd), origin_(std::move(origin)) {}
  ~SlabFile() { ::close(fd_); }

  SlabFile(const SlabFile&) = delete;
  SlabFile& operator=(const SlabFile&) = delete;

  int fd() const noexcept { return fd_; }
  const std::string& origin() const noexcept { return origin_; }
  Status pread(void* out, std::size_t size, std::uint64_t offset) const {
    return pread_all_fd(fd_, out, size, offset, origin_);
  }

 private:
  int fd_;
  std::string origin_;
};

namespace {

constexpr std::uint64_t record_bytes(std::uint64_t stored_size) {
  return kSlabRecordHeaderBytes + stored_size;
}

ByteWriter encode_record_header(const ChunkKey& key, std::uint64_t stored_size,
                                std::uint32_t stored_crc) {
  ByteWriter w;
  w.put_u32(kSlabRecordMagic);
  w.put_u32(key.codec);
  w.put_u64(key.raw_size);
  w.put_u32(key.crc);
  w.put_u64(stored_size);
  w.put_u32(stored_crc);
  w.put_u32(crc32(w.data(), w.size()));
  return w;
}

Status write_file_header(int fd, const std::string& origin) {
  ByteWriter header;
  header.put_bytes(kSlabMagic, 8);
  header.put_u32(kSlabFormatVersion);
  return write_all_fd(fd, header.data(), header.size(), origin);
}

// An unlinked file in $TMPDIR (default /tmp): a volatile store's slab,
// gone with its last descriptor.
Result<int> open_anonymous_file() {
  const char* tmp = std::getenv("TMPDIR");
  std::string path = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  path += "/crac_slab_XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return IoError(path + ": mkstemp failed: " + std::strerror(errno));
  }
  ::unlink(path.c_str());
  return fd;
}

// Reads a payload whole and compares it with its stored CRC.
Result<bool> crc_matches(const SlabFile& file, std::uint64_t offset,
                         std::uint64_t size, std::uint32_t crc) {
  std::vector<std::byte> bytes(size);
  CRAC_RETURN_IF_ERROR(file.pread(bytes.data(), bytes.size(), offset));
  return crc32(bytes.data(), bytes.size()) == crc;
}

Status corrupt_chunk(const std::string& origin, const ChunkKey& key) {
  return Corrupt(origin + ": stored payload of chunk (codec " +
                 std::to_string(key.codec) + ", raw size " +
                 std::to_string(key.raw_size) + ", raw crc " +
                 std::to_string(key.crc) + ") fails its CRC");
}

}  // namespace

ChunkStore::ChunkStore() = default;

ChunkStore::~ChunkStore() = default;

Status ChunkStore::open_check_locked() const {
  if (opened_) return OkStatus();
  return open_error_;
}

Status ChunkStore::open(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_) return FailedPrecondition("chunk store is already open");
  std::string origin = "volatile chunk slab";
  int fd = -1;
  if (dir.empty()) {
    Result<int> anon = open_anonymous_file();
    if (!anon.ok()) return open_error_ = anon.status();
    fd = *anon;
  } else {
    origin = dir + "/chunks.slab";
    // A compaction that never reached its rename commit point.
    ::unlink((origin + ".tmp").c_str());
    fd = ::open(origin.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      return open_error_ =
                 IoError(origin + ": open failed: " + std::strerror(errno));
    }
  }
  auto file = std::make_shared<SlabFile>(fd, origin);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return open_error_ =
               IoError(origin + ": fstat failed: " + std::strerror(errno));
  }
  std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kSlabFileHeaderBytes) {
    // New, or a creation torn before its header landed: start over.
    if (::ftruncate(fd, 0) != 0) {
      return open_error_ =
                 IoError(origin + ": reset failed: " + std::strerror(errno));
    }
    if (Status s = write_file_header(fd, origin); !s.ok()) {
      return open_error_ = s;
    }
    size = kSlabFileHeaderBytes;
  } else {
    char magic[8];
    if (Status s = file->pread(magic, sizeof(magic), 0); !s.ok()) {
      return open_error_ = s;
    }
    if (std::memcmp(magic, kSlabMagic, sizeof(magic)) != 0) {
      return open_error_ = Corrupt(origin + ": bad file magic");
    }
  }
  // Appends go through write(); position at the end.
  if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    return open_error_ =
               IoError(origin + ": seek failed: " + std::strerror(errno));
  }
  dir_ = dir;
  slab_ = std::move(file);
  slab_end_ = size;
  opened_ = true;
  return OkStatus();
}

Status ChunkStore::scan() {
  std::lock_guard<std::mutex> lock(mu_);
  CRAC_RETURN_IF_ERROR(open_check_locked());
  index_.clear();
  dead_bytes_ = 0;
  truncated_bytes_ = 0;
  std::uint64_t pos = kSlabFileHeaderBytes;
  while (pos + kSlabRecordHeaderBytes <= slab_end_) {
    std::byte header[kSlabRecordHeaderBytes];
    CRAC_RETURN_IF_ERROR(slab_->pread(header, sizeof(header), pos));
    ByteReader r(header, sizeof(header));
    std::uint32_t magic = 0, header_crc = 0;
    ChunkKey key;
    Entry entry;
    entry.offset = pos;
    (void)r.get_u32(magic);
    (void)r.get_u32(key.codec);
    (void)r.get_u64(key.raw_size);
    (void)r.get_u32(key.crc);
    (void)r.get_u64(entry.stored_size);
    (void)r.get_u32(entry.stored_crc);
    (void)r.get_u32(header_crc);
    if (magic != kSlabRecordMagic ||
        crc32(header, kSlabRecordHeaderBytes - 4) != header_crc) {
      break;  // torn or garbage header: everything from here is the tail
    }
    if (entry.stored_size > slab_end_ - pos - kSlabRecordHeaderBytes) {
      break;  // header landed, payload didn't
    }
    // Last record wins: a record is only ever appended for a key whose
    // earlier record was dead or damaged. Every record starts dead.
    index_[key] = entry;
    dead_bytes_ += record_bytes(entry.stored_size);
    pos += record_bytes(entry.stored_size);
  }
  if (pos < slab_end_) {
    truncated_bytes_ = slab_end_ - pos;
    if (::ftruncate(slab_->fd(), static_cast<off_t>(pos)) != 0 ||
        ::lseek(slab_->fd(), static_cast<off_t>(pos), SEEK_SET) < 0) {
      return IoError(slab_->origin() +
                     ": truncate failed: " + std::strerror(errno));
    }
    slab_end_ = pos;
  }
  return OkStatus();
}

Status ChunkStore::append_locked(const ChunkKey& key, const std::byte* stored,
                                 std::size_t size, Entry& entry) {
  const std::uint32_t stored_crc = crc32(stored, size);
  const ByteWriter header = encode_record_header(key, size, stored_crc);
  Status wrote =
      write_all_fd(slab_->fd(), header.data(), header.size(), slab_->origin());
  fault_point("slab-append-mid");
  if (wrote.ok()) {
    wrote = write_all_fd(slab_->fd(), stored, size, slab_->origin());
  }
  if (!wrote.ok()) {
    // Cut the partial record so the next append lands at slab_end_.
    (void)!::ftruncate(slab_->fd(), static_cast<off_t>(slab_end_));
    (void)::lseek(slab_->fd(), static_cast<off_t>(slab_end_), SEEK_SET);
    return wrote;
  }
  entry.offset = slab_end_;
  entry.stored_size = size;
  entry.stored_crc = stored_crc;
  entry.check = Check::kGood;  // this process wrote these very bytes
  slab_end_ += record_bytes(size);
  return OkStatus();
}

Status ChunkStore::check_locked(const ChunkKey& key, Entry& entry) {
  CRAC_ASSIGN_OR_RETURN(
      const bool good,
      crc_matches(*slab_, entry.offset + kSlabRecordHeaderBytes,
                  entry.stored_size, entry.stored_crc));
  entry.check = good ? Check::kGood : Check::kBad;
  return good ? OkStatus() : corrupt_chunk(slab_->origin(), key);
}

Status ChunkStore::put(const ChunkKey& key, const std::byte* stored,
                       std::size_t stored_size) {
  std::lock_guard<std::mutex> lock(mu_);
  CRAC_RETURN_IF_ERROR(open_check_locked());
  auto it = index_.find(key);
  if (it == index_.end()) {
    Entry entry;
    CRAC_RETURN_IF_ERROR(append_locked(key, stored, stored_size, entry));
    entry.refs = 1;
    index_.emplace(key, entry);
    return OkStatus();
  }
  Entry& entry = it->second;
  if (entry.stored_size != stored_size) {
    // Same (codec, raw size, raw CRC) but different stored bytes: the
    // stored payload is a deterministic function of the raw bytes under
    // one codec, so this is either a genuine CRC32 collision or a
    // corrupted frame. Refuse rather than alias.
    return Corrupt("chunk store key collision: stored sizes " +
                   std::to_string(entry.stored_size) + " vs " +
                   std::to_string(stored_size) + " under one key");
  }
  if (entry.check == Check::kUnchecked) {
    // The WAL commit about to name this key must find a sound payload, so
    // this is the record's first read in this process, live or dead.
    Status checked = check_locked(key, entry);
    if (!checked.ok() && checked.code() != StatusCode::kCorrupt) {
      return checked;
    }
  }
  if (entry.check == Check::kGood) {
    if (entry.refs++ == 0) {
      dead_bytes_ -= record_bytes(entry.stored_size);  // resurrected
    } else {
      ++dedup_hits_;
    }
    return OkStatus();
  }
  // The indexed record is damaged: a fresh copy supersedes it, and the old
  // record (dead already, or dead from now on) waits for compaction.
  const bool was_live = entry.refs > 0;
  const std::uint64_t old_bytes = record_bytes(entry.stored_size);
  CRAC_RETURN_IF_ERROR(append_locked(key, stored, stored_size, entry));
  if (was_live) dead_bytes_ += old_bytes;
  ++entry.refs;
  return OkStatus();
}

Status ChunkStore::add_ref(const ChunkKey& key, std::uint64_t stored_size) {
  std::lock_guard<std::mutex> lock(mu_);
  CRAC_RETURN_IF_ERROR(open_check_locked());
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Corrupt(slab_->origin() + ": no record of chunk (raw crc " +
                   std::to_string(key.crc) + ")");
  }
  if (it->second.stored_size != stored_size) {
    return Corrupt(slab_->origin() + ": chunk (raw crc " +
                   std::to_string(key.crc) + ") stored-size mismatch vs " +
                   "its record");
  }
  if (it->second.refs++ == 0) {
    dead_bytes_ -= record_bytes(it->second.stored_size);
  }
  return OkStatus();
}

void ChunkStore::release(const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second.refs == 0) return;
  if (--it->second.refs == 0) {
    dead_bytes_ += record_bytes(it->second.stored_size);
  }
}

Result<ChunkStore::Payload> ChunkStore::payload(const ChunkKey& key) {
  Payload found;
  std::uint32_t crc = 0;
  Check check = Check::kUnchecked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRAC_RETURN_IF_ERROR(open_check_locked());
    auto it = index_.find(key);
    if (it == index_.end() || it->second.refs == 0) {
      return NotFound("chunk store: no live chunk (raw crc " +
                      std::to_string(key.crc) + ")");
    }
    const Entry& entry = it->second;
    found = Payload{slab_, entry.offset + kSlabRecordHeaderBytes,
                    entry.stored_size};
    crc = entry.stored_crc;
    check = entry.check;
  }
  if (check == Check::kGood) return found;
  if (check == Check::kBad) return corrupt_chunk(found.file->origin(), key);
  // This process's first read of the payload: check it outside the lock
  // (the pinned generation keeps the offset valid).
  CRAC_ASSIGN_OR_RETURN(
      const bool good,
      crc_matches(*found.file, found.offset, found.size, crc));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    // Keep the verdict only if the entry still names the record just read
    // (a compaction or a superseding PUT may have moved it meanwhile).
    if (it != index_.end() && slab_ == found.file &&
        it->second.offset + kSlabRecordHeaderBytes == found.offset) {
      it->second.check = good ? Check::kGood : Check::kBad;
    }
  }
  if (!good) return corrupt_chunk(found.file->origin(), key);
  return found;
}

Status ChunkStore::Payload::read(std::uint64_t at, void* out,
                                 std::size_t n) const {
  if (at > size || n > size - at) {
    return Internal("chunk store: read past the end of a chunk payload");
  }
  return file->pread(out, n, offset + at);
}

Status ChunkStore::sync() {
  std::shared_ptr<const SlabFile> file;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRAC_RETURN_IF_ERROR(open_check_locked());
    if (dir_.empty()) return OkStatus();
    file = slab_;
  }
  // Outside the lock: readers keep looking records up while the disk syncs.
  return fdatasync_fd(file->fd(), file->origin());
}

Status ChunkStore::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  CRAC_RETURN_IF_ERROR(open_check_locked());
  return compact_locked();
}

Status ChunkStore::compact_locked() {
  if (dead_bytes_ == 0) return OkStatus();
  const std::string live_path = slab_->origin();
  const std::string tmp_path = live_path + ".tmp";
  int fd = -1;
  if (dir_.empty()) {
    CRAC_ASSIGN_OR_RETURN(fd, open_anonymous_file());
  } else {
    fd = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return IoError(tmp_path + ": open failed: " + std::strerror(errno));
    }
  }
  auto next_file = std::make_shared<SlabFile>(fd, live_path);
  std::map<ChunkKey, Entry> next;
  std::uint64_t out_pos = kSlabFileHeaderBytes;
  std::vector<std::byte> payload;
  Status status = write_file_header(fd, tmp_path);
  for (auto it = index_.begin(); status.ok() && it != index_.end(); ++it) {
    const auto& [key, entry] = *it;
    if (entry.refs == 0) continue;
    payload.resize(entry.stored_size);
    status = slab_->pread(payload.data(), payload.size(),
                          entry.offset + kSlabRecordHeaderBytes);
    if (!status.ok()) break;
    Entry moved = entry;
    if (moved.check != Check::kGood) {
      // A damaged payload is carried over byte for byte: the images that
      // use it keep failing by name, and the pass goes on for the rest.
      moved.check = crc32(payload.data(), payload.size()) == entry.stored_crc
                        ? Check::kGood
                        : Check::kBad;
    }
    const ByteWriter header =
        encode_record_header(key, entry.stored_size, entry.stored_crc);
    status = write_all_fd(fd, header.data(), header.size(), tmp_path);
    if (status.ok()) {
      status = write_all_fd(fd, payload.data(), payload.size(), tmp_path);
    }
    moved.offset = out_pos;
    next.emplace(key, moved);
    out_pos += record_bytes(entry.stored_size);
  }
  if (!dir_.empty()) {
    if (status.ok()) status = fdatasync_fd(fd, tmp_path);
    if (status.ok() && ::rename(tmp_path.c_str(), live_path.c_str()) != 0) {
      status = IoError(tmp_path + ": rename failed: " + std::strerror(errno));
    }
    if (!status.ok()) ::unlink(tmp_path.c_str());
  }
  if (!status.ok()) return status;  // next_file closes the new generation
  // Readers still holding the old generation keep its fd open and its
  // offsets valid; new lookups land in the new one.
  slab_ = std::move(next_file);
  slab_end_ = out_pos;
  index_ = std::move(next);
  dead_bytes_ = 0;
  ++compactions_;
  return dir_.empty() ? OkStatus() : fsync_dir(dir_);
}

ChunkStore::Stats ChunkStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  for (const auto& [key, entry] : index_) {
    if (entry.refs == 0) continue;
    ++s.unique_chunks;
    s.chunk_refs += entry.refs;
    s.stored_bytes += entry.stored_size;
  }
  s.dedup_hits = dedup_hits_;
  s.slab_file_bytes = slab_end_;
  s.dead_bytes = dead_bytes_;
  s.compactions = compactions_;
  s.truncated_bytes = truncated_bytes_;
  return s;
}

}  // namespace crac::registry
