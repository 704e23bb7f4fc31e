// Content-addressed chunk store for the checkpoint registry.
//
// Checkpoint images arriving at the registry are decomposed into their
// CRACIMG2 chunk frames, and every chunk's *stored* bytes are interned here
// under the key (codec id, raw size, CRC32 of the raw bytes). Two images
// that share content — consecutive checkpoints of the same job, replicas of
// one training state — share the chunks themselves, so N similar images
// cost little more than one. The codec id is part of the key on purpose: a
// kStore chunk and an kLz chunk may describe the same raw bytes, but their
// stored payloads differ, and a serve regenerates frame headers from the
// key — cross-codec aliasing would corrupt the reconstructed image.
//
// The store is an index in RAM over payloads on disk. Every payload lives
// once, in the slab file `chunks.slab`, as one CRC'd record:
//
//   [record header: key + stored size + payload CRC + header CRC][stored]
//
// and the index maps each key to its record (offset, stored size, payload
// CRC), a refcount (zero = dead weight awaiting compaction) and whether
// this process has checked the payload against its CRC yet. Readers pread
// payloads and leave caching to the page cache.
//
// Integrity is checked lazily but never skipped: scan() reads record
// headers only, and each payload's CRC is checked the first time this
// process reads it (a GET, a compaction copy, or a re-PUT of a record it
// has not checked yet). A mismatch fails that read with a named Corrupt
// and leaves every other record alone; a later PUT of the same content
// appends a fresh record that supersedes the damaged one.
//
// Compaction rewrites the live records into a new slab generation and swaps
// it in. A Payload handle pins the generation its record was found in, so
// the old file stays open (and its offsets valid) until the last handle
// drops — no lock is held across a pread.
//
// Over a registry directory the store is durable: sync() fdatasyncs the
// slab and compaction commits by rename. A volatile registry runs the same
// store over an anonymous temporary file that is never synced.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.hpp"

namespace crac::registry {

struct ChunkKey {
  std::uint32_t codec = 0;     // what the stored bytes are encoded with
  std::uint64_t raw_size = 0;  // decoded payload size
  std::uint32_t crc = 0;       // CRC32 of the decoded payload

  friend bool operator<(const ChunkKey& a, const ChunkKey& b) noexcept {
    if (a.crc != b.crc) return a.crc < b.crc;
    if (a.raw_size != b.raw_size) return a.raw_size < b.raw_size;
    return a.codec < b.codec;
  }
};

// ---- slab file format (asserted by the durability suite) ------------------

inline constexpr char kSlabMagic[8] = {'C', 'R', 'A', 'C', 'S', 'L', 'B', '1'};
// File header: magic + u32 format version.
inline constexpr std::size_t kSlabFileHeaderBytes = 12;
// Record header: u32 rec magic, u32 codec, u64 raw_size, u32 raw_crc,
// u64 stored_size, u32 stored_crc, u32 header_crc.
inline constexpr std::size_t kSlabRecordHeaderBytes = 36;
inline constexpr std::uint32_t kSlabRecordMagic = 0x4B4E4843;  // 'CHNK'
inline constexpr std::uint32_t kSlabFormatVersion = 1;

class SlabFile;  // one open generation of chunks.slab (store.cpp)

class ChunkStore {
 public:
  struct Stats {
    std::uint64_t unique_chunks = 0;  // live (referenced) chunks
    std::uint64_t chunk_refs = 0;     // sum of live refcounts
    std::uint64_t dedup_hits = 0;     // put() calls answered by a live
                                      // entry (lifetime counter)
    std::uint64_t stored_bytes = 0;   // payload bytes of live chunks
    std::uint64_t slab_file_bytes = 0;  // current chunks.slab size
    std::uint64_t dead_bytes = 0;       // record bytes awaiting compaction
    std::uint64_t compactions = 0;      // lifetime compaction passes
    std::uint64_t truncated_bytes = 0;  // torn tail cut by scan()
  };

  ChunkStore();
  ~ChunkStore();

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  // Opens `dir`/chunks.slab (created if absent) as a durable store; call
  // scan() next to index what is already there. With an empty `dir` the
  // store runs over an anonymous temporary file and never syncs. Until
  // open() succeeds every other call fails, with the error open() returned
  // (FailedPrecondition before the first attempt).
  Status open(const std::string& dir);

  // Indexes every record of the slab file by reading its header only (no
  // payload is read). Every record starts dead: recovery add_ref()s what
  // the committed directory names and compact()s the rest away. A torn
  // tail — a header that fails its CRC, or a payload running past the end
  // of the file — is cut off. When one key has several records, the last
  // one wins (a later record is only ever appended to supersede a damaged
  // or dead one).
  Status scan();

  // Takes one reference on `key`, appending its stored bytes as a new slab
  // record unless a usable record exists. A stored size that differs from
  // the indexed record's means the key lied and is refused. Not synced:
  // sync() before the WAL commit that names the chunk.
  Status put(const ChunkKey& key, const std::byte* stored,
             std::size_t stored_size);

  // One more reference on an indexed chunk whose record holds
  // `stored_size` payload bytes (recovery rebuilding an image). Corrupt
  // when the slab has no such record.
  Status add_ref(const ChunkKey& key, std::uint64_t stored_size);

  // Drops one reference; at zero the record becomes dead weight.
  void release(const ChunkKey& key);

  // Where a referenced chunk's payload lives: the slab generation it was
  // found in (pinned, so the handle stays valid across compactions) and
  // the payload's offset there. Reads need no store lock.
  struct Payload {
    std::shared_ptr<const SlabFile> file;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    // Copies `n` payload bytes starting `at` bytes into the payload.
    Status read(std::uint64_t at, void* out, std::size_t n) const;
  };

  // The payload of a referenced chunk, checked against its CRC first unless
  // this process already has. Corrupt, naming the slab and the chunk, on a
  // mismatch.
  Result<Payload> payload(const ChunkKey& key);

  // fdatasync of the slab file; a no-op for a volatile store.
  Status sync();

  // Rewrites the slab with only live records into a new generation (temp +
  // rename when durable). Cheap no-op when nothing is dead.
  Status compact();

  Stats stats() const;

 private:
  enum class Check : std::uint8_t { kUnchecked, kGood, kBad };
  struct Entry {
    std::uint64_t offset = 0;  // of the record header
    std::uint64_t stored_size = 0;
    std::uint32_t stored_crc = 0;
    std::uint64_t refs = 0;  // 0 = dead
    Check check = Check::kUnchecked;
  };
  Status open_check_locked() const;
  // Appends a record and points `entry` at it (refs untouched).
  Status append_locked(const ChunkKey& key, const std::byte* stored,
                       std::size_t size, Entry& entry);
  Status check_locked(const ChunkKey& key, Entry& entry);
  Status compact_locked();

  mutable std::mutex mu_;
  std::string dir_;  // empty: volatile
  bool opened_ = false;
  Status open_error_ = FailedPrecondition(
      "chunk store is not open (a durable registry needs recover() first)");
  std::shared_ptr<const SlabFile> slab_;  // current generation
  std::uint64_t slab_end_ = 0;            // append cursor (== file size)
  std::map<ChunkKey, Entry> index_;
  std::uint64_t dead_bytes_ = 0;  // full record bytes (header + payload)
  std::uint64_t dedup_hits_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t truncated_bytes_ = 0;
};

}  // namespace crac::registry
