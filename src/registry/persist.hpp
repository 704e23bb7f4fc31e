// Durable directory log for the checkpoint registry: WAL + manifest.
//
// A registry opened over a directory survives the registry process — the
// exact failure (node loss) checkpoint/restore exists to absorb. Chunk
// payloads live in the directory's slab file, owned by the ChunkStore (see
// store.hpp); this file keeps the *directory* of images durable, with the
// same temp-write/rename commit CracContext::checkpoint uses for images:
//
//   wal.log     — write-ahead log of directory mutations. An image-commit
//                 record carries the image's full directory entry (name,
//                 header literals, ordered segment list naming chunks by
//                 key); a remove record carries the name. Appending +
//                 fdatasync'ing the commit record IS the PUT commit point —
//                 and it happens strictly after the transport trailer
//                 verified and the chunk slab synced, so a torn or corrupt
//                 PUT can never become visible.
//   manifest    — atomic checkpoint of the whole directory (temp + rename,
//                 rename is the commit point). Written when the WAL grows
//                 past a threshold, after which the WAL is truncated.
//
// Recovery (CheckpointRegistry::recover) runs in order: index the slab by
// its record headers, load the manifest if present, replay the WAL (cutting
// a torn tail), then resolve every surviving image's chunk keys against the
// index. Chunks referenced by no committed image are dead — a torn PUT's
// orphans — and a compaction pass rewrites the slab without them, so
// recovery always converges to zero leaked slab bytes. Replay is
// idempotent: a crash between manifest rename and WAL truncation
// re-applies records the manifest already holds, harmlessly.
//
// The named fault points (`fault_point`) are the durability test campaign's
// scalpel: tests arm a process-global hook that SIGKILLs at one named
// offset of the commit protocol, and the kill-and-recover suite asserts the
// post-restart state equals exactly the set of WAL-committed images.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace crac::registry {

// ---- test fault points ----------------------------------------------------

namespace testhooks {
// Called by the persistence layer at named offsets of the commit protocol.
// Tests install a hook (inherited across fork(), so it fires inside a
// forked RegistryHost) that SIGKILLs the process at an armed point:
//   "slab-append-mid"                — between a chunk record's header and
//                                      payload writes (mid-chunk-append)
//   "slab-synced-pre-wal"            — chunk slab fdatasync'd, WAL commit
//                                      record not yet written
//   "wal-record-mid"                 — between a WAL record's header and
//                                      body writes
//   "wal-synced-pre-manifest-rename" — manifest temp written + synced, not
//                                      yet renamed over the live manifest
using FaultHook = void (*)(const char* point);
void set_fault_hook(FaultHook hook);  // nullptr clears
}  // namespace testhooks

// Invoked by the persistence layer; a no-op unless a test hook is armed.
void fault_point(const char* point);

// ---- on-disk format constants (asserted by the durability suite) ----------

inline constexpr char kWalMagic[8] = {'C', 'R', 'A', 'C', 'W', 'A', 'L', '1'};
inline constexpr char kManifestMagic[8] = {'C', 'R', 'A', 'C',
                                           'R', 'E', 'G', '1'};
// File header: magic + u32 format version.
inline constexpr std::size_t kWalFileHeaderBytes = 12;
// WAL record header: u32 rec magic, u32 kind, u64 body_len, u32 body_crc,
// u32 header_crc.
inline constexpr std::size_t kWalRecordHeaderBytes = 24;

inline constexpr std::uint32_t kWalRecordMagic = 0x43455257;   // 'WREC'
inline constexpr std::uint32_t kWalKindCommit = 1;
inline constexpr std::uint32_t kWalKindRemove = 2;

// ---- serialized directory entry -------------------------------------------

// One image's directory entry, as carried by WAL commit records and
// manifest snapshots: everything needed to rebuild a StoredImage except the
// chunk payloads, which the segment keys name in the slab.
struct ImageRecordWire {
  struct Seg {
    std::uint64_t logical_offset = 0;
    std::uint64_t size = 0;
    bool chunk = false;
    // Literal segments: offset into `literals`.
    std::uint64_t lit_offset = 0;
    // Chunk segments: the content-addressed key + the frame fields the
    // serve side regenerates the header from.
    std::uint32_t codec = 0;
    std::uint64_t raw_size = 0;
    std::uint64_t stored_size = 0;
    std::uint32_t crc = 0;
  };

  std::string name;
  std::uint32_t framing = 0;  // ckpt::ChunkFraming as u32
  std::uint64_t image_bytes = 0;
  std::uint64_t raw_bytes = 0;
  // LRU stamp (registry use_clock_ at last commit/GET). Persisted so
  // capacity eviction keeps its least-recently-used order across restarts:
  // exact as of each image's commit record, refreshed with GET recency at
  // every manifest checkpoint (GETs between checkpoints don't write the
  // WAL, so that recency is best-effort across a crash).
  std::uint64_t last_use = 0;
  std::string image_id;
  std::string parent_id;
  std::string parent_path;
  std::vector<std::byte> literals;
  std::vector<Seg> segs;
};

// ---- the durable store ----------------------------------------------------

class DurableStore {
 public:
  // Opens (creating if needed) the directory's WAL. Serving before load()
  // is a caller bug.
  static Result<std::unique_ptr<DurableStore>> open(const std::string& dir);
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // The committed directory: the manifest (if any) with the WAL replayed
  // over it. A torn WAL tail is cut off.
  Result<std::vector<ImageRecordWire>> load();

  // Appends + syncs a WAL record. log_commit is the PUT commit point; the
  // caller must have synced the chunk slab first.
  Status log_commit(const ImageRecordWire& image);
  Status log_remove(const std::string& name);

  // Atomic manifest checkpoint of `images`, then WAL truncation.
  Status checkpoint(const std::vector<ImageRecordWire>& images);

  std::uint64_t wal_bytes() const;           // WAL size past its header
  std::uint64_t truncated_wal_bytes() const;  // torn tail cut by load()

 private:
  explicit DurableStore(std::string dir);

  Status load_manifest(std::map<std::string, ImageRecordWire>& images);
  Status replay_wal(std::map<std::string, ImageRecordWire>& images);
  Status append_wal_locked(std::uint32_t kind,
                           const std::vector<std::byte>& body);

  std::string dir_;
  mutable std::mutex mu_;
  int wal_fd_ = -1;
  std::uint64_t wal_end_ = 0;  // append cursor (== file size)
  std::uint64_t truncated_wal_ = 0;
};

// Wire helpers shared by the WAL, the manifest, and the tests that
// hand-corrupt them.
void encode_image_record(const ImageRecordWire& rec, ByteWriter& out);
Status decode_image_record(ByteReader& in, ImageRecordWire& out);

}  // namespace crac::registry
