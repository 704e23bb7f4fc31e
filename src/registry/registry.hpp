// The checkpoint registry: named images over one shared chunk store.
//
// A registry holds checkpoint images by name, deduplicated chunk-wise
// through the content-addressed ChunkStore. Ingest is streaming (begin_put
// hands out a RegistrySink the transport pumps into; commit() publishes the
// parsed image under its name), serve is fan-out (open() hands any number
// of concurrent RegistrySources over one immutable StoredImage — M
// receivers restoring from one stored checkpoint, the one-to-many half of
// fleet migration). All naming operations are mutex-guarded; payload bytes
// move outside the lock.
//
// Chunk payloads never live in RAM: the ChunkStore keeps an index in
// memory over one append-only slab file, and GETs pread from it (see
// store.hpp). With RegistryOptions::dir set that file is the directory's
// chunks.slab and the registry is durable: commit() becomes a staged
// protocol — sync the slab, then append a WAL record (the commit point,
// strictly after the transport trailer verified), with periodic atomic
// manifest checkpoints (see persist.hpp). recover() over the same
// directory reads record headers, the manifest and the WAL — no payload —
// and serves every committed image byte-identically; a PUT torn anywhere
// short of its WAL record is invisible afterwards and its slab bytes are
// reclaimed. Without a dir the same store runs over an anonymous temporary
// file that is never synced, and nothing outlives the process.
//
// Delta chains: a v4 delta PUT records its parent_id edge; the registry
// resolves the edge against the directory (by each image's embedded
// image-id) and open_merged() plans the chain's merge into one restorable
// full image, which a GET streams frame by frame. A child's resolved edge
// pins its parent's chunks.
//
// Eviction: with capacity_bytes set, commit() evicts least-recently-GET
// images until stored payload bytes fit the budget. Images with live GET
// sessions or resolved delta children are pinned; eviction is whole-image
// and durable (WAL remove + slab compaction once enough bytes are dead).
// LRU stamps persist with each commit record and refresh at every manifest
// checkpoint, so the order carries across restarts — except GET recency
// accrued since the last checkpoint, which a crash loses (GETs don't
// write the WAL).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ckpt/delta.hpp"
#include "registry/image_io.hpp"
#include "registry/persist.hpp"
#include "registry/store.hpp"

namespace crac::registry {

struct ImageInfo {
  std::string name;
  std::uint64_t image_bytes = 0;  // logical (wire) size of the image
  std::uint64_t chunk_count = 0;
  bool delta = false;
  std::string parent_id;  // empty unless delta
};

struct RegistryStats {
  std::uint64_t images = 0;
  std::uint64_t logical_bytes = 0;  // sum of stored images' wire sizes
  std::uint64_t evictions = 0;      // lifetime capacity evictions
  bool durable = false;
  ChunkStore::Stats store;
  // The files behind the registry: the slab (volatile mode too) and, when
  // durable, the WAL.
  struct Disk {
    std::uint64_t slab_file_bytes = 0;  // current chunks.slab size
    std::uint64_t dead_bytes = 0;       // slab record bytes awaiting compaction
    std::uint64_t wal_bytes = 0;        // WAL size past its file header
    std::uint64_t compactions = 0;      // lifetime slab compaction passes
    std::uint64_t recovered_images = 0;
    std::uint64_t recovery_truncated_slab = 0;  // torn bytes dropped
    std::uint64_t recovery_truncated_wal = 0;
  } disk;
};

struct RegistryOptions {
  // Backing directory. Non-empty: a durable registry whose chunks.slab,
  // wal.log and manifest live there, fdatasync'd at every commit; call
  // recover() before any operation. Empty: a volatile registry over an
  // anonymous temporary slab file in $TMPDIR, never synced.
  std::string dir;
  // Stored-payload budget; 0 = unbounded. Enforced by LRU eviction at
  // commit time. It bounds the slab file's live bytes, not RAM: payloads
  // are never held in memory.
  std::uint64_t capacity_bytes = 0;
  // WAL size that triggers folding the directory into a fresh manifest.
  std::uint64_t wal_checkpoint_bytes = std::uint64_t{1} << 20;
};

class CheckpointRegistry {
 public:
  using Options = RegistryOptions;

  CheckpointRegistry();
  explicit CheckpointRegistry(const Options& options);
  ~CheckpointRegistry();

  CheckpointRegistry(const CheckpointRegistry&) = delete;
  CheckpointRegistry& operator=(const CheckpointRegistry&) = delete;

  // Durable mode only: opens the backing directory, indexes the slab by
  // its record headers, replays manifest + WAL, and rebuilds every
  // committed image over the index, then compacts dead records away (the
  // only step that reads payloads; each payload's CRC is checked on its
  // first read in the process). Must be called (once) before any
  // PUT/GET when options.dir is set; a no-op for volatile registries.
  Status recover();

  // Streaming ingest: pump image bytes into the sink, close it, then
  // commit(). A sink that is dropped (or whose close fails) costs nothing —
  // its partial chunk references die with it (and any slab bytes they
  // persisted are reclaimed by compaction).
  std::unique_ptr<RegistrySink> begin_put(std::string name);

  // Publishes a successfully closed sink's image under its name, replacing
  // any previous image of that name (whose chunks are released once its
  // last open source drops). Durable mode: the image is crash-safe once
  // this returns OK. Refuses to replace an image with resolved delta
  // children — that would orphan their chains on restart.
  Status commit(RegistrySink& sink);

  // A fresh source over the named image's bytes exactly as PUT (a delta
  // image serves its delta bytes — see open_merged() for the merged chain);
  // shares the image with every other open source and counts as a use for
  // LRU. NotFound when the name is absent.
  Result<std::unique_ptr<RegistrySource>> open(const std::string& name);

  // The full restorable image `name` stands for, planned but not yet read:
  // its chain (leaf..base; a non-delta image alone) pinned with one source
  // per link, every link's LRU stamp bumped, every link's payloads checked
  // by RegistrySource::verify(), and the merge planned by
  // ckpt::ChainMerge::plan(). size() is then the exact GET size and
  // write() streams the merged image. FailedPrecondition, naming the
  // missing parent, when a link's parent was never PUT; Corrupt, naming the
  // chunk, when a stored payload fails its CRC.
  Result<ckpt::ChainMerge> open_merged(const std::string& name);

  // Drops the named image to reclaim its bytes. Refused (FailedPrecondition)
  // while the image has live GET sessions or resolved delta children.
  Status evict(const std::string& name);

  std::vector<ImageInfo> list() const;
  RegistryStats stats() const;

  // Like evict() but tolerates open readers (their sources keep the image
  // alive off-directory); still refuses while delta children reference it.
  Status remove(const std::string& name);

  const std::shared_ptr<ChunkStore>& store() const noexcept { return store_; }
  const Options& options() const noexcept { return options_; }

 private:
  struct Rec {
    std::shared_ptr<StoredImage> image;
    std::uint64_t last_use = 0;  // LRU stamp: bumped by open/open_merged
  };

  bool has_live_children_locked(const StoredImage* image) const;
  bool is_ancestor_locked(const StoredImage* maybe_ancestor,
                          const StoredImage* image) const;
  void resolve_parent_edges_locked(const std::shared_ptr<StoredImage>& added);
  Status drop_locked(const std::string& name, bool allow_open_readers);
  void auto_evict_locked(const StoredImage* just_committed);
  Status fold_and_compact_locked();
  Status rebuild_locked(ImageRecordWire& rec);
  ImageRecordWire record_of_locked(const StoredImage& image,
                                   std::uint64_t last_use) const;
  std::vector<ImageRecordWire> snapshot_records_locked() const;

  Options options_;
  std::shared_ptr<ChunkStore> store_;
  std::unique_ptr<DurableStore> durable_;  // null in volatile mode
  std::uint64_t recovered_images_ = 0;
  mutable std::mutex mu_;
  std::map<std::string, Rec> images_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t evictions_ = 0;
  bool recovered_ = false;
};

}  // namespace crac::registry
