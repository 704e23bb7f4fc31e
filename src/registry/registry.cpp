#include "registry/registry.hpp"

#include <algorithm>

namespace crac::registry {

CheckpointRegistry::CheckpointRegistry() : CheckpointRegistry(Options{}) {}

CheckpointRegistry::CheckpointRegistry(const Options& options)
    : options_(options), store_(std::make_shared<ChunkStore>()) {
  // A volatile registry's slab is an anonymous temporary file, ready now;
  // a durable one opens its directory's slab in recover(). A failed open
  // surfaces as the error of the first PUT.
  if (options_.dir.empty()) (void)store_->open("");
}

CheckpointRegistry::~CheckpointRegistry() = default;

Status CheckpointRegistry::rebuild_locked(ImageRecordWire& rec) {
  auto image = std::shared_ptr<StoredImage>(new StoredImage());
  image->name_ = rec.name;
  image->store_ = store_;
  image->framing_ = static_cast<ckpt::ChunkFraming>(rec.framing);
  image->image_bytes_ = rec.image_bytes;
  image->raw_bytes_ = rec.raw_bytes;
  image->image_id_ = rec.image_id;
  image->parent_id_ = rec.parent_id;
  image->parent_path_ = rec.parent_path;
  image->literals_ = std::move(rec.literals);
  image->segments_.reserve(rec.segs.size());
  for (const auto& seg : rec.segs) {
    StoredImage::Segment s;
    s.logical_offset = seg.logical_offset;
    s.size = seg.size;
    s.chunk = seg.chunk;
    if (seg.chunk) {
      s.frame.codec = seg.codec;
      s.frame.raw_size = seg.raw_size;
      s.frame.stored_size = seg.stored_size;
      s.frame.crc = seg.crc;
      if (Status ref = store_->add_ref(s.key(), seg.stored_size); !ref.ok()) {
        return Corrupt(options_.dir + ": committed image '" + rec.name +
                       "': " + ref.message());
      }
      ++image->chunk_count_;
    } else {
      s.lit_offset = seg.lit_offset;
    }
    // Pushed only once its reference is held: the destructor releases
    // exactly the segments it finds.
    image->segments_.push_back(s);
  }
  // Restore the persisted LRU stamp so capacity eviction picks up its
  // least-recently-used order where the previous process left it.
  use_clock_ = std::max(use_clock_, rec.last_use);
  images_[rec.name] = Rec{std::move(image), rec.last_use};
  return OkStatus();
}

Status CheckpointRegistry::recover() {
  if (options_.dir.empty()) return OkStatus();
  std::lock_guard<std::mutex> lock(mu_);
  if (recovered_) {
    return FailedPrecondition("registry: recover() called twice");
  }
  CRAC_ASSIGN_OR_RETURN(durable_, DurableStore::open(options_.dir));
  CRAC_RETURN_IF_ERROR(store_->open(options_.dir));
  CRAC_RETURN_IF_ERROR(store_->scan());
  CRAC_ASSIGN_OR_RETURN(auto records, durable_->load());

  // A chunk is live iff some committed image still names it: rebuilding
  // the directory takes exactly those references. Everything else in the
  // slab — torn-PUT orphans, chunks of since-removed images — is dead and
  // compacts away below, restoring the zero-leak invariant.
  for (auto& rec : records) CRAC_RETURN_IF_ERROR(rebuild_locked(rec));
  for (auto& [name, rec] : images_) resolve_parent_edges_locked(rec.image);
  recovered_images_ = images_.size();
  CRAC_RETURN_IF_ERROR(store_->compact());

  // Fold the replayed state into a fresh manifest + empty WAL so the next
  // recovery starts from a checkpoint, not a replay.
  CRAC_RETURN_IF_ERROR(durable_->checkpoint(snapshot_records_locked()));
  recovered_ = true;
  return OkStatus();
}

std::unique_ptr<RegistrySink> CheckpointRegistry::begin_put(std::string name) {
  return std::make_unique<RegistrySink>(std::move(name), store_);
}

bool CheckpointRegistry::has_live_children_locked(
    const StoredImage* image) const {
  for (const auto& [name, rec] : images_) {
    if (rec.image->parent_image_.get() == image) return true;
  }
  return false;
}

bool CheckpointRegistry::is_ancestor_locked(const StoredImage* maybe_ancestor,
                                            const StoredImage* image) const {
  const StoredImage* cur = image;
  for (std::size_t depth = 0; cur != nullptr &&
       depth < ckpt::kMaxDeltaChainDepth; ++depth) {
    if (cur == maybe_ancestor) return true;
    cur = cur->parent_image_.get();
  }
  return false;
}

void CheckpointRegistry::resolve_parent_edges_locked(
    const std::shared_ptr<StoredImage>& added) {
  // The new image's own parent edge (v4 deltas), matched by the parent's
  // embedded image-id. The ancestry check blocks forged id cycles, which
  // would otherwise leak a shared_ptr loop.
  if (added->is_delta() && added->parent_image_ == nullptr) {
    for (const auto& [name, rec] : images_) {
      if (rec.image == added) continue;
      if (rec.image->image_id_ == added->parent_id_ &&
          !is_ancestor_locked(added.get(), rec.image.get())) {
        added->parent_image_ = rec.image;
        break;
      }
    }
  }
  // The new image may be the parent an orphan delta has been waiting for.
  if (!added->image_id_.empty()) {
    for (auto& [name, rec] : images_) {
      if (rec.image == added || !rec.image->is_delta() ||
          rec.image->parent_image_ != nullptr) {
        continue;
      }
      if (rec.image->parent_id_ == added->image_id_ &&
          !is_ancestor_locked(rec.image.get(), added.get())) {
        rec.image->parent_image_ = added;
      }
    }
  }
}

ImageRecordWire CheckpointRegistry::record_of_locked(
    const StoredImage& image, std::uint64_t last_use) const {
  ImageRecordWire rec;
  rec.name = image.name_;
  rec.framing = static_cast<std::uint32_t>(image.framing_);
  rec.image_bytes = image.image_bytes_;
  rec.raw_bytes = image.raw_bytes_;
  rec.last_use = last_use;
  rec.image_id = image.image_id_;
  rec.parent_id = image.parent_id_;
  rec.parent_path = image.parent_path_;
  rec.literals = image.literals_;
  rec.segs.reserve(image.segments_.size());
  for (const auto& seg : image.segments_) {
    ImageRecordWire::Seg s;
    s.logical_offset = seg.logical_offset;
    s.size = seg.size;
    s.chunk = seg.chunk;
    if (s.chunk) {
      s.codec = seg.frame.codec;
      s.raw_size = seg.frame.raw_size;
      s.stored_size = seg.frame.stored_size;
      s.crc = seg.frame.crc;
    } else {
      s.lit_offset = seg.lit_offset;
    }
    rec.segs.push_back(s);
  }
  return rec;
}

std::vector<ImageRecordWire> CheckpointRegistry::snapshot_records_locked()
    const {
  std::vector<ImageRecordWire> out;
  out.reserve(images_.size());
  for (const auto& [name, rec] : images_) {
    out.push_back(record_of_locked(*rec.image, rec.last_use));
  }
  return out;
}

Status CheckpointRegistry::commit(RegistrySink& sink) {
  std::shared_ptr<StoredImage> image = sink.take_image();
  if (image == nullptr) {
    return FailedPrecondition(
        "registry commit of a sink that did not close cleanly");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.dir.empty() && !recovered_) {
    return FailedPrecondition(
        "registry: durable dir configured but recover() was not called");
  }
  auto prev = images_.find(image->name_);
  if (prev != images_.end() &&
      has_live_children_locked(prev->second.image.get())) {
    return FailedPrecondition(
        "registry: image '" + image->name_ +
        "' has live delta children; replacing it would orphan their chains");
  }
  const std::uint64_t stamp = ++use_clock_;
  if (durable_ != nullptr) {
    // The staged commit: every chunk is already appended (the sink put it
    // as the stream was parsed, strictly after each chunk decode-verified,
    // and the transport trailer verified before commit() was ever called).
    // Sync the slab, then the WAL record makes the image durable — a crash
    // anywhere before that sync+append leaves the PUT invisible.
    CRAC_RETURN_IF_ERROR(store_->sync());
    CRAC_RETURN_IF_ERROR(durable_->log_commit(record_of_locked(*image, stamp)));
  }
  // Replacement drops the old shared_ptr; open sources keep the old image
  // (and its chunks) alive until they finish streaming it.
  images_[image->name_] = Rec{image, stamp};
  resolve_parent_edges_locked(image);
  auto_evict_locked(image.get());
  return fold_and_compact_locked();
}

Status CheckpointRegistry::fold_and_compact_locked() {
  if (durable_ != nullptr &&
      durable_->wal_bytes() > options_.wal_checkpoint_bytes) {
    CRAC_RETURN_IF_ERROR(durable_->checkpoint(snapshot_records_locked()));
  }
  // Compact once dead slab weight rivals the live payload (plus a floor so
  // tiny registries don't rewrite the file over crumbs).
  const ChunkStore::Stats st = store_->stats();
  if (st.dead_bytes > (std::uint64_t{64} << 10) &&
      st.dead_bytes * 2 > st.stored_bytes) {
    CRAC_RETURN_IF_ERROR(store_->compact());
  }
  return OkStatus();
}

Result<std::unique_ptr<RegistrySource>> CheckpointRegistry::open(
    const std::string& name) {
  std::shared_ptr<const StoredImage> image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = images_.find(name);
    if (it == images_.end()) {
      return NotFound("registry has no image named '" + name + "'");
    }
    it->second.last_use = ++use_clock_;
    image = it->second.image;
  }
  return std::make_unique<RegistrySource>(std::move(image));
}

Result<ckpt::ChainMerge> CheckpointRegistry::open_merged(
    const std::string& name) {
  // Pin the whole chain (leaf..base) with reader sources under the lock,
  // then check and plan outside it — concurrent evictions see the pins and
  // refuse.
  std::vector<std::unique_ptr<RegistrySource>> chain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = images_.find(name);
    if (it == images_.end()) {
      return NotFound("registry has no image named '" + name + "'");
    }
    it->second.last_use = ++use_clock_;
    std::shared_ptr<const StoredImage> cur = it->second.image;
    for (std::size_t depth = 0;; ++depth) {
      if (depth >= ckpt::kMaxDeltaChainDepth) {
        return Corrupt("registry: delta chain at '" + name + "' exceeds " +
                       std::to_string(ckpt::kMaxDeltaChainDepth) +
                       " images (parent cycle?)");
      }
      chain.push_back(std::make_unique<RegistrySource>(cur));
      if (!cur->is_delta()) break;
      std::shared_ptr<const StoredImage> parent = cur->parent_image();
      if (parent == nullptr) {
        return FailedPrecondition(
            "registry: delta image '" + cur->name() + "' parent (image id '" +
            cur->parent_id() + "') was never PUT");
      }
      // Keep every link of a hot chain warm in the LRU: evicting a pinned
      // parent is refused anyway, but a stale stamp would make it the
      // perpetual next-in-line.
      for (auto& [pname, rec] : images_) {
        if (rec.image == parent) rec.last_use = ++use_clock_;
      }
      cur = std::move(parent);
    }
  }
  // Every link's payloads are checked before any byte is planned or sent,
  // as a full GET checks its image's.
  for (auto& source : chain) CRAC_RETURN_IF_ERROR(source->verify());
  std::vector<ckpt::ChainMerge::Link> links;
  links.reserve(chain.size());
  for (auto& source : chain) {
    CRAC_ASSIGN_OR_RETURN(auto reader,
                          ckpt::ImageReader::open(std::move(source)));
    links.push_back(ckpt::ChainMerge::Link{std::move(reader), ""});
  }
  return ckpt::ChainMerge::plan(std::move(links));
}

Status CheckpointRegistry::drop_locked(const std::string& name,
                                       bool allow_open_readers) {
  auto it = images_.find(name);
  if (it == images_.end()) {
    return NotFound("registry has no image named '" + name + "'");
  }
  const StoredImage* image = it->second.image.get();
  if (!allow_open_readers && image->open_readers() > 0) {
    return FailedPrecondition("registry: image '" + name + "' has " +
                              std::to_string(image->open_readers()) +
                              " live GET session(s)");
  }
  if (has_live_children_locked(image)) {
    return FailedPrecondition(
        "registry: image '" + name +
        "' has live delta children; evict or remove them first");
  }
  if (durable_ != nullptr) {
    CRAC_RETURN_IF_ERROR(durable_->log_remove(name));
  }
  images_.erase(it);
  return OkStatus();
}

Status CheckpointRegistry::evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CRAC_RETURN_IF_ERROR(drop_locked(name, /*allow_open_readers=*/false));
  ++evictions_;
  return fold_and_compact_locked();
}

Status CheckpointRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CRAC_RETURN_IF_ERROR(drop_locked(name, /*allow_open_readers=*/true));
  return fold_and_compact_locked();
}

void CheckpointRegistry::auto_evict_locked(const StoredImage* just_committed) {
  if (options_.capacity_bytes == 0) return;
  while (store_->stats().stored_bytes > options_.capacity_bytes) {
    std::string victim;
    std::uint64_t oldest = 0;
    for (const auto& [name, rec] : images_) {
      if (rec.image.get() == just_committed) continue;
      if (rec.image->open_readers() > 0) continue;
      if (has_live_children_locked(rec.image.get())) continue;
      if (victim.empty() || rec.last_use < oldest) {
        victim = name;
        oldest = rec.last_use;
      }
    }
    if (victim.empty()) break;  // everything left is pinned (or is the
                                // image we just committed)
    if (!drop_locked(victim, /*allow_open_readers=*/false).ok()) break;
    ++evictions_;
  }
}

std::vector<ImageInfo> CheckpointRegistry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ImageInfo> out;
  out.reserve(images_.size());
  for (const auto& [name, rec] : images_) {
    out.push_back({name, rec.image->image_bytes(), rec.image->chunk_count(),
                   rec.image->is_delta(), rec.image->parent_id()});
  }
  return out;
}

RegistryStats CheckpointRegistry::stats() const {
  RegistryStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.images = images_.size();
    s.evictions = evictions_;
    for (const auto& [name, rec] : images_) {
      s.logical_bytes += rec.image->image_bytes();
    }
    s.durable = durable_ != nullptr;
    if (durable_ != nullptr) {
      s.disk.wal_bytes = durable_->wal_bytes();
      s.disk.recovery_truncated_wal = durable_->truncated_wal_bytes();
    }
    s.disk.recovered_images = recovered_images_;
  }
  s.store = store_->stats();
  s.disk.slab_file_bytes = s.store.slab_file_bytes;
  s.disk.dead_bytes = s.store.dead_bytes;
  s.disk.compactions = s.store.compactions;
  s.disk.recovery_truncated_slab = s.store.truncated_bytes;
  return s;
}

}  // namespace crac::registry
