// Shared test harness for the checkpoint-image suites (chunk_test,
// restore_test, ckpt_test, remote_test, ...): deterministic payload
// generators, image builders, file helpers, corruption utilities, a
// whole-stream ship receive, and fault-injection Sink/Source doubles. One
// home instead of per-suite copies, so every suite corrupts and truncates
// images the same way.
#pragma once

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <csignal>

#include "ckpt/compressor.hpp"
#include "ckpt/delta.hpp"
#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "registry/persist.hpp"

namespace crac::ckpt::testlib {

// ---- resident memory ----

// Sanitizer runtimes replace malloc and hold freed blocks in a quarantine,
// so resident-memory bounds only mean something in a plain build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif
#else
constexpr bool kSanitizedAllocator = false;
#endif

// Resident set size of this process, from /proc/self/status. Free heap
// memory goes back to the kernel first, so a later allocation shows up as
// growth instead of quietly reusing pages that are already resident.
inline std::uint64_t vm_rss_bytes() {
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb << 10;
}

// ---- deterministic payloads ----

inline std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64());
  return out;
}

inline std::vector<std::byte> compressible_bytes(std::size_t n,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out;
  out.reserve(n);
  while (out.size() < n) {
    const auto value = static_cast<std::byte>(rng.next_below(4));
    const std::size_t run = 16 + rng.next_below(200);
    for (std::size_t i = 0; i < run && out.size() < n; ++i) {
      out.push_back(value);
    }
  }
  return out;
}

// Rng-free pattern for the checked-in golden fixtures: the fixture
// generator and the compat test must agree byte for byte forever, so this
// must never change.
inline std::vector<std::byte> golden_payload(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 7 + 3) & 0xFF);
  }
  return out;
}

// ---- image builders ----

// An image whose one section name is a byte over kMaxSectionNameBytes. The
// writer refuses such a name, so the image is written at the cap and then
// widened in place: the v2 name length sits after the 24-byte header and
// the section's type field.
inline std::vector<std::byte> over_cap_name_image() {
  ImageWriter w;
  w.add_section(SectionType::kMetadata,
                std::string(kMaxSectionNameBytes, 'n'), golden_payload(64));
  std::vector<std::byte> image = w.serialize();
  constexpr std::size_t kNameLenAt = 28;
  const std::uint32_t len = kMaxSectionNameBytes + 1;
  std::memcpy(image.data() + kNameLenAt, &len, sizeof(len));
  image.insert(image.begin() + kNameLenAt + sizeof(len), std::byte{'n'});
  return image;
}

using NamedSections =
    std::vector<std::pair<std::string, std::vector<std::byte>>>;

// Streams the named sections through the v2 writer into `sink`.
inline Status write_image(Sink& sink, const NamedSections& secs, Codec codec,
                          std::size_t chunk_size, ThreadPool* pool = nullptr) {
  ImageWriter::Options opts;
  opts.codec = codec;
  opts.chunk_size = chunk_size;
  opts.pool = pool;
  ImageWriter w(&sink, opts);
  for (const auto& [name, payload] : secs) {
    CRAC_RETURN_IF_ERROR(w.begin_section(SectionType::kDeviceBuffers, name));
    CRAC_RETURN_IF_ERROR(w.append(payload.data(), payload.size()));
    CRAC_RETURN_IF_ERROR(w.end_section());
  }
  CRAC_RETURN_IF_ERROR(w.finish());
  return sink.close();
}

// Same, into one v2 image file at `path`.
inline Status write_image_file(const std::string& path,
                               const NamedSections& secs, Codec codec,
                               std::size_t chunk_size,
                               ThreadPool* pool = nullptr) {
  auto sink = FileSink::open(path);
  if (!sink.ok()) return sink.status();
  return write_image(**sink, secs, codec, chunk_size, pool);
}

// ---- file helpers ----

inline std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "/crac_" + tag + ".img";
}

inline std::vector<std::byte> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  std::vector<std::byte> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

inline void write_file_raw(const std::string& path,
                           const std::vector<std::byte>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// ---- corruption helpers ----

// Offset of the Nth (1-based) 16-byte run of `value` in `bytes`, stepping
// `run_stride` past each hit (so consecutive chunks of one filler byte count
// once per chunk). 0 when not found — callers ASSERT on it.
inline std::size_t find_byte_run(const std::vector<std::byte>& bytes,
                                 std::byte value, std::size_t nth = 1,
                                 std::size_t run_stride = 16) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i + 16 <= bytes.size(); ++i) {
    bool run = true;
    for (std::size_t k = 0; k < 16; ++k) {
      if (bytes[i + k] != value) {
        run = false;
        break;
      }
    }
    if (!run) continue;
    if (++seen == nth) return i + 8;  // land safely inside the run
    i += run_stride - 1;
  }
  return 0;
}

// ---- whole-stream ship receive ----

// Receives one CRACSHP1 stream off `fd` and waits for its trailer to
// verify before returning: the spool then holds the whole, checked
// shipment, so a truncated or damaged stream fails here rather than
// halfway through a read. Receive accounting is in (*spool)->outcome().
inline Result<std::unique_ptr<StreamingSpoolSource>> receive_whole(
    int fd, const StreamingSpoolSource::Options& opts = {}) {
  auto spool = StreamingSpoolSource::start(fd, opts);
  if (!spool.ok()) return spool.status();
  CRAC_RETURN_IF_ERROR((*spool)->wait_complete());
  return spool;
}

// ---- fault-injection doubles ----

inline constexpr std::uint64_t kNeverFault =
    std::numeric_limits<std::uint64_t>::max();

// Sink wrapper that injects write-side faults at exact byte offsets of the
// logical stream: an I/O failure at byte K (after short-writing the prefix,
// like a disk filling mid-write) and/or a silent bit flip at byte K (a
// cable or firmware lying about what was stored). Borrow of `inner`, which
// must outlive the double.
class FaultySink final : public Sink {
 public:
  struct Faults {
    // Writing byte `fail_at` (0-based logical offset) fails with IoError;
    // bytes before it still reach the inner sink (short write).
    std::uint64_t fail_at = kNeverFault;
    // Byte `flip_at` is XOR'd with `flip_mask` on its way through.
    std::uint64_t flip_at = kNeverFault;
    std::uint8_t flip_mask = 0x01;
  };

  FaultySink(Sink* inner, const Faults& faults)
      : inner_(inner), faults_(faults) {}

  Status flush() override {
    if (!error_.ok()) return error_;
    return inner_->flush();
  }
  Status close() override {
    if (!error_.ok()) return error_;
    return inner_->close();
  }

 private:
  Status do_write(const void* data, std::size_t size) override {
    if (!error_.ok()) return error_;
    const auto* p = static_cast<const std::byte*>(data);
    const std::uint64_t end = pos_ + size;
    if (pos_ <= faults_.fail_at && faults_.fail_at < end) {
      // Deliver the prefix, then fail — the inner stream is now short.
      const auto prefix = static_cast<std::size_t>(faults_.fail_at - pos_);
      if (prefix > 0) {
        CRAC_RETURN_IF_ERROR(inner_->write(p, prefix));
      }
      pos_ = faults_.fail_at;
      error_ = IoError("injected write failure at byte " +
                       std::to_string(faults_.fail_at));
      return error_;
    }
    if (pos_ <= faults_.flip_at && faults_.flip_at < end) {
      std::vector<std::byte> flipped(p, p + size);
      flipped[static_cast<std::size_t>(faults_.flip_at - pos_)] ^=
          std::byte{faults_.flip_mask};
      pos_ = end;
      return inner_->write(flipped.data(), flipped.size());
    }
    pos_ = end;
    return inner_->write(p, size);
  }

  Sink* inner_;
  Faults faults_;
  std::uint64_t pos_ = 0;
  Status error_;  // injected failures are sticky, like real sink errors
};

// Source wrapper that injects read-side faults at exact byte offsets: an
// I/O failure once the cursor would cross byte K (fail-fast or after a
// short read of the prefix) and/or a bit flip in the bytes handed back.
// Seeks and skips are transparent — only bytes actually read can fault,
// mirroring how a bad disk only hurts when touched.
class FaultySource final : public Source {
 public:
  struct Faults {
    // Reading byte `fail_at` fails with IoError. With `short_read` set the
    // prefix is delivered into `out` first (so the caller sees a partial
    // buffer, the nastier failure mode).
    std::uint64_t fail_at = kNeverFault;
    bool short_read = false;
    // Byte `flip_at` of the stream is XOR'd with `flip_mask` when read.
    std::uint64_t flip_at = kNeverFault;
    std::uint8_t flip_mask = 0x01;
  };

  FaultySource(Source* inner, const Faults& faults)
      : inner_(inner), faults_(faults) {}
  // Owning overload so the double can be handed to ImageReader::open().
  FaultySource(std::unique_ptr<Source> inner, const Faults& faults)
      : owned_(std::move(inner)), inner_(owned_.get()), faults_(faults) {}

  Status read(void* out, std::size_t size) override {
    const std::uint64_t start = inner_->position();
    const std::uint64_t end = start + size;
    if (start <= faults_.fail_at && faults_.fail_at < end) {
      if (faults_.short_read && faults_.fail_at > start) {
        const auto prefix = static_cast<std::size_t>(faults_.fail_at - start);
        CRAC_RETURN_IF_ERROR(inner_->read(out, prefix));
      }
      return IoError(describe() + ": injected read failure at byte " +
                     std::to_string(faults_.fail_at));
    }
    CRAC_RETURN_IF_ERROR(inner_->read(out, size));
    if (start <= faults_.flip_at && faults_.flip_at < end) {
      static_cast<std::byte*>(out)[
          static_cast<std::size_t>(faults_.flip_at - start)] ^=
          std::byte{faults_.flip_mask};
    }
    return OkStatus();
  }

  Status seek(std::uint64_t offset) override { return inner_->seek(offset); }
  std::uint64_t position() const noexcept override {
    return inner_->position();
  }
  std::uint64_t size() const noexcept override { return inner_->size(); }
  std::string describe() const override {
    return "faulty(" + inner_->describe() + ")";
  }

 private:
  std::unique_ptr<Source> owned_;
  Source* inner_;
  Faults faults_;
};

// Arms the registry persistence layer's fault hook so the process SIGKILLs
// itself the instant execution reaches the named commit-protocol offset
// (see registry/persist.hpp for the point names). The armed name and the
// hook pointer live in ordinary process memory, so arming BEFORE
// RegistryHost::spawn makes the forked server child inherit the bomb and
// die at the exact byte boundary — the durability campaign's crash
// injector. The parent never executes registry persistence code, so the
// armed hook is inert on its side. Destroy (disarm) before respawning a
// host over the same directory so recovery runs unharassed.
//
// `skip_hits` lets a test aim past early benign occurrences of the point:
// the manifest-rename offset, for instance, is also crossed once by the
// startup recovery's fresh checkpoint before any PUT reaches it.
class ScopedKillPoint {
 public:
  explicit ScopedKillPoint(const char* point, int skip_hits = 0) {
    armed_name() = point;
    skip_remaining() = skip_hits;
    crac::registry::testhooks::set_fault_hook(&trip);
  }
  ~ScopedKillPoint() {
    crac::registry::testhooks::set_fault_hook(nullptr);
    armed_name() = nullptr;
  }

  ScopedKillPoint(const ScopedKillPoint&) = delete;
  ScopedKillPoint& operator=(const ScopedKillPoint&) = delete;

 private:
  static const char*& armed_name() {
    static const char* name = nullptr;
    return name;
  }
  static int& skip_remaining() {
    static int remaining = 0;
    return remaining;
  }
  static void trip(const char* point) {
    const char* armed = armed_name();
    if (armed != nullptr && std::strcmp(armed, point) == 0) {
      if (skip_remaining()-- > 0) return;
      // Die exactly here: no unwinding, no stream flush, no atexit — the
      // same shape as a machine losing power mid-syscall.
      ::raise(SIGKILL);
    }
  }
};

// ---- delta chains ----

// One kDeltaChunks entry: `bytes` patch the target from index * granule.
struct DeltaEntry {
  std::uint64_t index = 0;
  std::vector<std::byte> bytes;
};

// A kDeltaChunks section payload (layout in ckpt/delta.hpp).
inline std::vector<std::byte> delta_body(SectionType target,
                                         std::uint64_t granule,
                                         std::uint64_t full_raw_size,
                                         const std::vector<DeltaEntry>& es) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(target));
  w.put_u64(granule);
  w.put_u64(full_raw_size);
  w.put_u64(es.size());
  for (const DeltaEntry& e : es) {
    w.put_u64(e.index);
    w.put_u64(e.bytes.size());
    w.put_bytes(e.bytes.data(), e.bytes.size());
  }
  return std::move(w).take();
}

struct ChainSection {
  SectionType type{};
  std::string name;
  std::vector<std::byte> payload;
};

// One chain link: a full image when `parent_id` is empty, else a v4 delta.
// Its "image-id" metadata section goes first.
inline std::vector<std::byte> chain_image(
    const std::string& image_id, const std::string& parent_id,
    const std::string& parent_path, Codec codec, std::size_t chunk_size,
    const std::vector<ChainSection>& sections) {
  MemorySink sink;
  ImageWriter::Options opts;
  opts.codec = codec;
  opts.chunk_size = chunk_size;
  opts.parent_id = parent_id;
  opts.parent_path = parent_path;
  ImageWriter w(&sink, opts);
  const auto* id = reinterpret_cast<const std::byte*>(image_id.data());
  w.add_section(SectionType::kMetadata, kSectionImageId,
                std::vector<std::byte>(id, id + image_id.size()));
  for (const ChainSection& s : sections) {
    w.add_section(s.type, s.name, s.payload);
  }
  EXPECT_TRUE(w.finish().ok()) << w.status().to_string();
  return std::move(sink).take();
}

// Test-only reference for ckpt::ChainMerge: the whole-image fold merges
// used to run. It decodes every section of `delta_image`, patches each
// kDeltaChunks section onto its target decoded out of `parent_full` (the
// parent already folded), and re-encodes it all through an ImageWriter with
// the delta's codec and chunk size. Only valid chains come here.
inline Result<std::vector<std::byte>> reference_apply_delta(
    std::vector<std::byte> delta_image, std::vector<std::byte> parent_full) {
  CRAC_ASSIGN_OR_RETURN(auto reader,
                        ImageReader::from_bytes(std::move(delta_image)));
  CRAC_ASSIGN_OR_RETURN(auto parent,
                        ImageReader::from_bytes(std::move(parent_full)));
  auto parent_id = read_image_id(parent);
  if (!parent_id.ok() || *parent_id != reader.parent_id()) {
    return Corrupt("reference fold: parent image id mismatch");
  }
  MemorySink sink;
  ImageWriter::Options wopts;
  wopts.codec = reader.codec();
  wopts.chunk_size = reader.chunk_size();
  ImageWriter writer(&sink, wopts);
  for (const SectionInfo& sec : reader.sections()) {
    CRAC_ASSIGN_OR_RETURN(auto payload, reader.read_section(sec));
    SectionType type = sec.type;
    if (type == SectionType::kDeltaChunks) {
      ByteReader in(payload);
      std::uint32_t target = 0;
      std::uint64_t granule = 0, full = 0, count = 0;
      CRAC_RETURN_IF_ERROR(in.get_u32(target));
      CRAC_RETURN_IF_ERROR(in.get_u64(granule));
      CRAC_RETURN_IF_ERROR(in.get_u64(full));
      CRAC_RETURN_IF_ERROR(in.get_u64(count));
      type = static_cast<SectionType>(target);
      const SectionInfo* base = parent.find(type, sec.name);
      if (base == nullptr || base->raw_size != full) {
        return Corrupt("reference fold: no target for '" + sec.name + "'");
      }
      CRAC_ASSIGN_OR_RETURN(auto patched, parent.read_section(*base));
      for (std::uint64_t e = 0; e < count; ++e) {
        std::uint64_t index = 0, len = 0;
        CRAC_RETURN_IF_ERROR(in.get_u64(index));
        CRAC_RETURN_IF_ERROR(in.get_u64(len));
        if (index * granule + len > patched.size()) {
          return Corrupt("reference fold: entry past its target");
        }
        CRAC_RETURN_IF_ERROR(in.get_bytes(
            patched.data() + index * granule, static_cast<std::size_t>(len)));
      }
      payload = std::move(patched);
    }
    CRAC_RETURN_IF_ERROR(writer.begin_section(type, sec.name));
    CRAC_RETURN_IF_ERROR(writer.append(payload.data(), payload.size()));
    CRAC_RETURN_IF_ERROR(writer.end_section());
  }
  CRAC_RETURN_IF_ERROR(writer.finish());
  return std::move(sink).take();
}

// Folds a chain given newest first (chain.back() is the full base).
inline Result<std::vector<std::byte>> reference_fold(
    std::vector<std::vector<std::byte>> chain) {
  std::vector<std::byte> acc = std::move(chain.back());
  for (std::size_t i = chain.size() - 1; i-- > 0;) {
    CRAC_ASSIGN_OR_RETURN(
        acc, reference_apply_delta(std::move(chain[i]), std::move(acc)));
  }
  return acc;
}

// How one generated chain is encoded; everything else comes from `seed`.
struct ChainCase {
  std::uint64_t seed = 1;
  std::vector<Codec> codecs;             // per link, base first
  std::vector<std::size_t> chunk_sizes;  // per link, base first
  std::uint64_t granule = 4096;
  std::size_t arena_bytes = 96 << 10;
};

// Builds the chain `c` describes, newest first: a full base and one delta
// per further codec. Every delta patches "arena" (no, sparse, dense or
// covering entries, some shorter than a granule) and "empty" (no entries),
// writes "managed" in full or patches it sparsely, keeps the parent-only
// "note" or drops it, and adds a section of its own; section order varies.
// A delta's parent path is `paths[i + 1]` when `paths` names the links.
inline std::vector<std::vector<std::byte>> build_chain(
    const ChainCase& c, const std::vector<std::string>& paths = {}) {
  Rng rng(c.seed);
  const auto mixed = [&rng](std::size_t n) {
    std::vector<std::byte> out =
        compressible_bytes(n, rng.next_u64());
    const std::vector<std::byte> noise = random_bytes(n / 2, rng.next_u64());
    std::memcpy(out.data() + n / 4, noise.data(), noise.size());
    return out;
  };
  const std::size_t links = c.codecs.size();
  std::map<std::string, std::uint64_t> sizes;  // the merged parent's
  const auto id_of = [&c](std::size_t link) {
    return "chain-" + std::to_string(c.seed) + "-" + std::to_string(link);
  };
  std::vector<std::vector<std::byte>> chain(links);
  std::vector<ChainSection> secs = {
      {SectionType::kMetadata, "note", random_bytes(300, rng.next_u64())},
      {SectionType::kDeviceBuffers, "arena", mixed(c.arena_bytes)},
      {SectionType::kManagedBuffers, "managed", mixed(c.arena_bytes / 3)},
      {SectionType::kDeviceBuffers, "empty", {}},
  };
  for (const ChainSection& s : secs) sizes[s.name] = s.payload.size();
  chain[links - 1] =
      chain_image(id_of(0), "", "", c.codecs[0], c.chunk_sizes[0], secs);
  for (std::size_t l = 1; l < links; ++l) {
    const std::uint64_t g = c.granule;
    const auto patches = [&](std::uint64_t full, int mode) {
      std::vector<DeltaEntry> es;
      const double keep = mode == 0 ? 0.0 : mode == 1 ? 0.1 : mode == 2 ? 0.7
                                                                        : 1.0;
      for (std::uint64_t i = 0; i * g < full; ++i) {
        if (mode != 3 && rng.next_double() >= keep) continue;
        std::uint64_t len = std::min<std::uint64_t>(g, full - i * g);
        if (mode != 3 && rng.next_below(4) == 0) len = 1 + rng.next_below(len);
        es.push_back({i, random_bytes(static_cast<std::size_t>(len),
                                      rng.next_u64())});
      }
      return es;
    };
    secs.clear();
    secs.push_back({SectionType::kDeltaChunks, "arena",
                    delta_body(SectionType::kDeviceBuffers, g,
                               sizes["arena"],
                               patches(sizes["arena"],
                                       static_cast<int>(rng.next_below(4))))});
    if (rng.next_below(2) == 0) {
      sizes["managed"] = c.arena_bytes / 4 + rng.next_below(c.arena_bytes / 4);
      secs.push_back({SectionType::kManagedBuffers, "managed",
                      mixed(static_cast<std::size_t>(sizes["managed"]))});
    } else {
      secs.push_back({SectionType::kDeltaChunks, "managed",
                      delta_body(SectionType::kManagedBuffers, g,
                                 sizes["managed"],
                                 patches(sizes["managed"], 1))});
    }
    secs.push_back({SectionType::kDeltaChunks, "empty",
                    delta_body(SectionType::kDeviceBuffers, g, 0, {})});
    if (sizes.count("note") != 0 && rng.next_below(2) == 0) {
      secs.push_back({SectionType::kMetadata, "note",
                      random_bytes(200, rng.next_u64())});
      sizes["note"] = 200;
    } else {
      sizes.erase("note");
    }
    secs.push_back({SectionType::kStreams, "own-" + std::to_string(l),
                    random_bytes(100 + rng.next_below(5000), rng.next_u64())});
    std::rotate(secs.begin(), secs.begin() + rng.next_below(secs.size()),
                secs.end());
    chain[links - 1 - l] = chain_image(
        id_of(l), id_of(l - 1), paths.empty() ? "" : paths[links - l],
        c.codecs[l], c.chunk_sizes[l], secs);
    for (auto it = sizes.begin(); it != sizes.end();) {
      const bool kept = std::any_of(
          secs.begin(), secs.end(),
          [&](const ChainSection& s) { return s.name == it->first; });
      it = kept ? std::next(it) : sizes.erase(it);
    }
  }
  return chain;
}

// A random chain case: depth 1-4, every codec, chunk sizes that are and are
// not multiples of the granule; half the cases encode every link like the
// leaf (the frame-copy path), half mix codecs and chunk sizes per link.
inline ChainCase random_chain_case(std::uint64_t seed) {
  Rng rng(seed * 7919);
  static const Codec kCodecs[] = {Codec::kStore, Codec::kLz,
                                  Codec::kZeroRunLz};
  static const std::size_t kChunks[] = {4096, 16 << 10, 40000, 64 << 10};
  static const std::uint64_t kGranules[] = {4096, 10000, 64 << 10};
  ChainCase c;
  c.seed = seed;
  c.granule = kGranules[rng.next_below(3)];
  c.arena_bytes = 64 * 1024 + rng.next_below(200 * 1024);
  const std::size_t links = 2 + rng.next_below(4);
  const bool uniform = rng.next_below(2) == 0;
  const Codec codec = kCodecs[rng.next_below(3)];
  const std::size_t chunk = kChunks[rng.next_below(4)];
  for (std::size_t l = 0; l < links; ++l) {
    c.codecs.push_back(uniform ? codec : kCodecs[rng.next_below(3)]);
    c.chunk_sizes.push_back(uniform ? chunk : kChunks[rng.next_below(4)]);
  }
  return c;
}

// The three chains whose merged CRC-32 and size are pinned in delta_test:
// a store-codec chain of depth 2, an LZ chain of depth 3 whose links chunk
// differently, and a zero-run chain of depth 2.
inline ChainCase pinned_chain(int which) {
  ChainCase c;
  c.seed = 9001 + static_cast<std::uint64_t>(which);
  switch (which) {
    case 0:
      c.codecs = {Codec::kStore, Codec::kStore, Codec::kStore};
      c.chunk_sizes = {16 << 10, 16 << 10, 16 << 10};
      break;
    case 1:
      c.codecs = {Codec::kLz, Codec::kStore, Codec::kLz, Codec::kLz};
      c.chunk_sizes = {40000, 16 << 10, 40000, 40000};
      c.granule = 10000;
      break;
    default:
      c.codecs = {Codec::kZeroRunLz, Codec::kZeroRunLz, Codec::kZeroRunLz};
      c.chunk_sizes = {8 << 10, 8 << 10, 8 << 10};
      c.granule = 3000;
      break;
  }
  return c;
}

}  // namespace crac::ckpt::testlib
