// Durability campaign for the checkpoint registry's persistence layer.
//
// Three layers of proof that the staged-commit protocol (slab append ->
// slab sync -> WAL record -> manifest checkpoint) keeps exactly the
// WAL-committed images and nothing else:
//
//   1. In-process recovery units: round trips across reopen, torn-tail
//      truncation of hand-corrupted slab/WAL files, uncommitted-PUT
//      reclamation, and the trailer-gate regression (a stream whose
//      CRACSHP1 trailer fails verification must never reach the WAL).
//   2. A randomized property test driving PUT/GET/STAT/evict interleavings
//      across registry restarts against an in-memory oracle.
//   3. The kill-and-recover campaign: a forked RegistryHost is SIGKILLed at
//      each named fault point of the commit protocol (armed via
//      testlib::ScopedKillPoint, inherited across fork), a fresh host is
//      respawned over the same directory, and the surviving state must be
//      exactly the trailer-committed images — byte-identical, with zero
//      leaked slab bytes.
//
// Suites named *HostTest fork a server process and are excluded from the
// TSan job (fork + instrumentation don't mix); everything else is
// in-process and TSan-clean.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "proxy/channel.hpp"
#include "registry/client.hpp"
#include "registry/image_io.hpp"
#include "registry/persist.hpp"
#include "registry/registry.hpp"
#include "registry/server.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::registry {
namespace {

using ckpt::Codec;
using ckpt::ImageWriter;
using ckpt::SectionType;
namespace testlib = ckpt::testlib;
using testlib::kSanitizedAllocator;
using testlib::vm_rss_bytes;

std::vector<std::byte> pattern_payload(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 13 + seed * 131 + 7) & 0xFF);
  }
  return out;
}

std::vector<std::byte> build_image(Codec codec, std::size_t section_bytes,
                                   unsigned seed) {
  ImageWriter writer(codec);
  writer.add_section(SectionType::kMetadata, "meta",
                     pattern_payload(512, seed));
  writer.add_section(SectionType::kDeviceBuffers, "device-arena",
                     pattern_payload(section_bytes, seed + 1));
  EXPECT_TRUE(writer.status().ok()) << writer.status().to_string();
  return writer.serialize();
}

Status feed(RegistrySink& sink, const std::vector<std::byte>& bytes) {
  constexpr std::size_t kStep = 4096;
  for (std::size_t off = 0; off < bytes.size(); off += kStep) {
    const std::size_t n = std::min(kStep, bytes.size() - off);
    CRAC_RETURN_IF_ERROR(sink.write(bytes.data() + off, n));
  }
  return OkStatus();
}

Status put_image(CheckpointRegistry& reg, const std::string& name,
                 const std::vector<std::byte>& bytes) {
  auto sink = reg.begin_put(name);
  CRAC_RETURN_IF_ERROR(feed(*sink, bytes));
  CRAC_RETURN_IF_ERROR(sink->close());
  return reg.commit(*sink);
}

Result<std::vector<std::byte>> read_image(CheckpointRegistry& reg,
                                          const std::string& name) {
  CRAC_ASSIGN_OR_RETURN(auto source, reg.open(name));
  std::vector<std::byte> out(source->size());
  if (!out.empty()) {
    CRAC_RETURN_IF_ERROR(source->read(out.data(), out.size()));
  }
  return out;
}

// A fresh, empty backing directory under the test temp root. Tests reuse
// one process-unique root so a crashed previous run can't leave state that
// a recovery assertion would mistake for corruption.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "crac_durability_" +
                          std::to_string(::getpid()) + "_" + tag;
  for (const char* file :
       {"/chunks.slab", "/wal.log", "/manifest", "/manifest.tmp",
        "/chunks.slab.tmp"}) {
    std::string path = dir + file;
    ::unlink(path.c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

// The zero-leak invariant: every byte of chunks.slab is the file header
// plus exactly one CRC'd record per live unique chunk. Any surplus is a
// leaked record (a torn PUT's orphan that recovery failed to reclaim).
void expect_zero_leaked_slab_bytes(std::uint64_t slab_file_bytes,
                                   std::uint64_t unique_chunks,
                                   std::uint64_t stored_bytes) {
  EXPECT_EQ(slab_file_bytes, kSlabFileHeaderBytes +
                                 unique_chunks * kSlabRecordHeaderBytes +
                                 stored_bytes);
}

// Incompressible bytes: no two 1 MiB chunks of a corpus built from these
// dedup against each other.
std::vector<std::byte> random_payload(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng();
    std::memcpy(out.data() + i, &v, 8);
  }
  return out;
}

std::vector<std::byte> build_random_image(std::size_t section_bytes,
                                          unsigned seed) {
  ImageWriter writer(Codec::kStore);
  writer.add_section(SectionType::kDeviceBuffers, "device-arena",
                     random_payload(section_bytes, seed));
  EXPECT_TRUE(writer.status().ok()) << writer.status().to_string();
  return writer.serialize();
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

// Flips one byte in the payload of the slab's first record.
void flip_first_payload_byte(const std::string& dir) {
  const std::string path = dir + "/chunks.slab";
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path << ": " << std::strerror(errno);
  const off_t at = kSlabFileHeaderBytes + kSlabRecordHeaderBytes + 7;
  unsigned char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, at), 1);
  b ^= 0x5A;
  ASSERT_EQ(::pwrite(fd, &b, 1, at), 1);
  ::close(fd);
}

// Commits images "a" then "b" to a fresh durable registry at opts.dir and,
// after shutdown, damages the first slab record: a payload of "a" only.
void commit_then_flip_first_payload(const CheckpointRegistry::Options& opts,
                                    const std::vector<std::byte>& a,
                                    const std::vector<std::byte>& b) {
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "a", a).ok());
    ASSERT_TRUE(put_image(reg, "b", b).ok());
  }
  flip_first_payload_byte(opts.dir);
}

void append_garbage(const std::string& path, std::size_t n, unsigned seed) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0) << path << ": " << std::strerror(errno);
  const std::vector<std::byte> junk = pattern_payload(n, seed);
  ASSERT_EQ(::write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  ::close(fd);
}

// ---------------------------------------------------------------------------
// In-process recovery units
// ---------------------------------------------------------------------------

TEST(DurableRegistryTest, VolatileModeNeedsNoRecovery) {
  CheckpointRegistry reg;  // no dir: volatile, over an anonymous slab file
  EXPECT_TRUE(reg.recover().ok());
  EXPECT_TRUE(put_image(reg, "a", build_image(Codec::kStore, 8 << 10, 1)).ok());
  EXPECT_FALSE(reg.stats().durable);
}

TEST(DurableRegistryTest, DurableModeRefusesCommitBeforeRecovery) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("needs_recover");
  CheckpointRegistry reg(opts);
  const auto bytes = build_image(Codec::kStore, 4 << 10, 2);
  Status put = put_image(reg, "early", bytes);
  EXPECT_EQ(put.code(), StatusCode::kFailedPrecondition)
      << put.to_string();
}

TEST(DurableRegistryTest, RoundTripAcrossReopen) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("roundtrip");
  const auto a = build_image(Codec::kStore, 64 << 10, 3);
  const auto b = build_image(Codec::kLz, 96 << 10, 4);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "fleet/a", a).ok());
    ASSERT_TRUE(put_image(reg, "fleet/b", b).ok());
    RegistryStats st = reg.stats();
    EXPECT_TRUE(st.durable);
    EXPECT_EQ(st.images, 2u);
  }  // registry destroyed: nothing but the directory survives

  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  auto names = reg.list();
  ASSERT_EQ(names.size(), 2u);
  auto got_a = read_image(reg, "fleet/a");
  auto got_b = read_image(reg, "fleet/b");
  ASSERT_TRUE(got_a.ok()) << got_a.status().to_string();
  ASSERT_TRUE(got_b.ok()) << got_b.status().to_string();
  EXPECT_EQ(*got_a, a);
  EXPECT_EQ(*got_b, b);

  RegistryStats st = reg.stats();
  EXPECT_EQ(st.disk.recovered_images, 2u);
  EXPECT_EQ(st.disk.dead_bytes, 0u);
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

TEST(DurableRegistryTest, RecoverTwiceIsRefused) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("recover_twice");
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  Status again = reg.recover();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

TEST(DurableRegistryTest, RecoveryTruncatesTornSlabTail) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("torn_slab");
  const auto image = build_image(Codec::kStore, 48 << 10, 5);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "kept", image).ok());
  }
  // A record header that never got its payload: the torn tail a crash
  // mid-append leaves. Recovery must cut it, not refuse the whole slab.
  append_garbage(opts.dir + "/chunks.slab", 57, 6);

  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  RegistryStats st = reg.stats();
  EXPECT_GT(st.disk.recovery_truncated_slab, 0u);
  auto got = read_image(reg, "kept");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, image);
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

TEST(DurableRegistryTest, RecoveryTruncatesTornWalTail) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("torn_wal");
  const auto image = build_image(Codec::kLz, 32 << 10, 7);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "kept", image).ok());
  }
  append_garbage(opts.dir + "/wal.log", 41, 8);

  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  RegistryStats st = reg.stats();
  EXPECT_GT(st.disk.recovery_truncated_wal, 0u);
  auto got = read_image(reg, "kept");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, image);
}

TEST(DurableRegistryTest, UncommittedPutLeavesNothingBehind) {
  // A sink that was fed and closed but never commit()ed: its chunks hit
  // the slab (persistence runs at interning time), but no WAL record
  // exists, so recovery must reclaim every byte.
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("uncommitted");
  const auto kept = build_image(Codec::kStore, 24 << 10, 9);
  const auto dropped = build_image(Codec::kStore, 80 << 10, 10);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "kept", kept).ok());
    auto sink = reg.begin_put("dropped");
    ASSERT_TRUE(feed(*sink, dropped).ok());
    ASSERT_TRUE(sink->close().ok());
    // No commit: the transport failed after the payload landed.
  }
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  auto names = reg.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].name, "kept");
  RegistryStats st = reg.stats();
  EXPECT_EQ(st.disk.dead_bytes, 0u);
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

TEST(DurableRegistryTest, RemoveIsDurable) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("remove");
  const auto a = build_image(Codec::kStore, 16 << 10, 11);
  const auto b = build_image(Codec::kStore, 16 << 10, 12);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "a", a).ok());
    ASSERT_TRUE(put_image(reg, "b", b).ok());
    ASSERT_TRUE(reg.remove("a").ok());
  }
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  auto names = reg.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].name, "b");
  RegistryStats st = reg.stats();
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

TEST(DurableRegistryTest, ReplacedImageReclaimedAcrossReopen) {
  // PUT under the same name twice: the first version's unshared chunks are
  // dead weight and must not survive recovery.
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("replace");
  const auto v1 = build_image(Codec::kStore, 64 << 10, 13);
  const auto v2 = build_image(Codec::kStore, 64 << 10, 14);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "job", v1).ok());
    ASSERT_TRUE(put_image(reg, "job", v2).ok());
  }
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  auto got = read_image(reg, "job");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
  RegistryStats st = reg.stats();
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

TEST(DurableRegistryTest, RePutOfReleasedChunksSurvivesCompaction) {
  // Remove an image (its slab records go dead), then PUT new content that
  // shares those exact chunks: the re-PUT must resurrect the dead records.
  // The regression this pins: append_chunk that early-returns on a dead
  // catalog hit leaves the record dead while the new image's WAL commit
  // references it — the next compaction then deletes the payload and
  // recovery rejects the directory as corrupt.
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("reput_dead");
  // `ballast` keeps compaction from firing right after the remove (dead
  // bytes stay under half the live payload), so the dead records are still
  // in the catalog when the re-PUT interns the same content.
  const auto ballast = build_image(Codec::kStore, 512 << 10, 16);
  const auto shared = build_image(Codec::kStore, 100 << 10, 17);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "ballast", ballast).ok());
    ASSERT_TRUE(put_image(reg, "a", shared).ok());
    ASSERT_TRUE(reg.remove("a").ok());
    EXPECT_GT(reg.stats().disk.dead_bytes, 0u);
    // Identical bytes under a new name: every chunk re-interns to a key
    // already in the slab, all of them dead.
    ASSERT_TRUE(put_image(reg, "b", shared).ok());
    EXPECT_EQ(reg.stats().disk.dead_bytes, 0u);
    // Now force a compaction pass over the resurrected records: removing
    // the big image makes its dead weight dominate the live payload.
    ASSERT_TRUE(reg.remove("ballast").ok());
    EXPECT_GT(reg.stats().disk.compactions, 0u);
  }
  CheckpointRegistry reg(opts);
  Status recovered = reg.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.to_string();
  auto got = read_image(reg, "b");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, shared);
  RegistryStats st = reg.stats();
  EXPECT_EQ(st.disk.dead_bytes, 0u);
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

TEST(DurableRegistryTest, LruOrderSurvivesRestart) {
  // Capacity eviction after a restart must pick the least-recently-used
  // image, not the alphabetically-first one: LRU stamps ride in each
  // directory entry, and recovery restores them instead of re-stamping in
  // name order.
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("lru_restart");
  opts.wal_checkpoint_bytes = 1;  // every commit folds GET-fresh stamps
  const auto a = build_image(Codec::kStore, 96 << 10, 18);
  const auto b = build_image(Codec::kStore, 96 << 10, 19);
  const auto tick = build_image(Codec::kStore, 4 << 10, 20);
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_TRUE(put_image(reg, "a", a).ok());
    ASSERT_TRUE(put_image(reg, "b", b).ok());
    // GET bumps "a" past "b"; the following commit's manifest checkpoint
    // persists that recency.
    ASSERT_TRUE(read_image(reg, "a").ok());
    ASSERT_TRUE(put_image(reg, "tick", tick).ok());
  }
  // Restart with a budget the three survivors fit but a fourth bursts.
  CheckpointRegistry::Options tight = opts;
  tight.capacity_bytes = 280 << 10;
  CheckpointRegistry reg(tight);
  ASSERT_TRUE(reg.recover().ok());
  const auto burst = build_image(Codec::kStore, 96 << 10, 21);
  ASSERT_TRUE(put_image(reg, "burst", burst).ok());
  std::vector<std::string> names;
  for (const ImageInfo& info : reg.list()) names.push_back(info.name);
  // "b" is the least-recently-used; name order would have evicted "a".
  EXPECT_EQ(names, (std::vector<std::string>{"a", "burst", "tick"}));
}

TEST(DurableRegistryTest, WalFoldsIntoManifestAtThreshold) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("fold");
  opts.wal_checkpoint_bytes = 1;  // every commit folds into the manifest
  const auto image = build_image(Codec::kStore, 8 << 10, 15);
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  ASSERT_TRUE(put_image(reg, "a", image).ok());
  RegistryStats st = reg.stats();
  // The commit record was folded into the manifest and the WAL truncated.
  EXPECT_EQ(st.disk.wal_bytes, 0u);
  struct stat sb {};
  ASSERT_EQ(::stat((opts.dir + "/manifest").c_str(), &sb), 0);
  EXPECT_GT(sb.st_size, 0);
}

TEST(DurableRegistryTest, FlippedPayloadByteFailsOnlyItsImage) {
  // One damaged payload early in the slab must cost exactly the images
  // that use it: recovery reads headers only and keeps every record, and
  // the damage surfaces as a named Corrupt on the first read of it.
  const auto a = build_image(Codec::kStore, 64 << 10, 40);
  const auto b = build_image(Codec::kStore, 64 << 10, 42);
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("flip");
  ASSERT_NO_FATAL_FAILURE(commit_then_flip_first_payload(opts, a, b));
  const std::uint64_t slab_bytes = file_size(opts.dir + "/chunks.slab");

  CheckpointRegistry reg(opts);
  Status recovered = reg.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.to_string();
  EXPECT_EQ(reg.stats().disk.recovery_truncated_slab, 0u);
  EXPECT_EQ(file_size(opts.dir + "/chunks.slab"), slab_bytes);
  EXPECT_EQ(reg.list().size(), 2u);

  auto got_b = read_image(reg, "b");
  ASSERT_TRUE(got_b.ok()) << got_b.status().to_string();
  EXPECT_EQ(*got_b, b);
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto got_a = read_image(reg, "a");
    ASSERT_FALSE(got_a.ok());
    EXPECT_EQ(got_a.status().code(), StatusCode::kCorrupt);
    EXPECT_NE(got_a.status().message().find("chunks.slab"), std::string::npos)
        << got_a.status().to_string();
  }

  // PUTting the same content again appends a sound record that supersedes
  // the damaged one.
  ASSERT_TRUE(put_image(reg, "a-again", a).ok());
  auto healed = read_image(reg, "a");
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  EXPECT_EQ(*healed, a);
}

TEST(DurableRegistryTest, SupersedingRecordWinsAfterRestart) {
  // The damaged record and the one superseding it both stay in the slab
  // until a compaction: the restart's header scan must index the later one,
  // and the recovery compaction drops the earlier one.
  const auto a = build_image(Codec::kStore, 64 << 10, 40);
  const auto b = build_image(Codec::kStore, 64 << 10, 42);
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("flip_restart");
  ASSERT_NO_FATAL_FAILURE(commit_then_flip_first_payload(opts, a, b));
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    ASSERT_FALSE(read_image(reg, "a").ok());  // marks the record damaged
    ASSERT_TRUE(put_image(reg, "a-again", a).ok());
    EXPECT_GT(reg.stats().disk.dead_bytes, 0u);
  }
  CheckpointRegistry again(opts);
  Status recovered = again.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.to_string();
  const RegistryStats st = again.stats();
  EXPECT_EQ(st.disk.recovery_truncated_slab, 0u);
  EXPECT_EQ(st.disk.dead_bytes, 0u);
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
  for (const char* name : {"a", "a-again"}) {
    auto got = read_image(again, name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().to_string();
    EXPECT_EQ(*got, a) << name;
  }
}

TEST(DurableRegistryTest, RePutOfUncheckedDamagedRecordSupersedesIt) {
  // After a recovery with nothing dead, no compaction reads the payloads.
  // A PUT whose content matches a live record this process has not checked
  // yet must check it before committing against it: the client sent sound
  // bytes, so the image it commits must read back.
  const auto a = build_image(Codec::kStore, 64 << 10, 40);
  const auto b = build_image(Codec::kStore, 64 << 10, 42);
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("flip_reput");
  ASSERT_NO_FATAL_FAILURE(commit_then_flip_first_payload(opts, a, b));
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  EXPECT_EQ(reg.stats().disk.compactions, 0u);  // nothing read the payloads
  ASSERT_TRUE(put_image(reg, "a-again", a).ok());  // before any GET of "a"
  for (const char* name : {"a", "a-again"}) {
    auto got = read_image(reg, name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().to_string();
    EXPECT_EQ(*got, a) << name;
  }
}

TEST(DurableRegistryTest, GetRacesRuntimeCompaction) {
  // A GET session spans a compaction that rewrites every offset and
  // replaces the slab file: the session keeps reading the generation it
  // started on, whose descriptor stays open until the session ends.
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("get_vs_compact");
  CheckpointRegistry reg(opts);
  ASSERT_TRUE(reg.recover().ok());
  const auto doomed = build_image(Codec::kStore, 512 << 10, 50);
  const auto kept = build_image(Codec::kLz, 256 << 10, 51);
  ASSERT_TRUE(put_image(reg, "doomed", doomed).ok());  // records first
  ASSERT_TRUE(put_image(reg, "kept", kept).ok());

  auto source = reg.open("kept");
  ASSERT_TRUE(source.ok());
  std::vector<std::byte> got(kept.size());
  const std::size_t half = got.size() / 2;
  ASSERT_TRUE((*source)->read(got.data(), half).ok());
  ASSERT_TRUE(reg.remove("doomed").ok());
  ASSERT_TRUE(reg.store()->compact().ok());
  EXPECT_GT(reg.stats().disk.compactions, 0u);
  EXPECT_EQ(reg.stats().disk.dead_bytes, 0u);
  ASSERT_TRUE((*source)->read(got.data() + half, got.size() - half).ok());
  EXPECT_EQ(got, kept);

  // The same, concurrently: a reader streams "kept" over and over while
  // the writer churns an image through PUT, remove and compaction.
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0}, bad{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto again = read_image(reg, "kept");
      if (!again.ok() || *again != kept) bad.fetch_add(1);
      reads.fetch_add(1);
    }
  });
  for (unsigned round = 0; round < 16; ++round) {
    const auto churn = build_image(Codec::kStore, 256 << 10, 60 + round);
    ASSERT_TRUE(put_image(reg, "churn", churn).ok());
    ASSERT_TRUE(reg.remove("churn").ok());
    ASSERT_TRUE(reg.store()->compact().ok());
  }
  while (reads.load() < 2) std::this_thread::yield();
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(DurableRegistryTest, RecoveryLeavesPayloadsOnDisk) {
  // Recovery reads record headers, the manifest and the WAL: the process
  // grows by the index, not by the ≥32 MiB of payload it now serves.
  if (kSanitizedAllocator) GTEST_SKIP() << "RSS bounds need the plain malloc";
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("rss");
  {
    CheckpointRegistry reg(opts);
    ASSERT_TRUE(reg.recover().ok());
    for (unsigned i = 0; i < 4; ++i) {
      ASSERT_TRUE(put_image(reg, "big-" + std::to_string(i),
                            build_random_image(9 << 20, 70 + i))
                      .ok());
    }
  }
  CheckpointRegistry reg(opts);
  const std::uint64_t before = vm_rss_bytes();
  ASSERT_TRUE(reg.recover().ok());
  const std::uint64_t after = vm_rss_bytes();
  const RegistryStats st = reg.stats();
  ASSERT_GE(st.store.stored_bytes, std::uint64_t{32} << 20);
  ASSERT_GT(before, 0u);
  EXPECT_LT(after - std::min(after, before), st.store.stored_bytes / 8)
      << "VmRSS grew from " << before << " to " << after << " bytes";
}

TEST(DurableRegistryTest, VolatilePutLeavesPayloadsOnDisk) {
  // A volatile registry runs the same store over an anonymous file: a PUT
  // costs the sink's one-chunk buffer, not the image's payload.
  if (kSanitizedAllocator) GTEST_SKIP() << "RSS bounds need the plain malloc";
  const auto image = build_random_image(32 << 20, 80);
  CheckpointRegistry reg;
  const std::uint64_t before = vm_rss_bytes();
  ASSERT_TRUE(put_image(reg, "big", image).ok());
  const std::uint64_t after = vm_rss_bytes();
  const RegistryStats st = reg.stats();
  ASSERT_GE(st.store.stored_bytes, std::uint64_t{32} << 20);
  EXPECT_FALSE(st.durable);
  EXPECT_LT(after - std::min(after, before), st.store.stored_bytes / 8)
      << "VmRSS grew from " << before << " to " << after << " bytes";
  auto got = read_image(reg, "big");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_TRUE(*got == image);
}

TEST(DurableRegistryTest, HostileSegmentCountIsCorrupt) {
  // A WAL/manifest image record claiming 2^32-1 segments over a payload
  // that holds none: the reserve is capped by the bytes left, and the walk
  // fails by name.
  ImageRecordWire rec;
  rec.name = "img";
  ByteWriter w;
  encode_image_record(rec, w);
  std::vector<std::byte> bytes = std::move(w).take();
  const std::uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + bytes.size() - sizeof(hostile), &hostile,
              sizeof(hostile));  // seg_count is the record's last field
  ByteReader in(bytes);
  ImageRecordWire out;
  const Status got = decode_image_record(in, out);
  EXPECT_EQ(got.code(), StatusCode::kCorrupt) << got.to_string();
}

// ---------------------------------------------------------------------------
// Property test: random op interleavings across restarts vs an oracle
// ---------------------------------------------------------------------------

TEST(RegistryDurabilityPropertyTest, RandomOpsAcrossRestartsMatchOracle) {
  CheckpointRegistry::Options opts;
  opts.dir = fresh_dir("property");
  opts.wal_checkpoint_bytes = 8 << 10;  // exercise fold + replay both

  std::mt19937 rng(0x5EED0807u);
  std::map<std::string, std::vector<std::byte>> oracle;

  // A small name pool and a smaller payload-seed pool, so replacements and
  // cross-image chunk sharing both happen often.
  auto pick_name = [&rng] {
    return "img-" + std::to_string(rng() % 6);
  };
  auto random_image = [&rng]() {
    const Codec codec = (rng() % 2 == 0) ? Codec::kStore : Codec::kLz;
    ImageWriter writer(codec);
    const unsigned sections = 1 + rng() % 3;
    for (unsigned s = 0; s < sections; ++s) {
      writer.add_section(SectionType::kDeviceBuffers,
                         "sec-" + std::to_string(s),
                         pattern_payload(512 + rng() % 8192, rng() % 4));
    }
    EXPECT_TRUE(writer.status().ok());
    return writer.serialize();
  };

  auto verify_against_oracle = [&](CheckpointRegistry& reg) {
    auto listing = reg.list();
    ASSERT_EQ(listing.size(), oracle.size());
    for (const ImageInfo& info : listing) {
      auto want = oracle.find(info.name);
      ASSERT_NE(want, oracle.end()) << info.name;
      EXPECT_EQ(info.image_bytes, want->second.size());
      auto got = read_image(reg, info.name);
      ASSERT_TRUE(got.ok()) << info.name << ": " << got.status().to_string();
      EXPECT_EQ(*got, want->second) << info.name;
    }
  };

  auto reg = std::make_unique<CheckpointRegistry>(opts);
  ASSERT_TRUE(reg->recover().ok());

  constexpr int kSteps = 240;
  for (int step = 0; step < kSteps; ++step) {
    const unsigned roll = rng() % 100;
    if (roll < 40) {
      const std::string name = pick_name();
      std::vector<std::byte> bytes = random_image();
      ASSERT_TRUE(put_image(*reg, name, bytes).ok()) << "step " << step;
      oracle[name] = std::move(bytes);
    } else if (roll < 65) {
      const std::string name = pick_name();
      auto got = read_image(*reg, name);
      auto want = oracle.find(name);
      if (want == oracle.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << "step " << step;
      } else {
        ASSERT_TRUE(got.ok()) << "step " << step << ": "
                              << got.status().to_string();
        EXPECT_EQ(*got, want->second) << "step " << step;
      }
    } else if (roll < 80) {
      const std::string name = pick_name();
      Status evicted = reg->evict(name);
      if (oracle.erase(name) > 0) {
        EXPECT_TRUE(evicted.ok()) << "step " << step << ": "
                                  << evicted.to_string();
      } else {
        EXPECT_EQ(evicted.code(), StatusCode::kNotFound);
      }
    } else if (roll < 92) {
      RegistryStats st = reg->stats();
      EXPECT_EQ(st.images, oracle.size()) << "step " << step;
      std::uint64_t logical = 0;
      for (const auto& [name, bytes] : oracle) logical += bytes.size();
      EXPECT_EQ(st.logical_bytes, logical) << "step " << step;
    } else {
      // Restart: only the directory survives.
      reg.reset();
      reg = std::make_unique<CheckpointRegistry>(opts);
      ASSERT_TRUE(reg->recover().ok()) << "step " << step;
      verify_against_oracle(*reg);
    }
  }

  // Final restart: everything the oracle holds, byte-identical, zero leaks.
  reg.reset();
  reg = std::make_unique<CheckpointRegistry>(opts);
  ASSERT_TRUE(reg->recover().ok());
  verify_against_oracle(*reg);
  RegistryStats st = reg->stats();
  EXPECT_EQ(st.disk.dead_bytes, 0u);
  expect_zero_leaked_slab_bytes(st.disk.slab_file_bytes,
                                st.store.unique_chunks,
                                st.store.stored_bytes);
}

// ---------------------------------------------------------------------------
// Forked-host suites (excluded from TSan runs)
// ---------------------------------------------------------------------------

RegistryClient connect_client(const RegistryHost& host) {
  auto fd = host.connect();
  EXPECT_TRUE(fd.ok()) << fd.status().to_string();
  return RegistryClient(fd.ok() ? *fd : -1);
}

void expect_host_zero_leak(RegistryClient& client) {
  auto stat = client.stat();
  ASSERT_TRUE(stat.ok()) << stat.status().to_string();
  expect_zero_leaked_slab_bytes(stat->slab_file_bytes, stat->unique_chunks,
                                stat->stored_bytes);
}

// A PUT whose stream carried valid chunks but a corrupt CRACSHP1 trailer:
// commit is strictly trailer-gated, so nothing may reach the WAL. The
// regression this pins: a server that logged the commit record when the
// sink went clean — before the transport trailer verdict — would resurrect
// the torn image on restart.
TEST(RegistryDurabilityHostTest, CorruptTrailerPutIsInvisibleAfterRestart) {
  auto prior = std::signal(SIGPIPE, SIG_IGN);
  const std::string dir = fresh_dir("trailer_gate");
  RegistryHostOptions opts;
  opts.dir = dir;

  const auto image = build_image(Codec::kStore, 64 << 10, 21);
  // Capture the exact CRACSHP1 framing put_bytes would send...
  std::vector<std::byte> ship;
  {
    int sp[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    std::thread writer([&image, fd = sp[1]] {
      ckpt::SocketSink sink(fd, "trailer capture");
      ASSERT_TRUE(sink.write(image.data(), image.size()).ok());
      ASSERT_TRUE(sink.close().ok());
      ::close(fd);
    });
    std::byte buf[4096];
    for (;;) {
      const ssize_t n = ::read(sp[0], buf, sizeof(buf));
      ASSERT_GE(n, 0);
      if (n == 0) break;
      ship.insert(ship.end(), buf, buf + n);
    }
    writer.join();
    ::close(sp[0]);
  }
  // ... and flip the last byte: the trailer's whole-stream CRC. Every
  // chunk frame still verifies individually.
  ASSERT_GE(ship.size(), ckpt::kShipTrailerBytes);
  ship.back() ^= std::byte{0xFF};

  {
    auto host = RegistryHost::spawn(opts);
    ASSERT_TRUE(host.ok()) << host.status().to_string();
    RegistryClient client = connect_client(*host);
    Status put = client.put("torn", [&ship](int fd) {
      return proxy::write_all(fd, ship.data(), ship.size());
    });
    EXPECT_FALSE(put.ok());
    host->shutdown();
  }
  // Restart over the same directory: the torn PUT never happened.
  auto host = RegistryHost::spawn(opts);
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  auto list = client.list();
  ASSERT_TRUE(list.ok()) << list.status().to_string();
  EXPECT_TRUE(list->empty());
  expect_host_zero_leak(client);
  host->shutdown();
  std::signal(SIGPIPE, prior);
}

TEST(RegistryDurabilityHostTest, FlippedPayloadByteFailsGetOverUsableChannel) {
  auto prior = std::signal(SIGPIPE, SIG_IGN);
  RegistryHostOptions opts;
  opts.dir = fresh_dir("flip_host");
  const auto a = build_image(Codec::kStore, 64 << 10, 43);
  const auto b = build_image(Codec::kLz, 96 << 10, 45);
  {
    auto host = RegistryHost::spawn(opts);
    ASSERT_TRUE(host.ok()) << host.status().to_string();
    RegistryClient client = connect_client(*host);
    ASSERT_TRUE(client.put_bytes("a", a).ok());  // owns the first record
    ASSERT_TRUE(client.put_bytes("b", b).ok());
    host->shutdown();
  }
  flip_first_payload_byte(opts.dir);

  auto host = RegistryHost::spawn(opts);
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  auto got_a = client.get_bytes("a");
  ASSERT_FALSE(got_a.ok());
  EXPECT_EQ(got_a.status().code(), StatusCode::kCorrupt)
      << got_a.status().to_string();
  // Refused before any stream started: the same channel keeps serving.
  EXPECT_TRUE(client.usable());
  auto got_b = client.get_bytes("b");
  ASSERT_TRUE(got_b.ok()) << got_b.status().to_string();
  EXPECT_EQ(*got_b, b);
  auto list = client.list();
  ASSERT_TRUE(list.ok()) << list.status().to_string();
  EXPECT_EQ(list->size(), 2u);
  host->shutdown();
  std::signal(SIGPIPE, prior);
}

TEST(RegistryDurabilityHostTest, HostRestartServesCommittedImages) {
  auto prior = std::signal(SIGPIPE, SIG_IGN);
  const std::string dir = fresh_dir("host_restart");
  RegistryHostOptions opts;
  opts.dir = dir;

  const auto a = build_image(Codec::kStore, 128 << 10, 22);
  const auto b = build_image(Codec::kLz, 256 << 10, 23);
  {
    auto host = RegistryHost::spawn(opts);
    ASSERT_TRUE(host.ok()) << host.status().to_string();
    RegistryClient client = connect_client(*host);
    ASSERT_TRUE(client.put_bytes("fleet/a", a).ok());
    ASSERT_TRUE(client.put_bytes("fleet/b", b).ok());
    host->shutdown();
  }
  auto host = RegistryHost::spawn(opts);
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  auto got_a = client.get_bytes("fleet/a");
  auto got_b = client.get_bytes("fleet/b");
  ASSERT_TRUE(got_a.ok()) << got_a.status().to_string();
  ASSERT_TRUE(got_b.ok()) << got_b.status().to_string();
  EXPECT_EQ(*got_a, a);
  EXPECT_EQ(*got_b, b);
  expect_host_zero_leak(client);
  host->shutdown();
  std::signal(SIGPIPE, prior);
}

// ---------------------------------------------------------------------------
// The kill-and-recover campaign
// ---------------------------------------------------------------------------

struct KillCase {
  const char* point;  // fault point armed in the forked server
  // Whether the torn image must be PRESENT after recovery. Only the last
  // protocol stage — manifest rename, strictly after the WAL record
  // fdatasync'd — leaves a committed image behind a failed client PUT.
  bool committed;
  // Benign crossings of the point to let pass before killing (the startup
  // recovery's own fresh-manifest checkpoint crosses the rename offset).
  int skip_hits;
};

class RegistryKillHostTest : public ::testing::TestWithParam<KillCase> {
 protected:
  void SetUp() override { prior_ = std::signal(SIGPIPE, SIG_IGN); }
  void TearDown() override { std::signal(SIGPIPE, prior_); }

 private:
  void (*prior_)(int) = nullptr;
};

TEST_P(RegistryKillHostTest, KillAndRecover) {
  const KillCase kc = GetParam();
  const std::string dir = fresh_dir(std::string("kill_") + kc.point);
  RegistryHostOptions opts;
  opts.dir = dir;
  // Checkpoint the manifest after every commit so the pre-manifest-rename
  // fault point is reached deterministically during the torn PUT.
  opts.wal_checkpoint_bytes = 1;

  const auto stable = build_image(Codec::kStore, 96 << 10, 31);
  const auto torn = build_image(Codec::kLz, 128 << 10, 32);

  // Phase 1: a clean host commits the baseline image.
  {
    auto host = RegistryHost::spawn(opts);
    ASSERT_TRUE(host.ok()) << host.status().to_string();
    RegistryClient client = connect_client(*host);
    ASSERT_TRUE(client.put_bytes("stable", stable).ok());
    host->shutdown();
  }

  // Phase 2: the armed host is SIGKILLed at the fault point mid-PUT. The
  // bomb is armed before spawn so the forked child inherits it; the parent
  // never executes persistence code.
  {
    testlib::ScopedKillPoint bomb(kc.point, kc.skip_hits);
    auto host = RegistryHost::spawn(opts);
    ASSERT_TRUE(host.ok()) << host.status().to_string();
    RegistryClient client = connect_client(*host);
    Status put = client.put_bytes("torn", torn);
    EXPECT_FALSE(put.ok()) << kc.point
                           << ": server died mid-protocol, the client must "
                              "not see a commit";
    host->shutdown();  // reaps the killed child
  }  // bomb disarmed before recovery runs in this or any later process

  // Phase 3: recover over the same directory. The surviving state must be
  // exactly the WAL-committed images, byte-identical, with no slab leaks.
  auto host = RegistryHost::spawn(opts);
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);

  auto got = client.get_bytes("stable");
  ASSERT_TRUE(got.ok()) << kc.point << ": " << got.status().to_string();
  EXPECT_EQ(*got, stable) << kc.point;

  auto list = client.list();
  ASSERT_TRUE(list.ok()) << list.status().to_string();
  bool torn_present = false;
  for (const ImageInfo& info : *list) {
    if (info.name == "torn") torn_present = true;
  }
  EXPECT_EQ(torn_present, kc.committed) << kc.point;
  if (kc.committed) {
    auto got_torn = client.get_bytes("torn");
    ASSERT_TRUE(got_torn.ok()) << got_torn.status().to_string();
    EXPECT_EQ(*got_torn, torn) << kc.point;
  }
  expect_host_zero_leak(client);
  host->shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocol, RegistryKillHostTest,
    ::testing::Values(
        // Mid-chunk-append: the slab has a header with no payload.
        KillCase{"slab-append-mid", false, 0},
        // Chunks fully synced, WAL record never written: orphans only.
        KillCase{"slab-synced-pre-wal", false, 0},
        // WAL record torn between header and body: truncated at replay.
        KillCase{"wal-record-mid", false, 0},
        // WAL record fdatasync'd (the commit point), manifest temp synced
        // but not renamed: the image IS committed even though the client
        // saw a failure — durability begins at the WAL sync, not the ack.
        // skip_hits=1: the armed host's own startup recovery crosses the
        // rename offset once while checkpointing its fresh manifest.
        KillCase{"wal-synced-pre-manifest-rename", true, 1}),
    [](const ::testing::TestParamInfo<KillCase>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace crac::registry
