// The registry server process: a checkpoint registry behind the proxy wire.
//
// RegistryHost forks a child that runs a proxy::EventLoop (the same
// non-blocking serving core as the proxy device server) over a control
// socketpair plus an abstract-namespace listening socket, and serves the
// registry verbs:
//
//   PUT_CKPT  — request payload names the image; a CRACSHP1-framed
//               checkpoint stream follows. A session pumps it into a
//               RegistrySink: chunks land content-addressed (deduplicated)
//               as they arrive, and the sink swallows its own errors so
//               the stream is ALWAYS fully drained — a corrupt image is
//               rejected in-band over an intact connection, never by
//               desyncing it. The response reports commit or rejection.
//   GET_CKPT  — request payload names the image. Not-found answers inline
//               (no stream). Otherwise a session checks the image's chunk
//               payloads against their CRCs (answering kCorrupt, with no
//               stream, if one fails), then sends the OK response (r0 =
//               image bytes) and the reconstructed CRACSHP1 stream. A
//               delta image is served as the full image its chain stands
//               for: the session checks every link's payloads and plans the
//               merge (refusing in-band on any failure), answers with r0 =
//               the exact merged size, then streams the merge frame by
//               frame without holding the image. Any number of GET
//               sessions serve one stored image concurrently — the fan-out
//               restore path (one image -> M endpoints).
//   LIST/STAT — inline directory / store accounting.
//
// Concurrency mirrors the proxy server: verbs dispatch on the loop thread,
// streams run as thread-pool sessions, a misbehaving client costs only its
// own connection.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace crac::registry {

// Wire error codes carried in ResponseHeader::err by registry verbs.
enum class RegistryErr : std::int32_t {
  kOk = 0,
  kNotFound = 1,   // GET/STAT of an absent image
  kRejected = 2,   // PUT stream failed verification / parse
  kBadRequest = 3, // malformed name/payload, unknown verb
  kNoParent = 4,   // GET of a delta whose parent was never PUT
  kCorrupt = 5,    // GET of an image whose stored chunk fails its CRC
};

// STAT response payload (POD, both ends same binary via fork).
struct RegistryStatsWire {
  std::uint64_t images = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t chunk_refs = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t evictions = 0;        // lifetime capacity evictions
  std::uint64_t slab_file_bytes = 0;  // chunks.slab size
  std::uint64_t wal_bytes = 0;        // durable mode: WAL past its header
};

struct RegistryHostOptions {
  // Worker threads for concurrent PUT/GET stream sessions.
  std::size_t session_threads = 4;
  // Durable backing directory; empty = volatile (an anonymous temporary
  // slab file). The serving child runs recovery over it before accepting
  // connections, so a host respawned on the same dir serves every
  // previously committed image.
  std::string dir;
  // Stored-payload budget for LRU eviction; 0 = unbounded.
  std::uint64_t capacity_bytes = 0;
  // WAL size that triggers a manifest checkpoint.
  std::uint64_t wal_checkpoint_bytes = std::uint64_t{1} << 20;
};

class RegistryHost {
 public:
  static Result<RegistryHost> spawn(const RegistryHostOptions& options = {});

  RegistryHost(RegistryHost&& other) noexcept;
  RegistryHost& operator=(RegistryHost&&) = delete;
  ~RegistryHost();

  int fd() const noexcept { return fd_; }
  pid_t pid() const noexcept { return pid_; }

  // A fresh client channel to the registry's listening socket; the caller
  // owns the fd (RegistryClient adopts one).
  Result<int> connect() const;

  // Sends shutdown on the control connection and reaps the child.
  void shutdown();

 private:
  RegistryHost(int fd, pid_t pid, std::string listen_addr)
      : fd_(fd), pid_(pid), listen_addr_(std::move(listen_addr)) {}

  [[noreturn]] static void serve(int control_fd, int listen_fd,
                                 const RegistryHostOptions& options);

  int fd_ = -1;
  pid_t pid_ = -1;
  std::string listen_addr_;  // abstract-namespace autobind sun_path bytes
};

}  // namespace crac::registry
