// Client side of the registry verbs, over one adopted channel fd.
//
// A RegistryClient wraps a connected socket (typically from
// RegistryHost::connect()) and speaks PUT/GET/LIST/STAT in CRACSHP1 +
// proxy-header framing. The streaming verbs take callbacks so callers plug
// in whatever produces/consumes the checkpoint stream — a CracContext's
// checkpoint_to_sink(SocketSink) writing straight into a PUT, a restore
// endpoint's restart_from_source(StreamingSpoolSource::start(fd)) reading
// straight out of a GET — without the registry client buffering the image.
//
// Desync policy: if a stream leaves the channel in an unknowable position
// (writer/reader failed out-of-band), the client poisons itself and closes
// the fd; every later call fails fast. In-band rejections (server said
// kRejected/kNotFound) keep the channel usable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "registry/registry.hpp"
#include "registry/server.hpp"

namespace crac::registry {

class RegistryClient {
 public:
  // Adopts (and will close) a connected registry channel fd.
  explicit RegistryClient(int fd) : fd_(fd) {}
  RegistryClient(RegistryClient&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  RegistryClient& operator=(RegistryClient&&) = delete;
  ~RegistryClient();

  bool usable() const noexcept { return fd_ >= 0; }

  // Stores an image under `name`. `writer` must emit one complete CRACSHP1
  // ship stream on the fd (e.g. a SocketSink that checkpoint_to_sink writes
  // and close()s). If the writer fails it should have abort()ed
  // in-band; a writer error without in-band recovery poisons the channel.
  Status put(const std::string& name,
             const std::function<Status(int fd)>& writer);

  // Fetches `name`; `reader` consumes the self-delimiting CRACSHP1 stream
  // from the fd (e.g. restart_from_source over StreamingSpoolSource::start,
  // or pump_ship_stream into a sink), told the image size the server
  // announced. NotFound is answered before any stream starts.
  Status get(const std::string& name,
             const std::function<Status(int fd, std::uint64_t bytes)>& reader);

  // Byte-level conveniences for tests/tools: a raw image blob in/out.
  // get_bytes() receives into one buffer of the announced size (reserving
  // at most kMaxChunkSize up front, whatever the server claims) and fails
  // with Corrupt when the stream's length differs from the announcement.
  Status put_bytes(const std::string& name,
                   const std::vector<std::byte>& image);
  Result<std::vector<std::byte>> get_bytes(const std::string& name);

  Result<std::vector<ImageInfo>> list();
  Result<RegistryStatsWire> stat();

 private:
  // Sends the verb header + name payload.
  Status send_request(std::uint32_t op, const std::string& name);
  // Reads the ResponseHeader (+payload) and maps RegistryErr to Status.
  Status read_response(std::uint64_t* r0 = nullptr,
                       std::vector<std::byte>* payload = nullptr);
  Status poison(Status why);

  int fd_ = -1;
};

}  // namespace crac::registry
