#include "registry/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "ckpt/chunk.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"
#include "proxy/channel.hpp"
#include "proxy/protocol.hpp"

namespace crac::registry {

namespace {

Status err_to_status(std::int32_t wire_err) {
  switch (static_cast<RegistryErr>(wire_err)) {
    case RegistryErr::kOk:
      return OkStatus();
    case RegistryErr::kNotFound:
      return NotFound("registry: image not found");
    case RegistryErr::kRejected:
      return InvalidArgument("registry: image rejected");
    case RegistryErr::kBadRequest:
      return InvalidArgument("registry: bad request");
    case RegistryErr::kNoParent:
      return FailedPrecondition(
          "registry: delta parent image was never PUT");
    case RegistryErr::kCorrupt:
      return Corrupt("registry: a stored chunk of the image fails its CRC");
  }
  return Corrupt("registry: unknown wire error code");
}

}  // namespace

RegistryClient::~RegistryClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status RegistryClient::poison(Status why) {
  // The channel position is unknowable; nothing else can be spoken on it.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  CRAC_WARN() << "registry channel poisoned: " << why.to_string();
  return why;
}

Status RegistryClient::send_request(std::uint32_t op, const std::string& name) {
  if (fd_ < 0) return FailedPrecondition("registry channel is closed");
  proxy::RequestHeader req{};
  req.op = static_cast<proxy::Op>(op);
  req.payload_bytes = static_cast<std::uint32_t>(name.size());
  CRAC_RETURN_IF_ERROR(proxy::write_all(fd_, &req, sizeof(req)));
  if (!name.empty()) {
    CRAC_RETURN_IF_ERROR(proxy::write_all(fd_, name.data(), name.size()));
  }
  return OkStatus();
}

Status RegistryClient::read_response(std::uint64_t* r0,
                                     std::vector<std::byte>* payload) {
  proxy::ResponseHeader resp{};
  CRAC_RETURN_IF_ERROR(proxy::read_all(fd_, &resp, sizeof(resp)));
  if (r0 != nullptr) *r0 = resp.r0;
  if (resp.payload_bytes > 0) {
    // Even an error response's payload must leave the stream; read it
    // whether or not the caller wants it.
    std::vector<std::byte> body(resp.payload_bytes);
    CRAC_RETURN_IF_ERROR(proxy::read_all(fd_, body.data(), body.size()));
    if (payload != nullptr) *payload = std::move(body);
  } else if (payload != nullptr) {
    payload->clear();
  }
  return err_to_status(resp.err);
}

Status RegistryClient::put(const std::string& name,
                           const std::function<Status(int fd)>& writer) {
  if (Status sent =
          send_request(static_cast<std::uint32_t>(proxy::Op::kPutCkpt), name);
      !sent.ok()) {
    return poison(std::move(sent));
  }
  if (Status wrote = writer(fd_); !wrote.ok()) {
    // A well-behaved writer abort()ed in-band and the server will answer
    // kRejected; fall through to read that answer. A writer that died
    // without closing its frame leaves the response read to fail, which
    // poisons below.
    CRAC_WARN() << "registry put writer failed: " << wrote.to_string();
  }
  std::uint64_t stored = 0;
  Status resp = read_response(&stored);
  if (!resp.ok() && resp.code() == StatusCode::kIoError) {
    return poison(std::move(resp));
  }
  return resp;
}

Status RegistryClient::get(
    const std::string& name,
    const std::function<Status(int fd, std::uint64_t bytes)>& reader) {
  if (Status sent =
          send_request(static_cast<std::uint32_t>(proxy::Op::kGetCkpt), name);
      !sent.ok()) {
    return poison(std::move(sent));
  }
  std::uint64_t bytes = 0;
  Status resp = read_response(&bytes);
  if (!resp.ok()) {
    // In-band rejection (not found / bad name): no stream was started, the
    // channel is still aligned. A transport failure is not.
    if (resp.code() == StatusCode::kIoError) return poison(std::move(resp));
    return resp;
  }
  if (Status consumed = reader(fd_, bytes); !consumed.ok()) {
    // The reader owns stream delimiting; if it failed we cannot know where
    // the stream ended.
    return poison(std::move(consumed));
  }
  return OkStatus();
}

Status RegistryClient::put_bytes(const std::string& name,
                                 const std::vector<std::byte>& image) {
  return put(name, [&image](int fd) {
    ckpt::SocketSink sink(fd, "registry put_bytes");
    Status wrote = image.empty()
                       ? OkStatus()
                       : sink.write(image.data(), image.size());
    if (!wrote.ok()) {
      (void)sink.abort();
      return wrote;
    }
    return sink.close();
  });
}

Result<std::vector<std::byte>> RegistryClient::get_bytes(
    const std::string& name) {
  ckpt::MemorySink sink;
  CRAC_RETURN_IF_ERROR(get(name, [&sink](int fd, std::uint64_t announced) {
    // One allocation of the announced size; the cap keeps a hostile
    // announcement from reserving what the stream never delivers.
    sink.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(announced, ckpt::kMaxChunkSize)));
    bool in_band = false;
    CRAC_RETURN_IF_ERROR(
        ckpt::pump_ship_stream(fd, sink, "registry get_bytes", &in_band));
    if (sink.bytes_written() != announced) {
      return Corrupt("registry get_bytes: the stream carried " +
                     std::to_string(sink.bytes_written()) +
                     " bytes but the server announced " +
                     std::to_string(announced));
    }
    return OkStatus();
  }));
  return std::move(sink).take();
}

Result<std::vector<ImageInfo>> RegistryClient::list() {
  if (Status sent =
          send_request(static_cast<std::uint32_t>(proxy::Op::kListCkpt), "");
      !sent.ok()) {
    return poison(std::move(sent));
  }
  std::vector<std::byte> payload;
  if (Status resp = read_response(nullptr, &payload); !resp.ok()) {
    if (resp.code() == StatusCode::kIoError) return poison(std::move(resp));
    return resp;
  }
  ByteReader in(payload);
  std::uint32_t count = 0;
  CRAC_RETURN_IF_ERROR(in.get_u32(count));
  std::vector<ImageInfo> out;
  // Each entry costs at least 25 encoded bytes (two string lengths, two
  // u64s, the delta flag); a hostile count cannot demand more reserve.
  out.reserve(std::min<std::uint64_t>(count, in.remaining() / 25));
  for (std::uint32_t i = 0; i < count; ++i) {
    ImageInfo info;
    CRAC_RETURN_IF_ERROR(in.get_string(info.name));
    CRAC_RETURN_IF_ERROR(in.get_u64(info.image_bytes));
    CRAC_RETURN_IF_ERROR(in.get_u64(info.chunk_count));
    std::uint8_t delta = 0;
    CRAC_RETURN_IF_ERROR(in.get_u8(delta));
    info.delta = delta != 0;
    CRAC_RETURN_IF_ERROR(in.get_string(info.parent_id));
    out.push_back(std::move(info));
  }
  return out;
}

Result<RegistryStatsWire> RegistryClient::stat() {
  if (Status sent =
          send_request(static_cast<std::uint32_t>(proxy::Op::kStatCkpt), "");
      !sent.ok()) {
    return poison(std::move(sent));
  }
  std::vector<std::byte> payload;
  if (Status resp = read_response(nullptr, &payload); !resp.ok()) {
    if (resp.code() == StatusCode::kIoError) return poison(std::move(resp));
    return resp;
  }
  if (payload.size() != sizeof(RegistryStatsWire)) {
    return Corrupt("registry stat payload size mismatch");
  }
  RegistryStatsWire wire;
  std::memcpy(&wire, payload.data(), sizeof(wire));
  return wire;
}

}  // namespace crac::registry
