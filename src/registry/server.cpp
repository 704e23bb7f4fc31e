#include "registry/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "ckpt/remote.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "proxy/channel.hpp"
#include "proxy/event_loop.hpp"
#include "registry/registry.hpp"

namespace crac::registry {

namespace {

using proxy::Connection;
using proxy::EventLoop;
using proxy::Op;
using proxy::RequestHeader;
using proxy::ResponseHeader;

void respond(Connection& conn, RegistryErr err, std::uint64_t r0 = 0,
             const void* payload = nullptr, std::uint32_t payload_bytes = 0) {
  ResponseHeader resp{};
  resp.err = static_cast<std::int32_t>(err);
  resp.r0 = r0;
  resp.payload_bytes = payload_bytes;
  conn.send(&resp, sizeof(resp));
  if (payload_bytes > 0) conn.send(payload, payload_bytes);
}

bool respond_fd(int fd, RegistryErr err, std::uint64_t r0 = 0) {
  ResponseHeader resp{};
  resp.err = static_cast<std::int32_t>(err);
  resp.r0 = r0;
  return proxy::write_all(fd, &resp, sizeof(resp)).ok();
}

Result<std::string> name_of(const std::vector<std::byte>& payload) {
  if (payload.empty() || payload.size() > 4096) {
    return InvalidArgument("registry image name must be 1..4096 bytes");
  }
  return std::string(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
}

// The in-band answer to a GET that failed before its stream started.
RegistryErr get_error(const Status& status) {
  switch (status.code()) {
    case StatusCode::kFailedPrecondition:
      return RegistryErr::kNoParent;
    case StatusCode::kNotFound:
      return RegistryErr::kNotFound;
    case StatusCode::kCorrupt:
      return RegistryErr::kCorrupt;
    default:
      return RegistryErr::kRejected;
  }
}

CheckpointRegistry::Options registry_options(
    const RegistryHostOptions& options) {
  CheckpointRegistry::Options opts;
  opts.dir = options.dir;
  opts.capacity_bytes = options.capacity_bytes;
  opts.wal_checkpoint_bytes = options.wal_checkpoint_bytes;
  return opts;
}

class RegistryHandler final : public EventLoop::Handler {
 public:
  explicit RegistryHandler(const RegistryHostOptions& options)
      : registry_(registry_options(options)) {}

  void bind_loop(EventLoop* loop) { loop_ = loop; }

  // Durable mode: replay the backing directory before serving.
  Status recover() { return registry_.recover(); }

  std::vector<std::byte> on_oversized(const RequestHeader& req) override {
    CRAC_WARN() << "registry rejecting op="
                << static_cast<unsigned>(req.op) << " declaring "
                << req.payload_bytes << " payload bytes";
    ResponseHeader resp{};
    resp.err = static_cast<std::int32_t>(RegistryErr::kBadRequest);
    std::vector<std::byte> bytes(sizeof(resp));
    std::memcpy(bytes.data(), &resp, sizeof(resp));
    return bytes;
  }

  EventLoop::Dispatch on_request(Connection& conn, const RequestHeader& req,
                                 std::vector<std::byte>& payload) override {
    using Dispatch = EventLoop::Dispatch;
    switch (req.op) {
      case Op::kHello: {
        // No staging, no device — just liveness + pid for symmetry with
        // the proxy handshake.
        proxy::HelloInfo info{};
        info.server_pid = ::getpid();
        respond(conn, RegistryErr::kOk, 0, &info, sizeof(info));
        return Dispatch::kContinue;
      }
      case Op::kShutdown: {
        respond(conn, RegistryErr::kOk);
        return Dispatch::kShutdown;
      }
      case Op::kPutCkpt: {
        auto name = name_of(payload);
        if (!name.ok()) {
          // The framed stream still follows the bad request; claim the
          // connection just to drain it in-band, then reject.
          loop_->start_session(conn, [](int fd) {
            ckpt::DiscardSink drain;
            bool in_band = false;
            (void)ckpt::pump_ship_stream(fd, drain, "registry put drain",
                                         &in_band);
            if (!in_band) return false;
            return respond_fd(fd, RegistryErr::kBadRequest);
          });
          return Dispatch::kSession;
        }
        loop_->start_session(conn, [this, n = std::move(*name)](int fd) {
          std::unique_ptr<RegistrySink> sink = registry_.begin_put(n);
          bool in_band = false;
          const Status pumped = ckpt::pump_ship_stream(
              fd, *sink, "registry put stream", &in_band);
          if (!pumped.ok()) {
            // The sink swallows its own errors, so a pump failure is the
            // transport's: an in-band abort (clean reject, connection
            // intact) or a dead/desynced stream (close this connection).
            CRAC_WARN() << "PUT_CKPT '" << n
                        << "' stream failed: " << pumped.to_string();
            if (!in_band) return false;
            return respond_fd(fd, RegistryErr::kRejected);
          }
          const Status closed = sink->close();  // first parse/verify error
          if (!closed.ok()) {
            CRAC_WARN() << "PUT_CKPT '" << n
                        << "' rejected: " << closed.to_string();
            return respond_fd(fd, RegistryErr::kRejected);
          }
          const std::uint64_t bytes = sink->bytes_written();
          if (Status committed = registry_.commit(*sink); !committed.ok()) {
            return respond_fd(fd, RegistryErr::kRejected);
          }
          return respond_fd(fd, RegistryErr::kOk, bytes);
        });
        return Dispatch::kSession;
      }
      case Op::kGetCkpt: {
        auto name = name_of(payload);
        if (!name.ok()) {
          respond(conn, RegistryErr::kBadRequest);
          return Dispatch::kContinue;
        }
        auto source = registry_.open(*name);
        if (!source.ok()) {
          // Absent image: inline answer, no stream, connection untouched.
          respond(conn, RegistryErr::kNotFound);
          return Dispatch::kContinue;
        }
        if ((*source)->image().is_delta()) {
          // Delta images serve the *merged* chain — receivers restore full
          // images; the chain is the registry's private storage shape. The
          // session checks every link's payloads and plans the merge (any
          // failure, such as a parent never PUT, is refused in-band before
          // the response header), announces the exact merged size, then
          // streams the merge frame by frame.
          (*source).reset();  // open_merged() re-pins what it needs
          loop_->start_session(conn, [this, n = *name](int fd) {
            auto merge = registry_.open_merged(n);
            Result<std::uint64_t> size =
                merge.ok() ? merge->size() : merge.status();
            if (!size.ok()) {
              CRAC_WARN() << "GET_CKPT '" << n << "' chain merge refused: "
                          << size.status().to_string();
              return respond_fd(fd, get_error(size.status()));
            }
            if (!respond_fd(fd, RegistryErr::kOk, *size)) return false;
            ckpt::SocketSink sink(fd, "registry get stream");
            Status streamed = merge->write(sink);
            if (streamed.ok() && sink.bytes_written() != *size) {
              streamed = Internal("merged " +
                                  std::to_string(sink.bytes_written()) +
                                  " bytes, announced " +
                                  std::to_string(*size));
            }
            if (streamed.ok()) return sink.close().ok();
            CRAC_WARN() << "GET_CKPT stream failed: " << streamed.to_string();
            return sink.abort().ok();
          });
          return Dispatch::kSession;
        }
        // Check the payloads first, so a damaged image is refused in-band
        // before any stream starts; then the OK response and the stream.
        loop_->start_session(
            conn, [src = std::shared_ptr<RegistrySource>(
                       std::move(*source))](int fd) {
              if (Status checked = src->verify(); !checked.ok()) {
                CRAC_WARN() << "GET_CKPT refused: " << checked.to_string();
                return respond_fd(fd, get_error(checked));
              }
              if (!respond_fd(fd, RegistryErr::kOk, src->size())) return false;
              ckpt::SocketSink sink(fd, "registry get stream");
              std::vector<std::byte> buf(ckpt::kShipFrameBytes);
              Status streamed;
              while (src->position() < src->size()) {
                const auto n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buf.size(),
                                            src->size() - src->position()));
                streamed = src->read(buf.data(), n);
                if (streamed.ok()) streamed = sink.write(buf.data(), n);
                if (!streamed.ok()) break;
              }
              if (streamed.ok()) return sink.close().ok();
              CRAC_WARN() << "GET_CKPT stream failed: "
                          << streamed.to_string();
              return sink.abort().ok();  // keep conn only if the abort
                                         // landed in-band
            });
        return Dispatch::kSession;
      }
      case Op::kListCkpt: {
        ByteWriter out;
        const auto images = registry_.list();
        out.put_u32(static_cast<std::uint32_t>(images.size()));
        for (const auto& info : images) {
          out.put_string(info.name);
          out.put_u64(info.image_bytes);
          out.put_u64(info.chunk_count);
          out.put_u8(info.delta ? 1 : 0);
          out.put_string(info.parent_id);
        }
        respond(conn, RegistryErr::kOk, images.size(), out.data(),
                static_cast<std::uint32_t>(out.size()));
        return Dispatch::kContinue;
      }
      case Op::kStatCkpt: {
        const RegistryStats stats = registry_.stats();
        RegistryStatsWire wire;
        wire.images = stats.images;
        wire.logical_bytes = stats.logical_bytes;
        wire.unique_chunks = stats.store.unique_chunks;
        wire.chunk_refs = stats.store.chunk_refs;
        wire.dedup_hits = stats.store.dedup_hits;
        wire.stored_bytes = stats.store.stored_bytes;
        wire.evictions = stats.evictions;
        wire.slab_file_bytes = stats.disk.slab_file_bytes;
        wire.wal_bytes = stats.disk.wal_bytes;
        respond(conn, RegistryErr::kOk, 0, &wire, sizeof(wire));
        return Dispatch::kContinue;
      }
      default:
        respond(conn, RegistryErr::kBadRequest);
        return Dispatch::kContinue;
    }
  }

 private:
  CheckpointRegistry registry_;
  EventLoop* loop_ = nullptr;
};

}  // namespace

Result<RegistryHost> RegistryHost::spawn(const RegistryHostOptions& options) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return IoError(std::string("socketpair: ") + strerror(errno));
  }
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return IoError(std::string("socket: ") + strerror(errno));
  }
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  // Autobind: bind with only the family and the kernel assigns a unique
  // abstract-namespace name, recovered via getsockname (full-size buffer —
  // addr_len is in/out).
  ::socklen_t addr_len = sizeof(sa_family_t);
  const bool bound =
      ::bind(lfd, reinterpret_cast<::sockaddr*>(&addr), addr_len) == 0;
  addr_len = sizeof(addr);
  if (!bound ||
      ::getsockname(lfd, reinterpret_cast<::sockaddr*>(&addr), &addr_len) !=
          0 ||
      ::listen(lfd, 64) != 0) {
    const Status failed =
        IoError(std::string("registry listen socket: ") + strerror(errno));
    ::close(lfd);
    ::close(fds[0]);
    ::close(fds[1]);
    return failed;
  }
  std::string listen_addr(addr.sun_path,
                          addr_len - offsetof(::sockaddr_un, sun_path));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(lfd);
    ::close(fds[0]);
    ::close(fds[1]);
    return IoError(std::string("fork: ") + strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    serve(fds[1], lfd, options);  // never returns
  }
  ::close(fds[1]);
  ::close(lfd);
  return RegistryHost(fds[0], pid, std::move(listen_addr));
}

Result<int> RegistryHost::connect() const {
  if (listen_addr_.empty()) {
    return FailedPrecondition("registry host has no listening address");
  }
  const int cfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (cfd < 0) {
    return IoError(std::string("socket: ") + strerror(errno));
  }
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, listen_addr_.data(), listen_addr_.size());
  const auto addr_len = static_cast<::socklen_t>(
      offsetof(::sockaddr_un, sun_path) + listen_addr_.size());
  if (::connect(cfd, reinterpret_cast<const ::sockaddr*>(&addr), addr_len) !=
      0) {
    const Status failed =
        IoError(std::string("registry connect: ") + strerror(errno));
    ::close(cfd);
    return failed;
  }
  return cfd;
}

RegistryHost::RegistryHost(RegistryHost&& other) noexcept
    : fd_(other.fd_),
      pid_(other.pid_),
      listen_addr_(std::move(other.listen_addr_)) {
  other.fd_ = -1;
  other.pid_ = -1;
  other.listen_addr_.clear();
}

RegistryHost::~RegistryHost() { shutdown(); }

void RegistryHost::shutdown() {
  if (fd_ >= 0) {
    RequestHeader req{};
    req.op = Op::kShutdown;
    (void)proxy::write_all(fd_, &req, sizeof(req));
    ::close(fd_);
    fd_ = -1;
  }
  if (pid_ > 0) {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
}

void RegistryHost::serve(int control_fd, int listen_fd,
                         const RegistryHostOptions& options) {
  ThreadPool sessions(std::max<std::size_t>(1, options.session_threads));
  RegistryHandler handler(options);
  if (Status recovered = handler.recover(); !recovered.ok()) {
    CRAC_WARN() << "registry recovery over '" << options.dir
                << "' failed: " << recovered.to_string();
    _exit(3);
  }
  EventLoop loop(&handler, &sessions);
  handler.bind_loop(&loop);
  if (!loop.add_connection(control_fd, /*control=*/true).ok()) _exit(2);
  if (listen_fd >= 0 && !loop.add_listener(listen_fd).ok()) _exit(2);
  const Status served = loop.run();
  if (!served.ok()) {
    CRAC_WARN() << "registry event loop failed: " << served.to_string();
    _exit(2);
  }
  _exit(0);
}

}  // namespace crac::registry
