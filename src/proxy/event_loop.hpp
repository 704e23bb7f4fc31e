// Non-blocking epoll event loop for the proxy wire protocol.
//
// One loop thread owns every connection: a listening socket accepts new
// client channels, per-connection state machines parse request frames
// incrementally (header, then exactly payload_bytes — never a byte more, so
// a checkpoint stream following a request stays on the socket for whoever
// claims it), and responses queue through a per-connection output buffer
// drained under EPOLLOUT backpressure. This replaces the seed architecture
// of one blocking read_all loop per forked server process: one process now
// serves many clients, and a slow or dead client stalls only itself.
//
// Blocking work — the checkpoint registry's PUT/GET streams, whose wire
// format is a self-delimiting CRACSHP1 stream, not request frames — runs as
// a *session*: the handler claims the connection, the loop detaches its fd
// from epoll and flips it back to blocking mode, and the session closure
// runs on the shared crac::ThreadPool while the loop keeps serving everyone
// else. Completion returns through an eventfd: the loop re-arms the fd (or
// closes it, if the session declared the connection dead) without ever
// blocking itself. Multiple sessions ride concurrently; a long transfer on
// one channel cannot stall a request on another. The proxy server claims no
// sessions: every one of its RPCs is answered on the loop thread.
//
// Error containment is per-connection: a read error, a hostile header
// (payload_bytes beyond the protocol cap), or a failed session closes that
// one connection. The loop itself stops only on shutdown request or when a
// *control* connection (the spawning socketpair) reaches EOF — the parent
// process is gone, so the server should be too.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "proxy/protocol.hpp"

namespace crac::proxy {

class EventLoop;

// One client channel. Owned by the loop; handlers see it only inside
// callbacks (and must not retain pointers across returns — the connection
// may be closed by the time the loop runs again).
class Connection {
 public:
  int fd() const noexcept { return fd_; }
  std::uint64_t id() const noexcept { return id_; }
  // Control connections end the loop at EOF instead of just closing.
  bool is_control() const noexcept { return control_; }

  // Queues response bytes; the loop drains them to the socket, immediately
  // when it can and under EPOLLOUT otherwise.
  void send(const void* data, std::size_t size);

  // Per-connection server state (e.g. a staging buffer); the handler owns
  // the pointee and tears it down in on_closed().
  void* user = nullptr;

 private:
  friend class EventLoop;
  Connection(int fd, std::uint64_t id, bool control)
      : fd_(fd), id_(id), control_(control) {}

  enum class ReadState { kHeader, kPayload };

  int fd_;
  std::uint64_t id_;
  bool control_;
  bool in_session_ = false;
  bool closing_ = false;  // close once the output buffer drains

  ReadState state_ = ReadState::kHeader;
  RequestHeader header_{};
  std::size_t got_ = 0;               // bytes of the current unit received
  std::vector<std::byte> payload_;    // current request payload
  std::vector<std::byte> out_;        // queued response bytes
  std::size_t out_pos_ = 0;           // drained prefix of out_
};

class EventLoop {
 public:
  // What the handler decided about a fully parsed request.
  enum class Dispatch {
    kContinue,  // response (if any) queued via Connection::send
    kSession,   // handler called start_session(); the loop detaches the fd
    kClose,     // close this connection
    kShutdown,  // flush this connection, then stop the loop
  };

  class Handler {
   public:
    virtual ~Handler() = default;

    // One complete request (header + payload, payload_bytes already
    // enforced against kMaxRequestPayloadBytes). Runs on the loop thread.
    virtual Dispatch on_request(Connection& conn, const RequestHeader& req,
                                std::vector<std::byte>& payload) = 0;

    // A header declared payload_bytes beyond the cap. The returned bytes
    // (typically an error ResponseHeader; may be empty) are flushed to the
    // peer, then the connection is closed — the declared payload can never
    // be trusted enough to skip.
    virtual std::vector<std::byte> on_oversized(const RequestHeader& req) {
      (void)req;
      return {};
    }

    // The connection is going away (EOF, error, failed session, oversized
    // request). Tear down per-connection state hung on conn.user.
    virtual void on_closed(Connection& conn) { (void)conn; }
  };

  // Sessions run on the pool with the fd in blocking mode; return true to
  // keep the connection (the loop re-arms it for requests), false to close
  // it (a desynced stream, a dead peer).
  using SessionFn = std::function<bool(int fd)>;

  // The handler and pool must outlive the loop. Only start_session() uses
  // the pool, so a handler that never claims a session may pass nullptr.
  EventLoop(Handler* handler, ThreadPool* pool);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Accepts new connections from `fd` (borrowed; must already be
  // listening). Accepted channels are ordinary (non-control) connections.
  Status add_listener(int fd);

  // Adopts an already-connected channel. The loop owns the fd from here on
  // (closes it with the connection).
  Status add_connection(int fd, bool control);

  // Only valid while inside Handler::on_request, paired with a kSession
  // return: hands the connection's fd to `fn` on the pool. Pending output
  // is flushed (blocking) before the session starts, so a response queued
  // ahead of a stream lands first.
  void start_session(Connection& conn, SessionFn fn);

  // Serves until a kShutdown dispatch or control-connection EOF, then waits
  // for in-flight sessions to finish and returns. A non-OK status is a loop
  // infrastructure failure (epoll itself broke), not a connection error.
  Status run();

  // Connections currently alive (sessions included). Loop thread only.
  std::size_t connection_count() const noexcept { return conns_.size(); }

 private:
  struct SessionDone {
    std::uint64_t conn_id;
    bool keep;
  };

  Status arm(int fd, std::uint32_t events, bool add);
  Status handle_readable(Connection& conn);
  Status handle_writable(Connection& conn);
  // Feeds buffered reads through the request state machine; returns false
  // when the connection should close.
  bool advance(Connection& conn);
  bool flush_out(Connection& conn);  // nonblocking drain; false = fatal
  void close_conn(std::uint64_t id);
  void launch_session(Connection& conn);
  void drain_completions();

  Handler* handler_;
  ThreadPool* pool_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: session completions + external stop
  int listen_fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::map<int, std::uint64_t> by_fd_;

  // Session completion queue, filled by pool threads.
  std::mutex done_mu_;
  std::deque<SessionDone> done_;
  std::size_t active_sessions_ = 0;

  bool stopping_ = false;
  // Set between start_session() and the kSession dispatch return.
  std::uint64_t pending_session_conn_ = 0;
  SessionFn pending_session_fn_;
};

}  // namespace crac::proxy
