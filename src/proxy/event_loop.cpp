#include "proxy/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fd_io.hpp"
#include "common/log.hpp"
#include "proxy/channel.hpp"

namespace crac::proxy {

namespace {

// epoll user-data tags for the two non-connection fds.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenTag = ~std::uint64_t{0} - 1;

}  // namespace

void Connection::send(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  out_.insert(out_.end(), p, p + size);
}

EventLoop::EventLoop(Handler* handler, ThreadPool* pool)
    : handler_(handler), pool_(pool) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    ::epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EventLoop::~EventLoop() {
  // Close every surviving connection through the handler hook so
  // per-connection state (conn.user) is reclaimed even when run() exited
  // early. Sessions have completed by the time run() returns; an EventLoop
  // destroyed without run() has no sessions.
  while (!conns_.empty()) close_conn(conns_.begin()->first);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::arm(int fd, std::uint32_t events, bool add) {
  ::epoll_event ev{};
  ev.events = events;
  auto it = by_fd_.find(fd);
  ev.data.u64 = it != by_fd_.end() ? it->second : kListenTag;
  if (::epoll_ctl(epoll_fd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev) !=
      0) {
    return IoError(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  return OkStatus();
}

Status EventLoop::add_listener(int fd) {
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Internal("event loop failed to initialize epoll/eventfd");
  }
  CRAC_RETURN_IF_ERROR(set_nonblocking(fd, true));
  listen_fd_ = fd;
  ::epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return IoError(std::string("epoll_ctl(listener): ") +
                   std::strerror(errno));
  }
  return OkStatus();
}

Status EventLoop::add_connection(int fd, bool control) {
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Internal("event loop failed to initialize epoll/eventfd");
  }
  CRAC_RETURN_IF_ERROR(set_nonblocking(fd, true));
  const std::uint64_t id = next_id_++;
  conns_.emplace(id, std::unique_ptr<Connection>(
                         new Connection(fd, id, control)));
  by_fd_[fd] = id;
  return arm(fd, EPOLLIN, /*add=*/true);
}

void EventLoop::start_session(Connection& conn, SessionFn fn) {
  pending_session_conn_ = conn.id();
  pending_session_fn_ = std::move(fn);
}

void EventLoop::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  handler_->on_closed(conn);
  if (!conn.in_session_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd_, nullptr);
  }
  by_fd_.erase(conn.fd_);
  ::close(conn.fd_);
  conns_.erase(it);
}

bool EventLoop::flush_out(Connection& conn) {
  while (conn.out_pos_ < conn.out_.size()) {
    const ::ssize_t n = ::write(conn.fd_, conn.out_.data() + conn.out_pos_,
                                conn.out_.size() - conn.out_pos_);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Slow client: keep the rest for EPOLLOUT. Backpressure, not death.
        (void)arm(conn.fd_, EPOLLOUT | (conn.closing_ ? 0u : EPOLLIN),
                  /*add=*/false);
        return true;
      }
      return false;  // peer is gone
    }
    conn.out_pos_ += static_cast<std::size_t>(n);
  }
  conn.out_.clear();
  conn.out_pos_ = 0;
  if (conn.closing_) return false;  // queued farewell delivered
  return arm(conn.fd_, EPOLLIN, /*add=*/false).ok();
}

void EventLoop::launch_session(Connection& conn) {
  conn.in_session_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd_, nullptr);
  // The session does blocking I/O; hand it a blocking fd with any queued
  // response bytes (e.g. the OK header ahead of a GET stream) already on
  // the wire, in order.
  (void)set_nonblocking(conn.fd_, false);
  bool keep = true;
  if (conn.out_pos_ < conn.out_.size()) {
    keep = write_all_fd(conn.fd_, conn.out_.data() + conn.out_pos_,
                        conn.out_.size() - conn.out_pos_, "proxy event loop")
               .ok();
  }
  conn.out_.clear();
  conn.out_pos_ = 0;
  if (!keep) {
    conn.in_session_ = false;
    close_conn(conn.id());
    return;
  }
  ++active_sessions_;
  const std::uint64_t id = conn.id();
  const int fd = conn.fd_;
  SessionFn fn = std::move(pending_session_fn_);
  pending_session_fn_ = nullptr;
  pending_session_conn_ = 0;
  pool_->submit([this, id, fd, fn = std::move(fn)] {
    const bool keep_conn = fn(fd);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(SessionDone{id, keep_conn});
    }
    const std::uint64_t one = 1;
    (void)::write(wake_fd_, &one, sizeof(one));
  });
}

void EventLoop::drain_completions() {
  std::uint64_t drained = 0;
  (void)::read(wake_fd_, &drained, sizeof(drained));
  std::deque<SessionDone> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (const SessionDone& done : batch) {
    --active_sessions_;
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    conn.in_session_ = false;
    if (!done.keep || stopping_) {
      close_conn(done.conn_id);
      continue;
    }
    if (!set_nonblocking(conn.fd_, true).ok() ||
        !arm(conn.fd_, EPOLLIN, /*add=*/true).ok()) {
      close_conn(done.conn_id);
    }
  }
}

bool EventLoop::advance(Connection& conn) {
  for (;;) {
    std::byte* dst = nullptr;
    std::size_t need = 0;
    if (conn.state_ == Connection::ReadState::kHeader) {
      dst = reinterpret_cast<std::byte*>(&conn.header_) + conn.got_;
      need = sizeof(RequestHeader) - conn.got_;
    } else {
      dst = conn.payload_.data() + conn.got_;
      need = conn.payload_.size() - conn.got_;
    }
    if (need > 0) {
      const ::ssize_t n = ::read(conn.fd_, dst, need);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      if (n == 0) {
        if (conn.is_control()) stopping_ = true;
        return false;  // EOF
      }
      conn.got_ += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < need) continue;  // short read; retry
    }
    // One unit complete.
    if (conn.state_ == Connection::ReadState::kHeader) {
      if (conn.header_.payload_bytes > kMaxRequestPayloadBytes) {
        // The declared payload cannot be trusted enough to skip; answer (so
        // the client fails with a response, not a hang) and close.
        const std::vector<std::byte> farewell =
            handler_->on_oversized(conn.header_);
        conn.send(farewell.data(), farewell.size());
        conn.closing_ = true;
        return flush_out(conn);
      }
      conn.payload_.resize(conn.header_.payload_bytes);
      conn.got_ = 0;
      conn.state_ = Connection::ReadState::kPayload;
      if (conn.header_.payload_bytes > 0) continue;
    }
    // Full request in hand. Reset the state machine *before* dispatch so a
    // session claiming the fd finds it at a clean frame boundary.
    conn.state_ = Connection::ReadState::kHeader;
    conn.got_ = 0;
    std::vector<std::byte> payload = std::move(conn.payload_);
    conn.payload_.clear();
    const Dispatch verdict = handler_->on_request(conn, conn.header_, payload);
    switch (verdict) {
      case Dispatch::kContinue:
        if (!flush_out(conn)) return false;
        break;  // keep parsing pipelined requests
      case Dispatch::kSession:
        launch_session(conn);
        return true;  // the fd belongs to the session now
      case Dispatch::kClose:
        conn.closing_ = true;
        return flush_out(conn);
      case Dispatch::kShutdown: {
        // Deliver the farewell response synchronously; the loop is ending
        // and there will be no EPOLLOUT round.
        (void)set_nonblocking(conn.fd_, false);
        if (conn.out_pos_ < conn.out_.size()) {
          (void)write_all_fd(conn.fd_, conn.out_.data() + conn.out_pos_,
                             conn.out_.size() - conn.out_pos_,
                             "proxy event loop");
        }
        conn.out_.clear();
        conn.out_pos_ = 0;
        stopping_ = true;
        return true;
      }
    }
  }
}

Status EventLoop::handle_readable(Connection& conn) {
  if (!advance(conn)) close_conn(conn.id());
  return OkStatus();
}

Status EventLoop::handle_writable(Connection& conn) {
  if (!flush_out(conn)) close_conn(conn.id());
  return OkStatus();
}

Status EventLoop::run() {
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Internal("event loop failed to initialize epoll/eventfd");
  }
  ::epoll_event events[64];
  for (;;) {
    if (stopping_ && active_sessions_ == 0) break;
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        drain_completions();
        continue;
      }
      if (tag == kListenTag) {
        if (stopping_) continue;
        for (;;) {
          const int cfd =
              ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
          if (cfd < 0) break;  // EAGAIN or transient accept failure
          if (Status added = add_connection(cfd, /*control=*/false);
              !added.ok()) {
            CRAC_WARN() << "event loop rejected a connection: "
                        << added.to_string();
            ::close(cfd);
          }
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        if (conn.is_control()) stopping_ = true;
        close_conn(tag);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        CRAC_RETURN_IF_ERROR(handle_writable(conn));
        if (conns_.find(tag) == conns_.end()) continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && !stopping_) {
        CRAC_RETURN_IF_ERROR(handle_readable(conn));
      }
    }
  }
  return OkStatus();
}

}  // namespace crac::proxy
