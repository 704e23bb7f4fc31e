// The proxy process: a forked child hosting its own CUDA runtime.
//
// ProxyHost forks the server and returns the connected client endpoint. The
// child constructs a LowerHalfRuntime (its own simulated GPU) and serves
// requests until shutdown/EOF. This is exactly the architecture of
// CRCUDA/CRUM that the paper's introduction critiques: checkpointing the
// application process then simply works (the CUDA library lives elsewhere),
// but *every* CUDA call pays an IPC round trip.
//
// Fleet scale: the server no longer serves one blocking connection — it
// runs a proxy::EventLoop over the spawning socketpair (the *control*
// connection) plus an abstract-namespace Unix listening socket, so many
// client channels share one server process and one device. connect() mints
// additional channels; each gets its own CMA staging buffer at Hello time.
// Device RPCs from all channels run one at a time on the loop thread, the
// only thread that touches the device. A misbehaving client (oversized
// header, dead socket) costs its own connection, never the server — the
// process exits only on shutdown or control-connection EOF.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>

#include "common/status.hpp"
#include "simgpu/types.hpp"

namespace crac::proxy {

struct ProxyHostOptions {
  sim::DeviceConfig device;              // config for the server's GPU
  std::size_t staging_bytes = std::size_t{160} << 20;
};

class ProxyHost {
 public:
  // Forks the server. On return (in the parent) fd() is the connected
  // control socket and pid() the server process.
  static Result<ProxyHost> spawn(const ProxyHostOptions& options);

  ProxyHost(ProxyHost&& other) noexcept;
  ProxyHost& operator=(ProxyHost&&) = delete;
  ~ProxyHost();

  int fd() const noexcept { return fd_; }
  pid_t pid() const noexcept { return pid_; }

  // Opens a new client channel to the server's listening socket. The caller
  // owns the returned fd. Channels are peers of the control connection for
  // every verb; the server lives until the *control* connection closes, so
  // extra channels can come and go freely.
  Result<int> connect() const;

  // Sends shutdown and reaps the child.
  void shutdown();

 private:
  ProxyHost(int fd, pid_t pid, std::string listen_addr)
      : fd_(fd), pid_(pid), listen_addr_(std::move(listen_addr)) {}

  // Child-side entry point; never returns.
  [[noreturn]] static void serve(int control_fd, int listen_fd,
                                 const ProxyHostOptions& options);

  int fd_ = -1;
  pid_t pid_ = -1;
  // Abstract-namespace autobind address of the listening socket: the raw
  // sun_path bytes (leading NUL included), captured before fork.
  std::string listen_addr_;
};

}  // namespace crac::proxy
