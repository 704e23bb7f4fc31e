// Exact-length file-descriptor I/O with EINTR retry — the one copy of the
// subtle short-read/short-write loop, shared by everything that drives raw
// fds (checkpoint ship streams, proxy sockets, minimpi pipes, registry
// files) — plus the sync calls durable files need. Errors name the
// caller-supplied origin (a path, "proxy socket", ...).
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/status.hpp"

namespace crac {

inline Status write_all_fd(int fd, const void* data, std::size_t size,
                           const std::string& origin) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ::ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(origin + ": write failed: " + std::strerror(errno));
    }
    if (n == 0) return IoError(origin + ": closed during write");
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return OkStatus();
}

inline Status read_all_fd(int fd, void* data, std::size_t size,
                          const std::string& origin) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ::ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(origin + ": read failed: " + std::strerror(errno));
    }
    if (n == 0) return IoError(origin + ": closed during read");
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return OkStatus();
}

// Exact-length read at `offset`, leaving the fd's file position alone (so
// several threads may read one fd at once).
inline Status pread_all_fd(int fd, void* data, std::size_t size,
                           std::uint64_t offset, const std::string& origin) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ::ssize_t n = ::pread(fd, p, size, static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(origin + ": pread failed: " + std::strerror(errno));
    }
    if (n == 0) return IoError(origin + ": unexpected EOF");
    p += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return OkStatus();
}

inline Status fdatasync_fd(int fd, const std::string& origin) {
  while (::fdatasync(fd) != 0) {
    if (errno == EINTR) continue;
    return IoError(origin + ": fdatasync failed: " + std::strerror(errno));
  }
  return OkStatus();
}

// Creates an anonymous scratch file: mkstemp in $TMPDIR (default /tmp)
// under `prefix`, unlinked at once, so it is gone with its last descriptor
// and no path ever exposes it half-written.
inline Result<int> open_unlinked_temp(const std::string& prefix) {
  const char* tmp = std::getenv("TMPDIR");
  std::string path = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  path += "/" + prefix + "XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return IoError(path + ": mkstemp failed: " + std::strerror(errno));
  }
  ::unlink(path.c_str());
  return fd;
}

// Persists a directory's entries (created files, renames): without it a
// crash can lose the rename that committed a file.
inline Status fsync_dir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return IoError(dir + ": open for fsync failed: " + std::strerror(errno));
  }
  Status s = OkStatus();
  while (::fsync(dfd) != 0) {
    if (errno == EINTR) continue;
    s = IoError(dir + ": fsync failed: " + std::strerror(errno));
    break;
  }
  ::close(dfd);
  return s;
}

}  // namespace crac
