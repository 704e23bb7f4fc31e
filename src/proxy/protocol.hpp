// Wire protocol between the application process and the proxy process.
//
// This is the CRUM/CRCUDA architecture CRAC replaces: every CUDA call is an
// RPC to a separate proxy process that owns the real CUDA library. The
// protocol is a synchronous request/response over a Unix stream socket;
// bulk payloads travel either inline on the socket or through a
// Cross-Memory-Attach staging buffer (see CmaChannel). The round trip plus
// the buffer copies ARE the overhead Table 3 measures.
#pragma once

#include <cstdint>

namespace crac::proxy {

enum class Op : std::uint32_t {
  kHello = 1,       // -> staging address + server pid
  kShutdown = 2,

  kMalloc = 10,
  kFree = 11,
  kMallocHost = 12,
  kHostAlloc = 13,
  kFreeHost = 14,
  kMallocManaged = 15,

  kMemcpyToDevice = 20,    // payload: bytes (or staged)
  kMemcpyFromDevice = 21,  // response payload: bytes (or staged)
  kMemcpyOnDevice = 22,
  kMemset = 23,
  kMemsetAsync = 24,
  kMemcpyToDeviceAsync = 25,
  kMemcpyFromDeviceAsync = 26,  // completes synchronously server-side
  kMemPrefetchAsync = 27,

  kStreamCreate = 30,
  kStreamDestroy = 31,
  kStreamSynchronize = 32,
  kStreamQuery = 33,
  kStreamWaitEvent = 34,

  kEventCreate = 40,
  kEventDestroy = 41,
  kEventRecord = 42,
  kEventSynchronize = 43,
  kEventQuery = 44,
  kEventElapsedTime = 45,

  kLaunchKernel = 50,  // payload: marshalled argument values
  kDeviceSynchronize = 51,
  kGetDeviceProperties = 52,
  kMemGetInfo = 53,

  kRegisterFatBinary = 60,
  kRegisterFunction = 61,  // payload: arg-size table
  kUnregisterFatBinary = 62,

  // Checkpoint registry verbs (served by registry::RegistryHost, which
  // speaks this same header + CRACSHP1 stream framing; the proxy server
  // rejects them). PUT/GET carry the image name as the request payload and
  // a framed checkpoint stream after the header (client->server for PUT,
  // server->client after the OK response for GET). LIST returns an inline
  // directory payload; STAT returns store-wide accounting.
  kPutCkpt = 80,
  kGetCkpt = 81,
  kListCkpt = 82,
  kStatCkpt = 83,
};

// Hard cap on RequestHeader::payload_bytes. The serving loop used to
// payload.resize(req.payload_bytes) unchecked, so a corrupt or hostile
// header could drive an arbitrary allocation; now an oversized request is
// rejected (and its connection closed — the declared payload cannot be
// skipped reliably) without touching the rest of the server. Sized to
// dwarf every legitimate inline payload: kernel-launch marshalling and
// registration tables are KBs, and bulk memcpy payloads beyond CMA reach
// are already chunked by the client against this bound.
inline constexpr std::uint32_t kMaxRequestPayloadBytes = 64u << 20;

// Fixed-size request header; operands overloaded per op. POD, memcpy'd onto
// the socket (both ends are the same binary via fork, so layout agrees).
struct RequestHeader {
  Op op;
  std::uint32_t payload_bytes;  // inline payload following the header
  std::uint64_t a, b, c, d;     // op-specific scalar operands
  float f;                      // scalar float operand (alpha etc.)
  std::uint32_t staged;         // 1 = bulk data via CMA staging, not inline
};

struct ResponseHeader {
  std::int32_t err;             // cudaError_t
  std::uint32_t payload_bytes;  // inline payload following the header
  std::uint64_t r0, r1;         // op-specific results
  std::uint32_t staged;
};

struct HelloInfo {
  std::int32_t server_pid;
  std::uint64_t staging_addr;
  std::uint64_t staging_bytes;
};

}  // namespace crac::proxy
