// CRUM-style shadow pages for managed memory under the proxy architecture.
//
// A proxy process cannot share UVM pages with the application, so CRUM
// mirrors each cudaMallocManaged region in application memory ("shadow")
// and synchronizes: shadow -> device before a CUDA call, device -> shadow
// at the next synchronization point. This supports exactly the
// read-modify-write-per-call pattern the paper describes (§2.3) and
// visibly LOSES UPDATES when a concurrent stream writes the same region
// between syncs — the failure mode CRAC's single-address-space design
// eliminates. proxy_test.cpp demonstrates both behaviours.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "common/status.hpp"

namespace crac::proxy {

class ShadowUvm {
 public:
  struct Entry {
    void* shadow = nullptr;          // application-visible pointer
    std::uint64_t remote = 0;        // proxy-side managed pointer
    std::size_t size = 0;
  };

  // Registers a mirror; takes ownership of nothing (the caller allocates
  // the shadow with posix_memalign and frees it).
  void add(void* shadow, std::uint64_t remote, std::size_t size);
  // Removes and returns the entry (caller frees the shadow memory).
  Result<Entry> remove(void* shadow);

  bool is_shadow(const void* p) const;
  // Exact-base translation, the fragility inherent to shadow schemes:
  // interior pointers are not translatable.
  Result<std::uint64_t> translate(const void* shadow_base) const;

  // Snapshot of all entries (for bulk sync).
  std::map<void*, Entry> entries() const;

  std::size_t count() const;
  std::size_t total_bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<void*, Entry> entries_;
};

}  // namespace crac::proxy
