#include "proxy/shadow_uvm.hpp"

namespace crac::proxy {

void ShadowUvm::add(void* shadow, std::uint64_t remote, std::size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[shadow] = Entry{shadow, remote, size};
}

Result<ShadowUvm::Entry> ShadowUvm::remove(void* shadow) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(shadow);
  if (it == entries_.end()) return NotFound("not a shadow pointer");
  Entry e = it->second;
  entries_.erase(it);
  return e;
}

bool ShadowUvm::is_shadow(const void* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.upper_bound(const_cast<void*>(p));
  if (it == entries_.begin()) return false;
  --it;
  const auto base = reinterpret_cast<std::uintptr_t>(it->second.shadow);
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  return a >= base && a < base + it->second.size;
}

Result<std::uint64_t> ShadowUvm::translate(const void* shadow_base) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(const_cast<void*>(shadow_base));
  if (it == entries_.end()) return NotFound("not a shadow base pointer");
  return it->second.remote;
}

std::map<void*, ShadowUvm::Entry> ShadowUvm::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::size_t ShadowUvm::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t ShadowUvm::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [p, e] : entries_) total += e.size;
  return total;
}

}  // namespace crac::proxy
