// The split process: one address space, two logical programs.
//
// Construction assembles the architecture of the paper's Figure 1:
//   * a simulated kernel-loader places an "upper half" program image (the
//     CUDA application's text/data) and a "lower half" helper image,
//   * the lower half constructs the live CUDA runtime (simgpu device, whose
//     arena mmaps are tagged lower-half via hooks),
//   * the helper fills the dispatch table with its entry points,
//   * the application-facing API is a trampoline over that table,
//   * the application heap is tagged upper-half.
//
// discard_lower_half()/load_fresh_lower_half() implement the restart dance:
// the old CUDA library vanishes, a new one is loaded at the same fixed
// addresses, and the dispatch table is re-initialized in place — upper-half
// code never observes the swap.
#pragma once

#include <memory>

#include "common/status.hpp"
#include "ckpt/memory_section.hpp"
#include "crac/region_hooks.hpp"
#include "crac/upper_heap.hpp"
#include "simcuda/lower_half.hpp"
#include "simcuda/trampolined_api.hpp"
#include "splitproc/address_space.hpp"
#include "splitproc/kernel_loader.hpp"
#include "splitproc/trampoline.hpp"

namespace crac {

struct SplitProcessOptions {
  sim::DeviceConfig device;  // fixed arena bases by default
  split::FsSwitchMode fs_mode = split::FsSwitchMode::kNone;

  std::uintptr_t upper_heap_base = 0x600000000000ULL;
  std::size_t upper_heap_capacity = std::size_t{4} << 30;
  std::size_t upper_heap_chunk = std::size_t{16} << 20;
};

class SplitProcess {
 public:
  explicit SplitProcess(const SplitProcessOptions& options = {});
  ~SplitProcess();

  SplitProcess(const SplitProcess&) = delete;
  SplitProcess& operator=(const SplitProcess&) = delete;

  // The application-facing (uninterposed) API: trampolined dispatch into the
  // current lower half.
  cuda::CudaApi& api() noexcept { return *api_; }

  UpperHeap& heap() noexcept { return *heap_; }
  split::AddressSpace& address_space() noexcept { return space_; }
  split::Trampoline& trampoline() noexcept { return trampoline_; }
  const cuda::DispatchTable& dispatch_table() const noexcept { return table_; }

  // Lower-half access for drain/diagnostics (the CRAC plugin peeks only at
  // what the real plugin could learn through CUDA calls; tests peek deeper).
  cuda::LowerHalfRuntime& lower() noexcept { return *lower_; }
  bool lower_alive() const noexcept { return lower_ != nullptr; }

  // --- restart support ---
  void discard_lower_half();
  Status load_fresh_lower_half();

  // Consolidates the upper half (§3.2.2) and describes every upper region:
  // address, size, protection and name, with `bytes` left empty. Every
  // simulated upper region is mapped readable (the loader maps RW and
  // records the logical prot separately), so the checkpoint appends each
  // region's contents straight from its mapping.
  std::vector<ckpt::MemoryRecord> upper_regions();

  // Verifies that [addr, addr + size) is a writable restore target (heap or
  // program image) — the gate the streaming restore path uses before
  // copying region slices straight off the image into place.
  Status validate_upper_target(std::uint64_t addr, std::uint64_t size,
                               const std::string& name);

 private:
  void load_program_images();

  SplitProcessOptions options_;
  split::AddressSpace space_;
  RegionTagHooks lower_hooks_;
  RegionTagHooks upper_hooks_;
  split::Trampoline trampoline_;
  cuda::DispatchTable table_;
  split::KernelLoader loader_;

  std::unique_ptr<split::LoadedProgram> upper_image_;
  std::unique_ptr<split::LoadedProgram> lower_image_;
  std::unique_ptr<UpperHeap> heap_;
  std::unique_ptr<cuda::LowerHalfRuntime> lower_;
  std::unique_ptr<cuda::TrampolinedApi> api_;
};

}  // namespace crac
