#include "crac/split_process.hpp"

#include <sys/mman.h>

#include "common/log.hpp"

namespace crac {

namespace {
// Fixed load addresses of the simulated program images.
constexpr std::uintptr_t kUpperImageBase = 0x500000000000ULL;
constexpr std::uintptr_t kLowerImageBase = 0x7f0000000000ULL;
}  // namespace

SplitProcess::SplitProcess(const SplitProcessOptions& options)
    : options_(options),
      lower_hooks_(&space_, split::HalfTag::kLower),
      upper_hooks_(&space_, split::HalfTag::kUpper),
      trampoline_(options.fs_mode),
      loader_(&space_) {
  load_program_images();

  heap_ = std::make_unique<UpperHeap>(UpperHeap::Config{
      .va_base = options_.upper_heap_base,
      .capacity = options_.upper_heap_capacity,
      .chunk = options_.upper_heap_chunk,
      .hooks = &upper_hooks_,
  });

  Status st = load_fresh_lower_half();
  CRAC_CHECK_MSG(st.ok(), "initial lower-half load failed: " << st.to_string());

  api_ = std::make_unique<cuda::TrampolinedApi>(&table_, &trampoline_);
}

SplitProcess::~SplitProcess() = default;

void SplitProcess::load_program_images() {
  using split::SegmentSpec;
  // Simulated text/data segments for the application and the helper, so
  // the address space resembles a real process. Shapes loosely modelled on
  // a small CUDA application and the helper binary with its CUDA runtime
  // libraries; sizes are arbitrary but nonzero so the maps view and
  // checkpoint actually carry them.
  split::ProgramImage upper;
  upper.name = "cuda-app";
  upper.segments = {
      SegmentSpec{".text", 256 << 10, PROT_READ | PROT_EXEC},
      SegmentSpec{".rodata", 64 << 10, PROT_READ},
      SegmentSpec{".data", 64 << 10, PROT_READ | PROT_WRITE},
      SegmentSpec{".bss", 128 << 10, PROT_READ | PROT_WRITE},
  };
  auto up = loader_.load(upper, split::HalfTag::kUpper,
                         kUpperImageBase);
  CRAC_CHECK_MSG(up.ok(), "upper image load failed");
  upper_image_ = std::move(*up);

  split::ProgramImage lower;
  lower.name = "lower-helper";
  lower.segments = {
      SegmentSpec{".text", 64 << 10, PROT_READ | PROT_EXEC},
      SegmentSpec{".data", 32 << 10, PROT_READ | PROT_WRITE},
      SegmentSpec{"libcudart.so:.text", 512 << 10, PROT_READ | PROT_EXEC},
      SegmentSpec{"libcudart.so:.data", 256 << 10, PROT_READ | PROT_WRITE},
      SegmentSpec{"libcuda.so:.text", 1 << 20, PROT_READ | PROT_EXEC},
      SegmentSpec{"libcuda.so:.data", 512 << 10, PROT_READ | PROT_WRITE},
  };
  auto lo = loader_.load(lower, split::HalfTag::kLower,
                         kLowerImageBase);
  CRAC_CHECK_MSG(lo.ok(), "lower image load failed");
  lower_image_ = std::move(*lo);
}

void SplitProcess::discard_lower_half() {
  // Destroying the runtime drains streams, unmaps the arenas (untracking
  // their regions via hooks) and releases the fixed VA ranges so the fresh
  // incarnation can claim them again.
  lower_.reset();
  table_ = cuda::DispatchTable{};
}

Status SplitProcess::load_fresh_lower_half() {
  if (lower_ != nullptr) {
    return FailedPrecondition("lower half already loaded");
  }
  sim::DeviceConfig cfg = options_.device;
  cfg.hooks = &lower_hooks_;
  lower_ = std::make_unique<cuda::LowerHalfRuntime>(cfg);
  lower_->fill_dispatch_table(&table_);
  if (!table_.complete()) return Internal("dispatch table incomplete");
  return OkStatus();
}

std::vector<ckpt::MemoryRecord> SplitProcess::upper_regions() {
  // Consolidate first (§3.2.2 countermeasure) so the image carries few,
  // contiguous upper records.
  space_.consolidate();
  std::vector<ckpt::MemoryRecord> out;
  for (const split::Region& r : space_.regions(split::HalfTag::kUpper)) {
    ckpt::MemoryRecord rec;
    rec.addr = r.start;
    rec.size = r.size;
    rec.prot = static_cast<std::uint32_t>(r.prot);
    rec.name = r.name;
    out.push_back(std::move(rec));
  }
  return out;
}

Status SplitProcess::validate_upper_target(std::uint64_t addr,
                                           std::uint64_t size,
                                           const std::string& name) {
  auto* p = reinterpret_cast<void*>(addr);
  // The target range must be mapped: heap chunks via the restored arena
  // snapshot, program images via load_program_images at the same fixed
  // base. Verify before writing.
  const bool in_heap =
      heap_->contains(p) &&
      addr + size <= reinterpret_cast<std::uintptr_t>(heap_->base()) +
                         heap_->committed_bytes();
  const auto region = space_.find(p);
  const bool in_image =
      region.has_value() && region->tag == split::HalfTag::kUpper;
  if (!in_heap && !in_image) {
    return FailedPrecondition("upper region " + name + " at " +
                              std::to_string(addr) +
                              " is not mapped in the restarted process");
  }
  return OkStatus();
}

}  // namespace crac
