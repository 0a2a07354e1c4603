//===- vgpu/KernelStats.hpp - Static resource usage of a kernel -----------===//
#pragma once

#include <algorithm>
#include <cstdint>

#include "ir/Module.hpp"
#include "vgpu/Metrics.hpp"
#include "vgpu/NativeRegistry.hpp"

namespace codesign::vgpu {

/// Lay out M's per-team static shared segment: every Shared-space global,
/// in module order, at the next offset its alignment allows. Calls
/// Place(const ir::GlobalVariable *, std::uint64_t Offset) for each and
/// returns the segment's size. ModuleImage places its shared statics with
/// it, and computeKernelStats sizes the segment with it.
template <typename PlaceFn>
std::uint64_t layoutSharedSegment(const ir::Module &M, PlaceFn &&Place) {
  std::uint64_t Size = 0;
  for (const auto &G : M.globals()) {
    if (G->space() != ir::AddrSpace::Shared)
      continue;
    const std::uint64_t Align = std::max<unsigned>(G->alignment(), 1);
    Size = (Size + Align - 1) & ~(Align - 1);
    Place(G.get(), Size);
    Size += G->sizeBytes();
  }
  return Size;
}

/// Compute the static resource usage of Kernel within its module, after
/// optimization:
///  * Registers: 8 + peak SSA liveness over the kernel and every function
///    reachable from it (max across functions — a called function's frame
///    reuses registers), plus the declared register footprint of the
///    heaviest native op used.
///  * SharedMemBytes: total per-team shared segment of the module (what a
///    ModuleImage would reserve) — the direct analogue of Figure 11's SMem.
///  * CodeSize: instructions in the kernel plus reachable functions.
KernelStaticStats computeKernelStats(const ir::Function &Kernel,
                                     const NativeRegistry &Registry);

} // namespace codesign::vgpu
