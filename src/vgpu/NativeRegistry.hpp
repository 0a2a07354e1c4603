//===- vgpu/NativeRegistry.hpp - Host functors callable from device IR -----===//
//
// Proxy-application loop bodies are registered here as C++ functors and
// invoked from IR via the NativeOp opcode. The runtime/orchestration code —
// where all of the paper's overheads live — stays in IR and is visible to
// the optimizer; the numeric payload executes natively with an explicit
// cost profile (so memory-bound vs compute-bound character is preserved).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/Error.hpp"

namespace codesign::vgpu {

/// The view a native functor runs against (vgpu/TeamModel.hpp defines it;
/// vgpu/VirtualGPU.hpp makes it visible to every payload).
class NativeCtx;

/// A registered native operation.
struct NativeOpInfo {
  std::string Name;
  std::function<void(NativeCtx &)> Fn;
  /// Additional register pressure the native body contributes to the
  /// kernel's register estimate (declared, since the body is opaque).
  unsigned ExtraRegisters = 0;
};

/// Registry of native operations, keyed by dense id (the NativeOp imm).
class NativeRegistry {
public:
  /// Register an operation; returns its id.
  std::int64_t add(NativeOpInfo Info) {
    Ops.push_back(std::move(Info));
    return static_cast<std::int64_t>(Ops.size() - 1);
  }

  /// Look up by id.
  [[nodiscard]] const NativeOpInfo &get(std::int64_t Id) const {
    CODESIGN_ASSERT(Id >= 0 && static_cast<std::size_t>(Id) < Ops.size(),
                    "unknown native op id");
    return Ops[static_cast<std::size_t>(Id)];
  }

  /// Number of registered operations.
  [[nodiscard]] std::size_t size() const { return Ops.size(); }

private:
  std::vector<NativeOpInfo> Ops;
};

} // namespace codesign::vgpu
