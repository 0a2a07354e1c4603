//===- rt/DeviceRTL.hpp - The new OpenMP GPU device runtime ----------------===//
//
// Generates the co-designed device runtime of the paper's Section III as an
// IR module — the analogue of the LLVM device RTL being shipped as bitcode
// and linked into the application before optimization (Section II-B). Every
// entry point is AlwaysInline and Internal so the optimizer can see through
// it; the runtime state lives in static shared memory exactly as described:
//
//   * @__omp_spmd_mode       — the SPMD-mode flag (III-A)
//   * @__omp_team_state      — the team ICV state (III-B)
//   * @__omp_thread_states   — per-thread state pointers, NULL => team (III-C)
//   * @__omp_shared_stack    — the shared-memory stack w/ malloc fallback (III-D)
//
// Work-sharing is the combined CUDA-style scheme of Figure 5, including the
// oversubscription-assumption break. Conditional writes use the
// dummy-pointer idiom of Figure 7b, and broadcast barriers are followed by
// the assumptions of Figure 8b. Debugging/assertion support follows III-G:
// the runtime reads @__omp_rtl_debug_kind (a constant the frontend emits)
// and all debug code folds away statically in release builds.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <memory>

#include "ir/Module.hpp"

namespace codesign::rt {

/// Generate the new device runtime as a standalone module, ready to be
/// linked into an application module with ir::linkModules. Compiles build
/// it once per process (frontend::runtimeModule) and link from that copy.
std::unique_ptr<ir::Module> buildDeviceRTL();

} // namespace codesign::rt
