//===- frontend/Codegen.hpp - Lowering KernelSpec to IR --------------------===//
#pragma once

#include <functional>
#include <memory>

#include "frontend/KernelSpec.hpp"
#include "ir/Module.hpp"
#include "support/Error.hpp"

namespace codesign::frontend {

/// Which runtime (and therefore which lowering) to use.
enum class RuntimeKind {
  NewRT,  ///< the co-designed runtime of the paper (Section III)
  OldRT,  ///< the legacy baseline runtime
  Native, ///< CUDA-style direct lowering, no runtime
};

/// Frontend options (the "command line" of the paper's Figure 1).
struct CodegenOptions {
  RuntimeKind RT = RuntimeKind::NewRT;
  /// Emit generic mode even for SPMD-compatible regions, leaving the
  /// SPMDization pass (Section IV-A3) to do the conversion.
  bool ForceGenericMode = false;
  /// Debug-kind bits (rt::DebugAssertions | rt::DebugFunctionTracing),
  /// emitted as the constant global @__omp_rtl_debug_kind (Section III-G).
  std::int32_t DebugKind = 0;
  /// -fopenmp-assume-teams-oversubscription (Section III-F).
  bool AssumeTeamsOversubscription = false;
  /// -fopenmp-assume-threads-oversubscription (Section III-F).
  bool AssumeThreadsOversubscription = false;
};

/// Result of lowering: the application module and the kernel. The module
/// declares the runtime entry points the kernel calls, and no others, until
/// ir::linkModules merges the RTL in.
struct CodegenResult {
  std::unique_ptr<ir::Module> AppModule;
  ir::Function *Kernel = nullptr;
};

/// Lower a kernel spec. Fails on malformed specs (e.g. `for` outside a
/// `parallel`, serial statements inside `parallel`).
Expected<CodegenResult> emitKernel(const KernelSpec &Spec,
                                   const CodegenOptions &Options);

} // namespace codesign::frontend
