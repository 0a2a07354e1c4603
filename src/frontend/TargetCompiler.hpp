//===- frontend/TargetCompiler.hpp - Full compilation driver ---------------===//
//
// One-stop compilation mirroring the paper's Figure 1: lower the kernel
// spec with the chosen runtime, link the device RTL in as a "bitcode
// library", run the openmp-opt pipeline, verify, and compute the static
// resource stats (registers / shared memory / code size).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "frontend/Codegen.hpp"
#include "opt/Pipeline.hpp"
#include "vgpu/KernelStats.hpp"

namespace codesign::vgpu {
struct BytecodeModule;
}

namespace codesign::frontend {

/// Combined frontend + optimizer configuration.
struct CompileOptions {
  CodegenOptions CG;
  opt::OptOptions Opt;
  /// Skip the optimizer entirely (codegen output runs as-is).
  bool RunOptimizer = true;
  /// Consult the process-wide content-addressed kernel cache (see
  /// KernelCache.hpp). Not part of the cache key; compile-time benchmarks
  /// turn it off so they measure the pipeline, not a map lookup. Requests
  /// carrying an observer (remark sink or pass callbacks) always bypass
  /// the cache (a hit would produce no remarks or pass records).
  bool UseKernelCache = true;

  /// The paper's five build configurations (Figure 11 rows).
  static CompileOptions oldRT();
  static CompileOptions newRTNightly();
  static CompileOptions newRTNoAssumptions();
  static CompileOptions newRT(); ///< with oversubscription assumptions
  static CompileOptions cuda();

  // --- Fluent builders ------------------------------------------------------
  // Each returns a modified copy, so configurations compose from the named
  // factories without call sites reaching into the nested CG/Opt members:
  //   CompileOptions::newRT().withDebug(rt::DebugAssertions).withKernelCache(false)

  /// Select the runtime/lowering flavor.
  [[nodiscard]] CompileOptions withRuntime(RuntimeKind RT) const {
    CompileOptions O = *this;
    O.CG.RT = RT;
    return O;
  }
  /// Set the debug-kind bits (rt::DebugAssertions | rt::DebugFunctionTracing).
  [[nodiscard]] CompileOptions withDebug(std::int32_t DebugKind) const {
    CompileOptions O = *this;
    O.CG.DebugKind = DebugKind;
    return O;
  }
  /// Emit generic mode even for SPMD-compatible regions.
  [[nodiscard]] CompileOptions withForceGenericMode(bool On = true) const {
    CompileOptions O = *this;
    O.CG.ForceGenericMode = On;
    return O;
  }
  /// Toggle the Section III-F oversubscription assumptions.
  [[nodiscard]] CompileOptions withOversubscription(bool Teams,
                                                    bool Threads) const {
    CompileOptions O = *this;
    O.CG.AssumeTeamsOversubscription = Teams;
    O.CG.AssumeThreadsOversubscription = Threads;
    return O;
  }
  /// Enable or skip the openmp-opt pipeline.
  [[nodiscard]] CompileOptions withOptimizer(bool On) const {
    CompileOptions O = *this;
    O.RunOptimizer = On;
    return O;
  }
  /// Enable or bypass the process-wide kernel cache.
  [[nodiscard]] CompileOptions withKernelCache(bool On) const {
    CompileOptions O = *this;
    O.UseKernelCache = On;
    return O;
  }
  /// Replace the whole pipeline configuration.
  [[nodiscard]] CompileOptions withOpt(opt::OptOptions Opt) const {
    CompileOptions O = *this;
    O.Opt = std::move(Opt);
    return O;
  }
  /// Apply an edit to the pipeline configuration (ablation benches disable
  /// one pass this way without naming the nested member chain).
  template <typename Fn>
  [[nodiscard]] CompileOptions withOptTweak(Fn &&Tweak) const {
    CompileOptions O = *this;
    Tweak(O.Opt);
    return O;
  }
  /// Override the optimization pipeline with a textual spec (see
  /// opt/PassManager.hpp for the grammar). compileKernel rejects invalid
  /// text; the resolved spec becomes part of the kernel-cache key.
  [[nodiscard]] CompileOptions withPipeline(std::string Pipeline) const {
    CompileOptions O = *this;
    O.Opt.Pipeline = std::move(Pipeline);
    return O;
  }
  /// Attach a remark collector (makes the compile uncacheable).
  [[nodiscard]] CompileOptions withRemarks(opt::RemarkCollector &RC) const {
    CompileOptions O = *this;
    O.Opt.Obs.Remarks = &RC;
    return O;
  }
  /// Attach full pipeline observability hooks (makes the compile
  /// uncacheable).
  [[nodiscard]] CompileOptions withObserver(opt::Observer Obs) const {
    CompileOptions O = *this;
    O.Opt.Obs = std::move(Obs);
    return O;
  }
};

/// Wall time of each compileKernel phase (Figure 1 stages), microseconds.
/// Only populated when tracing is enabled — the steady-clock reads stay off
/// the path otherwise. A cache hit reports CacheHit=true and zero phases.
struct CompilePhaseTiming {
  std::uint64_t CodegenMicros = 0;
  std::uint64_t LinkMicros = 0;
  std::uint64_t OptMicros = 0;
  std::uint64_t VerifyMicros = 0;
  std::uint64_t StatsMicros = 0;
  bool CacheHit = false;

  [[nodiscard]] std::uint64_t totalMicros() const {
    return CodegenMicros + LinkMicros + OptMicros + VerifyMicros +
           StatsMicros;
  }
};

/// A fully compiled kernel, ready to load onto the virtual GPU. The module
/// is shared so cache hits alias one immutable compilation result; treat it
/// as read-only after compileKernel returns.
struct CompiledKernel {
  std::shared_ptr<ir::Module> M;
  ir::Function *Kernel = nullptr;
  vgpu::KernelStaticStats Stats;
  CompilePhaseTiming Timing;
  /// The module lowered to the virtual GPU's dense bytecode (the fast
  /// execution tier). Produced once per compile after verification, cached
  /// alongside the module, and attached to every image loaded from it so
  /// launches never re-lower. It carries Stats as the kernel's descriptor,
  /// so no launch plan recomputes them.
  std::shared_ptr<const vgpu::BytecodeModule> Bytecode;
};

/// Compile Spec under Options. The registry is consulted for the register
/// footprint of native loop bodies. Fails on codegen/link/verify errors.
Expected<CompiledKernel> compileKernel(const KernelSpec &Spec,
                                       const CompileOptions &Options,
                                       const vgpu::NativeRegistry &Registry);

} // namespace codesign::frontend
