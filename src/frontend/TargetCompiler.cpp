#include "frontend/TargetCompiler.hpp"

#include "frontend/Driver.hpp"
#include "frontend/KernelCache.hpp"
#include "ir/Verifier.hpp"
#include "opt/MapInference.hpp"
#include "opt/PassManager.hpp"
#include "support/Trace.hpp"
#include "vgpu/Bytecode.hpp"

#include <chrono>

namespace codesign::frontend {

namespace {

/// Lap timer for the compile phases; inert (no clock reads) unless tracing
/// is enabled, so BM_CompileKernelUncached measures the same path as before.
class PhaseClock {
public:
  PhaseClock() : On(trace::Tracer::global().enabled()) {
    if (On)
      Last = std::chrono::steady_clock::now();
  }

  /// Microseconds since construction or the previous lap; 0 when off. Also
  /// records a "frontend" span for the phase.
  std::uint64_t lap(const char *Phase) {
    if (!On)
      return 0;
    const auto Now = std::chrono::steady_clock::now();
    const auto Micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Now - Last)
            .count());
    Last = Now;
    trace::Tracer::global().span("frontend", Phase, Micros);
    return Micros;
  }

private:
  bool On;
  std::chrono::steady_clock::time_point Last;
};

} // namespace

CompileOptions CompileOptions::oldRT() {
  CompileOptions O;
  O.CG.RT = RuntimeKind::OldRT;
  // The full pipeline runs, but the opaque runtime defeats it — that is
  // the point of the baseline.
  return O;
}

CompileOptions CompileOptions::newRTNightly() {
  CompileOptions O;
  O.CG.RT = RuntimeKind::NewRT;
  O.Opt = opt::OptOptions::nightly();
  return O;
}

CompileOptions CompileOptions::newRTNoAssumptions() {
  CompileOptions O;
  O.CG.RT = RuntimeKind::NewRT;
  return O;
}

CompileOptions CompileOptions::newRT() {
  CompileOptions O;
  O.CG.RT = RuntimeKind::NewRT;
  O.CG.AssumeTeamsOversubscription = true;
  O.CG.AssumeThreadsOversubscription = true;
  return O;
}

CompileOptions CompileOptions::cuda() {
  CompileOptions O;
  O.CG.RT = RuntimeKind::Native;
  return O;
}

namespace {

/// The actual pipeline: codegen, link, verify, optimize, stats, bytecode.
/// Split out so the cached path can run it under single-flight dedup.
Expected<CompiledKernel> compileUncached(const KernelSpec &Spec,
                                         const CompileOptions &Options,
                                         const vgpu::NativeRegistry &Registry,
                                         const opt::OptOptions &OptCfg,
                                         const opt::PipelineSpec &Pipeline);

} // namespace

Expected<CompiledKernel> compileKernel(const KernelSpec &Spec,
                                       const CompileOptions &Options,
                                       const vgpu::NativeRegistry &Registry) {
  // The effective pipeline configuration: debug builds keep the assumptions
  // alive so the virtual GPU verifies them at run time (Section III-G).
  opt::OptOptions OptCfg = Options.Opt;
  if (Options.CG.DebugKind != 0)
    OptCfg.KeepAssumes = true;
  // Resolve the pipeline up front: an invalid Options.Opt.Pipeline string is
  // a compile error, and the canonical spec text is part of the cache key.
  std::string PipelineStr;
  opt::PipelineSpec Pipeline;
  if (Options.RunOptimizer) {
    auto Resolved = opt::resolvePipelineSpec(OptCfg);
    if (!Resolved)
      return makeError("invalid pipeline specification: ",
                       Resolved.error().message());
    Pipeline = Resolved.takeValue();
    PipelineStr = Pipeline.str();
  }
  // Observation (remarks, pass callbacks) sees the pipeline as a side
  // effect, so such requests must actually compile.
  const bool Cacheable = Options.UseKernelCache && !Options.Opt.observed();
  trace::Tracer &Tracer = trace::Tracer::global();
  if (!Cacheable) {
    if (Tracer.enabled())
      Tracer.instant("frontend", "kernel-cache.bypass");
    return compileUncached(Spec, Options, Registry, OptCfg, Pipeline);
  }
  // Single-flight through the kernel cache: when many threads request the
  // same key concurrently (the service's compile storms), exactly one runs
  // compileUncached and the rest share its result.
  const std::string Key = KernelCache::key(Spec, Options, Registry,
                                           PipelineStr);
  KernelCache::Outcome Outcome = KernelCache::Outcome::Miss;
  auto Result = KernelCache::global().getOrCompile(
      Key,
      [&] {
        auto Compiled =
            compileUncached(Spec, Options, Registry, OptCfg, Pipeline);
        // Stamp the content key on the module before the cache publishes
        // it: execution backends (the native backend's shared-object cache)
        // memoize per-module work keyed on it instead of re-hashing IR.
        // Stamping inside the single-flight compile keeps the write
        // pre-publication, so concurrent readers never observe a mutation.
        if (Compiled)
          Compiled->M->setCacheKey(Key);
        return Compiled;
      },
      &Outcome);
  if (!Result)
    return Result;
  if (Outcome != KernelCache::Outcome::Miss) {
    // The stored timing belongs to the compile that populated the entry;
    // this request paid only the lookup (or the coalesced wait).
    Result->Timing = CompilePhaseTiming{};
    Result->Timing.CacheHit = true;
  }
  if (Tracer.enabled())
    Tracer.instant("frontend",
                   Outcome == KernelCache::Outcome::Hit ? "kernel-cache.hit"
                   : Outcome == KernelCache::Outcome::Coalesced
                       ? "kernel-cache.coalesced"
                       : "kernel-cache.miss");
  return Result;
}

namespace {

Expected<CompiledKernel> compileUncached(const KernelSpec &Spec,
                                         const CompileOptions &Options,
                                         const vgpu::NativeRegistry &Registry,
                                         const opt::OptOptions &OptCfg,
                                         const opt::PipelineSpec &Pipeline) {
  CompilePhaseTiming Timing;
  PhaseClock Clock;
  auto CG = emitKernel(Spec, Options.CG);
  if (!CG)
    return CG.error();
  Timing.CodegenMicros = Clock.lap("codegen");
  auto Linked = linkRuntime(*CG->AppModule, Options.CG.RT);
  if (!Linked)
    return Linked.error();
  Timing.LinkMicros = Clock.lap("link");
  {
    auto Errors = ir::verifyModule(*CG->AppModule);
    if (!Errors.empty())
      return makeError("post-link verification failed: ", Errors.front());
  }
  Timing.VerifyMicros += Clock.lap("verify");
  if (Options.RunOptimizer) {
    auto PM = opt::PassManager::create(Pipeline);
    if (!PM)
      return makeError("invalid pipeline specification: ",
                       PM.error().message());
    PM->run(*CG->AppModule, OptCfg);
    Timing.OptMicros = Clock.lap("opt");
    auto Errors = ir::verifyModule(*CG->AppModule);
    if (!Errors.empty())
      return makeError("post-optimization verification failed: ",
                       Errors.front());
    Timing.VerifyMicros += Clock.lap("verify");
  }
  {
    // Static map inference runs after the pipeline — inlining and load
    // forwarding have made pointer-argument usage directly visible — and
    // annotates the kernel Function only (no IR mutation, so it is NOT part
    // of the pipeline string and committed bench baselines are unaffected).
    // The host runtime's pipeline planner reads the annotations to hoist
    // transfers; the map lint rules check declared clauses against them.
    opt::AnalysisManager AM(*CG->AppModule);
    opt::inferModuleMaps(*CG->AppModule, AM, OptCfg);
    Timing.OptMicros += Clock.lap("infer-maps");
  }
  CompiledKernel Out;
  Out.Kernel = CG->Kernel;
  Out.M = std::move(CG->AppModule);
  Out.Stats = vgpu::computeKernelStats(*Out.Kernel, Registry);
  // Lower to bytecode while the verified module is at hand; the lowering
  // is immutable and shared by every image (and by cache hits below). It
  // carries the stats, so no launch plan recomputes them.
  const vgpu::KernelDescriptor Kernels[] = {{Out.Kernel, Out.Stats}};
  Out.Bytecode = vgpu::BytecodeEmitter::lower(*Out.M, Kernels);
  Timing.StatsMicros = Clock.lap("stats");
  Out.Timing = Timing;
  return Out;
}

} // namespace

} // namespace codesign::frontend
