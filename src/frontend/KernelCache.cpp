#include "frontend/KernelCache.hpp"

#include "support/Stats.hpp"

namespace codesign::frontend {

namespace {

/// Unambiguous serialization helpers: numbers in decimal followed by ';',
/// strings length-prefixed. No two distinct requests share a key.
void putNum(std::string &Out, std::int64_t V) {
  Out += std::to_string(V);
  Out += ';';
}

void putStr(std::string &Out, std::string_view S) {
  putNum(Out, static_cast<std::int64_t>(S.size()));
  Out += S;
}

void putTrip(std::string &Out, const TripCount &T) {
  putNum(Out, static_cast<std::int64_t>(T.K));
  putNum(Out, T.Const);
  putNum(Out, T.ArgIndex);
  putNum(Out, T.Offset);
}

void putBody(std::string &Out, const NativeBody &B,
             const vgpu::NativeRegistry &Registry) {
  // A NativeId is only a dense index into the caller's registry; the name
  // and declared register pressure are what give it meaning across runs.
  putNum(Out, B.NativeId);
  const vgpu::NativeOpInfo &Info = Registry.get(B.NativeId);
  putStr(Out, Info.Name);
  putNum(Out, Info.ExtraRegisters);
  putNum(Out, (B.Flags.ReadsMemory ? 1 : 0) | (B.Flags.WritesMemory ? 2 : 0) |
                  (B.Flags.Divergent ? 4 : 0));
  putNum(Out, static_cast<std::int64_t>(B.Args.size()));
  for (const BodyArg &A : B.Args) {
    putNum(Out, static_cast<std::int64_t>(A.K));
    putNum(Out, A.ArgIndex);
    putNum(Out, A.Const);
  }
}

void putStmt(std::string &Out, const Stmt &S,
             const vgpu::NativeRegistry &Registry) {
  putNum(Out, static_cast<std::int64_t>(S.K));
  putNum(Out, S.NumThreadsClause);
  putNum(Out, static_cast<std::int64_t>(S.ScratchBytes));
  putNum(Out, S.IcvValue);
  putNum(Out, S.HasDirectBody ? 1 : 0);
  putTrip(Out, S.Trip);
  const bool HasBody = S.K != StmtKind::SetNumThreads &&
                       (S.K != StmtKind::Parallel || S.HasDirectBody);
  putNum(Out, HasBody ? 1 : 0);
  if (HasBody)
    putBody(Out, S.Body, Registry);
  putNum(Out, static_cast<std::int64_t>(S.Children.size()));
  for (const Stmt &C : S.Children)
    putStmt(Out, C, Registry);
}

} // namespace

KernelCache &KernelCache::global() {
  static KernelCache C;
  return C;
}

std::string KernelCache::key(const KernelSpec &Spec,
                             const CompileOptions &Options,
                             const vgpu::NativeRegistry &Registry,
                             std::string_view PipelineStr) {
  std::string Key;
  Key.reserve(256);
  putStr(Key, Spec.Name);
  putNum(Key, static_cast<std::int64_t>(Spec.Params.size()));
  for (const ParamSpec &P : Spec.Params) {
    putNum(Key, static_cast<std::int64_t>(P.Ty.kind()));
    putStr(Key, P.Name);
    // Map clauses are part of the kernel's contract (they land as IR
    // annotations the inference pass and lint rules read), so two specs
    // differing only in clauses must not share a cache entry.
    putNum(Key, static_cast<std::int64_t>(P.Map));
  }
  putNum(Key, static_cast<std::int64_t>(Spec.Stmts.size()));
  for (const Stmt &S : Spec.Stmts)
    putStmt(Key, S, Registry);
  // Codegen switches.
  const CodegenOptions &CG = Options.CG;
  putNum(Key, static_cast<std::int64_t>(CG.RT));
  putNum(Key, CG.ForceGenericMode ? 1 : 0);
  putNum(Key, CG.DebugKind);
  putNum(Key, CG.AssumeTeamsOversubscription ? 1 : 0);
  putNum(Key, CG.AssumeThreadsOversubscription ? 1 : 0);
  // Pipeline switches.
  const opt::OptOptions &O = Options.Opt;
  putNum(Key, (O.EnableInlining ? 1 : 0) | (O.EnableSPMDization ? 2 : 0) |
                  (O.EnableGlobalizationElim ? 4 : 0) |
                  (O.EnableFieldSensitiveProp ? 8 : 0) |
                  (O.EnableInterprocDominance ? 16 : 0) |
                  (O.EnableAssumedMemoryContent ? 32 : 0) |
                  (O.EnableInvariantProp ? 64 : 0) |
                  (O.EnableAlignedExecReasoning ? 128 : 0) |
                  (O.EnableBarrierElim ? 256 : 0) | (O.KeepAssumes ? 512 : 0));
  putNum(Key, O.MaxFixpointRounds);
  putNum(Key, Options.RunOptimizer ? 1 : 0);
  // The resolved pipeline: distinguishes Opt.Pipeline overrides that the
  // toggle bits above cannot see.
  putStr(Key, PipelineStr);
  return Key;
}

Expected<CompiledKernel> KernelCache::getOrCompile(
    const std::string &Key,
    const std::function<Expected<CompiledKernel>()> &Compile,
    Outcome *WasOutcome) {
  std::shared_ptr<Flight> F;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (auto It = Entries.find(Key); It != Entries.end()) {
      ++Hits;
      Counters::global().add("kernel-cache.hits");
      if (WasOutcome)
        *WasOutcome = Outcome::Hit;
      return It->second;
    }
    if (auto It = InFlight.find(Key); It != InFlight.end()) {
      // Someone else is compiling this key right now: coalesce onto their
      // flight instead of compiling again.
      ++Coalesced;
      Counters::global().add("kernel-cache.coalesced");
      F = It->second;
    } else {
      // This caller wins the flight and compiles below, outside the lock —
      // every other key stays serviceable meanwhile.
      ++Misses;
      Counters::global().add("kernel-cache.misses");
      F = std::make_shared<Flight>();
      InFlight.emplace(Key, F);
      Lock.unlock();
      auto Result = Compile();
      {
        std::lock_guard<std::mutex> Relock(Mutex);
        if (Result)
          Entries.emplace(Key, *Result);
        InFlight.erase(Key);
      }
      {
        std::lock_guard<std::mutex> FlightLock(F->M);
        F->Done = true;
        F->Ok = Result.hasValue();
        if (Result)
          F->Result = *Result;
        else
          F->ErrMsg = Result.error().message();
      }
      F->CV.notify_all();
      if (WasOutcome)
        *WasOutcome = Outcome::Miss;
      return Result;
    }
  }
  // Coalesced path: wait for the winner to finish, then share its result.
  std::unique_lock<std::mutex> FlightLock(F->M);
  F->CV.wait(FlightLock, [&] { return F->Done; });
  if (WasOutcome)
    *WasOutcome = Outcome::Coalesced;
  if (!F->Ok)
    return Error(F->ErrMsg);
  return F->Result;
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats{Hits, Misses, Coalesced, Entries.size()};
}

std::size_t KernelCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  CODESIGN_ASSERT(InFlight.empty(),
                  "KernelCache::clear with compilations in flight");
  Entries.clear();
  Hits = Misses = Coalesced = 0;
}

} // namespace codesign::frontend
