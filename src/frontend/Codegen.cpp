#include "frontend/Codegen.hpp"

#include "ir/IRBuilder.hpp"
#include "rt/RuntimeABI.hpp"

namespace codesign::frontend {

using namespace ir;
namespace abi = codesign::rt;

bool isSpmdCompatible(const KernelSpec &Spec) {
  if (Spec.Stmts.empty())
    return false;
  for (const Stmt &S : Spec.Stmts)
    if (S.K != StmtKind::DistributeParallelFor)
      return false;
  return true;
}

namespace {

/// Stateful lowering of one KernelSpec.
class KernelEmitter {
public:
  KernelEmitter(const KernelSpec &Spec, const CodegenOptions &Opts)
      : Spec(Spec), Opts(Opts),
        M(std::make_unique<Module>(Spec.Name + ".module")), B(*M) {}

  Expected<CodegenResult> run() {
    if (auto Err = validate())
      return *Err;
    if (Opts.RT != RuntimeKind::Native) {
      emitConfigGlobals();
      declareRuntime();
    }
    createKernel();
    switch (Opts.RT) {
    case RuntimeKind::Native:
      emitNative();
      break;
    case RuntimeKind::NewRT:
      if (isSpmdCompatible(Spec) && !Opts.ForceGenericMode)
        emitNewSpmd();
      else
        emitNewGeneric();
      break;
    case RuntimeKind::OldRT:
      emitOldGeneric();
      break;
    }
    if (Opts.RT != RuntimeKind::Native)
      dropUncalledEntryPoints();
    CodegenResult R;
    R.Kernel = K;
    R.AppModule = std::move(M);
    return R;
  }

private:
  //===--------------------------------------------------------------------===//
  // Validation
  //===--------------------------------------------------------------------===//

  std::optional<Error> validate() {
    for (const Stmt &S : Spec.Stmts) {
      if (S.K == StmtKind::For)
        return makeError("kernel '", Spec.Name,
                         "': 'for' must be nested inside 'parallel'");
      std::optional<Error> E;
      if (S.K == StmtKind::Parallel)
        E = validateParallel(S, /*Depth=*/1);
      else if (S.K == StmtKind::DistributeParallelFor)
        E = validateLoop(S, /*HasScratch=*/S.ScratchBytes > 0);
      else if (S.K != StmtKind::SetNumThreads)
        E = validateBody(S.Body, /*InLoop=*/false, /*HasScratch=*/false);
      if (E)
        return E;
    }
    if (Spec.Stmts.empty())
      return makeError("kernel '", Spec.Name, "': empty target region");
    return std::nullopt;
  }

  /// A body's arguments must be ones its region supplies under every
  /// lowering: the iteration variable and the scratch pointer only in a
  /// worksharing loop's body, the scratch pointer only in a region that
  /// allocates scratch (a direct parallel body never receives it), and a
  /// kernel argument only when the kernel has that parameter.
  std::optional<Error> validateBody(const NativeBody &Body, bool InLoop,
                                    bool HasScratch) {
    for (const BodyArg &A : Body.Args) {
      const bool IsScratch = A.K == BodyArg::Kind::Scratch;
      if (!InLoop && (IsScratch || A.K == BodyArg::Kind::IterVar))
        return makeError("kernel '", Spec.Name, "': ",
                         IsScratch ? "scratch pointer" : "iteration variable",
                         " outside a worksharing loop");
      if (IsScratch && !HasScratch)
        return makeError("kernel '", Spec.Name,
                         "': scratch pointer in a region without scratch");
      if (A.K == BodyArg::Kind::KernelArg)
        if (auto E = validateParam("body argument", A.ArgIndex))
          return E;
    }
    return std::nullopt;
  }

  /// A worksharing loop (For or DistributeParallelFor): its trip count and
  /// its body. An argument trip count must name an i64 parameter, and a
  /// loaded one must load through a pointer parameter.
  std::optional<Error> validateLoop(const Stmt &Loop, bool HasScratch) {
    const TripCount &T = Loop.Trip;
    if (T.K != TripCount::Kind::Constant) {
      if (auto E = validateParam("trip count", T.ArgIndex))
        return E;
      const ParamSpec &P = Spec.Params[T.ArgIndex];
      if (T.K == TripCount::Kind::Argument && P.Ty != Type::i64())
        return makeError("kernel '", Spec.Name, "': trip count parameter '",
                         P.Name, "' is ", P.Ty.name(), ", not i64");
      if (T.K == TripCount::Kind::LoadFromArgPtr && !P.Ty.isPointer())
        return makeError("kernel '", Spec.Name,
                         "': trip count loads through parameter '", P.Name,
                         "', which is ", P.Ty.name(), ", not a pointer");
    }
    return validateBody(Loop.Body, /*InLoop=*/true, HasScratch);
  }

  /// Fails unless the kernel has parameter #Index, which What names.
  std::optional<Error> validateParam(const char *What, unsigned Index) {
    if (Index < Spec.Params.size())
      return std::nullopt;
    return makeError("kernel '", Spec.Name, "': ", What, " names parameter #",
                     std::to_string(Index), ", but the kernel has ",
                     std::to_string(Spec.Params.size()));
  }

  std::optional<Error> validateParallel(const Stmt &P, int Depth) {
    if (P.HasDirectBody)
      if (auto E = validateBody(P.Body, /*InLoop=*/false,
                                /*HasScratch=*/false))
        return E;
    for (const Stmt &S : P.Children) {
      switch (S.K) {
      case StmtKind::Serial:
        return makeError("kernel '", Spec.Name,
                         "': serial statements inside 'parallel' are not "
                         "supported (use master/single semantics outside)");
      case StmtKind::DistributeParallelFor:
        return makeError("kernel '", Spec.Name,
                         "': combined distribute inside 'parallel'");
      case StmtKind::For:
        if (Depth > 1)
          return makeError("kernel '", Spec.Name,
                           "': worksharing inside a nested parallel");
        if (auto E = validateLoop(S, /*HasScratch=*/P.ScratchBytes > 0))
          return E;
        break;
      case StmtKind::Parallel:
        if (S.HasDirectBody) {
          // Direct-body parallels are fine at any depth.
          if (auto E = validateBody(S.Body, /*InLoop=*/false,
                                    /*HasScratch=*/false))
            return E;
          break;
        }
        if (Depth >= 2)
          return makeError("kernel '", Spec.Name,
                           "': parallel nesting deeper than two levels");
        if (auto E = validateParallel(S, Depth + 1))
          return E;
        break;
      case StmtKind::SetNumThreads:
        break;
      }
    }
    return std::nullopt;
  }

  //===--------------------------------------------------------------------===//
  // Module furniture
  //===--------------------------------------------------------------------===//

  /// The compile-time configuration globals (Figure 1: "command line
  /// options will impact the features ... that make it into the final
  /// binary"). The runtime reads these; constant folding burns them in.
  void emitConfigGlobals() {
    auto makeCfg = [&](std::string_view Name, std::int32_t V) {
      GlobalVariable *G =
          M->createGlobal(std::string(Name), AddrSpace::Constant, 4);
      G->setConstantFlag(true);
      G->setScalarInit(static_cast<std::uint32_t>(V), 4);
    };
    makeCfg(abi::DebugKindName, Opts.DebugKind);
    makeCfg(abi::AssumeTeamsOversubName,
            Opts.AssumeTeamsOversubscription ? 1 : 0);
    makeCfg(abi::AssumeThreadsOversubName,
            Opts.AssumeThreadsOversubscription ? 1 : 0);
  }

  Function *declare(std::string_view Name, Type Ret, std::vector<Type> Params) {
    if (Function *F = M->findFunction(Name))
      return F;
    return M->createFunction(std::string(Name), Ret, std::move(Params));
  }

  void declareRuntime() {
    const Type V = Type::voidTy(), P = Type::ptr(), I32 = Type::i32(),
               I64 = Type::i64();
    if (Opts.RT == RuntimeKind::NewRT) {
      declare(abi::TargetInitName, V, {I32});
      declare(abi::TargetDeinitName, V, {I32});
      declare(abi::ParallelName, V, {P, P, I32});
      declare(abi::WorkFnWaitName, P, {});
      declare(abi::WorkFnArgsName, P, {});
      declare(abi::WorkFnDoneName, V, {});
      declare(abi::DistributeForStaticLoopName, V, {P, P, I64});
      declare(abi::DistributeForGenericLoopName, V, {P, P, I64});
      declare(abi::ForStaticLoopName, V, {P, P, I64});
      declare(abi::AllocSharedName, P, {I64});
      declare(abi::FreeSharedName, V, {P, I64});
      declare(abi::SpmdParallelBeginName, V, {});
      declare(abi::SpmdParallelEndName, V, {});
      declare(abi::BroadcastPtrName, P, {P, Type::i1()});
      declare(abi::GetThreadNumName, I32, {});
      declare(abi::GetNumThreadsName, I32, {});
      declare(abi::GetTeamNumName, I32, {});
      declare(abi::GetNumTeamsName, I32, {});
      declare(abi::GetLevelName, I32, {});
      declare(abi::InParallelName, I32, {});
      declare(abi::SetNumThreadsName, V, {I32});
    } else {
      declare(abi::OldInitName, V, {I32});
      declare(abi::OldDeinitName, V, {});
      declare(abi::OldParallelName, V, {P, P, I32});
      declare(abi::OldEndParallelName, V, {});
      declare("__old_kmpc_workfn_wait", P, {});
      declare("__old_kmpc_workfn_args", P, {});
      declare("__old_kmpc_workfn_done", V, {});
      declare(abi::OldForStaticInitName, V, {P, P, P, I64});
      declare(abi::OldForStaticFiniName, V, {});
      declare(abi::OldDistributeInitName, V, {P, P, P, I64});
      declare(abi::OldGetThreadNumName, I32, {});
      declare(abi::OldGetNumThreadsName, I32, {});
      declare("__old_kmpc_data_sharing_push", P, {I64});
      declare("__old_kmpc_data_sharing_pop", V, {P, I64});
    }
  }

  /// Erase the runtime declarations nothing calls, keeping the rest in
  /// their order: the link copies only what the module references.
  void dropUncalledEntryPoints() {
    std::vector<Function *> Uncalled;
    for (const auto &F : M->functions())
      if (F->isDeclaration() && F->asValue()->useEmpty())
        Uncalled.push_back(F.get());
    for (Function *F : Uncalled)
      M->eraseFunction(F);
  }

  void createKernel() {
    std::vector<Type> ParamTys;
    ParamTys.reserve(Spec.Params.size());
    for (const ParamSpec &PS : Spec.Params)
      ParamTys.push_back(PS.Ty);
    K = M->createFunction(Spec.Name, Type::voidTy(), std::move(ParamTys));
    K->addAttr(FnAttr::Kernel);
    for (unsigned I = 0; I < Spec.Params.size(); ++I) {
      K->arg(I)->setName(Spec.Params[I].Name);
      if (Spec.Params[I].Map != ir::MapKind::None)
        K->setArgMap(I, Spec.Params[I].Map);
    }
    B.setInsertPoint(K->createBlock("entry"));
  }

  //===--------------------------------------------------------------------===//
  // Shared emission helpers
  //===--------------------------------------------------------------------===//

  Value *rtCall(std::string_view Name, std::initializer_list<Value *> Args) {
    Function *F = M->findFunction(Name);
    CODESIGN_ASSERT(F, "runtime function not declared");
    return B.call(F, std::span<Value *const>(Args.begin(), Args.size()));
  }

  /// Slots in the argument block: one per kernel parameter, plus a final
  /// slot for the scratch pointer.
  [[nodiscard]] std::uint64_t argBlockBytes() const {
    return 8 * (Spec.Params.size() + 1);
  }
  [[nodiscard]] std::int64_t scratchSlotOffset() const {
    return static_cast<std::int64_t>(8 * Spec.Params.size());
  }

  /// Store every kernel parameter into the argument block.
  void packArgs(Value *ArgsPtr) {
    for (unsigned I = 0; I < Spec.Params.size(); ++I)
      B.store(K->arg(I), B.gep(ArgsPtr, static_cast<std::int64_t>(8 * I)));
  }

  /// Source of values for BodyArg / TripCount, differing between the kernel
  /// scope (direct parameters) and outlined scope (argument block loads).
  struct ValueScope {
    /// Value of kernel parameter I.
    std::function<Value *(unsigned)> Param;
    /// Scratch pointer, or null when no scratch exists in this scope.
    Value *Scratch = nullptr;
    /// The iteration variable, or null outside loop bodies.
    Value *Iter = nullptr;
  };

  ValueScope kernelScope() {
    ValueScope S;
    S.Param = [this](unsigned I) -> Value * { return K->arg(I); };
    return S;
  }

  ValueScope outlinedScope(Function *F, Value *ArgsPtr) {
    ValueScope S;
    S.Param = [this, ArgsPtr, F](unsigned I) -> Value * {
      (void)F;
      return B.load(Spec.Params[I].Ty,
                    B.gep(ArgsPtr, static_cast<std::int64_t>(8 * I)));
    };
    S.Scratch = nullptr; // set by callers that pass scratch
    return S;
  }

  Value *emitTripCount(const TripCount &T, const ValueScope &S) {
    switch (T.K) {
    case TripCount::Kind::Constant:
      return B.i64(T.Const);
    case TripCount::Kind::Argument: {
      Value *V = S.Param(T.ArgIndex);
      CODESIGN_ASSERT(V->type() == Type::i64(),
                      "trip-count argument must be i64");
      return V;
    }
    case TripCount::Kind::LoadFromArgPtr: {
      Value *Ptr = S.Param(T.ArgIndex);
      return B.load(Type::i64(), B.gep(Ptr, T.Offset));
    }
    }
    CODESIGN_UNREACHABLE("bad trip count kind");
  }

  Value *emitBodyArg(const BodyArg &A, const ValueScope &S) {
    switch (A.K) {
    case BodyArg::Kind::IterVar:
      CODESIGN_ASSERT(S.Iter, "IterVar outside a loop body");
      return S.Iter;
    case BodyArg::Kind::KernelArg:
      return S.Param(A.ArgIndex);
    case BodyArg::Kind::Constant:
      return B.i64(A.Const);
    case BodyArg::Kind::Scratch:
      CODESIGN_ASSERT(S.Scratch, "Scratch arg without scratch allocation");
      return S.Scratch;
    case BodyArg::Kind::ThreadNum:
      switch (Opts.RT) {
      case RuntimeKind::Native:
        return B.threadId();
      case RuntimeKind::NewRT:
        return rtCall(abi::GetThreadNumName, {});
      case RuntimeKind::OldRT:
        return rtCall(abi::OldGetThreadNumName, {});
      }
      break;
    case BodyArg::Kind::NumThreads:
      switch (Opts.RT) {
      case RuntimeKind::Native:
        return B.blockDim();
      case RuntimeKind::NewRT:
        return rtCall(abi::GetNumThreadsName, {});
      case RuntimeKind::OldRT:
        return rtCall(abi::OldGetNumThreadsName, {});
      }
      break;
    case BodyArg::Kind::TeamNum:
      if (Opts.RT == RuntimeKind::NewRT)
        return rtCall(abi::GetTeamNumName, {});
      return B.blockId();
    case BodyArg::Kind::NumTeams:
      if (Opts.RT == RuntimeKind::NewRT)
        return rtCall(abi::GetNumTeamsName, {});
      return B.gridDim();
    }
    CODESIGN_UNREACHABLE("bad body arg kind");
  }

  void emitNativeBody(const NativeBody &NB, const ValueScope &S) {
    std::vector<Value *> Args;
    Args.reserve(NB.Args.size());
    for (const BodyArg &A : NB.Args)
      Args.push_back(emitBodyArg(A, S));
    B.nativeOp(NB.NativeId, Type::voidTy(),
               std::span<Value *const>(Args.data(), Args.size()), NB.Flags);
  }

  /// Create the (i64 iv, ptr args) callback for a worksharing body.
  Function *makeBodyFn(const NativeBody &NB, Value *ScratchFromSlot) {
    (void)ScratchFromSlot;
    Function *F = M->createFunction(
        Spec.Name + ".__omp_outlined_body" + std::to_string(BodyCounter++),
        Type::voidTy(), {Type::i64(), Type::ptr()});
    F->addAttr(FnAttr::Internal);
    F->addAttr(FnAttr::AlwaysInline);
    BasicBlock *Saved = B.insertBlock();
    B.setInsertPoint(F->createBlock("entry"));
    ValueScope S = outlinedScope(F, F->arg(1));
    S.Iter = F->arg(0);
    // Scratch travels in the final slot of the argument block.
    bool NeedsScratch = false;
    for (const BodyArg &A : NB.Args)
      NeedsScratch |= A.K == BodyArg::Kind::Scratch;
    if (NeedsScratch)
      S.Scratch = B.load(Type::ptr(), B.gep(F->arg(1), scratchSlotOffset()));
    emitNativeBody(NB, S);
    B.retVoid();
    B.setInsertPoint(Saved);
    return F;
  }

  /// Emit "if (Cond) { Fn() }" around a code snippet; returns with the
  /// insertion point in the merge block.
  void emitGuarded(Value *Cond, const std::function<void()> &Fn,
                   const char *Tag) {
    BasicBlock *ThenBB = K->createBlock(std::string(Tag) + ".then");
    BasicBlock *MergeBB = K->createBlock(std::string(Tag) + ".merge");
    B.condBr(Cond, ThenBB, MergeBB);
    B.setInsertPoint(ThenBB);
    Fn();
    B.br(MergeBB);
    B.setInsertPoint(MergeBB);
  }

  //===--------------------------------------------------------------------===//
  // NewRT, SPMD mode: combined distribute-parallel-for kernels
  //===--------------------------------------------------------------------===//

  void emitNewSpmd() {
    K->setExecMode(ExecMode::SPMD);
    rtCall(abi::TargetInitName, {B.i32(abi::ModeSPMD)});
    for (const Stmt &S : Spec.Stmts) {
      CODESIGN_ASSERT(S.K == StmtKind::DistributeParallelFor,
                      "SPMD kernels contain only combined loops");
      Function *BodyFn = makeBodyFn(S.Body, nullptr);
      // Argument block: the frontend globalizes conservatively (it cannot
      // prove the body never shares the captures); globalization
      // elimination (Section IV-A2) demotes this to a thread-private
      // alloca when the pointer provably stays with its thread.
      Value *ArgsPtr =
          rtCall(abi::AllocSharedName,
                 {B.i64(static_cast<std::int64_t>(argBlockBytes()))});
      packArgs(ArgsPtr);
      Value *Scratch = nullptr;
      if (S.ScratchBytes > 0) {
        // One allocation per team, published to everyone.
        Value *IsLead = B.icmpEQ(B.threadId(), B.i32(0));
        BasicBlock *AllocBB = K->createBlock("scratch.alloc");
        BasicBlock *ContBB = K->createBlock("scratch.cont");
        BasicBlock *Here = B.insertBlock();
        B.condBr(IsLead, AllocBB, ContBB);
        B.setInsertPoint(AllocBB);
        Value *P = rtCall(abi::AllocSharedName,
                          {B.i64(static_cast<std::int64_t>(S.ScratchBytes))});
        B.br(ContBB);
        B.setInsertPoint(ContBB);
        Instruction *Phi = B.phi(Type::ptr());
        Phi->addIncoming(P, AllocBB);
        Phi->addIncoming(M->undef(Type::ptr()), Here);
        Scratch = rtCall(abi::BroadcastPtrName, {Phi, IsLead});
        B.store(Scratch, B.gep(ArgsPtr, scratchSlotOffset()));
      }
      // The trip count is evaluated before the parallel region begins —
      // when it is loaded from memory, that access pins the region-begin
      // barrier (Section VII's GridMini/XSBench discussion).
      Value *Trip = emitTripCount(S.Trip, kernelScope());
      rtCall(abi::SpmdParallelBeginName, {});
      rtCall(abi::DistributeForStaticLoopName,
             {BodyFn->asValue(), ArgsPtr, Trip});
      rtCall(abi::SpmdParallelEndName, {});
      if (S.ScratchBytes > 0) {
        Value *IsLead = B.icmpEQ(B.threadId(), B.i32(0));
        Value *Captured = Scratch;
        const std::int64_t Bytes =
            static_cast<std::int64_t>(S.ScratchBytes);
        emitGuarded(
            IsLead,
            [&] { rtCall(abi::FreeSharedName, {Captured, B.i64(Bytes)}); },
            "scratch.free");
      }
      rtCall(abi::FreeSharedName,
             {ArgsPtr, B.i64(static_cast<std::int64_t>(argBlockBytes()))});
    }
    rtCall(abi::TargetDeinitName, {B.i32(abi::ModeSPMD)});
    B.retVoid();
  }

  //===--------------------------------------------------------------------===//
  // NewRT, generic mode: state machine + fork/join
  //===--------------------------------------------------------------------===//

  void emitNewGeneric() {
    K->setExecMode(ExecMode::Generic);
    rtCall(abi::TargetInitName, {B.i32(abi::ModeGeneric)});
    Value *Tid = B.threadId();
    Value *IsMain = B.icmpEQ(Tid, B.sub(B.blockDim(), B.i32(1)));
    BasicBlock *MainBB = K->createBlock("main");
    BasicBlock *WorkerLoop = K->createBlock("worker.loop");
    BasicBlock *WorkerExec = K->createBlock("worker.exec");
    BasicBlock *WorkerExit = K->createBlock("worker.exit");
    B.condBr(IsMain, MainBB, WorkerLoop);

    // The state machine, emitted inline so SPMDization can delete it
    // (Sections II-C and IV-A3).
    B.setInsertPoint(WorkerLoop);
    Value *Fn = rtCall(abi::WorkFnWaitName, {});
    Value *Done = B.icmpEQ(B.ptrToInt(Fn), B.i64(0));
    B.condBr(Done, WorkerExit, WorkerExec);
    B.setInsertPoint(WorkerExec);
    Value *WArgs = rtCall(abi::WorkFnArgsName, {});
    Value *Size = rtCall(abi::GetNumThreadsName, {});
    Value *Participates = B.icmpSLT(B.threadId(), Size);
    emitGuarded(
        Participates,
        [&] { B.callIndirect(Type::voidTy(), Fn, {WArgs}); },
        "worker.part");
    rtCall(abi::WorkFnDoneName, {});
    B.br(WorkerLoop);
    B.setInsertPoint(WorkerExit);
    B.retVoid();

    // The sequential main-thread region.
    B.setInsertPoint(MainBB);
    for (const Stmt &S : Spec.Stmts)
      emitGenericTopLevelStmt(S);
    rtCall(abi::TargetDeinitName, {B.i32(abi::ModeGeneric)});
    B.retVoid();
  }

  void emitGenericTopLevelStmt(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Serial: {
      ValueScope Scope = kernelScope();
      emitNativeBody(S.Body, Scope);
      return;
    }
    case StmtKind::SetNumThreads:
      rtCall(abi::SetNumThreadsName, {B.i32(S.IcvValue)});
      return;
    case StmtKind::Parallel:
      emitGenericParallel(S);
      return;
    case StmtKind::DistributeParallelFor: {
      // Combined loop in generic mode: a parallel region whose outlined
      // function runs the league-wide worksharing loop over the workers.
      Stmt AsParallel = Stmt::parallel({Stmt::forLoop(S.Trip, S.Body)}, 0,
                                       S.ScratchBytes);
      AsParallel.Children[0].K = StmtKind::For;
      emitGenericParallel(AsParallel, /*CombinedDistribute=*/true);
      return;
    }
    case StmtKind::For:
      CODESIGN_UNREACHABLE("validated: no bare for at top level");
    }
  }

  void emitGenericParallel(const Stmt &P, bool CombinedDistribute = false) {
    // Globalized argument block: the main thread packs it, the workers read
    // it — this is variable globalization (Section IV-A2) and uses the
    // shared-memory stack (Section III-D).
    Value *ArgsPtr =
        rtCall(abi::AllocSharedName,
               {B.i64(static_cast<std::int64_t>(argBlockBytes()))});
    packArgs(ArgsPtr);
    Value *Scratch = nullptr;
    if (P.ScratchBytes > 0) {
      Scratch = rtCall(abi::AllocSharedName,
                       {B.i64(static_cast<std::int64_t>(P.ScratchBytes))});
      B.store(Scratch, B.gep(ArgsPtr, scratchSlotOffset()));
    }
    Function *Outlined = makeOutlinedParallel(P, CombinedDistribute);
    rtCall(abi::ParallelName,
           {Outlined->asValue(), ArgsPtr, B.i32(P.NumThreadsClause)});
    if (Scratch)
      rtCall(abi::FreeSharedName,
             {Scratch, B.i64(static_cast<std::int64_t>(P.ScratchBytes))});
    rtCall(abi::FreeSharedName,
           {ArgsPtr, B.i64(static_cast<std::int64_t>(argBlockBytes()))});
  }

  Function *makeOutlinedParallel(const Stmt &P, bool CombinedDistribute) {
    Function *F = M->createFunction(
        Spec.Name + ".__omp_outlined" + std::to_string(OutlinedCounter++),
        Type::voidTy(), {Type::ptr()});
    F->addAttr(FnAttr::Internal);
    F->addAttr(FnAttr::AlwaysInline);
    BasicBlock *Saved = B.insertBlock();
    B.setInsertPoint(F->createBlock("entry"));
    if (P.HasDirectBody) {
      ValueScope Scope = outlinedScope(F, F->arg(0));
      emitNativeBody(P.Body, Scope);
    }
    for (const Stmt &S : P.Children) {
      switch (S.K) {
      case StmtKind::For: {
        Function *BodyFn = makeBodyFn(S.Body, nullptr);
        ValueScope Scope = outlinedScope(F, F->arg(0));
        Value *Trip = emitTripCount(S.Trip, Scope);
        rtCall(CombinedDistribute ? abi::DistributeForGenericLoopName
                                  : abi::ForStaticLoopName,
               {BodyFn->asValue(), F->arg(0), Trip});
        break;
      }
      case StmtKind::SetNumThreads:
        rtCall(abi::SetNumThreadsName, {B.i32(S.IcvValue)});
        break;
      case StmtKind::Parallel: {
        // Nested parallel: serialized by the runtime with an individual
        // thread ICV state (Figure 4 / Section III-E).
        Function *Nested = makeOutlinedParallel(S, false);
        rtCall(abi::ParallelName,
               {Nested->asValue(), F->arg(0), B.i32(S.NumThreadsClause)});
        break;
      }
      default:
        CODESIGN_UNREACHABLE("validated parallel child");
      }
    }
    B.retVoid();
    B.setInsertPoint(Saved);
    return F;
  }

  //===--------------------------------------------------------------------===//
  // OldRT, generic mode only
  //===--------------------------------------------------------------------===//

  void emitOldGeneric() {
    K->setExecMode(ExecMode::Generic);
    rtCall(abi::OldInitName, {B.i32(0)});
    Value *Tid = B.threadId();
    Value *IsMain = B.icmpEQ(Tid, B.sub(B.blockDim(), B.i32(1)));
    BasicBlock *MainBB = K->createBlock("main");
    BasicBlock *WorkerLoop = K->createBlock("worker.loop");
    BasicBlock *WorkerExec = K->createBlock("worker.exec");
    BasicBlock *WorkerExit = K->createBlock("worker.exit");
    B.condBr(IsMain, MainBB, WorkerLoop);

    B.setInsertPoint(WorkerLoop);
    Value *Fn = rtCall("__old_kmpc_workfn_wait", {});
    Value *Done = B.icmpEQ(B.ptrToInt(Fn), B.i64(0));
    B.condBr(Done, WorkerExit, WorkerExec);
    B.setInsertPoint(WorkerExec);
    Value *WArgs = rtCall("__old_kmpc_workfn_args", {});
    Value *Size = rtCall(abi::OldGetNumThreadsName, {});
    Value *Participates = B.icmpSLT(B.threadId(), Size);
    emitGuarded(
        Participates,
        [&] { B.callIndirect(Type::voidTy(), Fn, {WArgs}); },
        "worker.part");
    rtCall("__old_kmpc_workfn_done", {});
    B.br(WorkerLoop);
    B.setInsertPoint(WorkerExit);
    B.retVoid();

    B.setInsertPoint(MainBB);
    for (const Stmt &S : Spec.Stmts)
      emitOldTopLevelStmt(S);
    rtCall(abi::OldDeinitName, {});
    B.retVoid();
  }

  void emitOldTopLevelStmt(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Serial:
      emitNativeBody(S.Body, kernelScope());
      return;
    case StmtKind::SetNumThreads:
      return; // the legacy runtime ignores it on the device
    case StmtKind::Parallel:
      emitOldParallel(S);
      return;
    case StmtKind::DistributeParallelFor: {
      Stmt AsParallel = Stmt::parallel({Stmt::forLoop(S.Trip, S.Body)}, 0,
                                       S.ScratchBytes);
      emitOldParallel(AsParallel, /*CombinedDistribute=*/true);
      return;
    }
    case StmtKind::For:
      CODESIGN_UNREACHABLE("validated: no bare for at top level");
    }
  }

  void emitOldParallel(const Stmt &P, bool CombinedDistribute = false) {
    Value *ArgsPtr =
        rtCall("__old_kmpc_data_sharing_push",
               {B.i64(static_cast<std::int64_t>(argBlockBytes()))});
    packArgs(ArgsPtr);
    Value *Scratch = nullptr;
    if (P.ScratchBytes > 0) {
      Scratch = rtCall("__old_kmpc_data_sharing_push",
                       {B.i64(static_cast<std::int64_t>(P.ScratchBytes))});
      B.store(Scratch, B.gep(ArgsPtr, scratchSlotOffset()));
    }
    Function *Outlined = makeOldOutlined(P, CombinedDistribute);
    rtCall(abi::OldParallelName,
           {Outlined->asValue(), ArgsPtr, B.i32(P.NumThreadsClause)});
    rtCall(abi::OldEndParallelName, {});
    if (Scratch)
      rtCall("__old_kmpc_data_sharing_pop",
             {Scratch, B.i64(static_cast<std::int64_t>(P.ScratchBytes))});
    rtCall("__old_kmpc_data_sharing_pop",
           {ArgsPtr, B.i64(static_cast<std::int64_t>(argBlockBytes()))});
  }

  Function *makeOldOutlined(const Stmt &P, bool CombinedDistribute) {
    Function *F = M->createFunction(
        Spec.Name + ".__old_outlined" + std::to_string(OutlinedCounter++),
        Type::voidTy(), {Type::ptr()});
    F->addAttr(FnAttr::Internal);
    BasicBlock *Saved = B.insertBlock();
    B.setInsertPoint(F->createBlock("entry"));
    if (P.HasDirectBody) {
      ValueScope Scope = outlinedScope(F, F->arg(0));
      emitNativeBody(P.Body, Scope);
    }
    for (const Stmt &S : P.Children) {
      switch (S.K) {
      case StmtKind::For:
        emitOldWorksharingLoop(F, S, CombinedDistribute);
        break;
      case StmtKind::Parallel: {
        // The legacy runtime serializes nested parallels by direct call.
        Function *Nested = makeOldOutlined(S, false);
        B.call(Nested, {F->arg(0)});
        break;
      }
      case StmtKind::SetNumThreads:
        break;
      default:
        CODESIGN_UNREACHABLE("validated parallel child");
      }
    }
    B.retVoid();
    B.setInsertPoint(Saved);
    return F;
  }

  /// The legacy memory-out-parameter worksharing pattern: lb/ub/stride
  /// round-trip through local memory and the loop lives in application IR.
  void emitOldWorksharingLoop(Function *F, const Stmt &S,
                              bool CombinedDistribute) {
    Function *BodyFn = makeBodyFn(S.Body, nullptr);
    Value *PLb = B.allocaBytes(8, "plb");
    Value *PUb = B.allocaBytes(8, "pub");
    Value *PStride = B.allocaBytes(8, "pstride");
    ValueScope Scope = outlinedScope(F, F->arg(0));
    Value *Trip = emitTripCount(S.Trip, Scope);
    rtCall(CombinedDistribute ? abi::OldDistributeInitName
                              : abi::OldForStaticInitName,
           {PLb, PUb, PStride, Trip});
    Value *Lb = B.load(Type::i64(), PLb);
    Value *Ub = B.load(Type::i64(), PUb);
    Value *Stride = B.load(Type::i64(), PStride);

    BasicBlock *Pre = B.insertBlock();
    BasicBlock *Header = F->createBlock("oldws.header");
    BasicBlock *Body = F->createBlock("oldws.body");
    BasicBlock *Exit = F->createBlock("oldws.exit");
    B.br(Header);
    B.setInsertPoint(Header);
    Instruction *IV = B.phi(Type::i64());
    // Clamp against the real trip count too (the blocked schedule can
    // produce Lb beyond N for late threads).
    Value *InRange = B.and_(B.icmpSLT(IV, Ub), B.icmpSLT(IV, Trip));
    B.condBr(InRange, Body, Exit);
    B.setInsertPoint(Body);
    B.call(BodyFn, {IV, F->arg(0)});
    Value *Next = B.add(IV, Stride);
    B.br(Header);
    IV->addIncoming(Lb, Pre);
    IV->addIncoming(Next, Body);
    B.setInsertPoint(Exit);
    rtCall(abi::OldForStaticFiniName, {});
  }

  //===--------------------------------------------------------------------===//
  // Native (CUDA-style) lowering: no runtime at all
  //===--------------------------------------------------------------------===//

  void emitNative() {
    K->setExecMode(ExecMode::SPMD);
    for (const Stmt &S : Spec.Stmts)
      emitNativeStmt(S);
    B.retVoid();
  }

  Value *nativeScratch(std::uint64_t Bytes) {
    // CUDA __shared__ array: a static shared global per scratch user.
    GlobalVariable *G = M->createGlobal(
        Spec.Name + ".smem" + std::to_string(ScratchCounter++),
        AddrSpace::Shared, Bytes, 16);
    return G;
  }

  void emitNativeStmt(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Serial: {
      // Once per team: leader executes, then a barrier publishes effects.
      Value *IsLead = B.icmpEQ(B.threadId(), B.i32(0));
      emitGuarded(
          IsLead, [&] { emitNativeBody(S.Body, kernelScope()); },
          "serial");
      B.alignedBarrier(0);
      return;
    }
    case StmtKind::SetNumThreads:
      return; // meaningless without a runtime
    case StmtKind::Parallel: {
      ValueScope Scope = kernelScope();
      if (S.ScratchBytes > 0)
        Scope.Scratch = nativeScratch(S.ScratchBytes);
      if (S.HasDirectBody)
        emitNativeBody(S.Body, Scope);
      for (const Stmt &C : S.Children)
        emitNativeParallelChild(C, Scope);
      return;
    }
    case StmtKind::DistributeParallelFor: {
      ValueScope Scope = kernelScope();
      if (S.ScratchBytes > 0)
        Scope.Scratch = nativeScratch(S.ScratchBytes);
      Value *Trip = emitTripCount(S.Trip, Scope);
      emitNativeGridStrideLoop(S.Body, Trip, Scope, /*LeagueWide=*/true);
      return;
    }
    case StmtKind::For:
      CODESIGN_UNREACHABLE("validated: no bare for at top level");
    }
  }

  void emitNativeParallelChild(const Stmt &C, ValueScope &Scope) {
    switch (C.K) {
    case StmtKind::For: {
      Value *Trip = emitTripCount(C.Trip, Scope);
      emitNativeGridStrideLoop(C.Body, Trip, Scope, /*LeagueWide=*/false);
      B.alignedBarrier(0); // worksharing join
      return;
    }
    case StmtKind::Parallel: {
      // Nested parallelism has no CUDA equivalent: inline sequentially.
      if (C.HasDirectBody)
        emitNativeBody(C.Body, Scope);
      for (const Stmt &CC : C.Children)
        emitNativeParallelChild(CC, Scope);
      return;
    }
    case StmtKind::SetNumThreads:
      return;
    default:
      CODESIGN_UNREACHABLE("validated parallel child");
    }
  }

  /// The CUDA idiom: for (i = gid; i < n; i += total) body(i);
  void emitNativeGridStrideLoop(const NativeBody &NB, Value *Trip,
                                ValueScope &Scope, bool LeagueWide) {
    Value *Tid = B.zext(B.threadId(), Type::i64());
    Value *Dim = B.zext(B.blockDim(), Type::i64());
    Value *IV0 = Tid;
    Value *Stride = Dim;
    if (LeagueWide) {
      Value *Bid = B.zext(B.blockId(), Type::i64());
      Value *Grid = B.zext(B.gridDim(), Type::i64());
      IV0 = B.add(B.mul(Bid, Dim), Tid);
      Stride = B.mul(Grid, Dim);
    }
    BasicBlock *Pre = B.insertBlock();
    BasicBlock *Header = K->createBlock("gs.header");
    BasicBlock *Body = K->createBlock("gs.body");
    BasicBlock *Exit = K->createBlock("gs.exit");
    B.br(Header);
    B.setInsertPoint(Header);
    Instruction *IV = B.phi(Type::i64());
    B.condBr(B.icmpSLT(IV, Trip), Body, Exit);
    B.setInsertPoint(Body);
    ValueScope BodyScope = Scope;
    BodyScope.Iter = IV;
    emitNativeBody(NB, BodyScope);
    Value *Next = B.add(IV, Stride);
    B.br(Header);
    IV->addIncoming(IV0, Pre);
    IV->addIncoming(Next, Body);
    B.setInsertPoint(Exit);
  }

  const KernelSpec &Spec;
  const CodegenOptions &Opts;
  std::unique_ptr<Module> M;
  IRBuilder B;
  Function *K = nullptr;
  unsigned BodyCounter = 0;
  unsigned OutlinedCounter = 0;
  unsigned ScratchCounter = 0;
};

} // namespace

Expected<CodegenResult> emitKernel(const KernelSpec &Spec,
                                   const CodegenOptions &Options) {
  return KernelEmitter(Spec, Options).run();
}

} // namespace codesign::frontend
