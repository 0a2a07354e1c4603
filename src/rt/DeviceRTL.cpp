#include "rt/DeviceRTL.hpp"

#include "ir/IRBuilder.hpp"
#include "rt/RuntimeABI.hpp"

namespace codesign::rt {

using namespace ir;

namespace {

/// Emits the runtime module. Method-per-entry-point; shared helpers for the
/// conditional-write and assert-or-assume idioms.
class DeviceRTLBuilder {
public:
  DeviceRTLBuilder() : M(std::make_unique<Module>("device_rtl")), B(*M) {}

  std::unique_ptr<Module> run() {
    createGlobals();
    emitTrace();
    emitAllocShared();
    emitFreeShared();
    emitGetLevel();
    emitIcvGetters();
    emitThreadStatePush();
    emitThreadStatePop();
    emitSetNumThreads();
    emitTargetInit();
    emitTargetDeinit();
    emitWorkFnHelpers();
    emitSpmdParallelBeginEnd();
    emitBroadcastPtr();
    emitParallel();
    emitDistributeForStaticLoop();
    emitForStaticLoop();
    emitDistributeForGenericLoop();
    return std::move(M);
  }

private:
  //===--------------------------------------------------------------------===//
  // Globals
  //===--------------------------------------------------------------------===//

  void createGlobals() {
    SpmdFlag = M->createGlobal(std::string(SpmdFlagName), AddrSpace::Shared, 4);
    TeamState = M->createGlobal(std::string(TeamStateName), AddrSpace::Shared,
                                TeamStateLayout::Size);
    ThreadStates = M->createGlobal(std::string(ThreadStatesName),
                                   AddrSpace::Shared, 8 * MaxThreadsPerTeam);
    SharedStack = M->createGlobal(std::string(SharedStackName),
                                  AddrSpace::Shared, SharedStackBytes, 16);
    StackTop = M->createGlobal(std::string(StackTopName), AddrSpace::Shared, 8);
    Dummy = M->createGlobal(std::string(DummyName), AddrSpace::Shared, 8);
    BcastSlot =
        M->createGlobal(std::string(BroadcastSlotName), AddrSpace::Shared, 8);

    // Compile-time configuration; the frontend emits the same globals into
    // the application module with the user's values, which take precedence
    // at link time. Defaults: release build, no assumptions.
    auto *DebugKind = M->createGlobal(std::string(DebugKindName),
                                      AddrSpace::Constant, 4);
    DebugKind->setConstantFlag(true);
    auto *TeamsOversub = M->createGlobal(std::string(AssumeTeamsOversubName),
                                         AddrSpace::Constant, 4);
    TeamsOversub->setConstantFlag(true);
    auto *ThreadsOversub = M->createGlobal(
        std::string(AssumeThreadsOversubName), AddrSpace::Constant, 4);
    ThreadsOversub->setConstantFlag(true);

    // Host-readable per-entry-point trace counters.
    auto *Trace = M->createGlobal(
        std::string(TraceCountsName), AddrSpace::Global,
        8 * static_cast<std::uint64_t>(TraceSlot::NumSlots));
    Trace->setInternal(false); // the host runtime reads it back
  }

  //===--------------------------------------------------------------------===//
  // Shared emission idioms
  //===--------------------------------------------------------------------===//

  /// Create an entry point with the standard attributes.
  Function *makeFn(std::string_view Name, Type Ret, std::vector<Type> Params) {
    Function *F = M->createFunction(std::string(Name), Ret, std::move(Params));
    F->addAttr(FnAttr::AlwaysInline);
    F->addAttr(FnAttr::Internal);
    B.setInsertPoint(F->createBlock("entry"));
    return F;
  }

  /// Pointer to a field of the team state.
  Value *teamField(std::int64_t Offset) { return B.gep(TeamState, Offset); }

  /// Conditional write via dummy pointer (Figure 7b): the store always
  /// executes; the *location* is conditional. This keeps the write
  /// dominating the following broadcast barrier.
  void condWrite(Value *Ptr, Value *V, Value *Cond) {
    Value *Target = B.select(Cond, Ptr, Dummy);
    B.store(V, Target);
  }

  /// Debug-aware check (Section III-G): assertion in debug builds, plain
  /// assumption in release builds. The branch on @__omp_rtl_debug_kind is
  /// statically folded by the optimizer either way.
  void assertOrAssume(Function *F, Value *Cond, std::string Msg) {
    Value *DK = B.load(Type::i32(), M->findGlobal(DebugKindName));
    Value *Checking =
        B.icmpNE(B.and_(DK, B.i32(DebugAssertions)), B.i32(0));
    BasicBlock *CheckBB = F->createBlock("assert.check");
    BasicBlock *AssumeBB = F->createBlock("assert.assume");
    BasicBlock *ContBB = F->createBlock("assert.cont");
    B.condBr(Checking, CheckBB, AssumeBB);
    B.setInsertPoint(CheckBB);
    B.assertCond(Cond, std::move(Msg));
    B.br(ContBB);
    B.setInsertPoint(AssumeBB);
    B.assume(Cond);
    B.br(ContBB);
    B.setInsertPoint(ContBB);
  }

  /// Call the trace hook with a slot id.
  void trace(TraceSlot Slot) {
    B.call(TraceFn, {B.i64(static_cast<std::int64_t>(Slot))});
  }

  /// Pointer to this thread's slot in the thread-states array.
  Value *threadStateSlot() {
    Value *Tid = B.zext(B.threadId(), Type::i64());
    return B.gep(ThreadStates, B.mul(Tid, B.i64(8)));
  }

  //===--------------------------------------------------------------------===//
  // Entry points
  //===--------------------------------------------------------------------===//

  /// __kmpc_trace(slot): count runtime entries when function tracing is
  /// enabled (debug kind bit 1). Statically dead in release builds.
  void emitTrace() {
    TraceFn = makeFn("__kmpc_trace", Type::voidTy(), {Type::i64()});
    Function *F = TraceFn;
    Value *DK = B.load(Type::i32(), M->findGlobal(DebugKindName));
    Value *Tracing =
        B.icmpNE(B.and_(DK, B.i32(DebugFunctionTracing)), B.i32(0));
    BasicBlock *DoBB = F->createBlock("trace.do");
    BasicBlock *Done = F->createBlock("trace.done");
    B.condBr(Tracing, DoBB, Done);
    B.setInsertPoint(DoBB);
    Value *Slot =
        B.gep(M->findGlobal(TraceCountsName), B.mul(F->arg(0), B.i64(8)));
    B.atomicRMW(AtomicOp::Add, Slot, B.i64(1));
    B.br(Done);
    B.setInsertPoint(Done);
    B.retVoid();
  }

  /// __kmpc_alloc_shared(size): bump the shared stack; fall back to the
  /// device heap when full (Section III-D).
  void emitAllocShared() {
    Function *F = makeFn(AllocSharedName, Type::ptr(), {Type::i64()});
    // Not AlwaysInline: globalization elimination (Section IV-A2) must
    // still see __kmpc_alloc_shared call sites to demote them; LLVM
    // likewise inlines the data-sharing entry points late.
    F->removeAttr(FnAttr::AlwaysInline);
    trace(TraceSlot::AllocShared);
    Value *Aligned =
        B.and_(B.add(F->arg(0), B.i64(15)), B.i64(~std::int64_t{15}));
    Value *Old = B.atomicRMW(AtomicOp::Add, StackTop, Aligned);
    Value *NewTop = B.add(Old, Aligned);
    Value *Fits = B.cmp(CmpPred::ULE, NewTop,
                        B.i64(static_cast<std::int64_t>(SharedStackBytes)));
    BasicBlock *StackBB = F->createBlock("alloc.stack");
    BasicBlock *HeapBB = F->createBlock("alloc.heap");
    B.condBr(Fits, StackBB, HeapBB);
    B.setInsertPoint(StackBB);
    B.ret(B.gep(SharedStack, Old));
    B.setInsertPoint(HeapBB);
    // Roll back the reservation, then take the slow path.
    B.atomicRMW(AtomicOp::Add, StackTop, B.sub(B.i64(0), Aligned));
    B.ret(B.mallocOp(F->arg(0)));
  }

  /// __kmpc_free_shared(ptr, size): LIFO-release stack memory; free heap
  /// fallbacks. Stack pointers are recognized by their address-space tag.
  void emitFreeShared() {
    Function *F = makeFn(FreeSharedName, Type::voidTy(),
                         {Type::ptr(), Type::i64()});
    F->removeAttr(FnAttr::AlwaysInline); // see emitAllocShared
    trace(TraceSlot::FreeShared);
    Value *Tag = B.lshr(B.ptrToInt(F->arg(0)), B.i64(62));
    Value *IsShared = B.icmpEQ(Tag, B.i64(2));
    BasicBlock *StackBB = F->createBlock("free.stack");
    BasicBlock *HeapBB = F->createBlock("free.heap");
    B.condBr(IsShared, StackBB, HeapBB);
    B.setInsertPoint(StackBB);
    Value *Aligned =
        B.and_(B.add(F->arg(1), B.i64(15)), B.i64(~std::int64_t{15}));
    B.atomicRMW(AtomicOp::Add, StackTop, B.sub(B.i64(0), Aligned));
    B.retVoid();
    B.setInsertPoint(HeapBB);
    B.freeOp(F->arg(0));
    B.retVoid();
  }

  /// Shared lookup skeleton for ICV getters: load this thread's state
  /// pointer; NULL redirects transparently to the team state (Figure 3).
  Value *icvLoad(Function *F, std::int64_t ThreadOff, std::int64_t TeamOff,
                 const char *Tag) {
    Value *TS = B.load(Type::ptr(), threadStateSlot());
    Value *Has = B.icmpNE(B.ptrToInt(TS), B.i64(0));
    BasicBlock *ThreadBB = F->createBlock(std::string(Tag) + ".thread");
    BasicBlock *TeamBB = F->createBlock(std::string(Tag) + ".team");
    BasicBlock *Merge = F->createBlock(std::string(Tag) + ".merge");
    B.condBr(Has, ThreadBB, TeamBB);
    B.setInsertPoint(ThreadBB);
    Value *FromThread = B.load(Type::i32(), B.gep(TS, ThreadOff));
    B.br(Merge);
    B.setInsertPoint(TeamBB);
    Value *FromTeam = B.load(Type::i32(), teamField(TeamOff));
    B.br(Merge);
    B.setInsertPoint(Merge);
    Instruction *Phi = B.phi(Type::i32());
    Phi->addIncoming(FromThread, ThreadBB);
    Phi->addIncoming(FromTeam, TeamBB);
    return Phi;
  }

  /// omp_get_level().
  void emitGetLevel() {
    GetLevelFn = makeFn(GetLevelName, Type::i32(), {});
    Value *Lv = icvLoad(GetLevelFn, ThreadStateLayout::LevelsVar,
                        TeamStateLayout::LevelsVar, "lv");
    B.ret(Lv);
  }

  void emitIcvGetters() {
    {
      Function *F = makeFn(GetThreadNumName, Type::i32(), {});
      Value *Lv = B.call(GetLevelFn, {});
      Value *AtOne = B.icmpEQ(Lv, B.i32(1));
      BasicBlock *InPar = F->createBlock("tn.inpar");
      BasicBlock *Serial = F->createBlock("tn.serial");
      B.condBr(AtOne, InPar, Serial);
      B.setInsertPoint(InPar);
      B.ret(B.threadId());
      B.setInsertPoint(Serial);
      B.ret(B.i32(0));
    }
    {
      Function *F = makeFn(GetNumThreadsName, Type::i32(), {});
      Value *Lv = B.call(GetLevelFn, {});
      Value *AtOne = B.icmpEQ(Lv, B.i32(1));
      BasicBlock *InPar = F->createBlock("nt.inpar");
      BasicBlock *Serial = F->createBlock("nt.serial");
      B.condBr(AtOne, InPar, Serial);
      B.setInsertPoint(InPar);
      B.ret(B.load(Type::i32(), teamField(TeamStateLayout::ParallelTeamSize)));
      B.setInsertPoint(Serial);
      B.ret(B.i32(1));
    }
    {
      makeFn(GetTeamNumName, Type::i32(), {});
      B.ret(B.blockId());
    }
    {
      makeFn(GetNumTeamsName, Type::i32(), {});
      B.ret(B.gridDim());
    }
    {
      makeFn(InParallelName, Type::i32(), {});
      Value *Lv = B.call(GetLevelFn, {});
      B.ret(B.zext(B.cmp(CmpPred::SGT, Lv, B.i32(0)), Type::i32()));
    }
  }

  /// __kmpc_thread_state_push(): materialize an individual thread ICV state
  /// on the shared stack, copying the most recent state (Section III-C).
  void emitThreadStatePush() {
    ThreadStatePushFn =
        makeFn("__kmpc_thread_state_push", Type::voidTy(), {});
    Function *F = ThreadStatePushFn;
    // Kept out-of-line: thread states are the slow path by design
    // (Section III-C), and keeping the call visible lets the optimizer
    // prove them absent instead of chasing inlined stack traffic.
    F->removeAttr(FnAttr::AlwaysInline);
    trace(TraceSlot::ThreadStatePush);
    Value *Slot = threadStateSlot();
    Value *TS = B.load(Type::ptr(), Slot);
    Value *NewState =
        B.call(M->findFunction(AllocSharedName), {B.i64(ThreadStateLayout::Size)});
    Value *Has = B.icmpNE(B.ptrToInt(TS), B.i64(0));
    BasicBlock *FromThread = F->createBlock("push.fromthread");
    BasicBlock *FromTeam = F->createBlock("push.fromteam");
    BasicBlock *Done = F->createBlock("push.done");
    B.condBr(Has, FromThread, FromTeam);

    B.setInsertPoint(FromThread);
    for (auto [Src, Dst] :
         {std::pair{ThreadStateLayout::NThreadsVar,
                    ThreadStateLayout::NThreadsVar},
          std::pair{ThreadStateLayout::LevelsVar, ThreadStateLayout::LevelsVar},
          std::pair{ThreadStateLayout::ActiveLevelsVar,
                    ThreadStateLayout::ActiveLevelsVar}})
      B.store(B.load(Type::i32(), B.gep(TS, Src)), B.gep(NewState, Dst));
    B.br(Done);

    B.setInsertPoint(FromTeam);
    B.store(B.load(Type::i32(), teamField(TeamStateLayout::NThreadsVar)),
            B.gep(NewState, ThreadStateLayout::NThreadsVar));
    B.store(B.load(Type::i32(), teamField(TeamStateLayout::LevelsVar)),
            B.gep(NewState, ThreadStateLayout::LevelsVar));
    B.store(B.load(Type::i32(), teamField(TeamStateLayout::ActiveLevelsVar)),
            B.gep(NewState, ThreadStateLayout::ActiveLevelsVar));
    B.br(Done);

    B.setInsertPoint(Done);
    B.store(TS, B.gep(NewState, ThreadStateLayout::Previous));
    B.store(NewState, Slot);
    B.retVoid();
  }

  /// __kmpc_thread_state_pop(): drop the most recent thread state.
  void emitThreadStatePop() {
    ThreadStatePopFn = makeFn("__kmpc_thread_state_pop", Type::voidTy(), {});
    ThreadStatePopFn->removeAttr(FnAttr::AlwaysInline);
    trace(TraceSlot::ThreadStatePop);
    Value *Slot = threadStateSlot();
    Value *TS = B.load(Type::ptr(), Slot);
    Value *Prev = B.load(Type::ptr(), B.gep(TS, ThreadStateLayout::Previous));
    B.store(Prev, Slot);
    B.call(M->findFunction(FreeSharedName),
           {TS, B.i64(ThreadStateLayout::Size)});
    B.retVoid();
  }

  /// omp_set_num_threads(n): the ICV-write path. Cheap while the team state
  /// is shared by everyone; forces an individual thread state inside a
  /// parallel region (the costly case the paper discourages).
  void emitSetNumThreads() {
    Function *F = makeFn(SetNumThreadsName, Type::voidTy(), {Type::i32()});
    Value *Slot = threadStateSlot();
    Value *TS = B.load(Type::ptr(), Slot);
    Value *Has = B.icmpNE(B.ptrToInt(TS), B.i64(0));
    BasicBlock *HasBB = F->createBlock("snt.has");
    BasicBlock *CheckLv = F->createBlock("snt.checklv");
    BasicBlock *TeamWide = F->createBlock("snt.teamwide");
    BasicBlock *NeedState = F->createBlock("snt.needstate");
    B.condBr(Has, HasBB, CheckLv);

    B.setInsertPoint(HasBB);
    B.store(F->arg(0), B.gep(TS, ThreadStateLayout::NThreadsVar));
    B.retVoid();

    B.setInsertPoint(CheckLv);
    Value *Lv = B.load(Type::i32(), teamField(TeamStateLayout::LevelsVar));
    B.condBr(B.icmpEQ(Lv, B.i32(0)), TeamWide, NeedState);

    // Serial region: only the main thread executes, so a team-wide update
    // is valid for all threads.
    B.setInsertPoint(TeamWide);
    B.store(F->arg(0), teamField(TeamStateLayout::NThreadsVar));
    B.retVoid();

    // Inside a parallel region: the modification is thread-private.
    B.setInsertPoint(NeedState);
    B.call(ThreadStatePushFn, {});
    Value *NewTS = B.load(Type::ptr(), Slot);
    B.store(F->arg(0), B.gep(NewTS, ThreadStateLayout::NThreadsVar));
    B.retVoid();
  }

  /// __kmpc_target_init(mode): Section III-A/III-B/III-C initialization.
  /// Executed by every thread; the mode is passed by value so no memory
  /// read happens before the first barrier.
  void emitTargetInit() {
    Function *F = makeFn(TargetInitName, Type::voidTy(), {Type::i32()});
    trace(TraceSlot::TargetInit);
    Value *Mode = F->arg(0);
    Value *Tid = B.threadId();
    Value *IsSpmd = B.icmpEQ(Mode, B.i32(ModeSPMD));
    Value *Dim = B.blockDim();
    Value *MainTid = B.select(IsSpmd, B.i32(0), B.sub(Dim, B.i32(1)));
    Value *IsMain = B.icmpEQ(Tid, MainTid);

    // SPMD-mode flag (III-A): set once by the main thread, never changed.
    condWrite(SpmdFlag, Mode, IsMain);

    // Team ICV state (III-B), initialized via conditional writes.
    condWrite(teamField(TeamStateLayout::NThreadsVar), Dim, IsMain);
    condWrite(teamField(TeamStateLayout::LevelsVar), B.i32(0), IsMain);
    condWrite(teamField(TeamStateLayout::ActiveLevelsVar), B.i32(0), IsMain);
    condWrite(teamField(TeamStateLayout::RunSchedVar), B.i32(0), IsMain);
    condWrite(teamField(TeamStateLayout::WorkFn), B.nullPtr(), IsMain);
    condWrite(teamField(TeamStateLayout::WorkArgs), B.nullPtr(), IsMain);
    // Default parallel team size: all threads in SPMD, all but the main
    // thread in generic mode.
    Value *DefaultSize = B.select(IsSpmd, Dim, B.sub(Dim, B.i32(1)));
    condWrite(teamField(TeamStateLayout::ParallelTeamSize), DefaultSize,
              IsMain);

    // Shared-stack bookkeeping (III-D).
    condWrite(StackTop, B.i64(0), IsMain);

    // Thread states (III-C): every thread marks "no individual state".
    B.store(B.nullPtr(), threadStateSlot());

    // Broadcast to the team.
    B.alignedBarrier(0);

    // Figure 8b: after the broadcast barrier the content is known; give the
    // optimizer unconditional facts (verified at runtime in debug builds).
    Value *FlagNow = B.load(Type::i32(), SpmdFlag);
    B.assume(B.icmpEQ(FlagNow, Mode));
    Value *LvNow = B.load(Type::i32(), teamField(TeamStateLayout::LevelsVar));
    B.assume(B.icmpEQ(LvNow, B.i32(0)));
    Value *SizeNow =
        B.load(Type::i32(), teamField(TeamStateLayout::ParallelTeamSize));
    B.assume(B.icmpEQ(SizeNow, DefaultSize));
    B.retVoid();
  }

  /// __kmpc_target_deinit(mode): terminate the state machine in generic
  /// mode (publish a NULL work function); plain final barrier in SPMD mode.
  void emitTargetDeinit() {
    Function *F = makeFn(TargetDeinitName, Type::voidTy(), {Type::i32()});
    trace(TraceSlot::TargetDeinit);
    Value *IsSpmd = B.icmpEQ(F->arg(0), B.i32(ModeSPMD));
    BasicBlock *SpmdBB = F->createBlock("deinit.spmd");
    BasicBlock *GenericBB = F->createBlock("deinit.generic");
    B.condBr(IsSpmd, SpmdBB, GenericBB);
    B.setInsertPoint(SpmdBB);
    B.alignedBarrier(0);
    B.retVoid();
    // Generic mode: only the main thread reaches deinit.
    B.setInsertPoint(GenericBB);
    B.store(B.nullPtr(), teamField(TeamStateLayout::WorkFn));
    B.barrier(1); // release the workers so they observe NULL and exit
    B.retVoid();
  }

  /// Worker-side state-machine helpers (the frontend emits the machine
  /// inline in the kernel so SPMDization can delete it; these keep the
  /// synchronization idioms in one place).
  void emitWorkFnHelpers() {
    {
      makeFn(WorkFnWaitName, Type::ptr(), {});
      B.barrier(1); // wait for work
      B.ret(B.load(Type::ptr(), teamField(TeamStateLayout::WorkFn)));
    }
    {
      makeFn(WorkFnArgsName, Type::ptr(), {});
      B.ret(B.load(Type::ptr(), teamField(TeamStateLayout::WorkArgs)));
    }
    {
      makeFn(WorkFnDoneName, Type::voidTy(), {});
      B.barrier(2); // join
      B.retVoid();
    }
  }

  /// SPMD-mode parallel bracket: every thread executes the region directly;
  /// only the levels-var ICV needs maintaining, via a broadcast write plus
  /// the Figure 8b assumption. With the state eliminated these barriers
  /// become redundant and the aligned-barrier elimination pass (Section
  /// IV-D) removes them.
  void emitSpmdParallelBeginEnd() {
    {
      makeFn(SpmdParallelBeginName, Type::voidTy(), {});
      // Figure 8b places a barrier between the last reads of the previous
      // state and the next update: without it the leader's write races with
      // lagging threads still reading the post-init state.
      B.alignedBarrier(0);
      Value *IsMain = B.icmpEQ(B.threadId(), B.i32(0));
      condWrite(teamField(TeamStateLayout::LevelsVar), B.i32(1), IsMain);
      condWrite(teamField(TeamStateLayout::ActiveLevelsVar), B.i32(1), IsMain);
      B.alignedBarrier(0);
      Value *Lv = B.load(Type::i32(), teamField(TeamStateLayout::LevelsVar));
      B.assume(B.icmpEQ(Lv, B.i32(1)));
      B.retVoid();
    }
    {
      makeFn(SpmdParallelEndName, Type::voidTy(), {});
      B.alignedBarrier(0); // region-end join
      Value *IsMain = B.icmpEQ(B.threadId(), B.i32(0));
      condWrite(teamField(TeamStateLayout::LevelsVar), B.i32(0), IsMain);
      condWrite(teamField(TeamStateLayout::ActiveLevelsVar), B.i32(0), IsMain);
      B.alignedBarrier(0);
      Value *Lv = B.load(Type::i32(), teamField(TeamStateLayout::LevelsVar));
      B.assume(B.icmpEQ(Lv, B.i32(0)));
      B.retVoid();
    }
  }

  /// __kmpc_broadcast_ptr(v, c): publish a pointer from the thread where C
  /// holds to the whole team (conditional write + aligned barrier + load).
  void emitBroadcastPtr() {
    Function *F =
        makeFn(BroadcastPtrName, Type::ptr(), {Type::ptr(), Type::i1()});
    condWrite(BcastSlot, F->arg(0), F->arg(1));
    B.alignedBarrier(0);
    Value *V = B.load(Type::ptr(), BcastSlot);
    B.alignedBarrier(0); // keep the slot stable until everyone has read it
    B.ret(V);
  }

  /// __kmpc_parallel(fn, args, nthreads): generic-mode parallel region,
  /// called by the team's main thread. Nested parallels serialize with an
  /// on-demand thread ICV state (Figure 4).
  void emitParallel() {
    Function *F = makeFn(ParallelName, Type::voidTy(),
                         {Type::ptr(), Type::ptr(), Type::i32()});
    trace(TraceSlot::Parallel);
    Value *Lv = B.call(GetLevelFn, {});
    Value *Nested = B.cmp(CmpPred::SGT, Lv, B.i32(0));
    BasicBlock *NestedBB = F->createBlock("par.nested");
    BasicBlock *TopBB = F->createBlock("par.top");
    B.condBr(Nested, NestedBB, TopBB);

    // Nested parallel: serialized, one thread, individual ICV state. The
    // paper strongly discourages this — it forces runtime allocation and
    // defeats state elimination (Section III-E).
    B.setInsertPoint(NestedBB);
    B.call(ThreadStatePushFn, {});
    Value *TS = B.load(Type::ptr(), threadStateSlot());
    B.store(B.add(Lv, B.i32(1)), B.gep(TS, ThreadStateLayout::LevelsVar));
    B.callIndirect(Type::voidTy(), F->arg(0), {F->arg(1)});
    B.call(ThreadStatePopFn, {});
    B.retVoid();

    // Top-level parallel: publish state, run the fork-join choreography.
    B.setInsertPoint(TopBB);
    Value *Tid = B.threadId();
    Value *Dim = B.blockDim();
    Value *IsMain = B.icmpEQ(Tid, B.sub(Dim, B.i32(1)));
    Value *NWorkers = B.sub(Dim, B.i32(1));
    Value *HasClause = B.cmp(CmpPred::SGT, F->arg(2), B.i32(0));
    Value *Clamped = B.select(B.cmp(CmpPred::SLT, F->arg(2), NWorkers),
                              F->arg(2), NWorkers);
    Value *Size = B.select(HasClause, Clamped, NWorkers);
    condWrite(teamField(TeamStateLayout::ParallelTeamSize), Size, IsMain);
    condWrite(teamField(TeamStateLayout::LevelsVar), B.i32(1), IsMain);
    condWrite(teamField(TeamStateLayout::ActiveLevelsVar), B.i32(1), IsMain);
    condWrite(teamField(TeamStateLayout::WorkArgs), F->arg(1), IsMain);
    condWrite(teamField(TeamStateLayout::WorkFn), F->arg(0), IsMain);
    B.barrier(1); // release workers
    B.barrier(2); // join
    condWrite(teamField(TeamStateLayout::LevelsVar), B.i32(0), IsMain);
    condWrite(teamField(TeamStateLayout::ActiveLevelsVar), B.i32(0), IsMain);
    B.retVoid();
  }

  /// The Figure 5 noChunkImpl, combined distribute+for scheme:
  /// each hardware thread covers iterations IV, IV+Total, ... where
  /// IV = Bid*NumThreads+Tid and Total = NumBlocks*NumThreads. The
  /// teams-oversubscription assumption breaks the loop after one
  /// iteration ("-fopenmp-assume-teams-oversubscription").
  void emitDistributeForStaticLoop() {
    Function *F = makeFn(DistributeForStaticLoopName, Type::voidTy(),
                         {Type::ptr(), Type::ptr(), Type::i64()});
    trace(TraceSlot::DistributeForStaticLoop);
    Value *NumIters = F->arg(2);
    Value *NB = B.zext(B.gridDim(), Type::i64());
    Value *NT = B.zext(B.blockDim(), Type::i64());
    Value *Bid = B.zext(B.blockId(), Type::i64());
    Value *Tid = B.zext(B.threadId(), Type::i64());
    Value *Total = B.mul(NB, NT);
    Value *IV0 = B.add(B.mul(Bid, NT), Tid);
    Value *Oversub = B.load(
        Type::i32(), M->findGlobal(AssumeTeamsOversubName));
    Value *Assumed = B.icmpNE(Oversub, B.i32(0));
    // "break the loops after asserting that the condition actually holds
    // at runtime" (Section III-F).
    Value *Holds = B.or_(B.icmpEQ(Oversub, B.i32(0)),
                         B.cmp(CmpPred::SLE, NumIters, Total));
    assertOrAssume(F, Holds,
                   "teams-oversubscription assumption violated: more "
                   "iterations than threads in the league");
    emitNoChunkLoop(F, F->arg(0), F->arg(1), NumIters, IV0, Total, Assumed);
  }

  /// Within-team work-sharing loop (`for`), same scheme over the parallel
  /// team: IV = Tid, stride = team size; threads-oversubscription breaks
  /// the loop ("-fopenmp-assume-threads-oversubscription").
  void emitForStaticLoop() {
    Function *F = makeFn(ForStaticLoopName, Type::voidTy(),
                         {Type::ptr(), Type::ptr(), Type::i64()});
    trace(TraceSlot::ForStaticLoop);
    Value *NumIters = F->arg(2);
    Value *Tid = B.zext(B.threadId(), Type::i64());
    Value *Size = B.zext(
        B.load(Type::i32(), teamField(TeamStateLayout::ParallelTeamSize)),
        Type::i64());
    Value *Oversub = B.load(
        Type::i32(), M->findGlobal(AssumeThreadsOversubName));
    Value *Assumed = B.icmpNE(Oversub, B.i32(0));
    Value *Holds = B.or_(B.icmpEQ(Oversub, B.i32(0)),
                         B.cmp(CmpPred::SLE, NumIters, Size));
    assertOrAssume(F, Holds,
                   "threads-oversubscription assumption violated: more "
                   "iterations than threads in the team");
    emitNoChunkLoop(F, F->arg(0), F->arg(1), NumIters, Tid, Size, Assumed);
  }

  /// Generic-mode variant of the combined loop: only the blockDim-1 worker
  /// threads of each team participate (the main thread runs the state
  /// machine). SPMDization rewrites calls to this into the static variant.
  void emitDistributeForGenericLoop() {
    Function *F = makeFn(DistributeForGenericLoopName, Type::voidTy(),
                         {Type::ptr(), Type::ptr(), Type::i64()});
    Value *NumIters = F->arg(2);
    Value *NB = B.zext(B.gridDim(), Type::i64());
    Value *NW =
        B.sub(B.zext(B.blockDim(), Type::i64()), B.i64(1)); // workers/team
    Value *Bid = B.zext(B.blockId(), Type::i64());
    Value *Tid = B.zext(B.threadId(), Type::i64());
    Value *Total = B.mul(NB, NW);
    Value *IV0 = B.add(B.mul(Bid, NW), Tid);
    Value *Oversub =
        B.load(Type::i32(), M->findGlobal(AssumeTeamsOversubName));
    Value *Assumed = B.icmpNE(Oversub, B.i32(0));
    emitNoChunkLoop(F, F->arg(0), F->arg(1), NumIters, IV0, Total, Assumed);
  }

  /// Core of Figure 5: if (IV < N) do { body(IV); IV += Total;
  /// if (Assumed) break; } while (IV < N);
  void emitNoChunkLoop(Function *F, Value *BodyFn, Value *Args,
                       Value *NumIters, Value *IV0, Value *Stride,
                       Value *Assumed) {
    BasicBlock *Preheader = B.insertBlock();
    BasicBlock *LoopBB = F->createBlock("ws.loop");
    BasicBlock *LatchBB = F->createBlock("ws.latch");
    BasicBlock *ExitBB = F->createBlock("ws.exit");
    Value *Enter = B.cmp(CmpPred::SLT, IV0, NumIters);
    B.condBr(Enter, LoopBB, ExitBB);

    B.setInsertPoint(LoopBB);
    Instruction *IV = B.phi(Type::i64());
    B.callIndirect(Type::voidTy(), BodyFn, {IV, Args});
    Value *Next = B.add(IV, Stride);
    // User assumption to avoid the loop (Figure 5's early break).
    B.condBr(Assumed, ExitBB, LatchBB);

    B.setInsertPoint(LatchBB);
    Value *Again = B.cmp(CmpPred::SLT, Next, NumIters);
    B.condBr(Again, LoopBB, ExitBB);

    IV->addIncoming(IV0, Preheader);
    IV->addIncoming(Next, LatchBB);

    B.setInsertPoint(ExitBB);
    B.retVoid();
  }

  std::unique_ptr<Module> M;
  IRBuilder B;

  GlobalVariable *SpmdFlag = nullptr;
  GlobalVariable *TeamState = nullptr;
  GlobalVariable *ThreadStates = nullptr;
  GlobalVariable *SharedStack = nullptr;
  GlobalVariable *StackTop = nullptr;
  GlobalVariable *Dummy = nullptr;
  GlobalVariable *BcastSlot = nullptr;
  Function *TraceFn = nullptr;
  Function *GetLevelFn = nullptr;
  Function *ThreadStatePushFn = nullptr;
  Function *ThreadStatePopFn = nullptr;
};

} // namespace

std::unique_ptr<Module> buildDeviceRTL() { return DeviceRTLBuilder().run(); }

} // namespace codesign::rt
