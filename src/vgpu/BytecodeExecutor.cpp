//===- vgpu/BytecodeExecutor.cpp - Fast-tier team execution ----------------===//
//
// A register-machine VM over vgpu/Bytecode.hpp programs. It supplies only
// the "advance this lane until it blocks" half of team execution; the
// scheduler, the barrier rendezvous, memory resolution and accounting, the
// race shadow and native ops are the team model's (TeamModel.hpp), and
// what each value operation computes is ir/Eval.hpp's, both shared with
// the tree walker and the native backend. The
// per-instruction accounting order (budget check, dynamic-instruction
// counter, op-class histogram) and the trap messages match the tree
// walker's; the differential tests pin every proxy app's outputs, metrics
// and profiles across both.
//
//===----------------------------------------------------------------------===//
#include "vgpu/BytecodeExecutor.hpp"

#include <utility>

#include "ir/BasicBlock.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::vgpu {

using ir::AtomicOp;
using ir::CmpPred;
using ir::TypeKind;

namespace {

/// The ir::TypeKind a BCInst type field encodes.
TypeKind kindOf(std::uint8_t K) { return static_cast<TypeKind>(K); }

//===----------------------------------------------------------------------===//
// Execution state
//===----------------------------------------------------------------------===//

struct BCFrame {
  /// Start an activation of Fn in this frame, reusing its slot storage:
  /// zeroed slots followed by Fn's constant pool. The caller fills the
  /// argument slots.
  void enter(const BCFunction &Fn, const std::vector<std::uint64_t> &Pool,
             std::uint32_t ResumePC, std::uint32_t Dst, std::uint8_t RetTy,
             std::uint64_t Watermark) {
    BF = &Fn;
    Code = Fn.Code.data();
    PC = Fn.Entry;
    RetPC = ResumePC;
    CallerDst = Dst;
    CallerRetTy = RetTy;
    LocalWatermark = Watermark;
    Slots.assign(Fn.NumSlots + Pool.size(), 0);
    std::copy(Pool.begin(), Pool.end(), Slots.begin() + Fn.NumSlots);
  }

  const BCFunction *BF = nullptr;
  const BCInst *Code = nullptr;
  /// Frame values: [0, NumSlots) are argument/instruction slots, followed by
  /// the function's resolved constant pool. Operand refs index this array
  /// directly, so reads are branchless.
  std::vector<std::uint64_t> Slots;
  std::uint32_t PC = 0;
  std::uint32_t RetPC = 0;             ///< caller's resume PC
  std::uint32_t CallerDst = BCNoSlot;  ///< caller slot for our return value
  std::uint8_t CallerRetTy = 0;        ///< TypeKind of the call result
  std::uint64_t LocalWatermark = 0;
};

/// One lane's frame stack, with recycling: entries [0, Depth) are live;
/// entries past Depth are retired frames kept as spares so their Slots
/// vectors retain capacity (no allocation per call once the stack has been
/// this deep, nor per team once the host thread has run one this deep).
struct BCStack {
  std::vector<BCFrame> Frames;
  std::uint32_t Depth = 0;
};

/// The frame stacks and scratch buffers of the last team this host thread
/// retired; the next team's executor takes them over (see BCTeamExecutor).
struct BCSpares {
  std::vector<BCStack> Stacks;
  std::vector<std::uint64_t> NativeArgScratch;
  std::vector<std::uint64_t> PhiBuf;
};
thread_local BCSpares Spares;

class BCTeamExecutor {
public:
  BCTeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
                 const NativeRegistry &Registry, const ModuleImage &Image,
                 const BytecodeModule &BC,
                 const std::vector<std::vector<std::uint64_t>> &Pools,
                 std::uint32_t TeamId, std::uint32_t NumTeams,
                 std::uint32_t NumThreads, const ir::Function *Kernel,
                 std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
                 LaunchProfile *Profile)
      : Team(Config, GM, Registry, Image, TeamId, NumTeams, NumThreads,
             Metrics, Profile),
        Config(Config), Image(Image), BC(BC), Pools(Pools),
        Stacks(std::exchange(Spares.Stacks, {})),
        NativeArgScratch(std::exchange(Spares.NativeArgScratch, {})),
        PhiBuf(std::exchange(Spares.PhiBuf, {})) {
    const BCFunction *KernelBC = BC.functionFor(Kernel);
    CODESIGN_ASSERT(KernelBC && KernelBC->HasBody,
                    "kernel has no bytecode body");
    // Every lane starts at the kernel entry in frame 0; retired frames
    // above it keep their slot storage for this team's calls.
    Stacks.resize(NumThreads);
    for (BCStack &S : Stacks) {
      if (S.Frames.empty())
        S.Frames.emplace_back();
      BCFrame &F = S.Frames[0];
      F.enter(*KernelBC, Pools[KernelBC->Index], /*ResumePC=*/0, BCNoSlot,
              /*RetTy=*/0, /*Watermark=*/0);
      for (unsigned A = 0; A < KernelBC->NumArgs; ++A)
        F.Slots[A] =
            eval::canonBits(kindOf(KernelBC->ArgTyKinds[A]), Args[A]);
      S.Depth = 1;
    }
  }
  BCTeamExecutor(const BCTeamExecutor &) = delete;
  BCTeamExecutor &operator=(const BCTeamExecutor &) = delete;
  ~BCTeamExecutor() {
    Spares.Stacks = std::move(Stacks);
    Spares.NativeArgScratch = std::move(NativeArgScratch);
    Spares.PhiBuf = std::move(PhiBuf);
  }

  TeamRunOutcome run() {
    TeamRunOutcome Out;
    Out.Err = Team.run([this](Lane &L) { stepThread(L); });
    Out.Cycles = Team.teamCycles();
    return Out;
  }

private:
  //--- The dispatch loop ------------------------------------------------------

  void stepThread(Lane &T);

  /// Value operation Op of I in frame F, evaluated by ir/Eval.hpp. Each
  /// opcode has its own case and instantiation, so the evaluator and its
  /// cycle charge fold down to the one operation: no second dispatch on
  /// the opcode. A division or remainder by zero traps T; the dispatch
  /// loop then stops, since T no longer runs.
  template <BCOp Op>
  [[gnu::always_inline]] void valueOp(Lane &T, BCFrame &F, const BCInst &I) {
    const std::uint64_t Ops[3] = {F.Slots[I.A], F.Slots[I.B], F.Slots[I.C]};
    std::uint64_t R = 0;
    if (const char *Trap = eval::evaluate(
            irOpcode(Op), static_cast<CmpPred>(I.Pred), kindOf(I.TyKind),
            kindOf(I.SrcTyKind), Ops, R)) {
      Team.trap(T, Trap);
      return;
    }
    F.Slots[I.Dst] = R;
    T.Cycles += valueCycles(Config.Costs, irOpcode(Op));
  }

  TeamModel Team;
  const DeviceConfig &Config;
  const ModuleImage &Image;
  const BytecodeModule &BC;
  const std::vector<std::vector<std::uint64_t>> &Pools;
  std::vector<BCStack> Stacks; ///< per lane, indexed by Tid
  std::vector<std::uint64_t> NativeArgScratch;
  std::vector<std::uint64_t> PhiBuf; ///< parallel-copy staging buffer
};

void BCTeamExecutor::stepThread(Lane &T) {
  const CostModel &C = Config.Costs;
  HotCounters &Cnt = Team.Cnt;
  BCStack &S = Stacks[T.Tid];
  const std::uint64_t MaxInst = Config.MaxDynamicInstPerThread;

  while (T.Status == LaneStatus::Running) {
    BCFrame &F = S.Frames[S.Depth - 1];
    const BCInst &I = F.Code[F.PC];

    const auto Ref = [&](std::uint32_t R) -> std::uint64_t {
      return F.Slots[R];
    };

    // Phi trampolines and structural traps run before any per-instruction
    // accounting, exactly like the tree walker's block-entry handling.
    if (I.Op == BCOp::PhiBundle) {
      const auto &Copies = F.BF->Bundles[static_cast<std::size_t>(I.Imm)];
      PhiBuf.clear();
      for (const BCFunction::PhiCopy &Cp : Copies)
        PhiBuf.push_back(Ref(Cp.Src));
      for (std::size_t Idx = 0; Idx < Copies.size(); ++Idx)
        F.Slots[Copies[Idx].Dst] = PhiBuf[Idx];
      T.Cycles += Copies.size() * C.Alu;
      F.PC = I.T0;
      continue;
    }
    if (I.Op == BCOp::PhiTrap) {
      if (I.Imm == 0) {
        Team.trap(T, "phi has no incoming value for predecessor");
        return;
      }
      if (I.Imm == 2) {
        Team.trap(T, "fell off the end of a basic block");
        return;
      }
      // Mid-block phi: counted like any other dynamic instruction, then
      // rejected.
      if (++T.InstCount > MaxInst) {
        Team.trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[I.Cls]++;
      Team.trap(T, "phi encountered mid-block");
      return;
    }

    if (++T.InstCount > MaxInst) {
      Team.trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
      return;
    }
    Cnt.DynamicInstructions++;
    Cnt.Ops[I.Cls]++;

    switch (I.Op) {
    //--- Value operations (ir/Eval.hpp), one instantiation each ---------------
    case BCOp::Add:
      valueOp<BCOp::Add>(T, F, I);
      break;
    case BCOp::Sub:
      valueOp<BCOp::Sub>(T, F, I);
      break;
    case BCOp::Mul:
      valueOp<BCOp::Mul>(T, F, I);
      break;
    case BCOp::SDiv:
      valueOp<BCOp::SDiv>(T, F, I);
      break;
    case BCOp::UDiv:
      valueOp<BCOp::UDiv>(T, F, I);
      break;
    case BCOp::SRem:
      valueOp<BCOp::SRem>(T, F, I);
      break;
    case BCOp::URem:
      valueOp<BCOp::URem>(T, F, I);
      break;
    case BCOp::And:
      valueOp<BCOp::And>(T, F, I);
      break;
    case BCOp::Or:
      valueOp<BCOp::Or>(T, F, I);
      break;
    case BCOp::Xor:
      valueOp<BCOp::Xor>(T, F, I);
      break;
    case BCOp::Shl:
      valueOp<BCOp::Shl>(T, F, I);
      break;
    case BCOp::LShr:
      valueOp<BCOp::LShr>(T, F, I);
      break;
    case BCOp::AShr:
      valueOp<BCOp::AShr>(T, F, I);
      break;
    case BCOp::FAdd:
      valueOp<BCOp::FAdd>(T, F, I);
      break;
    case BCOp::FSub:
      valueOp<BCOp::FSub>(T, F, I);
      break;
    case BCOp::FMul:
      valueOp<BCOp::FMul>(T, F, I);
      break;
    case BCOp::FDiv:
      valueOp<BCOp::FDiv>(T, F, I);
      break;
    case BCOp::ICmp:
      valueOp<BCOp::ICmp>(T, F, I);
      break;
    case BCOp::FCmp:
      valueOp<BCOp::FCmp>(T, F, I);
      break;
    case BCOp::Select:
      valueOp<BCOp::Select>(T, F, I);
      break;
    case BCOp::ZExt:
      valueOp<BCOp::ZExt>(T, F, I);
      break;
    case BCOp::SExt:
      valueOp<BCOp::SExt>(T, F, I);
      break;
    case BCOp::Trunc:
      valueOp<BCOp::Trunc>(T, F, I);
      break;
    case BCOp::SIToFP:
      valueOp<BCOp::SIToFP>(T, F, I);
      break;
    case BCOp::FPToSI:
      valueOp<BCOp::FPToSI>(T, F, I);
      break;
    case BCOp::FPCast:
      valueOp<BCOp::FPCast>(T, F, I);
      break;
    case BCOp::PtrToInt:
      valueOp<BCOp::PtrToInt>(T, F, I);
      break;
    case BCOp::IntToPtr:
      valueOp<BCOp::IntToPtr>(T, F, I);
      break;
    //--- Memory ----------------------------------------------------------------
    case BCOp::Alloca: {
      const std::uint64_t Addr =
          Team.allocLocal(T, static_cast<std::uint64_t>(I.Imm));
      if (T.Status != LaneStatus::Running)
        return;
      F.Slots[I.Dst] = Addr;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::Load: {
      const DeviceAddr A(Ref(I.A));
      const std::uint64_t V = Team.load(T, A, kindOf(I.TyKind), I.Size);
      if (T.Status != LaneStatus::Running)
        return;
      F.Slots[I.Dst] = V;
      break;
    }
    case BCOp::Store: {
      const DeviceAddr A(Ref(I.B));
      Team.store(T, A, I.Size, Ref(I.A));
      if (T.Status != LaneStatus::Running)
        return;
      break;
    }
    case BCOp::Gep: {
      const DeviceAddr Base(Ref(I.A));
      F.Slots[I.Dst] =
          Base.advance(static_cast<std::int64_t>(Ref(I.B))).Bits;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::AtomicRMW: {
      const std::uint64_t Old =
          Team.atomicRMW(T, DeviceAddr(Ref(I.A)), kindOf(I.TyKind), I.Size,
                         static_cast<AtomicOp>(I.Imm), Ref(I.B));
      if (T.Status != LaneStatus::Running)
        return;
      F.Slots[I.Dst] = Old;
      break;
    }
    case BCOp::CmpXchg: {
      const std::uint64_t Old =
          Team.cmpXchg(T, DeviceAddr(Ref(I.A)), kindOf(I.TyKind), I.Size,
                       Ref(I.B), Ref(I.C));
      if (T.Status != LaneStatus::Running)
        return;
      F.Slots[I.Dst] = Old;
      break;
    }
    case BCOp::Malloc: {
      F.Slots[I.Dst] = Team.deviceMalloc(Ref(I.A));
      T.Cycles += C.MallocCost;
      break;
    }
    case BCOp::Free: {
      Team.deviceFree(Ref(I.A));
      T.Cycles += C.MallocCost / 2;
      break;
    }
    //--- Control flow ----------------------------------------------------------
    case BCOp::Br: {
      F.PC = I.T0;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::CondBr: {
      F.PC = Ref(I.A) != 0 ? I.T0 : I.T1;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::Ret: {
      const std::uint64_t RetBits = I.A != BCNoRef ? Ref(I.A) : 0;
      const std::uint64_t Watermark = F.LocalWatermark;
      const std::uint32_t CallerDst = F.CallerDst;
      const std::uint8_t RetTy = F.CallerRetTy;
      const std::uint32_t RetPC = F.RetPC;
      --S.Depth; // frame stays behind as a spare (slot storage recycled)
      T.Local.restore(Watermark);
      if (S.Depth == 0) {
        T.Status = LaneStatus::Done;
        return;
      }
      BCFrame &Caller = S.Frames[S.Depth - 1];
      if (CallerDst != BCNoSlot)
        Caller.Slots[CallerDst] = eval::canonBits(kindOf(RetTy), RetBits);
      Caller.PC = RetPC;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::Unreachable: {
      Team.trap(T, "unreachable executed");
      return;
    }
    case BCOp::Call: {
      const BCFunction *CalleeBC = nullptr;
      const ir::Function *CalleeIR = nullptr;
      if (I.Imm > 0) {
        CalleeBC = &BC.Functions[static_cast<std::size_t>(I.Imm - 1)];
        CalleeIR = CalleeBC->F;
      } else {
        CalleeIR = Image.functionFor(DeviceAddr(Ref(I.A)));
        if (!CalleeIR) {
          Team.trap(T, "indirect call to a non-function address");
          return;
        }
        CalleeBC = BC.functionFor(CalleeIR);
        CODESIGN_ASSERT(CalleeBC, "function missing from bytecode module");
      }
      if (CalleeIR->isDeclaration()) {
        Team.trap(T, "call to unresolved external function '" +
                         CalleeIR->name() + "'");
        return;
      }
      if (CalleeIR->numArgs() != I.T1) {
        Team.trap(T, "indirect call argument count mismatch for '" +
                         CalleeIR->name() + "'");
        return;
      }
      // Everything needed from the caller frame and its instruction is
      // copied to locals BEFORE the stack may grow: emplace_back can
      // reallocate Frames, invalidating F (and any reference derived from
      // it). I stays valid — it points into the function's code array, not
      // into Frames.
      const std::uint32_t RetPC = F.PC + 1;
      const std::uint32_t CallerDst = I.Dst;
      const std::uint8_t CallerRetTy = I.TyKind;
      const std::uint32_t ArgBase = I.T0;
      const std::uint32_t NumCallArgs = I.T1;
      if (S.Frames.size() == S.Depth)
        S.Frames.emplace_back();
      BCFrame &Caller = S.Frames[S.Depth - 1];
      BCFrame &NewF = S.Frames[S.Depth];
      NewF.enter(*CalleeBC, Pools[CalleeBC->Index], RetPC, CallerDst,
                 CallerRetTy, T.Local.watermark());
      for (std::uint32_t A = 0; A < NumCallArgs; ++A)
        NewF.Slots[A] = eval::canonBits(kindOf(CalleeBC->ArgTyKinds[A]),
                                  Caller.Slots[Caller.BF->Extras[ArgBase + A]]);
      ++S.Depth;
      T.Cycles += C.CallOverhead;
      Cnt.Calls++;
      continue;
    }
    //--- GPU intrinsics --------------------------------------------------------
    case BCOp::ThreadIdOp:
      F.Slots[I.Dst] = T.Tid;
      T.Cycles += C.Alu;
      break;
    case BCOp::BlockIdOp:
      F.Slots[I.Dst] = Team.TeamId;
      T.Cycles += C.Alu;
      break;
    case BCOp::BlockDimOp:
      F.Slots[I.Dst] = Team.NumThreads;
      T.Cycles += C.Alu;
      break;
    case BCOp::GridDimOp:
      F.Slots[I.Dst] = Team.NumTeams;
      T.Cycles += C.Alu;
      break;
    case BCOp::WarpSizeOp:
      F.Slots[I.Dst] = Config.WarpSize;
      T.Cycles += C.Alu;
      break;
    //--- Synchronization -------------------------------------------------------
    case BCOp::BarrierOp:
    case BCOp::AlignedBarrierOp: {
      T.block(reinterpret_cast<std::uintptr_t>(I.Src),
              I.Op == BCOp::AlignedBarrierOp);
      F.PC++; // resume after the barrier once it releases
      return;
    }
    //--- Metadata --------------------------------------------------------------
    case BCOp::Assume: {
      if (Config.DebugChecks && Ref(I.A) == 0) {
        Team.trap(T, "compiler assumption violated at runtime (in @" +
                         I.Src->function()->name() + ", block '" +
                         I.Src->parent()->name() + "')");
        return;
      }
      break;
    }
    case BCOp::AssertFail: {
      if (Config.DebugChecks && Ref(I.A) == 0) {
        Team.trap(T, "assertion failed: " + I.Src->str());
        return;
      }
      if (Config.DebugChecks)
        T.Cycles += C.Alu;
      break;
    }
    case BCOp::TrapOp: {
      Team.trap(T, "trap executed");
      return;
    }
    case BCOp::NativeCall: {
      // Threads within a team step sequentially and native ops cannot
      // re-enter the dispatch loop, so one scratch buffer per team suffices.
      NativeArgScratch.clear();
      for (std::uint32_t A = 0; A < I.T1; ++A)
        NativeArgScratch.push_back(Ref(F.BF->Extras[I.T0 + A]));
      const std::uint64_t R = Team.callNative(
          T, I.Imm, NativeArgScratch.data(), I.T1, kindOf(I.TyKind));
      if (T.Status != LaneStatus::Running)
        return;
      if (kindOf(I.TyKind) != TypeKind::Void)
        F.Slots[I.Dst] = R;
      break;
    }
    case BCOp::PhiBundle:
    case BCOp::PhiTrap:
    default:
      // Phi trampolines are handled before accounting and no other
      // encodings exist; an unreachable default lets the compiler emit the
      // dispatch as a dense indexed jump with no range check (the
      // threaded-dispatch equivalent for a single-site interpreter loop).
#ifdef NDEBUG
      __builtin_unreachable();
#else
      CODESIGN_UNREACHABLE("handled before accounting");
#endif
    }

    F.PC++;
  }
}

} // namespace

TeamRunOutcome runBytecodeTeam(
    const DeviceConfig &Config, GlobalMemory &GM,
    const NativeRegistry &Registry, const ModuleImage &Image,
    const BytecodeModule &BC,
    const std::vector<std::vector<std::uint64_t>> &Pools,
    std::uint32_t TeamId, std::uint32_t NumTeams, std::uint32_t NumThreads,
    const ir::Function *Kernel, std::span<const std::uint64_t> Args,
    LaunchMetrics &Metrics, LaunchProfile *Profile) {
  return BCTeamExecutor(Config, GM, Registry, Image, BC, Pools, TeamId,
                        NumTeams, NumThreads, Kernel, Args, Metrics, Profile)
      .run();
}

} // namespace codesign::vgpu
