//===- vgpu/BytecodeExecutor.cpp - Fast-tier team execution ----------------===//
//
// A register-machine VM over vgpu/Bytecode.hpp programs. It supplies only
// the "advance this lane until it blocks" half of team execution; the
// scheduler, the barrier rendezvous, memory resolution and accounting, the
// race shadow, native ops and the value encoding are the team model's
// (TeamModel.hpp), shared with the tree walker and the native backend. The
// per-instruction accounting order (budget check, dynamic-instruction
// counter, op-class histogram) and the trap messages match the tree
// walker's; the differential tests pin every proxy app's outputs, metrics
// and profiles across both.
//
//===----------------------------------------------------------------------===//
#include "vgpu/BytecodeExecutor.hpp"

#include "ir/BasicBlock.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::vgpu {

using ir::AtomicOp;
using ir::CmpPred;
using ir::TypeKind;

namespace {

/// The ir::TypeKind a BCInst type field encodes.
TypeKind kindOf(std::uint8_t K) { return static_cast<TypeKind>(K); }

/// Integer compare on canonical operand bits. Canonical sign-extension is
/// an order-preserving embedding for the unsigned predicates as well, so
/// raw compares suffice (same argument as the tree interpreter's ICmp).
bool evalICmp(CmpPred Pred, std::uint64_t UA, std::uint64_t UB) {
  const std::int64_t A = static_cast<std::int64_t>(UA);
  const std::int64_t B = static_cast<std::int64_t>(UB);
  switch (Pred) {
  case CmpPred::EQ:
    return UA == UB;
  case CmpPred::NE:
    return UA != UB;
  case CmpPred::SLT:
    return A < B;
  case CmpPred::SLE:
    return A <= B;
  case CmpPred::SGT:
    return A > B;
  case CmpPred::SGE:
    return A >= B;
  case CmpPred::ULT:
    return UA < UB;
  case CmpPred::ULE:
    return UA <= UB;
  case CmpPred::UGT:
    return UA > UB;
  case CmpPred::UGE:
    return UA >= UB;
  default:
    CODESIGN_UNREACHABLE("float predicate on icmp");
  }
}

/// Cycle cost of a replay-eligible operation — must agree with the charge
/// the normal execution path applies, or broadcast lanes drift.
std::uint64_t replayCost(BCOp Op, const CostModel &C) {
  switch (Op) {
  case BCOp::Mul:
    return C.Mul;
  case BCOp::SDiv:
  case BCOp::UDiv:
  case BCOp::SRem:
  case BCOp::URem:
    return C.Div;
  case BCOp::FAdd:
  case BCOp::FSub:
  case BCOp::FMul:
  case BCOp::FCmp:
  case BCOp::SIToFP:
  case BCOp::FPToSI:
  case BCOp::FPCast:
    return C.FAlu;
  case BCOp::FDiv:
    return C.FDiv;
  default:
    return C.Alu; // int ALU, compares, casts, select, gep, intrinsics
  }
}

//===----------------------------------------------------------------------===//
// Execution state
//===----------------------------------------------------------------------===//

struct BCFrame {
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
/// this deep).
struct BCStack {
  std::vector<BCFrame> Frames;
  std::uint32_t Depth = 0;
};

/// One uniform-execution log entry: either the broadcast value of a
/// warp-uniform instruction (Ctl=false) or the direction of a conditional
/// branch (Ctl=true, Bits=taken).
struct LogEntry {
  std::uint32_t PC = 0;
  bool Ctl = false;
  std::uint64_t Bits = 0;
};

/// Per-warp uniform log for the current aligned segment.
struct WarpLog {
  bool Started = false; ///< a recorder lane claimed this warp
  std::vector<LogEntry> Entries;
};

/// Bound on a warp log; a recorder that fills it simply stops recording
/// and later lanes fall back to per-lane execution.
constexpr std::size_t LogCap = 1u << 20;

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
        Stacks(NumThreads) {
    const BCFunction *KernelBC = BC.functionFor(Kernel);
    CODESIGN_ASSERT(KernelBC && KernelBC->HasBody,
                    "kernel has no bytecode body");
    const std::uint32_t WS = std::max<std::uint32_t>(Config.WarpSize, 1);
    Logs.resize((NumThreads + WS - 1) / WS);
    for (BCStack &S : Stacks) {
      BCFrame F;
      F.BF = KernelBC;
      F.Code = KernelBC->Code.data();
      F.PC = KernelBC->Entry;
      const std::vector<std::uint64_t> &Pool = Pools[KernelBC->Index];
      F.Slots.resize(KernelBC->NumSlots + Pool.size(), 0);
      std::copy(Pool.begin(), Pool.end(),
                F.Slots.begin() + KernelBC->NumSlots);
      for (unsigned A = 0; A < KernelBC->NumArgs; ++A)
        F.Slots[A] = canonBits(kindOf(KernelBC->ArgTyKinds[A]), Args[A]);
      S.Frames.push_back(std::move(F));
      S.Depth = 1;
    }
  }

  TeamRunOutcome run() {
    TeamRunOutcome Out;
    Out.Err = Team.run([this](Lane &L) { stepThread(L); },
                       [this] { startSegment(); });
    Out.Cycles = Team.teamCycles();
    return Out;
  }

private:
  /// After a rendezvous: the next segment starts team-aligned when every
  /// waiter sat at the same barrier instruction at kernel-frame depth. Only
  /// then is "the n-th dynamic instruction after the release" the same
  /// program point for every lane, which is what makes warp-uniform replay
  /// meaningful.
  void startSegment() {
    bool Aligned = true;
    std::uintptr_t Site = 0;
    for (const Lane &L : Team.Lanes) {
      if (L.Status == LaneStatus::Done)
        continue;
      if (Stacks[L.Tid].Depth != 1 || (Site && L.BarrierSite != Site))
        Aligned = false;
      Site = L.BarrierSite;
    }
    SegmentAligned = Aligned;
    for (WarpLog &Log : Logs) {
      Log.Started = false;
      Log.Entries.clear();
    }
  }

  //--- The dispatch loop ------------------------------------------------------

  void stepThread(Lane &T);

  TeamModel Team;
  const DeviceConfig &Config;
  const ModuleImage &Image;
  const BytecodeModule &BC;
  const std::vector<std::vector<std::uint64_t>> &Pools;
  std::vector<BCStack> Stacks; ///< per lane, indexed by Tid
  std::vector<std::uint64_t> NativeArgScratch;
  // Warp-uniform execution state. A segment is the run between barrier
  // rendezvous; it is "aligned" when every live thread starts it at the
  // same program point in the kernel frame (true at kernel entry).
  bool SegmentAligned = true;
  std::vector<WarpLog> Logs;
  std::vector<std::uint64_t> PhiBuf; ///< parallel-copy staging buffer
};

void BCTeamExecutor::stepThread(Lane &T) {
  const CostModel &C = Config.Costs;
  HotCounters &Cnt = Team.Cnt;
  BCStack &S = Stacks[T.Tid];
  const std::uint64_t MaxInst = Config.MaxDynamicInstPerThread;

  // Warp-uniform participation for this thread's run of the current
  // segment: the first lane of the warp to execute records, later lanes
  // replay while their branch history matches the recording.
  struct SegState {
    bool Participating = false;
    bool Recorder = false;
    std::size_t Cursor = 0;
    WarpLog *Log = nullptr;
  } Seg;
  if (SegmentAligned && S.Depth == 1 && S.Frames[0].BF->HasUniform) {
    WarpLog &L = Logs[T.Tid / std::max<std::uint32_t>(Config.WarpSize, 1)];
    Seg.Log = &L;
    Seg.Participating = true;
    if (!L.Started) {
      L.Started = true;
      L.Entries.clear();
      Seg.Recorder = true;
    }
  }

  // Verify (replayer) or record (recorder) one conditional-branch token.
  const auto CtlToken = [&](std::uint32_t PC, bool Taken) {
    if (!Seg.Participating)
      return;
    if (Seg.Recorder) {
      if (Seg.Log->Entries.size() >= LogCap) {
        Seg.Participating = false;
        return;
      }
      Seg.Log->Entries.push_back({PC, true, Taken ? 1ULL : 0ULL});
      return;
    }
    if (Seg.Cursor < Seg.Log->Entries.size()) {
      const LogEntry &E = Seg.Log->Entries[Seg.Cursor];
      if (E.Ctl && E.PC == PC && E.Bits == (Taken ? 1ULL : 0ULL)) {
        ++Seg.Cursor;
        return;
      }
    }
    Seg.Participating = false;
  };

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

    // Broadcast fast path: a replaying lane consumes the recorder's value
    // for a warp-uniform instruction instead of recomputing it, charging
    // the identical cycle cost.
    if ((I.Flags & BCFlagWarpUniform) && Seg.Participating && !Seg.Recorder) {
      bool Hit = false;
      if (Seg.Cursor < Seg.Log->Entries.size()) {
        const LogEntry &E = Seg.Log->Entries[Seg.Cursor];
        if (!E.Ctl && E.PC == F.PC) {
          ++Seg.Cursor;
          F.Slots[I.Dst] = E.Bits;
          T.Cycles += replayCost(I.Op, C);
          Hit = true;
        }
      }
      if (Hit) {
        F.PC++;
        continue;
      }
      Seg.Participating = false;
    }

    switch (I.Op) {
    //--- Integer arithmetic ---------------------------------------------------
    case BCOp::Add:
    case BCOp::Sub:
    case BCOp::Mul:
    case BCOp::SDiv:
    case BCOp::UDiv:
    case BCOp::SRem:
    case BCOp::URem:
    case BCOp::And:
    case BCOp::Or:
    case BCOp::Xor:
    case BCOp::Shl:
    case BCOp::LShr:
    case BCOp::AShr: {
      const std::uint64_t A = Ref(I.A);
      const std::uint64_t B = Ref(I.B);
      const std::uint64_t UA = zextBits(kindOf(I.TyKind), A);
      const std::uint64_t UB = zextBits(kindOf(I.TyKind), B);
      std::uint64_t R = 0;
      std::uint32_t Cost = C.Alu;
      const unsigned ShMask =
          kindOf(I.TyKind) == TypeKind::I32 ? 31 : 63;
      switch (I.Op) {
      case BCOp::Add:
        R = intops::addWrap(A, B);
        break;
      case BCOp::Sub:
        R = intops::subWrap(A, B);
        break;
      case BCOp::Mul:
        R = intops::mulWrap(A, B);
        Cost = C.Mul;
        break;
      case BCOp::SDiv:
        if (!intops::sdiv(A, B, R)) {
          Team.trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::UDiv:
        if (!intops::udiv(UA, UB, R)) {
          Team.trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::SRem:
        if (!intops::srem(A, B, R)) {
          Team.trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::URem:
        if (!intops::urem(UA, UB, R)) {
          Team.trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case BCOp::And:
        R = A & B;
        break;
      case BCOp::Or:
        R = A | B;
        break;
      case BCOp::Xor:
        R = A ^ B;
        break;
      case BCOp::Shl:
        R = UA << (UB & ShMask);
        break;
      case BCOp::LShr:
        R = UA >> (UB & ShMask);
        break;
      case BCOp::AShr:
        R = intops::ashr(A, static_cast<unsigned>(UB & ShMask));
        break;
      default:
        CODESIGN_UNREACHABLE("not an int binop");
      }
      F.Slots[I.Dst] = canonBits(kindOf(I.TyKind), R);
      T.Cycles += Cost;
      break;
    }
    //--- Float arithmetic ------------------------------------------------------
    case BCOp::FAdd:
    case BCOp::FSub:
    case BCOp::FMul:
    case BCOp::FDiv: {
      const double A = decodeF(kindOf(I.TyKind), Ref(I.A));
      const double B = decodeF(kindOf(I.TyKind), Ref(I.B));
      double R = 0;
      std::uint32_t Cost = C.FAlu;
      switch (I.Op) {
      case BCOp::FAdd:
        R = A + B;
        break;
      case BCOp::FSub:
        R = A - B;
        break;
      case BCOp::FMul:
        R = A * B;
        break;
      case BCOp::FDiv:
        R = A / B;
        Cost = C.FDiv;
        break;
      default:
        CODESIGN_UNREACHABLE("not a float binop");
      }
      F.Slots[I.Dst] = encodeF(kindOf(I.TyKind), R);
      T.Cycles += Cost;
      break;
    }
    //--- Compare / select ------------------------------------------------------
    case BCOp::ICmp: {
      F.Slots[I.Dst] =
          evalICmp(static_cast<CmpPred>(I.Pred), Ref(I.A), Ref(I.B)) ? 1 : 0;
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::FCmp: {
      const double A = decodeF(kindOf(I.SrcTyKind), Ref(I.A));
      const double B = decodeF(kindOf(I.SrcTyKind), Ref(I.B));
      bool R = false;
      switch (static_cast<CmpPred>(I.Pred)) {
      case CmpPred::OEQ:
        R = A == B;
        break;
      case CmpPred::ONE:
        R = A != B;
        break;
      case CmpPred::OLT:
        R = A < B;
        break;
      case CmpPred::OLE:
        R = A <= B;
        break;
      case CmpPred::OGT:
        R = A > B;
        break;
      case CmpPred::OGE:
        R = A >= B;
        break;
      default:
        CODESIGN_UNREACHABLE("int predicate on fcmp");
      }
      F.Slots[I.Dst] = R ? 1 : 0;
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::Select: {
      F.Slots[I.Dst] = Ref(I.A) ? Ref(I.B) : Ref(I.C);
      T.Cycles += C.Alu;
      break;
    }
    //--- Conversions -----------------------------------------------------------
    case BCOp::ZExt: {
      F.Slots[I.Dst] =
          canonBits(kindOf(I.TyKind), zextBits(kindOf(I.SrcTyKind), Ref(I.A)));
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::SExt:
    case BCOp::Trunc: {
      F.Slots[I.Dst] = canonBits(kindOf(I.TyKind), Ref(I.A));
      T.Cycles += C.Alu;
      break;
    }
    case BCOp::SIToFP: {
      F.Slots[I.Dst] = encodeF(
          kindOf(I.TyKind),
          static_cast<double>(static_cast<std::int64_t>(Ref(I.A))));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::FPToSI: {
      const double D = decodeF(kindOf(I.SrcTyKind), Ref(I.A));
      F.Slots[I.Dst] = canonBits(
          kindOf(I.TyKind), static_cast<std::uint64_t>(intops::fpToI64(D)));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::FPCast: {
      F.Slots[I.Dst] = encodeF(kindOf(I.TyKind), decodeF(kindOf(I.SrcTyKind), Ref(I.A)));
      T.Cycles += C.FAlu;
      break;
    }
    case BCOp::PtrCast: {
      F.Slots[I.Dst] = Ref(I.A);
      T.Cycles += C.Alu;
      break;
    }
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
    case BCOp::GepLoad: {
      // Fused address compute + load: both components count and charge.
      const DeviceAddr Base(Ref(I.A));
      const DeviceAddr Addr =
          Base.advance(static_cast<std::int64_t>(Ref(I.B)));
      T.Cycles += C.Alu;
      if (++T.InstCount > MaxInst) {
        Team.trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[static_cast<std::size_t>(OpClass::Memory)]++;
      const std::uint64_t V = Team.load(T, Addr, kindOf(I.TyKind), I.Size);
      if (T.Status != LaneStatus::Running)
        return;
      F.Slots[I.Dst] = V;
      break;
    }
    case BCOp::GepStore: {
      const DeviceAddr Base(Ref(I.A));
      const DeviceAddr Addr =
          Base.advance(static_cast<std::int64_t>(Ref(I.B)));
      T.Cycles += C.Alu;
      if (++T.InstCount > MaxInst) {
        Team.trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[static_cast<std::size_t>(OpClass::Memory)]++;
      Team.store(T, Addr, I.Size, Ref(I.C));
      if (T.Status != LaneStatus::Running)
        return;
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
      const bool Taken = Ref(I.A) != 0;
      if (I.Flags & BCFlagUniformBranch)
        CtlToken(F.PC, Taken);
      else
        Seg.Participating = false;
      F.PC = Taken ? I.T0 : I.T1;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::CmpBr: {
      // Fused compare + conditional branch: both components count.
      const bool R = evalICmp(static_cast<CmpPred>(I.Pred), Ref(I.A),
                              Ref(I.B));
      T.Cycles += C.Alu;
      if (++T.InstCount > MaxInst) {
        Team.trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
        return;
      }
      Cnt.DynamicInstructions++;
      Cnt.Ops[static_cast<std::size_t>(OpClass::ControlFlow)]++;
      if (I.Flags & BCFlagUniformBranch)
        CtlToken(F.PC, R);
      else
        Seg.Participating = false;
      F.PC = R ? I.T0 : I.T1;
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
        Caller.Slots[CallerDst] = canonBits(kindOf(RetTy), RetBits);
      Caller.PC = RetPC;
      T.Cycles += C.Branch;
      continue;
    }
    case BCOp::Unreachable: {
      Team.trap(T, "unreachable executed");
      return;
    }
    case BCOp::Call: {
      // The uniformity oracle assumes team-uniform arguments only for the
      // kernel itself; inside callees (and after returning) this thread no
      // longer records or replays for the rest of the segment.
      Seg.Participating = false;
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
      NewF.BF = CalleeBC;
      NewF.Code = CalleeBC->Code.data();
      NewF.PC = CalleeBC->Entry;
      NewF.RetPC = RetPC;
      NewF.CallerDst = CallerDst;
      NewF.CallerRetTy = CallerRetTy;
      const std::vector<std::uint64_t> &CalleePool = Pools[CalleeBC->Index];
      NewF.Slots.assign(CalleeBC->NumSlots + CalleePool.size(), 0);
      std::copy(CalleePool.begin(), CalleePool.end(),
                NewF.Slots.begin() + CalleeBC->NumSlots);
      for (std::uint32_t A = 0; A < NumCallArgs; ++A)
        NewF.Slots[A] = canonBits(kindOf(CalleeBC->ArgTyKinds[A]),
                                  Caller.Slots[Caller.BF->Extras[ArgBase + A]]);
      NewF.LocalWatermark = T.Local.watermark();
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
      const NativeOpResult R =
          Team.callNative(T, I.Imm, NativeArgScratch.data(), I.T1);
      if (T.Status != LaneStatus::Running)
        return;
      if (kindOf(I.TyKind) != TypeKind::Void) {
        CODESIGN_ASSERT(R.HasResult,
                        "native op did not produce its declared result");
        F.Slots[I.Dst] = canonBits(kindOf(I.TyKind), R.Bits);
      }
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

    // Record the broadcast value of a warp-uniform instruction for the
    // lanes that follow.
    if ((I.Flags & BCFlagWarpUniform) && Seg.Participating && Seg.Recorder) {
      if (Seg.Log->Entries.size() >= LogCap)
        Seg.Participating = false;
      else
        Seg.Log->Entries.push_back({F.PC, false, F.Slots[I.Dst]});
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
