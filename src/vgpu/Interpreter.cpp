#include "vgpu/Interpreter.hpp"

#include <cstring>

#include "ir/BasicBlock.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::vgpu {

using ir::BasicBlock;
using ir::CmpPred;
using ir::Opcode;
using ir::Type;
using ir::TypeKind;
using ir::ValueKind;

//===----------------------------------------------------------------------===//
// ModuleImage
//===----------------------------------------------------------------------===//

ModuleImage::ModuleImage(const Module &M, GlobalMemory &GM) : M(M), GM(GM) {
  // Device statics: compute total size, allocate one block, lay out inside.
  std::uint64_t Off = 0;
  std::vector<std::pair<const GlobalVariable *, std::uint64_t>> DeviceStatics;
  for (const auto &G : M.globals()) {
    const std::uint64_t Align = std::max<unsigned>(G->alignment(), 1);
    if (G->space() == ir::AddrSpace::Shared) {
      SharedSize = (SharedSize + Align - 1) & ~(Align - 1);
      GlobalAddrs[G.get()] = DeviceAddr::make(MemSpace::Shared, SharedSize);
      SharedSize += G->sizeBytes();
    } else {
      Off = (Off + Align - 1) & ~(Align - 1);
      DeviceStatics.emplace_back(G.get(), Off);
      Off += G->sizeBytes();
    }
  }
  StaticsSize = Off;
  if (StaticsSize > 0) {
    auto Statics = GM.allocate(StaticsSize, 16);
    CODESIGN_ASSERT(Statics.hasValue(),
                    "device global memory exhausted laying out module statics");
    StaticsOffset = *Statics;
    for (const auto &[G, LocalOff] : DeviceStatics) {
      const std::uint64_t Abs = StaticsOffset + LocalOff;
      GlobalAddrs[G] = DeviceAddr::make(MemSpace::Global, Abs);
      if (!G->initializer().empty())
        GM.write(Abs, G->initializer());
      else
        std::memset(GM.data(Abs, G->sizeBytes()), 0, G->sizeBytes());
    }
  }
  // Shared-segment initializer template.
  SharedInit.assign(SharedSize, 0);
  for (const auto &G : M.globals()) {
    if (G->space() != ir::AddrSpace::Shared || G->initializer().empty())
      continue;
    const std::uint64_t SOff = GlobalAddrs.at(G.get()).offset();
    std::memcpy(SharedInit.data() + SOff, G->initializer().data(),
                G->initializer().size());
  }
  // Function addresses for indirect calls: tag Invalid, offset index+1.
  for (const auto &F : M.functions()) {
    FunctionIndex[F.get()] =
        static_cast<std::uint32_t>(FunctionsByIndex.size());
    FunctionsByIndex.push_back(F.get());
  }
  // Precompute every function's slot layout now so that layout() is a pure
  // read — team executors running on parallel launch threads query it
  // concurrently.
  for (const auto &F : M.functions()) {
    FunctionLayout L;
    for (const auto &A : F->args())
      L.Slots[A.get()] = L.NumSlots++;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          L.Slots[I.get()] = L.NumSlots++;
    Layouts.emplace(F.get(), std::move(L));
  }
}

ModuleImage::~ModuleImage() {
  if (StaticsSize > 0)
    GM.release(StaticsOffset);
}

DeviceAddr ModuleImage::addressOf(const GlobalVariable *G) const {
  auto It = GlobalAddrs.find(G);
  CODESIGN_ASSERT(It != GlobalAddrs.end(), "global not in image");
  return It->second;
}

void ModuleImage::initTeamShared(std::vector<std::uint8_t> &Arena) const {
  CODESIGN_ASSERT(Arena.size() >= SharedSize, "shared arena too small");
  std::fill(Arena.begin(), Arena.end(), 0);
  if (!SharedInit.empty())
    std::memcpy(Arena.data(), SharedInit.data(), SharedInit.size());
}

DeviceAddr ModuleImage::functionAddress(const Function *F) const {
  auto It = FunctionIndex.find(F);
  CODESIGN_ASSERT(It != FunctionIndex.end(), "function not in image");
  return DeviceAddr::make(MemSpace::Invalid, It->second + 1);
}

const Function *ModuleImage::functionFor(DeviceAddr A) const {
  if (A.space() != MemSpace::Invalid || A.isNull())
    return nullptr;
  const std::uint64_t Idx = A.offset() - 1;
  if (Idx >= FunctionsByIndex.size())
    return nullptr;
  return FunctionsByIndex[Idx];
}

const ModuleImage::FunctionLayout &
ModuleImage::layout(const Function *F) const {
  auto It = Layouts.find(F);
  CODESIGN_ASSERT(It != Layouts.end(), "function not in image");
  return It->second;
}

//===----------------------------------------------------------------------===//
// Team execution
//===----------------------------------------------------------------------===//

namespace {

struct Frame {
  const Function *Fn = nullptr;
  const ModuleImage::FunctionLayout *Layout = nullptr;
  const BasicBlock *Block = nullptr;
  std::size_t InstIdx = 0;
  const BasicBlock *PrevBlock = nullptr;
  std::vector<std::uint64_t> Slots;
  std::uint64_t LocalWatermark = 0;
  /// The call instruction in the *caller* frame awaiting our return value.
  const Instruction *CallSite = nullptr;
};

/// One team walking the IR: every lane advances its own frame stack, and
/// the team model schedules the lanes and owns all memory and accounting.
class TeamExecutor {
public:
  TeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
               const NativeRegistry &Registry, const ModuleImage &Image,
               std::uint32_t TeamId, std::uint32_t NumTeams,
               std::uint32_t NumThreads, const Function *Kernel,
               std::span<const std::uint64_t> Args, LaunchMetrics &Metrics,
               LaunchProfile *Profile)
      : Team(Config, GM, Registry, Image, TeamId, NumTeams, NumThreads,
             Metrics, Profile),
        Config(Config), Image(Image), Stacks(NumThreads) {
    for (std::vector<Frame> &Frames : Stacks) {
      Frame F;
      F.Fn = Kernel;
      F.Layout = &Image.layout(Kernel);
      F.Block = Kernel->entry();
      F.Slots.resize(F.Layout->NumSlots, 0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        F.Slots[F.Layout->Slots.at(Kernel->arg(A))] =
            canonBits(Kernel->arg(A)->type().kind(), Args[A]);
      Frames.push_back(std::move(F));
    }
  }

  TeamRunOutcome run() {
    TeamRunOutcome Out;
    Out.Err = Team.run([this](Lane &L) { stepThread(L, Stacks[L.Tid]); });
    Out.Cycles = Team.teamCycles();
    return Out;
  }

private:
  std::uint64_t operandValue(const Value *V, const Frame &F) const {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return F.Slots[F.Layout->Slots.at(V)];
    case ValueKind::ConstantInt:
      return canonBits(V->type().kind(),
                       static_cast<std::uint64_t>(
                           ir::cast<ir::ConstantInt>(V)->value()));
    case ValueKind::ConstantFP:
      return encodeF(V->type().kind(), ir::cast<ir::ConstantFP>(V)->value());
    case ValueKind::ConstantNull:
      return 0;
    case ValueKind::Undef:
      return 0;
    case ValueKind::GlobalVariable:
      return Image.addressOf(ir::cast<ir::GlobalVariable>(V)).Bits;
    case ValueKind::Function:
      return Image.functionAddress(Function::fromValue(V)).Bits;
    }
    CODESIGN_UNREACHABLE("unknown value kind");
  }

  void setResult(const Instruction *I, Frame &F, std::uint64_t Bits) {
    F.Slots[F.Layout->Slots.at(I)] = Bits;
  }

  /// Run lane T until it blocks at a barrier, returns from the kernel, or
  /// traps.
  void stepThread(Lane &T, std::vector<Frame> &Frames);

  /// Execute leading phis of the current block as a parallel assignment.
  void executePhis(Lane &T, Frame &F) {
    std::vector<std::pair<const Instruction *, std::uint64_t>> Results;
    std::size_t Idx = 0;
    while (Idx < F.Block->size() &&
           F.Block->inst(Idx)->opcode() == Opcode::Phi) {
      const Instruction *Phi = F.Block->inst(Idx);
      const Value *In = Phi->incomingFor(F.PrevBlock);
      if (!In) {
        Team.trap(T, "phi has no incoming value for predecessor");
        return;
      }
      Results.emplace_back(Phi, operandValue(In, F));
      ++Idx;
    }
    for (const auto &[Phi, Bits] : Results)
      setResult(Phi, F, Bits);
    F.InstIdx = Idx;
    T.Cycles += Results.size() * Config.Costs.Alu;
  }

  TeamModel Team;
  const DeviceConfig &Config;
  const ModuleImage &Image;
  std::vector<std::vector<Frame>> Stacks; ///< per lane, indexed by Tid
};

void TeamExecutor::stepThread(Lane &T, std::vector<Frame> &Frames) {
  const CostModel &C = Config.Costs;
  while (T.Status == LaneStatus::Running) {
    Frame &F = Frames.back();
    if (F.InstIdx == 0 && !F.Block->empty() &&
        F.Block->inst(0)->opcode() == Opcode::Phi) {
      executePhis(T, F);
      if (T.Status != LaneStatus::Running)
        return;
      continue;
    }
    if (F.InstIdx >= F.Block->size()) {
      Team.trap(T, "fell off the end of a basic block");
      return;
    }
    const Instruction *I = F.Block->inst(F.InstIdx);
    if (++T.InstCount > Config.MaxDynamicInstPerThread) {
      Team.trap(T, "dynamic instruction budget exceeded (runaway kernel?)");
      return;
    }
    Team.Cnt.DynamicInstructions++;
    Team.Cnt.Ops[static_cast<std::size_t>(classifyOpcode(I->opcode()))]++;

    auto opI = [&](unsigned Idx) { return operandValue(I->operand(Idx), F); };

    switch (I->opcode()) {
    //--- Integer arithmetic ---------------------------------------------------
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr: {
      const Type Ty = I->type();
      // Canonical (sign-extended) and width-adjusted (zero-extended)
      // operand views. All arithmetic runs through intops:: so signed
      // overflow and INT64_MIN / -1 have the defined wrapping semantics
      // shared with the bytecode tier (DESIGN.md section 5).
      const std::uint64_t A = opI(0);
      const std::uint64_t B = opI(1);
      const std::uint64_t UA = zextBits(Ty.kind(), A);
      const std::uint64_t UB = zextBits(Ty.kind(), B);
      std::uint64_t R = 0;
      std::uint32_t Cost = C.Alu;
      const unsigned ShMask = Ty.kind() == TypeKind::I32 ? 31 : 63;
      switch (I->opcode()) {
      case Opcode::Add:
        R = intops::addWrap(A, B);
        break;
      case Opcode::Sub:
        R = intops::subWrap(A, B);
        break;
      case Opcode::Mul:
        R = intops::mulWrap(A, B);
        Cost = C.Mul;
        break;
      case Opcode::SDiv:
        if (!intops::sdiv(A, B, R)) {
          Team.trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::UDiv:
        if (!intops::udiv(UA, UB, R)) {
          Team.trap(T, "integer division by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::SRem:
        if (!intops::srem(A, B, R)) {
          Team.trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::URem:
        if (!intops::urem(UA, UB, R)) {
          Team.trap(T, "integer remainder by zero");
          return;
        }
        Cost = C.Div;
        break;
      case Opcode::And:
        R = A & B;
        break;
      case Opcode::Or:
        R = A | B;
        break;
      case Opcode::Xor:
        R = A ^ B;
        break;
      case Opcode::Shl:
        R = UA << (UB & ShMask);
        break;
      case Opcode::LShr:
        R = UA >> (UB & ShMask);
        break;
      case Opcode::AShr:
        R = intops::ashr(A, static_cast<unsigned>(UB & ShMask));
        break;
      default:
        CODESIGN_UNREACHABLE("not an int binop");
      }
      setResult(I, F, canonBits(Ty.kind(), R));
      T.Cycles += Cost;
      break;
    }
    //--- Float arithmetic ------------------------------------------------------
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      const Type Ty = I->type();
      const double A = decodeF(Ty.kind(), opI(0));
      const double B = decodeF(Ty.kind(), opI(1));
      double R = 0;
      std::uint32_t Cost = C.FAlu;
      switch (I->opcode()) {
      case Opcode::FAdd:
        R = A + B;
        break;
      case Opcode::FSub:
        R = A - B;
        break;
      case Opcode::FMul:
        R = A * B;
        break;
      case Opcode::FDiv:
        R = A / B;
        Cost = C.FDiv;
        break;
      default:
        CODESIGN_UNREACHABLE("not a float binop");
      }
      setResult(I, F, encodeF(Ty.kind(), R));
      T.Cycles += Cost;
      break;
    }
    //--- Compare / select ------------------------------------------------------
    case Opcode::ICmp: {
      const std::int64_t A = static_cast<std::int64_t>(opI(0));
      const std::int64_t B = static_cast<std::int64_t>(opI(1));
      const std::uint64_t UA = opI(0), UB = opI(1);
      bool R = false;
      switch (I->pred()) {
      case CmpPred::EQ:
        R = UA == UB;
        break;
      case CmpPred::NE:
        R = UA != UB;
        break;
      case CmpPred::SLT:
        R = A < B;
        break;
      case CmpPred::SLE:
        R = A <= B;
        break;
      case CmpPred::SGT:
        R = A > B;
        break;
      case CmpPred::SGE:
        R = A >= B;
        break;
      // Canonical sign-extension is an order-preserving embedding for the
      // unsigned predicates as well (see tests), so raw compares suffice.
      case CmpPred::ULT:
        R = UA < UB;
        break;
      case CmpPred::ULE:
        R = UA <= UB;
        break;
      case CmpPred::UGT:
        R = UA > UB;
        break;
      case CmpPred::UGE:
        R = UA >= UB;
        break;
      default:
        CODESIGN_UNREACHABLE("float predicate on icmp");
      }
      setResult(I, F, R ? 1 : 0);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::FCmp: {
      const Type Ty = I->operand(0)->type();
      const double A = decodeF(Ty.kind(), opI(0));
      const double B = decodeF(Ty.kind(), opI(1));
      bool R = false;
      switch (I->pred()) {
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
      setResult(I, F, R ? 1 : 0);
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::Select: {
      setResult(I, F, opI(0) ? opI(1) : opI(2));
      T.Cycles += C.Alu;
      break;
    }
    //--- Conversions -------------------------------------------------------------
    case Opcode::ZExt: {
      setResult(I, F,
                canonBits(I->type().kind(),
                          zextBits(I->operand(0)->type().kind(), opI(0))));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::SExt: {
      setResult(I, F, canonBits(I->type().kind(), opI(0)));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::Trunc: {
      setResult(I, F, canonBits(I->type().kind(), opI(0)));
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::SIToFP: {
      setResult(I, F,
                encodeF(I->type().kind(),
                        static_cast<double>(static_cast<std::int64_t>(opI(0)))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::FPToSI: {
      const double D = decodeF(I->operand(0)->type().kind(), opI(0));
      setResult(I, F,
                canonBits(I->type().kind(),
                         static_cast<std::uint64_t>(intops::fpToI64(D))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::FPCast: {
      setResult(I, F,
                encodeF(I->type().kind(),
                        decodeF(I->operand(0)->type().kind(), opI(0))));
      T.Cycles += C.FAlu;
      break;
    }
    case Opcode::PtrToInt:
    case Opcode::IntToPtr: {
      setResult(I, F, opI(0));
      T.Cycles += C.Alu;
      break;
    }
    //--- Memory ------------------------------------------------------------------
    case Opcode::Alloca: {
      const std::uint64_t Addr =
          Team.allocLocal(T, static_cast<std::uint64_t>(I->imm()));
      if (T.Status != LaneStatus::Running)
        return;
      setResult(I, F, Addr);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::Load: {
      const Type Ty = I->type();
      const std::uint64_t V =
          Team.load(T, DeviceAddr(opI(0)), Ty.kind(), Ty.sizeInBytes());
      if (T.Status != LaneStatus::Running)
        return;
      setResult(I, F, V);
      break;
    }
    case Opcode::Store: {
      Team.store(T, DeviceAddr(opI(1)), I->operand(0)->type().sizeInBytes(),
                 opI(0));
      if (T.Status != LaneStatus::Running)
        return;
      break;
    }
    case Opcode::Gep: {
      const DeviceAddr Base(opI(0));
      setResult(I, F, Base.advance(static_cast<std::int64_t>(opI(1))).Bits);
      T.Cycles += C.Alu;
      break;
    }
    case Opcode::AtomicRMW: {
      const Type Ty = I->type();
      const std::uint64_t Old =
          Team.atomicRMW(T, DeviceAddr(opI(0)), Ty.kind(), Ty.sizeInBytes(),
                         I->atomicOp(), opI(1));
      if (T.Status != LaneStatus::Running)
        return;
      setResult(I, F, Old);
      break;
    }
    case Opcode::CmpXchg: {
      const Type Ty = I->type();
      const std::uint64_t Old =
          Team.cmpXchg(T, DeviceAddr(opI(0)), Ty.kind(), Ty.sizeInBytes(),
                       opI(1), opI(2));
      if (T.Status != LaneStatus::Running)
        return;
      setResult(I, F, Old);
      break;
    }
    case Opcode::Malloc: {
      setResult(I, F, Team.deviceMalloc(opI(0)));
      T.Cycles += C.MallocCost;
      break;
    }
    case Opcode::Free: {
      Team.deviceFree(opI(0));
      T.Cycles += C.MallocCost / 2;
      break;
    }
    //--- Control flow ---------------------------------------------------------
    case Opcode::Br: {
      F.PrevBlock = F.Block;
      F.Block = I->blockOperand(0);
      F.InstIdx = 0;
      T.Cycles += C.Branch;
      continue;
    }
    case Opcode::CondBr: {
      F.PrevBlock = F.Block;
      F.Block = opI(0) ? I->blockOperand(0) : I->blockOperand(1);
      F.InstIdx = 0;
      T.Cycles += C.Branch;
      continue;
    }
    case Opcode::Ret: {
      const bool HasValue = I->numOperands() == 1;
      const std::uint64_t RetBits = HasValue ? opI(0) : 0;
      const std::uint64_t Watermark = F.LocalWatermark;
      const Instruction *CallSite = F.CallSite;
      Frames.pop_back();
      T.Local.restore(Watermark);
      if (Frames.empty()) {
        T.Status = LaneStatus::Done;
        return;
      }
      Frame &Caller = Frames.back();
      if (CallSite && !CallSite->type().isVoid())
        Caller.Slots[Caller.Layout->Slots.at(CallSite)] =
            canonBits(CallSite->type().kind(), RetBits);
      Caller.InstIdx++; // resume after the call
      T.Cycles += C.Branch;
      continue;
    }
    case Opcode::Unreachable: {
      Team.trap(T, "unreachable executed");
      return;
    }
    case Opcode::Phi: {
      // Phis are handled en bloc at block entry; reaching one here means a
      // mid-block phi, which the verifier rejects.
      Team.trap(T, "phi encountered mid-block");
      return;
    }
    case Opcode::Call: {
      const Function *Callee = I->calledFunction();
      if (!Callee) {
        Callee = Image.functionFor(DeviceAddr(opI(0)));
        if (!Callee) {
          Team.trap(T, "indirect call to a non-function address");
          return;
        }
      }
      if (Callee->isDeclaration()) {
        Team.trap(T, "call to unresolved external function '" +
                         Callee->name() + "'");
        return;
      }
      if (Callee->numArgs() != I->numCallArgs()) {
        Team.trap(T, "indirect call argument count mismatch for '" +
                         Callee->name() + "'");
        return;
      }
      Frame NewF;
      NewF.Fn = Callee;
      NewF.Layout = &Image.layout(Callee);
      NewF.Block = Callee->entry();
      NewF.Slots.resize(NewF.Layout->NumSlots, 0);
      for (unsigned A = 0; A < Callee->numArgs(); ++A)
        NewF.Slots[NewF.Layout->Slots.at(Callee->arg(A))] =
            canonBits(Callee->arg(A)->type().kind(), opI(A + 1));
      NewF.LocalWatermark = T.Local.watermark();
      NewF.CallSite = I;
      Frames.push_back(std::move(NewF));
      T.Cycles += C.CallOverhead;
      Team.Cnt.Calls++;
      continue;
    }
    //--- GPU intrinsics ----------------------------------------------------------
    case Opcode::ThreadId:
      setResult(I, F, T.Tid);
      T.Cycles += C.Alu;
      break;
    case Opcode::BlockId:
      setResult(I, F, Team.TeamId);
      T.Cycles += C.Alu;
      break;
    case Opcode::BlockDim:
      setResult(I, F, Team.NumThreads);
      T.Cycles += C.Alu;
      break;
    case Opcode::GridDim:
      setResult(I, F, Team.NumTeams);
      T.Cycles += C.Alu;
      break;
    case Opcode::WarpSize:
      setResult(I, F, Config.WarpSize);
      T.Cycles += C.Alu;
      break;
    //--- Synchronization ---------------------------------------------------------
    case Opcode::Barrier:
    case Opcode::AlignedBarrier: {
      T.block(reinterpret_cast<std::uintptr_t>(I),
              I->opcode() == Opcode::AlignedBarrier);
      F.InstIdx++; // resume after the barrier once it releases
      return;
    }
    //--- Metadata ------------------------------------------------------------------
    case Opcode::Assume: {
      if (Config.DebugChecks && opI(0) == 0) {
        Team.trap(T, "compiler assumption violated at runtime (in @" +
                         F.Fn->name() + ", block '" + F.Block->name() +
                         "')");
        return;
      }
      break;
    }
    case Opcode::AssertFail: {
      if (Config.DebugChecks && opI(0) == 0) {
        Team.trap(T, "assertion failed: " + I->str());
        return;
      }
      if (Config.DebugChecks)
        T.Cycles += C.Alu;
      break;
    }
    case Opcode::Trap: {
      Team.trap(T, "trap executed");
      return;
    }
    case Opcode::NativeOp: {
      std::vector<std::uint64_t> Args;
      Args.reserve(I->numOperands());
      for (unsigned A = 0; A < I->numOperands(); ++A)
        Args.push_back(opI(A));
      const NativeOpResult R =
          Team.callNative(T, I->imm(), Args.data(), I->numOperands());
      if (T.Status != LaneStatus::Running)
        return;
      if (!I->type().isVoid()) {
        CODESIGN_ASSERT(R.HasResult,
                        "native op did not produce its declared result");
        setResult(I, F, canonBits(I->type().kind(), R.Bits));
      }
      break;
    }
    }
    F.InstIdx++;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Tree-tier team entry point
//===----------------------------------------------------------------------===//

TeamRunOutcome runTreeTeam(const DeviceConfig &Config, GlobalMemory &GM,
                           const NativeRegistry &Registry,
                           const ModuleImage &Image, std::uint32_t TeamId,
                           std::uint32_t NumTeams, std::uint32_t NumThreads,
                           const Function *Kernel,
                           std::span<const std::uint64_t> Args,
                           LaunchMetrics &Metrics, LaunchProfile *Profile) {
  return TeamExecutor(Config, GM, Registry, Image, TeamId, NumTeams,
                      NumThreads, Kernel, Args, Metrics, Profile)
      .run();
}

} // namespace codesign::vgpu
