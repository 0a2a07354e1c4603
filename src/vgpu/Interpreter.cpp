#include "vgpu/Interpreter.hpp"

#include <cstring>
#include <utility>

#include "ir/BasicBlock.hpp"
#include "vgpu/Bytecode.hpp"
#include "vgpu/KernelStats.hpp"

namespace codesign::vgpu {

using ir::BasicBlock;
using ir::Opcode;
using ir::Type;
using ir::ValueKind;

//===----------------------------------------------------------------------===//
// ModuleImage
//===----------------------------------------------------------------------===//

ModuleImage::ModuleImage(const Module &M, GlobalMemory &GM,
                         std::shared_ptr<const BytecodeModule> Bytecode)
    : M(M), GM(GM), Bytecode(std::move(Bytecode)) {
  CODESIGN_ASSERT(!this->Bytecode || this->Bytecode->M == &M,
                  "bytecode lowered from another module");
  SharedSize = layoutSharedSegment(
      M, [this](const GlobalVariable *G, std::uint64_t Off) {
        GlobalAddrs[G] = DeviceAddr::make(MemSpace::Shared, Off);
      });
  // Device statics: compute total size, allocate one block, lay out inside.
  std::uint64_t Off = 0;
  std::vector<std::pair<const GlobalVariable *, std::uint64_t>> DeviceStatics;
  for (const auto &G : M.globals()) {
    if (G->space() == ir::AddrSpace::Shared)
      continue;
    const std::uint64_t Align = std::max<unsigned>(G->alignment(), 1);
    Off = (Off + Align - 1) & ~(Align - 1);
    DeviceStatics.emplace_back(G.get(), Off);
    Off += G->sizeBytes();
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

const ModuleImage::LaunchPlan *
ModuleImage::findPlanLocked(const exec::Backend *Backend,
                            const Function *Kernel, bool DetectRaces) const {
  for (const auto &P : Plans)
    if (P->Backend == Backend && P->Kernel == Kernel &&
        P->DetectRaces == DetectRaces)
      return P.get();
  return nullptr;
}

const ModuleImage::LaunchPlan *
ModuleImage::findPlan(const exec::Backend *Backend, const Function *Kernel,
                      bool DetectRaces) const {
  std::lock_guard<std::mutex> Lock(PlanMutex);
  return findPlanLocked(Backend, Kernel, DetectRaces);
}

const ModuleImage::LaunchPlan &ModuleImage::addPlan(LaunchPlan Plan) const {
  std::lock_guard<std::mutex> Lock(PlanMutex);
  if (const LaunchPlan *Kept =
          findPlanLocked(Plan.Backend, Plan.Kernel, Plan.DetectRaces))
    return *Kept;
  Plans.push_back(std::make_unique<const LaunchPlan>(std::move(Plan)));
  return *Plans.back();
}

//===----------------------------------------------------------------------===//
// Team execution
//===----------------------------------------------------------------------===//

ModuleLayouts layoutFunctions(const Module &M) {
  ModuleLayouts Layouts;
  for (const auto &F : M.functions()) {
    FunctionLayout &L = Layouts[F.get()];
    for (const auto &A : F->args())
      L.Slots[A.get()] = L.NumSlots++;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          L.Slots[I.get()] = L.NumSlots++;
  }
  return Layouts;
}

namespace {

struct Frame {
  /// Start an activation of Callee in this frame, reusing its slot storage
  /// (zeroed). The caller fills the argument slots.
  void enter(const Function *Callee, const FunctionLayout &L,
             const Instruction *Site, std::uint64_t Watermark) {
    Fn = Callee;
    Layout = &L;
    Block = Callee->entry();
    InstIdx = 0;
    PrevBlock = nullptr;
    Slots.assign(L.NumSlots, 0);
    LocalWatermark = Watermark;
    CallSite = Site;
  }

  const Function *Fn = nullptr;
  const FunctionLayout *Layout = nullptr;
  const BasicBlock *Block = nullptr;
  std::size_t InstIdx = 0;
  const BasicBlock *PrevBlock = nullptr;
  std::vector<std::uint64_t> Slots;
  std::uint64_t LocalWatermark = 0;
  /// The call instruction in the *caller* frame awaiting our return value.
  const Instruction *CallSite = nullptr;
};

/// One lane's frame stack: entries [0, Depth) are live; entries past Depth
/// are retired frames kept so their slot storage is reused by later calls
/// and, through the per-thread spare below, by later teams.
struct FrameStack {
  std::vector<Frame> Frames;
  std::uint32_t Depth = 0;
};

/// The frame stacks and scratch buffers of the last team this host thread
/// retired; the next team's executor takes them over (see TeamExecutor).
struct TreeSpares {
  std::vector<FrameStack> Stacks;
  std::vector<std::pair<const Instruction *, std::uint64_t>> PhiBuf;
  std::vector<std::uint64_t> NativeArgScratch;
};
thread_local TreeSpares Spares;

/// One team walking the IR: every lane advances its own frame stack, and
/// the team model schedules the lanes and owns all memory and accounting.
class TeamExecutor {
public:
  TeamExecutor(const DeviceConfig &Config, GlobalMemory &GM,
               const NativeRegistry &Registry, const ModuleImage &Image,
               const ModuleLayouts &Layouts, std::uint32_t TeamId,
               std::uint32_t NumTeams, std::uint32_t NumThreads,
               const Function *Kernel, std::span<const std::uint64_t> Args)
      : Team(Config, GM, Registry, Image, TeamId, NumTeams, NumThreads),
        Config(Config), Image(Image), Layouts(Layouts),
        Stacks(std::exchange(Spares.Stacks, {})),
        PhiBuf(std::exchange(Spares.PhiBuf, {})),
        NativeArgScratch(std::exchange(Spares.NativeArgScratch, {})) {
    const FunctionLayout &Layout = layoutOf(Kernel);
    // Stacks only grow: a narrower team leaves the wider team's stacks for
    // the next.
    if (Stacks.size() < NumThreads)
      Stacks.resize(NumThreads);
    for (std::uint32_t T = 0; T < NumThreads; ++T) {
      FrameStack &S = Stacks[T];
      if (S.Frames.empty())
        S.Frames.emplace_back();
      Frame &F = S.Frames[0];
      F.enter(Kernel, Layout, /*Site=*/nullptr, /*Watermark=*/0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        F.Slots[Layout.Slots.at(Kernel->arg(A))] =
            eval::canonBits(Kernel->arg(A)->type().kind(), Args[A]);
      S.Depth = 1;
    }
  }
  TeamExecutor(const TeamExecutor &) = delete;
  TeamExecutor &operator=(const TeamExecutor &) = delete;
  ~TeamExecutor() {
    Spares.Stacks = std::move(Stacks);
    Spares.PhiBuf = std::move(PhiBuf);
    Spares.NativeArgScratch = std::move(NativeArgScratch);
  }

  TeamRunOutcome run() {
    return Team.run([this](Lane &L) { stepThread(L, Stacks[L.Tid]); });
  }

private:
  const FunctionLayout &layoutOf(const Function *F) const {
    auto It = Layouts.find(F);
    CODESIGN_ASSERT(It != Layouts.end(), "function not in the module");
    return It->second;
  }

  std::uint64_t operandValue(const Value *V, const Frame &F) const {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return F.Slots[F.Layout->Slots.at(V)];
    case ValueKind::ConstantInt:
      return ir::cast<ir::ConstantInt>(V)->bits();
    case ValueKind::ConstantFP:
      return ir::cast<ir::ConstantFP>(V)->bits();
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
  void stepThread(Lane &T, FrameStack &S);

  /// Execute leading phis of the current block as a parallel assignment.
  void executePhis(Lane &T, Frame &F) {
    PhiBuf.clear();
    std::size_t Idx = 0;
    while (Idx < F.Block->size() &&
           F.Block->inst(Idx)->opcode() == Opcode::Phi) {
      const Instruction *Phi = F.Block->inst(Idx);
      const Value *In = Phi->incomingFor(F.PrevBlock);
      if (!In) {
        Team.trap(T, "phi has no incoming value for predecessor");
        return;
      }
      PhiBuf.emplace_back(Phi, operandValue(In, F));
      ++Idx;
    }
    for (const auto &[Phi, Bits] : PhiBuf)
      setResult(Phi, F, Bits);
    F.InstIdx = Idx;
    T.Cycles += PhiBuf.size() * Config.Costs.Alu;
  }

  TeamModel Team;
  const DeviceConfig &Config;
  const ModuleImage &Image;
  const ModuleLayouts &Layouts;
  std::vector<FrameStack> Stacks; ///< per lane, indexed by Tid
  /// Team-level scratch: lanes step one at a time and native ops cannot
  /// re-enter the walker, so one buffer of each kind suffices.
  std::vector<std::pair<const Instruction *, std::uint64_t>> PhiBuf;
  std::vector<std::uint64_t> NativeArgScratch;
};

void TeamExecutor::stepThread(Lane &T, FrameStack &S) {
  const CostModel &C = Config.Costs;
  while (T.Status == LaneStatus::Running) {
    Frame &F = S.Frames[S.Depth - 1];
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
    //--- Value operations (ir/Eval.hpp) ----------------------------------------
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
    case Opcode::AShr:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::ICmp:
    case Opcode::FCmp:
    case Opcode::Select:
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc:
    case Opcode::SIToFP:
    case Opcode::FPToSI:
    case Opcode::FPCast:
    case Opcode::PtrToInt:
    case Opcode::IntToPtr: {
      std::uint64_t Ops[3] = {};
      for (unsigned K = 0; K < I->numOperands() && K < 3; ++K)
        Ops[K] = opI(K);
      std::uint64_t R = 0;
      if (const char *Trap = eval::evaluate(
              I->opcode(), I->pred(), I->type().kind(),
              I->operand(0)->type().kind(), Ops, R)) {
        Team.trap(T, Trap);
        return;
      }
      setResult(I, F, R);
      T.Cycles += valueCycles(C, I->opcode());
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
      --S.Depth; // frame stays behind as a spare (slot storage recycled)
      T.Local.restore(Watermark);
      if (S.Depth == 0) {
        T.Status = LaneStatus::Done;
        return;
      }
      Frame &Caller = S.Frames[S.Depth - 1];
      if (CallSite && !CallSite->type().isVoid())
        Caller.Slots[Caller.Layout->Slots.at(CallSite)] =
            eval::canonBits(CallSite->type().kind(), RetBits);
      Caller.InstIdx++; // resume after the call
      T.Cycles += C.Branch;
      continue;
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
      // emplace_back can reallocate Frames: F (and opI, which reads it)
      // must not be used past this point.
      if (S.Frames.size() == S.Depth)
        S.Frames.emplace_back();
      const Frame &Caller = S.Frames[S.Depth - 1];
      Frame &NewF = S.Frames[S.Depth];
      const FunctionLayout &Layout = layoutOf(Callee);
      NewF.enter(Callee, Layout, I, T.Local.watermark());
      for (unsigned A = 0; A < Callee->numArgs(); ++A)
        NewF.Slots[Layout.Slots.at(Callee->arg(A))] =
            eval::canonBits(Callee->arg(A)->type().kind(),
                      operandValue(I->operand(A + 1), Caller));
      ++S.Depth;
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
    case Opcode::NativeOp: {
      NativeArgScratch.clear();
      for (unsigned A = 0; A < I->numOperands(); ++A)
        NativeArgScratch.push_back(opI(A));
      const std::uint64_t R =
          Team.callNative(T, I->imm(), NativeArgScratch.data(),
                          I->numOperands(), I->type().kind());
      if (T.Status != LaneStatus::Running)
        return;
      if (!I->type().isVoid())
        setResult(I, F, R);
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
                           const ModuleImage &Image,
                           const ModuleLayouts &Layouts, std::uint32_t TeamId,
                           std::uint32_t NumTeams, std::uint32_t NumThreads,
                           const Function *Kernel,
                           std::span<const std::uint64_t> Args) {
  return TeamExecutor(Config, GM, Registry, Image, Layouts, TeamId, NumTeams,
                      NumThreads, Kernel, Args)
      .run();
}

} // namespace codesign::vgpu
