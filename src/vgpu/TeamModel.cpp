#include "vgpu/TeamModel.hpp"

#include <utility>

#include "rt/RuntimeABI.hpp"
#include "vgpu/Interpreter.hpp"

namespace codesign::vgpu {

namespace {

/// The lane array and shared arena of the last team this host thread
/// retired. Retained memory is bounded by the largest team the thread has
/// run.
thread_local std::vector<Lane> SpareLanes;
thread_local std::vector<std::uint8_t> SpareSharedArena;

} // namespace

TeamModel::TeamModel(const DeviceConfig &Config, GlobalMemory &GM,
                     const NativeRegistry &Registry, const ModuleImage &Image,
                     std::uint32_t TeamId, std::uint32_t NumTeams,
                     std::uint32_t NumThreads, LaunchMetrics &Metrics,
                     LaunchProfile *Profile)
    : Config(Config), TeamId(TeamId), NumTeams(NumTeams),
      NumThreads(NumThreads), Lanes(std::exchange(SpareLanes, {})),
      GMBase(GM.data(0, 0)), GMCap(GM.capacity()), GM(GM),
      Registry(Registry), Metrics(Metrics), Profile(Profile),
      SharedArena(std::exchange(SpareSharedArena, {})) {
  // initTeamShared rewrites every byte it is given; bytes past them are
  // zeroed again as the arena grows.
  SharedArena.resize(std::max<std::uint64_t>(Image.sharedStaticSize(), 1));
  Image.initTeamShared(SharedArena);
  if (Config.DetectRaces) {
    // The conditional-write dummy absorbs every thread's non-selected
    // stores by design (Figure 7b); its write-write collisions are benign
    // and never read back, so its byte range is exempt from shadowing.
    if (const ir::GlobalVariable *Dummy =
            Image.module().findGlobal(rt::DummyName)) {
      if (Dummy->space() == ir::AddrSpace::Shared) {
        DummyLo = Image.addressOf(Dummy).offset();
        DummyHi = DummyLo + Dummy->sizeBytes();
      }
    }
  }
  Lanes.clear();
  Lanes.reserve(NumThreads);
  for (std::uint32_t T = 0; T < NumThreads; ++T)
    Lanes.emplace_back(T, Config.LocalMemPerThread);
}

TeamModel::~TeamModel() {
  SpareLanes = std::move(Lanes);
  SpareSharedArena = std::move(SharedArena);
}

OpClass classifyOpcode(ir::Opcode Op) {
  using ir::Opcode;
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
  case Opcode::ICmp:
  case Opcode::Select:
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    return OpClass::IntAlu;
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
    return OpClass::IntMulDiv;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FCmp:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPCast:
    return OpClass::Float;
  case Opcode::Alloca:
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::Gep:
  case Opcode::Malloc:
  case Opcode::Free:
    return OpClass::Memory;
  case Opcode::AtomicRMW:
  case Opcode::CmpXchg:
    return OpClass::Atomic;
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
  case Opcode::Unreachable:
  case Opcode::Phi:
    return OpClass::ControlFlow;
  case Opcode::Call:
    return OpClass::Call;
  case Opcode::ThreadId:
  case Opcode::BlockId:
  case Opcode::BlockDim:
  case Opcode::GridDim:
  case Opcode::WarpSize:
    return OpClass::Intrinsic;
  case Opcode::Barrier:
  case Opcode::AlignedBarrier:
    return OpClass::Sync;
  case Opcode::Assume:
  case Opcode::AssertFail:
  case Opcode::Trap:
    return OpClass::Meta;
  case Opcode::NativeOp:
    return OpClass::Native;
  }
  CODESIGN_UNREACHABLE("unknown opcode");
}

std::uint64_t TeamModel::teamCycles() const {
  std::uint64_t Max = 0;
  for (const Lane &L : Lanes)
    Max = std::max(Max, L.Cycles);
  return Max;
}

void TeamModel::trap(Lane &L, std::string Msg) {
  L.Status = LaneStatus::Trapped;
  L.TrapMsg = std::move(Msg);
}

std::string TeamModel::laneError(const Lane &L) const {
  return "thread " + std::to_string(L.Tid) + " of team " +
         std::to_string(TeamId) + ": " + L.TrapMsg;
}

std::optional<std::string> TeamModel::rendezvous() {
  // A lane leaves its step only done, trapped or at a barrier, and a trap
  // ends the team before this point, so every live lane waits here.
  std::uintptr_t AlignedAt = 0;
  std::uint64_t MaxArrival = 0;
  for (const Lane &L : Lanes) {
    if (L.Status == LaneStatus::Done)
      continue;
    CODESIGN_ASSERT(L.Status == LaneStatus::AtBarrier,
                    "a live lane left its step without blocking");
    MaxArrival = std::max(MaxArrival, L.Cycles);
    if (L.BarrierAligned)
      AlignedAt = L.BarrierSite;
  }
  // Debug semantics: when any arrival is at an aligned barrier, every live
  // lane must sit at that same barrier (paper Section III-G's runtime
  // invariant verification).
  if (Config.DebugChecks && AlignedAt)
    for (const Lane &L : Lanes)
      if (L.Status == LaneStatus::AtBarrier && L.BarrierSite != AlignedAt)
        return "team " + std::to_string(TeamId) +
               ": aligned barrier reached with unaligned threads";
  // An aligned barrier promises that every lane of the team arrives; a
  // lane that already returned from the kernel never can, i.e. the barrier
  // sits under divergent control. Real hardware hangs here; report it.
  if (Config.DetectRaces && AlignedAt)
    for (const Lane &L : Lanes)
      if (L.Status == LaneStatus::Done)
        return "team " + std::to_string(TeamId) +
               ": divergent aligned barrier (thread " +
               std::to_string(L.Tid) +
               " already exited the kernel and can never arrive)";
  Cnt.Barriers++;
  const std::uint64_t Release = MaxArrival + Config.Costs.BarrierCost;
  for (Lane &L : Lanes) {
    if (L.Status != LaneStatus::AtBarrier)
      continue;
    if (Profile)
      Cnt.BarrierWaitCycles += MaxArrival - L.Cycles;
    L.Cycles = Release;
    L.Status = LaneStatus::Running;
  }
  // The rendezvous orders every earlier access before every later one:
  // open a new happens-before interval.
  ++BarrierEpoch;
  return std::nullopt;
}

void TeamModel::flush() {
  Metrics.DynamicInstructions += Cnt.DynamicInstructions;
  Metrics.GlobalLoads += Cnt.GlobalLoads;
  Metrics.GlobalStores += Cnt.GlobalStores;
  Metrics.SharedLoads += Cnt.SharedLoads;
  Metrics.SharedStores += Cnt.SharedStores;
  Metrics.LocalAccesses += Cnt.LocalAccesses;
  Metrics.Atomics += Cnt.Atomics;
  Metrics.Calls += Cnt.Calls;
  Metrics.Barriers += Cnt.Barriers;
  Metrics.NativeCycles += Cnt.NativeCycles;
  Metrics.DeviceMallocs += Cnt.DeviceMallocs;
  if (!Profile)
    return;
  for (std::size_t K = 0; K < NumOpClasses; ++K)
    Profile->OpCounts[K] += Cnt.Ops[K];
  Profile->GlobalBytesRead += Cnt.GlobalBytesRead;
  Profile->GlobalBytesWritten += Cnt.GlobalBytesWritten;
  Profile->SharedBytesRead += Cnt.SharedBytesRead;
  Profile->SharedBytesWritten += Cnt.SharedBytesWritten;
  Profile->BarrierWaitCycles += Cnt.BarrierWaitCycles;
}

void TeamModel::trapCrossThreadLocal(Lane &L, std::uint16_t Owner) {
  trap(L, "cross-thread access to local memory (thread " +
              std::to_string(L.Tid) + " dereferenced a pointer owned by "
              "thread " + std::to_string(Owner) +
              "); such variables must be globalized");
}

bool TeamModel::checkSharedAccess(Lane &L, std::uint64_t Off, unsigned Size,
                                  bool IsStore) {
  // Atomics are intended synchronization and never reach this; neither
  // does the conditional-write dummy's byte range.
  if (Off >= DummyLo && Off + Size <= DummyHi && DummyHi > DummyLo)
    return true;
  for (std::uint64_t B = Off; B < Off + Size; ++B) {
    ShadowCell &Cell = SharedShadow[B];
    if (Cell.WriteEpoch == BarrierEpoch && Cell.WriteTid != L.Tid) {
      trap(L, "shared-memory race: " +
                  std::string(IsStore ? "store" : "load") +
                  " at shared offset " + std::to_string(B) + " by thread " +
                  std::to_string(L.Tid) + " conflicts with a write by "
                  "thread " + std::to_string(Cell.WriteTid) +
                  " in the same barrier interval");
      return false;
    }
    if (IsStore && Cell.ReadEpoch == BarrierEpoch &&
        (Cell.MultiRead || Cell.ReadTid != L.Tid)) {
      const std::uint32_t Reader =
          Cell.ReadTid != L.Tid ? Cell.ReadTid : Cell.ReadTid2;
      trap(L, "shared-memory race: store at shared offset " +
                  std::to_string(B) + " by thread " + std::to_string(L.Tid) +
                  " conflicts with a read by thread " +
                  std::to_string(Reader) + " in the same barrier interval");
      return false;
    }
    if (IsStore) {
      Cell.WriteEpoch = BarrierEpoch;
      Cell.WriteTid = L.Tid;
    } else if (Cell.ReadEpoch != BarrierEpoch) {
      Cell.ReadEpoch = BarrierEpoch;
      Cell.ReadTid = L.Tid;
      Cell.MultiRead = false;
    } else if (Cell.ReadTid != L.Tid && !Cell.MultiRead) {
      Cell.ReadTid2 = L.Tid;
      Cell.MultiRead = true;
    }
  }
  return true;
}

std::uint64_t TeamModel::deviceMalloc(std::uint64_t Size) {
  // Size-0 requests count too, though they never reach the allocator.
  Cnt.DeviceMallocs++;
  if (Size == 0)
    return 0;
  auto Off = GM.allocate(Size, 16);
  return Off ? DeviceAddr::make(MemSpace::Global, *Off).Bits : 0;
}

void TeamModel::deviceFree(std::uint64_t AddrBits) {
  const DeviceAddr A(AddrBits);
  if (!A.isNull())
    GM.release(A.offset());
}

std::span<std::uint8_t> TeamModel::sharedWindow() {
  SharedArena.reserve(Config.SharedMemPerTeam);
  return SharedArena;
}

//===----------------------------------------------------------------------===//
// Native ops
//===----------------------------------------------------------------------===//

std::uint64_t TeamModel::callNative(Lane &L, std::int64_t Id,
                                    const std::uint64_t *Args, unsigned N,
                                    TypeKind Result) {
  NativeCtx Ctx(*this, L, Args, N);
  Registry.get(Id).Fn(Ctx);
  if (L.Status != LaneStatus::Running || Result == TypeKind::Void)
    return 0;
  if (!Ctx.HasResult) {
    trap(L, "native op did not produce its declared result");
    return 0;
  }
  return eval::canonBits(Result, Ctx.Result);
}

} // namespace codesign::vgpu
