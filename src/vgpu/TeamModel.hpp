//===- vgpu/TeamModel.hpp - One team execution model for every backend ----===//
//
// What a team of device threads means, written once. An execution backend
// supplies only "advance this lane until it blocks": the tree walker's
// frame stack, the bytecode dispatch loop, or a native fiber. Everything a
// launch can observe about a team lives here:
//
//   - the scheduler: sweep lanes in strict thread order, run each until it
//     returns, traps or waits at a barrier, and stop the team at the first
//     trap;
//   - the barrier rendezvous: the debug aligned-identity check (paper
//     Section III-G), the race detector's divergent-aligned-barrier check,
//     wait-cycle accounting, and release at max(arrival) + BarrierCost;
//   - device-address resolution and its trap messages, local-memory
//     allocation, and the cost-model charge of every access, counted into
//     one set of counters that the team hands back when it finishes;
//   - the shared-memory race shadow (DeviceConfig::DetectRaces);
//   - the NativeCtx that registered native ops run against, and the one
//     call (TeamModel::callNative) that runs an op and decides its result;
//   - the global-memory atomics, and the cycles each value operation
//     costs. What a value operation computes is ir/Eval.hpp's.
//
// A team's lane array and shared arena are recycled across the teams one
// host thread runs (see the TeamModel constructor): set-up resets them to
// exactly what a freshly built team holds, without reallocating.
//
// The per-access helpers are inline and non-virtual, because the bytecode
// dispatch loop calls them for every instruction and native payloads for
// every load and store.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Eval.hpp"
#include "ir/Instruction.hpp"
#include "vgpu/DeviceConfig.hpp"
#include "vgpu/Memory.hpp"
#include "vgpu/Metrics.hpp"
#include "vgpu/NativeRegistry.hpp"

namespace codesign::vgpu {

class ModuleImage;
using ir::TypeKind;
namespace eval = ir::eval;

//===----------------------------------------------------------------------===//
// Lanes and counters
//===----------------------------------------------------------------------===//

enum class LaneStatus : std::uint8_t { Running, AtBarrier, Done, Trapped };

/// One device thread's team-visible state. Backends keep their own
/// per-lane frames in an array indexed by Tid.
struct Lane {
  Lane(std::uint32_t Tid, std::uint64_t LocalCap) : Tid(Tid), Local(LocalCap) {}

  /// Stop at a barrier. Site is any value unique per barrier site (the
  /// instruction's address, a native site id): the aligned-identity check
  /// compares it.
  void block(std::uintptr_t Site, bool Aligned) {
    Status = LaneStatus::AtBarrier;
    BarrierSite = Site;
    BarrierAligned = Aligned;
  }

  std::uint32_t Tid;
  LaneStatus Status = LaneStatus::Running;
  bool BarrierAligned = false;
  std::uintptr_t BarrierSite = 0;
  std::uint64_t Cycles = 0;    ///< the lane's modeled clock
  std::uint64_t InstCount = 0; ///< dynamic instructions, against the budget
  std::string TrapMsg;
  BumpArena Local;
};

/// A team's metric and profile counters. They accumulate in the team model
/// while the team runs and leave it once, in the team's outcome: the
/// outcomes of concurrently running teams are adjacent, so per-event
/// increments there would ping-pong cache lines between host threads.
struct HotCounters {
  std::uint64_t DynamicInstructions = 0;
  std::array<std::uint64_t, NumOpClasses> Ops{};
  std::uint64_t GlobalLoads = 0, GlobalStores = 0;
  std::uint64_t SharedLoads = 0, SharedStores = 0;
  std::uint64_t LocalAccesses = 0, Atomics = 0, Calls = 0, Barriers = 0;
  std::uint64_t NativeCycles = 0, DeviceMallocs = 0;
  std::uint64_t GlobalBytesRead = 0, GlobalBytesWritten = 0;
  std::uint64_t SharedBytesRead = 0, SharedBytesWritten = 0;
  std::uint64_t BarrierWaitCycles = 0;
};

/// What one team hands back to the launch engine, which folds it into the
/// launch result in team-ID order.
struct TeamRunOutcome {
  std::optional<std::string> Err; ///< trap/deadlock message, empty = clean
  std::uint64_t Cycles = 0;       ///< the team's modeled wall time
  HotCounters Counters;
};

/// The op class an IR opcode counts under in the profile histogram
/// (HotCounters::Ops).
[[nodiscard]] OpClass classifyOpcode(ir::Opcode Op);

/// Modeled cycles of value operation Op (Add .. IntToPtr) on every
/// backend that charges them.
[[nodiscard]] inline std::uint32_t valueCycles(const CostModel &C,
                                               ir::Opcode Op) {
  switch (Op) {
  case ir::Opcode::Mul:
    return C.Mul;
  case ir::Opcode::SDiv:
  case ir::Opcode::UDiv:
  case ir::Opcode::SRem:
  case ir::Opcode::URem:
    return C.Div;
  case ir::Opcode::FAdd:
  case ir::Opcode::FSub:
  case ir::Opcode::FMul:
  case ir::Opcode::FCmp:
  case ir::Opcode::SIToFP:
  case ir::Opcode::FPToSI:
  case ir::Opcode::FPCast:
    return C.FAlu;
  case ir::Opcode::FDiv:
    return C.FDiv;
  default:
    return C.Alu;
  }
}

//===----------------------------------------------------------------------===//
// The team model
//===----------------------------------------------------------------------===//

/// One team of one launch. Teams share no mutable state except global
/// memory reached through atomics, so distinct teams may run concurrently.
class TeamModel {
public:
  /// Takes the host thread's spare lane array and shared arena (a team
  /// nested on the same thread finds them taken and starts empty) and
  /// resets them: NumThreads fresh lanes, and sharedStaticSize() bytes of
  /// shared memory holding the static initializers.
  TeamModel(const DeviceConfig &Config, GlobalMemory &GM,
            const NativeRegistry &Registry, const ModuleImage &Image,
            std::uint32_t TeamId, std::uint32_t NumTeams,
            std::uint32_t NumThreads);
  /// Hands the lane array and shared arena back to the host thread, so the
  /// next team reuses their storage.
  ~TeamModel();
  TeamModel(const TeamModel &) = delete;
  TeamModel &operator=(const TeamModel &) = delete;

  /// Run the team to completion: Step(Lane &) advances one running lane
  /// until it is done, trapped or blocked at a barrier. Returns the trap or
  /// rendezvous error that stopped the team, its cycles and its counters.
  template <typename StepFn> TeamRunOutcome run(StepFn &&Step);

  /// Stop lane L with Msg.
  void trap(Lane &L, std::string Msg);

  //--- Memory ---------------------------------------------------------------

  /// Host storage of Size bytes at A, or null after trapping L.
  std::uint8_t *resolve(Lane &L, DeviceAddr A, unsigned Size);
  /// Charge the cost model and count Count accesses of Size bytes each.
  void chargeAccess(Lane &L, MemSpace S, bool IsStore, bool IsAtomic,
                    unsigned Size, std::uint32_t Count = 1);
  /// Host storage of a plain (non-atomic) access of Size bytes at A,
  /// resolved, charged and counted; null after trapping L. Shadow routes
  /// shared accesses through the race detector: kernel loads and stores
  /// take it, native-op accesses do not.
  std::uint8_t *access(Lane &L, DeviceAddr A, unsigned Size, bool IsStore,
                       bool Shadow);
  /// A kernel load of kind K: the canonical value, or 0 after trapping L.
  std::uint64_t load(Lane &L, DeviceAddr A, TypeKind K, unsigned Size);
  /// A kernel store of Size bytes of Bits; returns after trapping L.
  void store(Lane &L, DeviceAddr A, unsigned Size, std::uint64_t Bits);
  /// Atomic RMW of kind K: the canonical old value, or 0 after trapping L.
  std::uint64_t atomicRMW(Lane &L, DeviceAddr A, TypeKind K, unsigned Size,
                          ir::AtomicOp Op, std::uint64_t V);
  /// Allocate Size bytes of L's local memory: the address, or 0 after
  /// trapping L.
  std::uint64_t allocLocal(Lane &L, std::uint64_t Size);
  /// Device malloc/free on the global arena. Exhaustion yields a null
  /// pointer the kernel can test, as in CUDA, never a host-side abort.
  std::uint64_t deviceMalloc(std::uint64_t Size);
  void deviceFree(std::uint64_t AddrBits);
  /// The shared arena as a raw window, for executors that address shared
  /// memory directly. Its base stays put for the rest of the team: growth
  /// never passes SharedMemPerTeam, which the arena reserves here (once per
  /// host thread, since the recycled arena keeps the reservation). Its size
  /// grows when an access resolves past it, so republish the window after
  /// every call that can resolve shared memory.
  std::span<std::uint8_t> sharedWindow();

  /// Run registered native op Id for lane L over Args, declared to return
  /// a value of kind Result: the result's canonical bits, or 0 for a void
  /// op or after trapping L. A non-void op that sets no result traps L.
  std::uint64_t callNative(Lane &L, std::int64_t Id,
                           const std::uint64_t *Args, unsigned N,
                           TypeKind Result);

  const DeviceConfig &Config;
  const std::uint32_t TeamId, NumTeams, NumThreads;
  std::vector<Lane> Lanes;
  HotCounters Cnt;
  /// The global arena: fixed-size for the device's lifetime, so one base
  /// pointer serves every access of the launch.
  std::uint8_t *const GMBase;
  const std::uint64_t GMCap;

private:
  friend class NativeCtx;

  /// Per-byte race shadow: who last wrote and read a shared byte, and in
  /// which barrier epoch. Two plain accesses from different lanes in one
  /// epoch with at least one write have no happens-before edge, since
  /// every barrier is a team-wide rendezvous here.
  struct ShadowCell {
    std::uint64_t WriteEpoch = 0;
    std::uint32_t WriteTid = 0;
    std::uint64_t ReadEpoch = 0;
    std::uint32_t ReadTid = 0;
    std::uint32_t ReadTid2 = 0; ///< a second distinct reader (MultiRead)
    bool MultiRead = false;     ///< more than one distinct reader this epoch
  };

  std::optional<std::string> rendezvous();
  [[nodiscard]] std::string laneError(const Lane &L) const;
  void trapCrossThreadLocal(Lane &L, std::uint16_t Owner);
  /// Race check for a plain shared access; false after trapping L.
  bool checkSharedAccess(Lane &L, std::uint64_t Off, unsigned Size,
                         bool IsStore);
  /// Shared bytes [Off, Off + Size), or null past the device cap.
  std::uint8_t *sharedBytes(std::uint64_t Off, std::uint64_t Size) {
    if (Off + Size > SharedArena.size()) {
      // Grow: the dynamic shared region beyond the statics.
      if (Off + Size > Config.SharedMemPerTeam)
        return nullptr;
      SharedArena.resize(Off + Size, 0);
    }
    return SharedArena.data() + Off;
  }

  GlobalMemory &GM;
  const NativeRegistry &Registry;
  std::vector<std::uint8_t> SharedArena;
  // Race detector state (only touched under DetectRaces). Epochs start at 1
  // so a zero-initialized cell never matches.
  std::uint64_t BarrierEpoch = 1;
  std::unordered_map<std::uint64_t, ShadowCell> SharedShadow;
  /// The conditional-write dummy's byte range, exempt from shadowing.
  std::uint64_t DummyLo = 0, DummyHi = 0;
};

//===----------------------------------------------------------------------===//
// Inline definitions: the scheduler and the per-access paths
//===----------------------------------------------------------------------===//

template <typename StepFn> TeamRunOutcome TeamModel::run(StepFn &&Step) {
  TeamRunOutcome Out;
  for (;;) {
    bool AllDone = true;
    for (Lane &L : Lanes) {
      if (L.Status == LaneStatus::Running)
        Step(L);
      if (L.Status == LaneStatus::Trapped) {
        Out.Err = laneError(L);
        break;
      }
      if (L.Status != LaneStatus::Done)
        AllDone = false;
    }
    if (Out.Err || AllDone)
      break;
    if ((Out.Err = rendezvous()))
      break;
  }
  for (const Lane &L : Lanes) // the slowest lane's clock
    Out.Cycles = std::max(Out.Cycles, L.Cycles);
  Out.Counters = Cnt;
  return Out;
}

inline std::uint8_t *TeamModel::resolve(Lane &L, DeviceAddr A,
                                        unsigned Size) {
  switch (A.space()) {
  case MemSpace::Global:
    if (A.offset() + Size > GMCap) {
      trap(L, "global access out of bounds");
      return nullptr;
    }
    return GMBase + A.offset();
  case MemSpace::Shared:
    if (std::uint8_t *P = sharedBytes(A.offset(), Size))
      return P;
    trap(L, "shared memory access out of bounds");
    return nullptr;
  case MemSpace::Local:
    if (Config.DebugChecks && A.owner() != L.Tid) {
      trapCrossThreadLocal(L, A.owner());
      return nullptr;
    }
    if (std::uint8_t *P = L.Local.data(A.offset(), Size))
      return P;
    trap(L, "local access out of bounds");
    return nullptr;
  case MemSpace::Invalid:
    trap(L, A.isNull() ? "null pointer dereference"
                       : "dereference of a function address");
    return nullptr;
  }
  CODESIGN_UNREACHABLE("bad memory space");
}

inline void TeamModel::chargeAccess(Lane &L, MemSpace S, bool IsStore,
                                    bool IsAtomic, unsigned Size,
                                    std::uint32_t Count) {
  const CostModel &C = Config.Costs;
  const std::uint64_t Bytes = static_cast<std::uint64_t>(Size) * Count;
  std::uint64_t Cost = 0;
  switch (S) {
  case MemSpace::Global:
    Cost = IsAtomic ? C.AtomicGlobal : C.GlobalAccess;
    (IsStore ? Cnt.GlobalStores : Cnt.GlobalLoads) += Count;
    (IsStore ? Cnt.GlobalBytesWritten : Cnt.GlobalBytesRead) += Bytes;
    break;
  case MemSpace::Shared:
    Cost = IsAtomic ? C.AtomicShared : C.SharedAccess;
    (IsStore ? Cnt.SharedStores : Cnt.SharedLoads) += Count;
    (IsStore ? Cnt.SharedBytesWritten : Cnt.SharedBytesRead) += Bytes;
    break;
  case MemSpace::Local:
    Cost = C.LocalAccess;
    Cnt.LocalAccesses += Count;
    break;
  case MemSpace::Invalid:
    break;
  }
  if (IsAtomic)
    Cnt.Atomics += Count;
  L.Cycles += Cost * Count;
}

inline std::uint8_t *TeamModel::access(Lane &L, DeviceAddr A, unsigned Size,
                                       bool IsStore, bool Shadow) {
  // Global fast path: one bounds check and direct storage. The race
  // detector shadows only shared memory, so it never diverts this.
  if (A.space() == MemSpace::Global && A.offset() + Size <= GMCap) {
    (IsStore ? Cnt.GlobalStores : Cnt.GlobalLoads)++;
    (IsStore ? Cnt.GlobalBytesWritten : Cnt.GlobalBytesRead) += Size;
    L.Cycles += Config.Costs.GlobalAccess;
    return GMBase + A.offset();
  }
  std::uint8_t *P = resolve(L, A, Size);
  if (!P)
    return nullptr;
  if (Shadow && Config.DetectRaces && A.space() == MemSpace::Shared &&
      !checkSharedAccess(L, A.offset(), Size, IsStore))
    return nullptr;
  chargeAccess(L, A.space(), IsStore, /*IsAtomic=*/false, Size);
  return P;
}

inline std::uint64_t TeamModel::load(Lane &L, DeviceAddr A, TypeKind K,
                                     unsigned Size) {
  std::uint64_t Raw = 0;
  if (const std::uint8_t *P =
          access(L, A, Size, /*IsStore=*/false, /*Shadow=*/true))
    std::memcpy(&Raw, P, Size);
  return eval::canonBits(K, Raw);
}

inline void TeamModel::store(Lane &L, DeviceAddr A, unsigned Size,
                             std::uint64_t Bits) {
  if (std::uint8_t *P = access(L, A, Size, /*IsStore=*/true, /*Shadow=*/true))
    std::memcpy(P, &Bits, Size);
}

inline std::uint64_t TeamModel::atomicRMW(Lane &L, DeviceAddr A, TypeKind K,
                                          unsigned Size, ir::AtomicOp Op,
                                          std::uint64_t V) {
  std::uint8_t *P = resolve(L, A, Size);
  if (!P)
    return 0;
  const auto NewBitsFor = [&](std::uint64_t RawOld) {
    return eval::atomicResult(Op, eval::canonBits(K, RawOld), V);
  };
  std::uint64_t Raw = 0;
  if (A.space() == MemSpace::Global && eval::atomicCapable(P, Size)) {
    // Teams on other launch threads may hit the same word.
    Raw = Size == 4 ? eval::atomicFetchModify<std::uint32_t>(P, NewBitsFor)
                    : eval::atomicFetchModify<std::uint64_t>(P, NewBitsFor);
  } else {
    // Shared and local memory are team-private: a plain RMW is race-free.
    std::memcpy(&Raw, P, Size);
    const std::uint64_t NewBits = NewBitsFor(Raw);
    std::memcpy(P, &NewBits, Size);
  }
  chargeAccess(L, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
  return eval::canonBits(K, Raw);
}

inline std::uint64_t TeamModel::allocLocal(Lane &L, std::uint64_t Size) {
  const std::optional<std::uint64_t> Off = L.Local.allocate(Size);
  if (!Off) {
    trap(L, "local memory exhausted");
    return 0;
  }
  return DeviceAddr::make(MemSpace::Local, *Off,
                          static_cast<std::uint16_t>(L.Tid))
      .Bits;
}

//===----------------------------------------------------------------------===//
// The native-op context
//===----------------------------------------------------------------------===//

/// What a registered native op sees of the lane that runs it: typed
/// arguments, device memory, compute-cycle charging and the result slot.
/// Its accesses resolve, charge and count exactly like kernel loads and
/// stores (without the race shadow), through the team model's inline
/// paths, so a native body behaves the same under every backend.
/// TeamModel::callNative builds one per call.
class NativeCtx {
public:
  /// Number of IR operands passed to the NativeOp.
  [[nodiscard]] unsigned numArgs() const { return N; }
  /// Raw 64-bit representation of argument I.
  [[nodiscard]] std::uint64_t argBits(unsigned I) const {
    CODESIGN_ASSERT(I < N, "native arg out of range");
    return Args[I];
  }

  [[nodiscard]] std::int64_t argI64(unsigned I) const {
    return static_cast<std::int64_t>(argBits(I));
  }
  [[nodiscard]] std::int32_t argI32(unsigned I) const {
    return static_cast<std::int32_t>(argBits(I));
  }
  [[nodiscard]] double argF64(unsigned I) const {
    const std::uint64_t B = argBits(I);
    double D;
    std::memcpy(&D, &B, sizeof(D));
    return D;
  }
  [[nodiscard]] DeviceAddr argPtr(unsigned I) const {
    return DeviceAddr(argBits(I));
  }

  /// Typed device memory access. Loads/stores are charged to the cost model
  /// and counted in the launch metrics, so a memory-bound native body
  /// behaves like memory-bound IR. An access that traps the lane loads 0
  /// and stores nothing.
  [[nodiscard]] std::uint64_t loadBits(DeviceAddr A, unsigned Size) {
    std::uint64_t Raw = 0;
    if (const std::uint8_t *P =
            Team.access(L, A, Size, /*IsStore=*/false, /*Shadow=*/false))
      std::memcpy(&Raw, P, Size);
    return Raw;
  }
  void storeBits(DeviceAddr A, std::uint64_t Bits, unsigned Size) {
    if (std::uint8_t *P =
            Team.access(L, A, Size, /*IsStore=*/true, /*Shadow=*/false))
      std::memcpy(P, &Bits, Size);
  }

  [[nodiscard]] double loadF64(DeviceAddr A) {
    const std::uint64_t B = loadBits(A, 8);
    double D;
    std::memcpy(&D, &B, sizeof(D));
    return D;
  }
  void storeF64(DeviceAddr A, double D) {
    std::uint64_t B;
    std::memcpy(&B, &D, sizeof(B));
    storeBits(A, B, 8);
  }
  [[nodiscard]] std::int64_t loadI64(DeviceAddr A) {
    return static_cast<std::int64_t>(loadBits(A, 8));
  }
  void storeI64(DeviceAddr A, std::int64_t V) {
    storeBits(A, static_cast<std::uint64_t>(V), 8);
  }
  [[nodiscard]] std::int32_t loadI32(DeviceAddr A) {
    return static_cast<std::int32_t>(loadBits(A, 4));
  }
  void storeI32(DeviceAddr A, std::int32_t V) {
    storeBits(A, static_cast<std::uint64_t>(static_cast<std::uint32_t>(V)), 4);
  }

  /// Load Count contiguous f64 elements starting at A into Out. The cost
  /// model charges, launch metrics and bounds behavior are exactly those of
  /// Count scalar loadF64 calls: a range inside global or shared memory is
  /// charged once and copied en bloc, any other range takes the scalar
  /// path element by element.
  void loadBlockF64(DeviceAddr A, double *Out, std::uint32_t Count) {
    if (const std::uint8_t *P = block(A, Count, /*IsStore=*/false)) {
      std::memcpy(Out, P, static_cast<std::uint64_t>(Count) * 8);
      return;
    }
    for (std::uint32_t I = 0; I < Count; ++I)
      Out[I] = loadF64(A.advance(static_cast<std::int64_t>(I) * 8));
  }

  /// Store Count contiguous f64 elements from In starting at A. Same
  /// contract as loadBlockF64: charges and metrics of Count scalar
  /// storeF64 calls.
  void storeBlockF64(DeviceAddr A, const double *In, std::uint32_t Count) {
    if (std::uint8_t *P = block(A, Count, /*IsStore=*/true)) {
      std::memcpy(P, In, static_cast<std::uint64_t>(Count) * 8);
      return;
    }
    for (std::uint32_t I = 0; I < Count; ++I)
      storeF64(A.advance(static_cast<std::int64_t>(I) * 8), In[I]);
  }

  /// Charge pure compute cycles (ALU/FPU work done natively).
  void chargeCycles(std::uint64_t Cycles) {
    L.Cycles += Cycles;
    Team.Cnt.NativeCycles += Cycles;
  }

  /// Set the NativeOp result (for non-void result types).
  void setResultBits(std::uint64_t Bits) {
    Result = Bits;
    HasResult = true;
  }
  void setResultF64(double D) {
    std::uint64_t B;
    std::memcpy(&B, &D, sizeof(B));
    setResultBits(B);
  }
  void setResultI64(std::int64_t V) {
    setResultBits(static_cast<std::uint64_t>(V));
  }

  /// Identity of the executing thread (for divergent native bodies).
  [[nodiscard]] std::uint32_t threadId() const { return L.Tid; }
  [[nodiscard]] std::uint32_t teamId() const { return Team.TeamId; }

private:
  friend class TeamModel;

  NativeCtx(TeamModel &Team, Lane &L, const std::uint64_t *Args, unsigned N)
      : Team(Team), L(L), Args(Args), N(N) {}

  /// Storage of Count f64 elements at A, charged and counted as Count
  /// scalar accesses, when the whole range lies in global or shared
  /// memory; null, with nothing charged, otherwise.
  std::uint8_t *block(DeviceAddr A, std::uint32_t Count, bool IsStore) {
    const std::uint64_t Bytes = static_cast<std::uint64_t>(Count) * 8;
    std::uint8_t *P = nullptr;
    if (A.space() == MemSpace::Global && A.offset() + Bytes <= Team.GMCap)
      P = Team.GMBase + A.offset();
    else if (A.space() == MemSpace::Shared)
      P = Team.sharedBytes(A.offset(), Bytes);
    if (P)
      Team.chargeAccess(L, A.space(), IsStore, /*IsAtomic=*/false, 8, Count);
    return P;
  }

  TeamModel &Team;
  Lane &L;
  const std::uint64_t *Args;
  unsigned N;
  std::uint64_t Result = 0;
  bool HasResult = false;
};

} // namespace codesign::vgpu
