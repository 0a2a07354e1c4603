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
//     one set of hot counters that is flushed into the team's shard once;
//   - the shared-memory race shadow (DeviceConfig::DetectRaces);
//   - the NativeCtx that registered native ops run against;
//   - the canonical value encoding and the global-memory atomics.
//
// The per-access helpers are inline and non-virtual, because the bytecode
// dispatch loop calls them for every instruction.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Instruction.hpp"
#include "vgpu/DeviceConfig.hpp"
#include "vgpu/IntOps.hpp"
#include "vgpu/Memory.hpp"
#include "vgpu/Metrics.hpp"
#include "vgpu/NativeRegistry.hpp"

namespace codesign::vgpu {

class ModuleImage;
using ir::TypeKind;

//===----------------------------------------------------------------------===//
// Canonical value encoding
//===----------------------------------------------------------------------===//

/// Canonical 64-bit bits of a value of kind K: i1 is 0/1, i32 is
/// sign-extended; i64, pointers and float bit patterns are kept as they are.
[[nodiscard]] inline std::uint64_t canonBits(TypeKind K, std::uint64_t Bits) {
  switch (K) {
  case TypeKind::I1:
    return Bits & 1;
  case TypeKind::I32:
    return intops::sext32(Bits);
  default:
    return Bits;
  }
}

/// The width-adjusted (zero-extended) view of canonical integer bits.
[[nodiscard]] inline std::uint64_t zextBits(TypeKind K, std::uint64_t Bits) {
  switch (K) {
  case TypeKind::I1:
    return Bits & 1;
  case TypeKind::I32:
    return Bits & 0xFFFFFFFFULL;
  default:
    return Bits;
  }
}

/// The value of canonical float bits of kind K (f32 or f64).
[[nodiscard]] inline double decodeF(TypeKind K, std::uint64_t Bits) {
  return K == TypeKind::F32 ? intops::decodeF32(Bits)
                            : intops::decodeF64(Bits);
}

/// Canonical bits of V as a float of kind K (f32 or f64).
[[nodiscard]] inline std::uint64_t encodeF(TypeKind K, double V) {
  return K == TypeKind::F32 ? intops::encodeF32(V) : intops::encodeF64(V);
}

/// New value of an atomic read-modify-write, from the canonical old value
/// and the canonical operand.
[[nodiscard]] inline std::uint64_t atomicResult(ir::AtomicOp Op,
                                                std::uint64_t Old,
                                                std::uint64_t V) {
  const auto OldS = static_cast<std::int64_t>(Old);
  const auto VS = static_cast<std::int64_t>(V);
  switch (Op) {
  case ir::AtomicOp::Add:
    return intops::addWrap(Old, V);
  case ir::AtomicOp::Max:
    return static_cast<std::uint64_t>(std::max(OldS, VS));
  case ir::AtomicOp::Min:
    return static_cast<std::uint64_t>(std::min(OldS, VS));
  case ir::AtomicOp::Exchange:
    return V;
  }
  CODESIGN_UNREACHABLE("unknown atomic op");
}

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

/// A team's metric and profile counters. They accumulate here while the
/// team runs and are added to its shard once, when it retires: the shards
/// of concurrently running teams are adjacent, so per-event increments
/// would ping-pong cache lines between host threads.
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

/// The op class an IR opcode counts under in the profile histogram
/// (HotCounters::Ops).
[[nodiscard]] OpClass classifyOpcode(ir::Opcode Op);

/// Result of a registered native op.
struct NativeOpResult {
  std::uint64_t Bits = 0;
  bool HasResult = false;
};

//===----------------------------------------------------------------------===//
// The team model
//===----------------------------------------------------------------------===//

/// One team of one launch. Teams share no mutable state except global
/// memory reached through atomics, so distinct teams may run concurrently;
/// Metrics/Profile are this team's private shards.
class TeamModel {
public:
  TeamModel(const DeviceConfig &Config, GlobalMemory &GM,
            const NativeRegistry &Registry, const ModuleImage &Image,
            std::uint32_t TeamId, std::uint32_t NumTeams,
            std::uint32_t NumThreads, LaunchMetrics &Metrics,
            LaunchProfile *Profile);
  TeamModel(const TeamModel &) = delete;
  TeamModel &operator=(const TeamModel &) = delete;

  /// Run the team to completion: Step(Lane &) advances one running lane
  /// until it is done, trapped or blocked at a barrier; Release() runs
  /// after every completed rendezvous, with the waiters running again.
  /// Returns the trap or rendezvous error that stopped the team.
  template <typename StepFn, typename ReleaseFn>
  std::optional<std::string> run(StepFn &&Step, ReleaseFn &&Release);
  template <typename StepFn> std::optional<std::string> run(StepFn &&Step) {
    return run(Step, [] {});
  }

  /// The team's modeled wall time: its slowest lane's clock.
  [[nodiscard]] std::uint64_t teamCycles() const;

  /// Stop lane L with Msg.
  void trap(Lane &L, std::string Msg);

  //--- Memory ---------------------------------------------------------------

  /// Host storage of Size bytes at A, or null after trapping L.
  std::uint8_t *resolve(Lane &L, DeviceAddr A, unsigned Size);
  /// Charge the cost model and count one access.
  void chargeAccess(Lane &L, MemSpace S, bool IsStore, bool IsAtomic,
                    unsigned Size);
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
  /// Atomic RMW / compare-exchange of kind K: the canonical old value, or
  /// 0 after trapping L.
  std::uint64_t atomicRMW(Lane &L, DeviceAddr A, TypeKind K, unsigned Size,
                          ir::AtomicOp Op, std::uint64_t V);
  std::uint64_t cmpXchg(Lane &L, DeviceAddr A, TypeKind K, unsigned Size,
                        std::uint64_t Expected, std::uint64_t Desired);
  /// Allocate Size bytes of L's local memory: the address, or 0 after
  /// trapping L.
  std::uint64_t allocLocal(Lane &L, std::uint64_t Size);
  /// Device malloc/free on the global arena. Exhaustion yields a null
  /// pointer the kernel can test, as in CUDA, never a host-side abort.
  std::uint64_t deviceMalloc(std::uint64_t Size);
  void deviceFree(std::uint64_t AddrBits);
  /// Grow the shared arena to the device cap now and return its base, for
  /// executors that address shared memory through a raw window.
  std::uint8_t *pinSharedArena();

  /// Run registered native op Id for lane L over Args.
  NativeOpResult callNative(Lane &L, std::int64_t Id,
                            const std::uint64_t *Args, unsigned N);

  const DeviceConfig &Config;
  const std::uint32_t TeamId, NumTeams, NumThreads;
  std::vector<Lane> Lanes;
  HotCounters Cnt;
  /// The global arena: fixed-size for the device's lifetime, so one base
  /// pointer serves every access of the launch.
  std::uint8_t *const GMBase;
  const std::uint64_t GMCap;

private:
  class NativeOpCtx;

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
  void flush();
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
  LaunchMetrics &Metrics;
  LaunchProfile *Profile;
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

template <typename StepFn, typename ReleaseFn>
std::optional<std::string> TeamModel::run(StepFn &&Step, ReleaseFn &&Release) {
  std::optional<std::string> Err;
  for (;;) {
    bool AllDone = true;
    for (Lane &L : Lanes) {
      if (L.Status == LaneStatus::Running)
        Step(L);
      if (L.Status == LaneStatus::Trapped) {
        Err = laneError(L);
        break;
      }
      if (L.Status != LaneStatus::Done)
        AllDone = false;
    }
    if (Err || AllDone)
      break;
    if ((Err = rendezvous()))
      break;
    Release();
  }
  flush();
  return Err;
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
                                    bool IsAtomic, unsigned Size) {
  const CostModel &C = Config.Costs;
  std::uint64_t Cost = 0;
  switch (S) {
  case MemSpace::Global:
    Cost = IsAtomic ? C.AtomicGlobal : C.GlobalAccess;
    (IsStore ? Cnt.GlobalStores : Cnt.GlobalLoads)++;
    (IsStore ? Cnt.GlobalBytesWritten : Cnt.GlobalBytesRead) += Size;
    break;
  case MemSpace::Shared:
    Cost = IsAtomic ? C.AtomicShared : C.SharedAccess;
    (IsStore ? Cnt.SharedStores : Cnt.SharedLoads)++;
    (IsStore ? Cnt.SharedBytesWritten : Cnt.SharedBytesRead) += Size;
    break;
  case MemSpace::Local:
    Cost = C.LocalAccess;
    Cnt.LocalAccesses++;
    break;
  case MemSpace::Invalid:
    break;
  }
  if (IsAtomic)
    Cnt.Atomics++;
  L.Cycles += Cost;
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
  return canonBits(K, Raw);
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
    return atomicResult(Op, canonBits(K, RawOld), V);
  };
  std::uint64_t Raw = 0;
  if (A.space() == MemSpace::Global && intops::atomicCapable(P, Size)) {
    // Teams on other launch threads may hit the same word.
    Raw = Size == 4 ? intops::atomicFetchModify<std::uint32_t>(P, NewBitsFor)
                    : intops::atomicFetchModify<std::uint64_t>(P, NewBitsFor);
  } else {
    // Shared and local memory are team-private: a plain RMW is race-free.
    std::memcpy(&Raw, P, Size);
    const std::uint64_t NewBits = NewBitsFor(Raw);
    std::memcpy(P, &NewBits, Size);
  }
  chargeAccess(L, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
  return canonBits(K, Raw);
}

inline std::uint64_t TeamModel::cmpXchg(Lane &L, DeviceAddr A, TypeKind K,
                                        unsigned Size, std::uint64_t Expected,
                                        std::uint64_t Desired) {
  std::uint8_t *P = resolve(L, A, Size);
  if (!P)
    return 0;
  std::uint64_t Raw = 0;
  if (A.space() == MemSpace::Global && intops::atomicCapable(P, Size)) {
    Raw = Size == 4 ? intops::atomicCas<std::uint32_t>(P, Expected, Desired)
                    : intops::atomicCas<std::uint64_t>(P, Expected, Desired);
  } else {
    std::memcpy(&Raw, P, Size);
    if (canonBits(K, Raw) == Expected)
      std::memcpy(P, &Desired, Size);
  }
  chargeAccess(L, A.space(), /*IsStore=*/true, /*IsAtomic=*/true, Size);
  return canonBits(K, Raw);
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

} // namespace codesign::vgpu
