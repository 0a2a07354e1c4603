//===- rt/RuntimeABI.hpp - Names and layouts shared across the stack ------===//
//
// Central definition of the device-runtime ABI: global-variable names, the
// team ICV state layout (paper Section III-B), thread-state layout (III-C),
// shared-stack shape (III-D), runtime entry-point names, and the
// configuration globals through which the frontend communicates compile-time
// flags to the runtime ("emit constant globals that the runtime will 'read'
// at compile time", Section III-F).
//
// Everything here is consumed by: the new-runtime generator (rt), the
// legacy-runtime generator (oldrt), the frontend lowering, the optimizer
// (which recognizes a handful of entries by name), and the tests.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <string_view>

namespace codesign::rt {

/// Execution mode constants passed to __kmpc_target_init (matches
/// ir::ExecMode semantics: 0 generic, 1 SPMD).
inline constexpr std::int32_t ModeGeneric = 0;
inline constexpr std::int32_t ModeSPMD = 1;

/// Maximum threads per team the runtime supports (sizes the thread-states
/// pointer array). Like the real device RTL, the array is provisioned for
/// the hardware maximum whether or not a launch uses it — state the
/// optimizer must eliminate for full occupancy.
inline constexpr std::uint32_t MaxThreadsPerTeam = 512;

/// Shared-memory stack size (paper Section III-D). Global `malloc` is the
/// overflow fallback.
inline constexpr std::uint64_t SharedStackBytes = 8192;

//===----------------------------------------------------------------------===//
// Team ICV state (one instance per team, static shared memory)
//===----------------------------------------------------------------------===//

/// Byte offsets of fields inside @__omp_team_state. The optimizer's
/// field-sensitive access analysis (Section IV-B1) bins accesses by exactly
/// these (offset, size) pairs.
struct TeamStateLayout {
  static constexpr std::int64_t NThreadsVar = 0;       ///< i32 nthreads-var ICV
  static constexpr std::int64_t LevelsVar = 4;         ///< i32 levels-var ICV
  static constexpr std::int64_t ActiveLevelsVar = 8;   ///< i32
  static constexpr std::int64_t RunSchedVar = 12;      ///< i32
  static constexpr std::int64_t WorkFn = 16;           ///< ptr: state machine work fn
  static constexpr std::int64_t WorkArgs = 24;         ///< ptr: its argument block
  static constexpr std::int64_t ParallelTeamSize = 32; ///< i32
  static constexpr std::int64_t Size = 40;
};

/// Byte offsets inside an on-demand thread ICV state (allocated from the
/// shared stack when a thread's state diverges from the team's; Section
/// III-C).
struct ThreadStateLayout {
  static constexpr std::int64_t NThreadsVar = 0;     ///< i32
  static constexpr std::int64_t LevelsVar = 4;       ///< i32
  static constexpr std::int64_t ActiveLevelsVar = 8; ///< i32
  static constexpr std::int64_t Pad = 12;            ///< i32
  static constexpr std::int64_t Previous = 16;       ///< ptr: enclosing state
  static constexpr std::int64_t Size = 24;
};

//===----------------------------------------------------------------------===//
// Global (module-level) symbol names
//===----------------------------------------------------------------------===//

// Shared-space runtime state.
inline constexpr std::string_view SpmdFlagName = "__omp_spmd_mode";
inline constexpr std::string_view TeamStateName = "__omp_team_state";
inline constexpr std::string_view ThreadStatesName = "__omp_thread_states";
inline constexpr std::string_view SharedStackName = "__omp_shared_stack";
inline constexpr std::string_view StackTopName = "__omp_stack_top";
inline constexpr std::string_view DummyName = "__omp_cond_write_dummy";

// Compile-time configuration (Constant space, value chosen by the frontend
// from command-line-style flags; paper Sections III-F and III-G).
inline constexpr std::string_view DebugKindName = "__omp_rtl_debug_kind";
inline constexpr std::string_view AssumeTeamsOversubName =
    "__omp_rtl_assume_teams_oversubscription";
inline constexpr std::string_view AssumeThreadsOversubName =
    "__omp_rtl_assume_threads_oversubscription";

// Debug-kind bits.
inline constexpr std::int32_t DebugAssertions = 1;
inline constexpr std::int32_t DebugFunctionTracing = 2;

// Host-readable trace counters (Global space): one u64 slot per traced
// runtime entry point; populated only when function tracing is enabled.
inline constexpr std::string_view TraceCountsName = "__omp_trace_counts";

/// Slots in @__omp_trace_counts.
enum class TraceSlot : std::int64_t {
  TargetInit = 0,
  TargetDeinit,
  Parallel,
  DistributeForStaticLoop,
  ForStaticLoop,
  AllocShared,
  FreeShared,
  ThreadStatePush,
  ThreadStatePop,
  NumSlots,
};

//===----------------------------------------------------------------------===//
// Runtime entry-point names (new runtime)
//===----------------------------------------------------------------------===//

inline constexpr std::string_view TargetInitName = "__kmpc_target_init";
inline constexpr std::string_view TargetDeinitName = "__kmpc_target_deinit";
inline constexpr std::string_view ParallelName = "__kmpc_parallel";
inline constexpr std::string_view WorkFnWaitName = "__kmpc_workfn_wait";
inline constexpr std::string_view WorkFnArgsName = "__kmpc_workfn_args";
inline constexpr std::string_view WorkFnDoneName = "__kmpc_workfn_done";
inline constexpr std::string_view DistributeForStaticLoopName =
    "__kmpc_distribute_for_static_loop";
inline constexpr std::string_view ForStaticLoopName = "__kmpc_for_static_loop";
inline constexpr std::string_view DistributeForGenericLoopName =
    "__kmpc_distribute_for_generic_loop";
inline constexpr std::string_view AllocSharedName = "__kmpc_alloc_shared";
inline constexpr std::string_view FreeSharedName = "__kmpc_free_shared";
inline constexpr std::string_view GetThreadNumName = "omp_get_thread_num";
inline constexpr std::string_view GetNumThreadsName = "omp_get_num_threads";
inline constexpr std::string_view GetTeamNumName = "omp_get_team_num";
inline constexpr std::string_view GetNumTeamsName = "omp_get_num_teams";
inline constexpr std::string_view GetLevelName = "omp_get_level";
inline constexpr std::string_view InParallelName = "omp_in_parallel";
inline constexpr std::string_view SetNumThreadsName = "omp_set_num_threads";
inline constexpr std::string_view SpmdParallelBeginName =
    "__kmpc_spmd_parallel_begin";
inline constexpr std::string_view SpmdParallelEndName =
    "__kmpc_spmd_parallel_end";
inline constexpr std::string_view BroadcastPtrName = "__kmpc_broadcast_ptr";
inline constexpr std::string_view BroadcastSlotName = "__omp_bcast_slot";

/// Entry points SPMDization (Section IV-A3) introduces into a generic-mode
/// kernel that never called them. The runtime link copies them whether or
/// not the kernel references them, and the pass declines a kernel whose
/// module lacks one.
inline constexpr std::string_view SpmdizationEntryPoints[] = {
    SpmdParallelBeginName, SpmdParallelEndName, DistributeForStaticLoopName};

//===----------------------------------------------------------------------===//
// Legacy runtime (oldrt) symbols — deliberately a different, opaque ABI
//===----------------------------------------------------------------------===//

inline constexpr std::string_view OldInitName = "__old_kmpc_kernel_init";
inline constexpr std::string_view OldDeinitName = "__old_kmpc_kernel_deinit";
inline constexpr std::string_view OldParallelName = "__old_kmpc_kernel_parallel";
inline constexpr std::string_view OldEndParallelName =
    "__old_kmpc_kernel_end_parallel";
inline constexpr std::string_view OldForStaticInitName =
    "__old_kmpc_for_static_init";
inline constexpr std::string_view OldForStaticFiniName =
    "__old_kmpc_for_static_fini";
inline constexpr std::string_view OldDistributeInitName =
    "__old_kmpc_distribute_static_init";
inline constexpr std::string_view OldGetThreadNumName =
    "__old_omp_get_thread_num";
inline constexpr std::string_view OldGetNumThreadsName =
    "__old_omp_get_num_threads";
inline constexpr std::string_view OldDataSharingSlabName =
    "__old_omp_data_sharing_slab";
inline constexpr std::string_view OldTeamContextName = "__old_omp_team_context";

/// Size of the legacy data-sharing slab: the paper's Figure 11 reports a
/// constant 2336 B of static shared memory for every Old-RT build.
inline constexpr std::uint64_t OldSlabBytes = 2176;
inline constexpr std::uint64_t OldTeamContextBytes = 160;

} // namespace codesign::rt
