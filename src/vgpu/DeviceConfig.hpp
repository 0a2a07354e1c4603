//===- vgpu/DeviceConfig.hpp - Virtual GPU configuration -------------------===//
#pragma once

#include <cstdint>
#include <string>

namespace codesign::vgpu {

/// Latency cost model, in cycles. The defaults are latency-class numbers in
/// the spirit of an NVIDIA A100 (the paper's evaluation machine): register
/// ops are cheap, shared memory is an order of magnitude slower, global
/// memory another order of magnitude. Only relative magnitudes matter for
/// reproducing the paper's shapes.
struct CostModel {
  std::uint32_t Alu = 1;          ///< add/sub/bitwise/compare/select/cast
  std::uint32_t Mul = 4;          ///< integer multiply
  std::uint32_t Div = 20;         ///< divide / remainder
  std::uint32_t FAlu = 2;         ///< float add/sub/mul
  std::uint32_t FDiv = 20;        ///< float divide
  std::uint32_t Branch = 2;       ///< taken or not
  std::uint32_t SharedAccess = 30;  ///< shared-memory load/store
  std::uint32_t GlobalAccess = 400; ///< global-memory load/store
  std::uint32_t LocalAccess = 4;  ///< per-thread local ("register spill") access
  std::uint32_t AtomicShared = 40;
  std::uint32_t AtomicGlobal = 600;
  std::uint32_t BarrierCost = 40; ///< team barrier rendezvous
  std::uint32_t CallOverhead = 5; ///< frame setup of a non-inlined call
  std::uint32_t MallocCost = 800; ///< device heap allocation
  /// Host<->device link model (host::TransferEngine): each transfer pays a
  /// fixed setup latency plus a per-byte cost. The defaults sketch a
  /// PCIe-class interconnect relative to the memory numbers above — a
  /// transfer is catastrophically more expensive than any on-device access,
  /// which is exactly why inferred minimal mappings matter.
  std::uint32_t TransferSetupCycles = 2000; ///< per-transfer fixed latency
  std::uint32_t TransferBytesPerCycle = 16; ///< link bandwidth
};

/// Static device shape.
struct DeviceConfig {
  std::uint32_t NumSMs = 8;                 ///< streaming multiprocessors
  std::uint32_t MaxThreadsPerTeam = 1024;   ///< hardware limit
  std::uint64_t SharedMemPerTeam = 48 * 1024;   ///< bytes of shared memory
  /// Bytes of global memory: reserved when the device is built and
  /// committed by the OS a page at a time on first touch (at most 2^46).
  std::uint64_t GlobalMemBytes = 64ULL << 20;
  std::uint64_t LocalMemPerThread = 64 * 1024;  ///< bytes of local memory
  /// Register file per SM; together with SharedMemPerTeam it bounds how
  /// many teams an SM can host concurrently (occupancy). This is the
  /// mechanism by which Figure 11's register and shared-memory columns
  /// translate into Figure 10's kernel times: "Most performance benefits
  /// can be traced to reducing and/or eliminating the shared memory and
  /// register usage".
  std::uint32_t RegisterFilePerSM = 65536;
  std::uint32_t MaxConcurrentTeamsPerSM = 16;
  /// Upper bound on interpreted instructions per thread; exceeded => error
  /// (guards against runaway kernels in tests).
  std::uint64_t MaxDynamicInstPerThread = 1ULL << 27;
  /// Host threads used by the launch engine to execute teams in parallel.
  /// Teams share no mutable state except global memory reached via atomics,
  /// and their outcomes are folded in team-ID order, so the reported
  /// numbers are bit-identical to a serial run regardless of this setting.
  /// 0 = one per hardware thread; 1 = serial execution in the caller.
  std::uint32_t HostThreads = 0;
  /// Debug executions verify runtime invariants (aligned barriers actually
  /// aligned, assertions checked) exactly like the paper's debug builds
  /// (Section III-G).
  bool DebugChecks = true;
  /// Dynamic race detection: shadow every shared-memory byte with its last
  /// reader/writer and the barrier epoch they ran in; two plain accesses to
  /// the same byte from different threads in the same epoch with at least
  /// one write trap the launch. Also rejects an aligned-barrier rendezvous
  /// once any thread of the team has exited (divergent aligned barrier).
  /// This is the dynamic oracle behind the static lint passes; off by
  /// default — the shadow map costs per-access work.
  bool DetectRaces = false;
  /// Execution backend, by exec::BackendRegistry name. "bytecode" is the
  /// default; "tree" (the IR-walking engine, bit-identical semantic
  /// reference) and "native" (host-compiled C++ codegen, the raw-speed
  /// ceiling) remain selectable — VirtualGPU honors the
  /// CODESIGN_EXEC_BACKEND environment variable — for differential runs.
  std::string ExecBackend = "bytecode";
  CostModel Costs;
};

} // namespace codesign::vgpu
