//===- host/HostRuntime.hpp - libomptarget-style host runtime --------------===//
//
// The host side of the paper's Section II-C execution model: "The host
// (CPU) coordinates scheduling and synchronization of target tasks (i.e.
// kernels), as well as memory allocation and movement between the host and
// GPUs." Provides the classic present-table data mapping with reference
// counts (target enter/exit/update data) and kernel launches that marshal
// scalar arguments, translate mapped host pointers to device addresses, and
// auto-map Buffer arguments per their map(to/from/tofrom/alloc) clauses.
// Every byte of host<->device motion goes through the owned TransferEngine,
// which costs and accounts it (per-launch profile, lifetime stats, BENCH
// JSON "transfers" section). memsetDevice fills a device copy in place and
// moves no host bytes, so it is not a transfer.
//
// All entry points are safe to call concurrently: the present table and the
// image/kernel tables are guarded independently, and launches pin their
// image with an in-flight count so unregisterImage cannot pull a module out
// from under a running kernel (it reports the conflict instead). This is
// what lets the multi-tenant service (src/service) drive one runtime from
// many worker threads.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "host/LaunchRequest.hpp"
#include "host/TransferEngine.hpp"
#include "support/Error.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::host {

using vgpu::DeviceAddr;
using vgpu::LaunchResult;

/// Host-side OpenMP offloading runtime over one virtual device.
class HostRuntime {
public:
  explicit HostRuntime(vgpu::VirtualGPU &Device) : Device(Device) {}
  ~HostRuntime();
  HostRuntime(const HostRuntime &) = delete;
  HostRuntime &operator=(const HostRuntime &) = delete;

  // --- Device images -------------------------------------------------------

  /// Register and load a compiled module; kernels become launchable by
  /// name. The module must outlive this runtime (or be removed with
  /// unregisterImage first). Fails — registering nothing — when any kernel
  /// name in M is already registered: silently overwriting would leave
  /// launches bound to an ambiguous image. A pre-lowered bytecode module
  /// (CompiledKernel::Bytecode) is attached to the image when provided, so
  /// the bytecode backend binds its kernels without lowering M again and
  /// no launch recomputes the kernel stats the compile carried in it.
  Expected<void>
  registerImage(const ir::Module &M,
                std::shared_ptr<const vgpu::BytecodeModule> Bytecode = nullptr);

  /// Remove every image previously registered from M, dropping its kernel
  /// name bindings. Fails without unregistering anything when M was never
  /// registered (the caller's bookkeeping is off) or when any of M's
  /// kernels is still executing (an in-flight launch holds the image).
  Expected<void> unregisterImage(const ir::Module &M);

  // --- Data mapping (present table, reference counted) ----------------------

  /// Map [HostPtr, HostPtr+Size) to device memory ("omp target enter
  /// data"). Increments the reference count when already present (the size
  /// must then match) — a re-map of a present pointer moves no bytes.
  /// CopyTo controls the `to` motion clause and applies only when the
  /// mapping is created. Scope, when given, additionally accumulates any
  /// motion (per-pipeline attribution).
  Expected<DeviceAddr> enterData(const void *HostPtr, std::uint64_t Size,
                                 bool CopyTo = true,
                                 TransferStats *Scope = nullptr);

  /// Unmap ("omp target exit data"): decrement the reference count.
  /// Following the OpenMP present-table rules, the `from` motion requested
  /// with CopyFrom applies only when the reference count reaches zero (the
  /// storage is then released); an inner exit of a nested mapping moves no
  /// bytes. Fails with a "pointer is not mapped" error for pointers that
  /// were never mapped (or already fully unmapped).
  Expected<void> exitData(void *HostPtr, bool CopyFrom = false,
                          TransferStats *Scope = nullptr);

  /// "omp target update to/from": refresh one direction without changing
  /// reference counts. Fails with a "pointer is not mapped" error for
  /// unmapped pointers.
  Expected<void> updateTo(const void *HostPtr);
  Expected<void> updateFrom(void *HostPtr);

  /// Set every byte of a mapping's device copy to Byte on the device
  /// (OpenMP 6.0's omp_target_memset over the whole mapping). No host
  /// bytes move, so the TransferEngine accounts nothing. Fails with a
  /// "pointer is not mapped" error for unmapped pointers.
  Expected<void> memsetDevice(const void *HostPtr, std::uint8_t Byte);

  /// Device address of a mapped host pointer (error when not present).
  Expected<DeviceAddr> lookup(const void *HostPtr) const;
  /// True when the pointer is currently mapped.
  [[nodiscard]] bool isPresent(const void *HostPtr) const;
  /// Number of live mappings (leak checks in tests).
  [[nodiscard]] std::size_t numMappings() const {
    std::lock_guard<std::mutex> Lock(TableMutex);
    return Table.size();
  }

  /// The data-motion engine every transfer goes through (stats and the
  /// modeled link cost live there).
  [[nodiscard]] TransferEngine &transfers() { return Engine; }
  [[nodiscard]] const TransferEngine &transfers() const { return Engine; }

  // --- Kernel launches ---------------------------------------------------------

  /// Launch a registered kernel ("omp target teams ..."): the one validated
  /// entry point every path funnels through. Marshals the arguments
  /// (translating mapped pointers, auto-mapping Buffer arguments for the
  /// duration of the launch per their map clauses), pins the kernel's image
  /// for the duration, and blocks until completion. The result's
  /// LaunchProfile carries the transfers this launch caused. A warm launch
  /// copies nothing and, on one host thread, allocates nothing: the
  /// marshalled bits reuse the host thread's spare vector.
  Expected<LaunchResult> launch(std::string_view KernelName,
                                std::span<const KernelArg> Args,
                                std::uint32_t NumTeams,
                                std::uint32_t NumThreads);

  /// The same launch, described by a request.
  Expected<LaunchResult> launch(const LaunchRequest &Request) {
    return launch(Request.Kernel, Request.Args, Request.Config.NumTeams,
                  Request.Config.NumThreads);
  }

  /// The registered kernel function behind a name, or null. Lets callers
  /// (the service's pipeline planner, benches) consult declared/inferred
  /// map clauses before building launch requests.
  [[nodiscard]] const ir::Function *findKernel(std::string_view Name) const;

private:
  struct Mapping {
    DeviceAddr Addr;
    std::uint64_t Size = 0;
    std::uint32_t RefCount = 0;
  };

  struct ImageRec {
    std::unique_ptr<vgpu::ModuleImage> Image;
    /// Launches currently executing from this image. Shared so a launch
    /// can safely decrement after the runtime dropped the record.
    std::shared_ptr<std::atomic<std::uint32_t>> InFlight;
  };

  struct KernelEntry {
    const vgpu::ModuleImage *Image = nullptr;
    const ir::Function *Kernel = nullptr;
    std::shared_ptr<std::atomic<std::uint32_t>> InFlight;
  };

  /// Map/unmap internals shared by the public entry points and the
  /// launch-time buffer auto-mapping (which attributes its transfers to a
  /// per-launch scope under Launch* causes).
  Expected<DeviceAddr> enterDataImpl(const void *HostPtr, std::uint64_t Size,
                                     bool CopyTo, TransferCause Cause,
                                     TransferStats *Scope);
  Expected<void> exitDataImpl(void *HostPtr, bool CopyFrom,
                              TransferCause Cause, TransferStats *Scope);

  vgpu::VirtualGPU &Device;
  TransferEngine Engine{Device};
  /// Guards the present table: application host threads may issue
  /// enterData/exitData concurrently (OpenMP target tasks).
  mutable std::mutex TableMutex;
  std::map<const void *, Mapping> Table;
  /// Guards the image list and kernel-name bindings; launches resolve and
  /// pin their entry under this lock, then run without it.
  mutable std::mutex ImagesMutex;
  std::vector<ImageRec> Images;
  std::map<std::string, KernelEntry, std::less<>> Kernels;
};

} // namespace codesign::host
