//===- vgpu/VirtualGPU.hpp - Device facade ---------------------------------===//
//
// The user-facing device object: owns global memory and the native-op
// registry, loads module images, and launches kernels through the one
// execution backend it resolved. The host runtime (src/host) builds its
// libomptarget-like data mapping on top of this. Including this header
// gives native payloads the full NativeCtx (vgpu/TeamModel.hpp).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "exec/Backend.hpp"
#include "support/ThreadPool.hpp"
#include "support/Trace.hpp"
#include "vgpu/Interpreter.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::vgpu {

/// A virtual GPU device.
class VirtualGPU {
public:
  explicit VirtualGPU(DeviceConfig Config = {})
      : Config(std::move(Config)), GM(this->Config.GlobalMemBytes) {
    // Runtime knob for differential runs: CODESIGN_EXEC_BACKEND=
    // tree|bytecode|native overrides the configured execution backend
    // without recompiling the harness (bench/ and the backend-parity tests
    // rely on this). An unknown name is latched and every launch on this
    // device reports it; it never falls back to the default engine — a
    // typo in a differential harness must not quietly compare a backend to
    // itself.
    const char *Env = std::getenv("CODESIGN_EXEC_BACKEND");
    const std::string Name = Env ? std::string(Env) : this->Config.ExecBackend;
    if (auto Set = setExecBackend(Name); !Set) {
      BackendError =
          (Env ? "CODESIGN_EXEC_BACKEND: " : "") + Set.error().message();
      if (Env && trace::Tracer::global().enabled())
        trace::Tracer::global().instant("vgpu", "exec.backend.unknown");
    }
  }

  /// Device configuration (read-only after construction).
  [[nodiscard]] const DeviceConfig &config() const { return Config; }
  /// Registry used to resolve NativeOp ids; populate before launching.
  [[nodiscard]] NativeRegistry &registry() { return Registry; }

  // --- Host-visible memory management (cudaMalloc/cudaMemcpy analogue) ----

  /// Allocate Size bytes of device global memory; exhaustion is returned
  /// as a recoverable error (the host runtime surfaces it to the user).
  Expected<DeviceAddr> tryAllocate(std::uint64_t Size,
                                   std::uint64_t Align = 16) {
    auto Off = GM.allocate(Size, Align);
    if (!Off)
      return Off.error();
    return DeviceAddr::make(MemSpace::Global, *Off);
  }
  /// Allocate Size bytes of device global memory. Fails fatally on
  /// exhaustion — the convenience entry point for tests and examples that
  /// cannot continue meaningfully without the buffer.
  DeviceAddr allocate(std::uint64_t Size, std::uint64_t Align = 16) {
    auto A = tryAllocate(Size, Align);
    CODESIGN_ASSERT(A.hasValue(), "device global memory exhausted");
    return *A;
  }
  /// Release an allocation from allocate().
  void release(DeviceAddr A) {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "release of non-global");
    GM.release(A.offset());
  }
  /// Copies and fills of more than CopyChunk bytes are split into pieces
  /// of this size, run on the device's host threads (HostThreads). A
  /// launch leaves its outputs in the caches of the threads that ran its
  /// teams, and one core alone copies a few MB at a fraction of the rate
  /// four reach.
  static constexpr std::uint64_t CopyChunk = 256 * 1024;
  /// Copy host -> device.
  void write(DeviceAddr A, std::span<const std::uint8_t> Data) {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "write to non-global");
    inChunks(Data.size(), [&](std::uint64_t Lo, std::uint64_t Len) {
      GM.write(A.offset() + Lo, Data.subspan(Lo, Len));
    });
  }
  /// Copy device -> host.
  void read(DeviceAddr A, std::span<std::uint8_t> Out) const {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "read from non-global");
    inChunks(Out.size(), [&](std::uint64_t Lo, std::uint64_t Len) {
      GM.read(A.offset() + Lo, Out.subspan(Lo, Len));
    });
  }
  /// Set Size bytes at A to Byte on the device (cudaMemset analogue): no
  /// host bytes move.
  void fill(DeviceAddr A, std::uint64_t Size, std::uint8_t Byte) {
    CODESIGN_ASSERT(A.space() == MemSpace::Global, "fill of non-global");
    inChunks(Size, [&](std::uint64_t Lo, std::uint64_t Len) {
      GM.fill(A.offset() + Lo, Len, Byte);
    });
  }
  /// Bytes currently allocated (leak checking in tests).
  [[nodiscard]] std::uint64_t bytesInUse() const { return GM.bytesInUse(); }

  // --- Images and launches ---------------------------------------------------

  /// Prepare a module for execution (global layout + initialization).
  /// The module must outlive the image. A pre-lowered bytecode module (the
  /// frontend caches one per compiled kernel) can be attached so the
  /// bytecode backend skips re-lowering and the launch plan takes the
  /// kernel stats it carries; when absent, the bytecode backend lowers the
  /// module when it binds a kernel of the image, and the first launch of a
  /// kernel computes its stats.
  std::unique_ptr<ModuleImage>
  loadImage(const Module &M,
            std::shared_ptr<const BytecodeModule> Bytecode = nullptr) {
    return std::make_unique<ModuleImage>(M, GM, std::move(Bytecode));
  }

  /// Launch a kernel by function pointer through the device's execution
  /// backend.
  LaunchResult launch(const ModuleImage &Image, const Function *Kernel,
                      std::span<const std::uint64_t> Args,
                      std::uint32_t NumTeams, std::uint32_t NumThreads) {
    if (!Backend) {
      LaunchResult R;
      R.Error = BackendError;
      return R;
    }
    return exec::launch(*Backend, {Config, GM, Registry}, Image, Kernel, Args,
                        NumTeams, NumThreads);
  }

  /// Launch a kernel by name.
  LaunchResult launch(const ModuleImage &Image, std::string_view KernelName,
                      std::span<const std::uint64_t> Args,
                      std::uint32_t NumTeams, std::uint32_t NumThreads) {
    const Function *K = Image.module().findFunction(KernelName);
    if (!K) {
      LaunchResult R;
      R.Error = "no such kernel: " + std::string(KernelName);
      return R;
    }
    return launch(Image, K, Args, NumTeams, NumThreads);
  }

  /// Toggle debug executions (runtime invariant verification).
  void setDebugChecks(bool On) { Config.DebugChecks = On; }

  /// Toggle the dynamic shared-memory race / divergent-aligned-barrier
  /// detector (the lint passes' runtime oracle).
  void setDetectRaces(bool On) { Config.DetectRaces = On; }

  /// Select the execution backend by its registry name ("tree",
  /// "bytecode", "native"). Overrides any CODESIGN_EXEC_BACKEND environment
  /// setting applied at construction and clears its error; an unknown name
  /// is rejected with BackendRegistry::lookup's error, without changing the
  /// configuration.
  Expected<void> setExecBackend(std::string_view Name) {
    auto B = exec::BackendRegistry::global().lookup(Name);
    if (!B)
      return B.error();
    Backend = *B;
    Config.ExecBackend = std::string(Backend->name());
    BackendError.clear();
    return Expected<void>::success();
  }

  /// The configured execution backend's registry name.
  [[nodiscard]] const std::string &execBackend() const {
    return Config.ExecBackend;
  }

  /// Non-empty when construction rejected the execution backend's name;
  /// every launch fails with this message until setExecBackend().
  [[nodiscard]] const std::string &backendError() const {
    return BackendError;
  }

private:
  /// Part(Lo, Len) over [0, Size) in CopyChunk pieces, on at most
  /// HostThreads threads; one piece runs on the caller.
  template <typename PartT>
  void inChunks(std::uint64_t Size, const PartT &Part) const {
    const std::uint64_t Chunks = std::max<std::uint64_t>(
        1, Size / CopyChunk + (Size % CopyChunk != 0));
    support::ThreadPool::global().parallelFor(
        support::resolveHostThreads(Config.HostThreads), Chunks,
        [&](std::uint64_t I) {
          const std::uint64_t Lo = I * CopyChunk;
          Part(Lo, std::min(CopyChunk, Size - Lo));
        });
  }

  DeviceConfig Config;
  GlobalMemory GM;
  NativeRegistry Registry;
  /// The registered backend Config.ExecBackend names; null while
  /// BackendError holds why construction rejected the name.
  exec::Backend *Backend = nullptr;
  std::string BackendError;
};

} // namespace codesign::vgpu
