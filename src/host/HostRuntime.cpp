#include "host/HostRuntime.hpp"

#include <cstring>

namespace codesign::host {

HostRuntime::~HostRuntime() {
  // Release leaked mappings so the device allocator stays usable for the
  // next runtime instance; tests check numMappings() to catch the leaks
  // themselves.
  for (auto &[HostPtr, M] : Table)
    Device.release(M.Addr);
}

Expected<void> HostRuntime::registerImage(
    const ir::Module &M,
    std::shared_ptr<const vgpu::BytecodeModule> Bytecode) {
  std::lock_guard<std::mutex> Lock(ImagesMutex);
  // Validate before mutating anything so a rejected image registers
  // nothing at all.
  for (const auto &F : M.functions())
    if (F->hasAttr(ir::FnAttr::Kernel) && Kernels.count(F->name()))
      return makeError("registerImage: kernel '", F->name(),
                       "' is already registered; unregister the previous "
                       "image first");
  ImageRec Rec;
  Rec.Image = Device.loadImage(M, std::move(Bytecode));
  Rec.InFlight = std::make_shared<std::atomic<std::uint32_t>>(0);
  const vgpu::ModuleImage *Img = Rec.Image.get();
  for (const auto &F : M.functions())
    if (F->hasAttr(ir::FnAttr::Kernel))
      Kernels[F->name()] = KernelEntry{Img, F.get(), Rec.InFlight};
  Images.push_back(std::move(Rec));
  return {};
}

Expected<void> HostRuntime::unregisterImage(const ir::Module &M) {
  std::lock_guard<std::mutex> Lock(ImagesMutex);
  bool Found = false;
  for (const ImageRec &Rec : Images) {
    if (&Rec.Image->module() != &M)
      continue;
    Found = true;
    if (const std::uint32_t Running = Rec.InFlight->load())
      return makeError("unregisterImage: module has ", std::to_string(Running),
                       " in-flight launch(es); wait for them to complete "
                       "before unregistering");
  }
  if (!Found)
    return makeError("unregisterImage: module was never registered (or was "
                     "already unregistered)");
  for (auto It = Kernels.begin(); It != Kernels.end();) {
    if (&It->second.Image->module() == &M)
      It = Kernels.erase(It);
    else
      ++It;
  }
  std::erase_if(Images, [&](const ImageRec &Rec) {
    return &Rec.Image->module() == &M;
  });
  return {};
}

Expected<DeviceAddr> HostRuntime::enterDataImpl(const void *HostPtr,
                                                std::uint64_t Size,
                                                bool CopyTo,
                                                TransferCause Cause,
                                                TransferStats *Scope) {
  if (!HostPtr || Size == 0)
    return makeError("enterData: null pointer or zero size");
  std::lock_guard<std::mutex> Lock(TableMutex);
  auto It = Table.find(HostPtr);
  if (It != Table.end()) {
    if (It->second.Size != Size)
      return makeError("enterData: pointer already mapped with a different "
                       "size");
    // Already present: refcount bump only, no motion (OpenMP present-table
    // semantics). This is the zero-byte path pre-mapped residency buys.
    ++It->second.RefCount;
    return It->second.Addr;
  }
  auto Addr = Device.tryAllocate(Size);
  if (!Addr)
    return makeError("enterData: ", Addr.error().message());
  Mapping M;
  M.Addr = *Addr;
  M.Size = Size;
  M.RefCount = 1;
  if (CopyTo)
    Engine.toDevice(M.Addr, HostPtr, Size, Cause, Scope);
  Table.emplace(HostPtr, M);
  return M.Addr;
}

Expected<DeviceAddr> HostRuntime::enterData(const void *HostPtr,
                                            std::uint64_t Size, bool CopyTo,
                                            TransferStats *Scope) {
  return enterDataImpl(HostPtr, Size, CopyTo, TransferCause::EnterData,
                       Scope);
}

Expected<void> HostRuntime::exitDataImpl(void *HostPtr, bool CopyFrom,
                                         TransferCause Cause,
                                         TransferStats *Scope) {
  std::lock_guard<std::mutex> Lock(TableMutex);
  auto It = Table.find(HostPtr);
  if (It == Table.end())
    return makeError("exitData: pointer is not mapped");
  Mapping &M = It->second;
  if (--M.RefCount == 0) {
    // From-motion applies only on the releasing exit: an inner exit of a
    // nested mapping is bookkeeping, not data motion.
    if (CopyFrom)
      Engine.fromDevice(HostPtr, M.Addr, M.Size, Cause, Scope);
    Device.release(M.Addr);
    Table.erase(It);
  }
  return {};
}

Expected<void> HostRuntime::exitData(void *HostPtr, bool CopyFrom,
                                     TransferStats *Scope) {
  return exitDataImpl(HostPtr, CopyFrom, TransferCause::ExitData, Scope);
}

Expected<void> HostRuntime::updateTo(const void *HostPtr) {
  std::lock_guard<std::mutex> Lock(TableMutex);
  auto It = Table.find(HostPtr);
  if (It == Table.end())
    return makeError("updateTo: pointer is not mapped");
  Engine.toDevice(It->second.Addr, HostPtr, It->second.Size,
                  TransferCause::UpdateTo, nullptr);
  return {};
}

Expected<void> HostRuntime::updateFrom(void *HostPtr) {
  std::lock_guard<std::mutex> Lock(TableMutex);
  auto It = Table.find(HostPtr);
  if (It == Table.end())
    return makeError("updateFrom: pointer is not mapped");
  Engine.fromDevice(HostPtr, It->second.Addr, It->second.Size,
                    TransferCause::UpdateFrom, nullptr);
  return {};
}

Expected<DeviceAddr> HostRuntime::lookup(const void *HostPtr) const {
  std::lock_guard<std::mutex> Lock(TableMutex);
  auto It = Table.find(HostPtr);
  if (It == Table.end())
    return makeError("lookup: pointer is not mapped");
  return It->second.Addr;
}

bool HostRuntime::isPresent(const void *HostPtr) const {
  std::lock_guard<std::mutex> Lock(TableMutex);
  return Table.find(HostPtr) != Table.end();
}

const ir::Function *HostRuntime::findKernel(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(ImagesMutex);
  auto It = Kernels.find(Name);
  return It == Kernels.end() ? nullptr : It->second.Kernel;
}

Expected<LaunchResult> HostRuntime::launch(const LaunchRequest &Request) {
  if (auto Valid = Request.validate(); !Valid)
    return Valid.error();
  // Resolve and pin the kernel's image: with the entry copied out and the
  // in-flight count raised, unregisterImage refuses to drop the image while
  // the launch below runs outside the lock.
  KernelEntry Entry;
  {
    std::lock_guard<std::mutex> Lock(ImagesMutex);
    auto It = Kernels.find(Request.Kernel);
    if (It == Kernels.end())
      return makeError("launch: no registered kernel named '", Request.Kernel,
                       "'");
    Entry = It->second;
    Entry.InFlight->fetch_add(1);
  }
  struct Unpin {
    std::atomic<std::uint32_t> &Count;
    ~Unpin() { Count.fetch_sub(1); }
  } Unpin{*Entry.InFlight};
  // Per-launch transfer attribution: everything the buffer auto-mapping
  // below moves lands in Scope and, after the launch, in the profile.
  TransferStats Scope;
  // Indices of Buffer arguments this launch mapped; unwound on failure
  // (no from-motion) and unmapped per their clauses after the launch.
  std::vector<std::size_t> MappedBufs;
  auto UnwindBuffers = [&] {
    for (auto It = MappedBufs.rbegin(); It != MappedBufs.rend(); ++It) {
      const KernelArg &A = Request.Args[*It];
      // Rollback is bookkeeping only: a failed launch must not write
      // half-initialized device bytes back over host data.
      (void)exitDataImpl(const_cast<void *>(A.HostPtr), /*CopyFrom=*/false,
                         TransferCause::LaunchUnmap, &Scope);
    }
    MappedBufs.clear();
  };
  std::vector<std::uint64_t> Bits;
  Bits.reserve(Request.Args.size());
  for (std::size_t Idx = 0; Idx < Request.Args.size(); ++Idx) {
    const KernelArg &A = Request.Args[Idx];
    switch (A.K) {
    case KernelArg::Kind::I64:
      Bits.push_back(static_cast<std::uint64_t>(A.I));
      break;
    case KernelArg::Kind::F64: {
      std::uint64_t B;
      std::memcpy(&B, &A.F, 8);
      Bits.push_back(B);
      break;
    }
    case KernelArg::Kind::MappedPtr: {
      auto Addr = lookup(A.HostPtr);
      if (!Addr) {
        UnwindBuffers();
        return makeError("launch '", Request.Kernel, "': argument #",
                         std::to_string(Idx),
                         " is not device-mapped (map it with enterData "
                         "first): ",
                         Addr.error().message());
      }
      Bits.push_back(Addr->Bits);
      break;
    }
    case KernelArg::Kind::Buffer: {
      // Map for the duration of the launch. When the buffer is already
      // resident this is a refcount bump and moves nothing.
      auto Addr = enterDataImpl(A.HostPtr, A.Bytes,
                                /*CopyTo=*/ir::mapCopiesTo(A.Map),
                                TransferCause::LaunchMap, &Scope);
      if (!Addr) {
        UnwindBuffers();
        return makeError("launch '", Request.Kernel, "': argument #",
                         std::to_string(Idx), " could not be mapped (",
                         ir::mapKindName(A.Map), ", ",
                         std::to_string(A.Bytes),
                         " bytes): ", Addr.error().message());
      }
      MappedBufs.push_back(Idx);
      Bits.push_back(Addr->Bits);
      break;
    }
    }
  }
  LaunchResult R =
      Device.launch(*Entry.Image, Entry.Kernel, Bits, Request.Config.NumTeams,
                    Request.Config.NumThreads);
  // Unmap buffer arguments. From-motion follows the clause but is
  // suppressed when the kernel trapped (its output is not meaningful) and,
  // per present-table rules, when an outer mapping keeps the buffer
  // resident — the delayed motion happens at that mapping's releasing exit.
  for (auto It = MappedBufs.rbegin(); It != MappedBufs.rend(); ++It) {
    const KernelArg &A = Request.Args[*It];
    (void)exitDataImpl(const_cast<void *>(A.HostPtr),
                       /*CopyFrom=*/R.Ok && ir::mapCopiesFrom(A.Map),
                       TransferCause::LaunchUnmap, &Scope);
  }
  R.Profile.TransfersToDevice = Scope.TransfersToDevice;
  R.Profile.TransfersFromDevice = Scope.TransfersFromDevice;
  R.Profile.BytesToDevice = Scope.BytesToDevice;
  R.Profile.BytesFromDevice = Scope.BytesFromDevice;
  R.Profile.TransferCycles = Scope.ModeledCycles;
  return R;
}

} // namespace codesign::host
