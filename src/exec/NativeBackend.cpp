//===- exec/NativeBackend.cpp - host-compiled C++ codegen backend ----------===//
//
// The wall-clock ceiling tier: each post-optimization module is emitted as
// standalone C++ (NativeCodegen.cpp), compiled with the host toolchain into
// a shared object, and dlopen'd behind the same launch API the interpreting
// backends serve. Shared objects are cached twice — in-process per module
// content key (the frontend kernel-cache key when available, an IR-text
// hash otherwise) and on disk per (source, compiler command) hash — so a
// recompile or a rerun reuses the .so. A cached .so that dlopen refuses
// (truncated, say) is compiled afresh once.
//
// Each team runs in the shared team model (vgpu/TeamModel.hpp), like the
// interpreting backends: its scheduler advances one lane at a time by
// running the compiled kernel entry on that lane's fiber until the lane
// returns, traps or suspends at a barrier, and its rendezvous releases the
// barrier. Because a barrier suspends the whole fiber,
// barriers are legal at any call depth — inside the old runtime's opaque
// entry helpers and inside outlined work functions reached through the
// state machine's indirect calls included.
//
// Everything the generated code cannot do natively calls back into the
// team model through the cg_team function pointers: registered native ops
// (run against the team model's NativeCtx), device malloc/free, every
// address resolution outside the published memory windows (traps, and
// local- and shared-memory growth), and the barrier suspension itself.
//
//===----------------------------------------------------------------------===//
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <ucontext.h>
#include <unistd.h>

#include "exec/Backend.hpp"
#include "exec/BuiltinBackends.hpp"
#include "exec/NativeABI.hpp"
#include "exec/NativeCodegen.hpp"
#include "ir/Printer.hpp"
#include "support/Hash.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::exec {

namespace {

namespace fs = std::filesystem;

using DriverFn = void (*)(void *);

//===----------------------------------------------------------------------===//
// Keys and small helpers
//===----------------------------------------------------------------------===//

std::string hex64(std::uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// In-process identity of a module's generated code. Prefer the frontend
/// kernel-cache key (stamped by TargetCompiler's single-flight compile);
/// fall back to hashing the printed IR for modules built outside that path
/// (unit tests constructing IR by hand).
std::string moduleKey(const ir::Module &M) {
  if (!M.cacheKey().empty())
    return "ck|" + M.cacheKey();
  return "tx|" + hex64(xxh64(ir::printModule(M)));
}

//===----------------------------------------------------------------------===//
// Compiled-module cache
//===----------------------------------------------------------------------===//

struct CompiledModule {
  NativeModuleSource Src;
  void *Handle = nullptr; ///< dlopen handle; intentionally never dlclosed
  std::unordered_map<std::string, DriverFn> Drivers; ///< by kernel IR name
};

std::string compilerPath() {
  if (const char *CXX = std::getenv("CODESIGN_NATIVE_CXX"))
    return CXX;
  return "c++";
}

std::string compilerFlags() {
  std::string Flags =
      "-std=c++20 -O2 -fPIC -shared -fno-strict-aliasing -ffp-contract=off";
#ifdef CODESIGN_NATIVE_SANITIZE_UNDEFINED
  // The ubsan CI flavor: generated modules dlopen into a sanitized process
  // and get instrumented the same way the harness is.
  Flags += " -fsanitize=undefined -fno-sanitize-recover=undefined";
#endif
  return Flags;
}

fs::path cacheDir() {
  if (const char *Dir = std::getenv("CODESIGN_NATIVE_CACHE_DIR"))
    return fs::path(Dir);
  return fs::temp_directory_path() / "codesign-native";
}

std::string readLogTail(const fs::path &Log) {
  std::ifstream In(Log);
  if (!In)
    return "(no compiler output captured)";
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  constexpr std::size_t MaxLen = 4000;
  if (Text.size() > MaxLen)
    Text = "..." + Text.substr(Text.size() - MaxLen);
  return Text;
}

/// Compile Source into the shared object So. The source goes to a file
/// private to this process, so concurrent processes compiling the same key
/// never read each other's half-written source; it is deleted once the
/// compile succeeds and kept, with the compiler log, when it fails.
Expected<void> compileTo(const std::string &Source, const std::string &Cmd,
                         const fs::path &So) {
  std::error_code EC;
  const std::string Stem = (So.parent_path() / So.stem()).string() + "." +
                           std::to_string(::getpid());
  const fs::path Src = Stem + ".cpp", TmpSo = Stem + ".tmp.so",
                 Log = Stem + ".log";
  {
    std::ofstream Out(Src, std::ios::trunc);
    Out << Source;
    if (!Out)
      return makeError("cannot write generated source '", Src.string(), "'");
  }
  const std::string Command = Cmd + " -o '" + TmpSo.string() + "' '" +
                              Src.string() + "' 2> '" + Log.string() + "'";
  const int Status = std::system(Command.c_str());
  if (Status != 0) {
    std::string Diag = readLogTail(Log);
    fs::remove(TmpSo, EC);
    return makeError("host compiler failed (", Command, "):\n", Diag);
  }
  fs::remove(Src, EC);
  fs::remove(Log, EC);
  // Atomic publish: concurrent processes compiling the same key race
  // benignly — last rename wins with identical bytes.
  fs::rename(TmpSo, So, EC);
  if (EC && !fs::exists(So))
    return makeError("cannot publish compiled module '", So.string(),
                     "': ", EC.message());
  return Expected<void>::success();
}

/// Compile Source to a shared object in the disk cache and dlopen it. The
/// cache key covers the source bytes and the full compiler command, so a
/// toolchain or flag change recompiles instead of reusing a stale object.
/// An object dlopen refuses is removed and compiled afresh once; only a
/// second refusal is an error.
Expected<void *> compileAndLoad(const std::string &Source) {
  const std::string Cmd = compilerPath() + " " + compilerFlags();
  const std::string Key = hex64(xxh64(Cmd, xxh64(Source)));
  std::error_code EC;
  const fs::path Dir = cacheDir();
  fs::create_directories(Dir, EC);
  if (EC)
    return makeError("cannot create native cache directory '", Dir.string(),
                     "': ", EC.message());
  const fs::path So = Dir / ("cg_" + Key + ".so");
  std::optional<std::string> Refused; // why dlopen refused the first object
  for (;;) {
    if (!fs::exists(So, EC)) {
      if (auto Built = compileTo(Source, Cmd, So); !Built) {
        if (!Refused)
          return Built.error();
        return makeError("recompiling after dlopen('", So.string(),
                         "') failed (", *Refused,
                         "): ", Built.error().message());
      }
    }
    if (void *Handle = ::dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL))
      return Handle;
    const char *Err = ::dlerror();
    const std::string Why = Err ? Err : "unknown error";
    if (Refused)
      return makeError("dlopen('", So.string(), "') failed twice: first ",
                       *Refused, "; after recompiling: ", Why);
    Refused = Why;
    fs::remove(So, EC);
  }
}

//===----------------------------------------------------------------------===//
// Host bridge: one team's execution state
//===----------------------------------------------------------------------===//

#if defined(__x86_64__)
// glibc's swapcontext issues a rt_sigprocmask system call on every switch;
// with one suspend + one resume per lane per barrier rendezvous, that
// syscall dominates barrier-dense kernels. The generated code is plain C++
// that never touches the signal mask mid-kernel, so swapping the System V
// callee-saved registers and the stack pointer is a complete context
// switch. Other architectures fall back to ucontext.
#define CODESIGN_FIBER_RAWSWITCH 1
extern "C" void cgFiberSwitch(void **SaveSp, void *RestoreSp);
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl cgFiberSwitch\n"
    ".type cgFiberSwitch,@function\n"
    "cgFiberSwitch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size cgFiberSwitch,.-cgFiberSwitch\n");
#endif

/// A lane stack: deliberately uninitialized heap memory of StackBytes
/// (generated frames are dense uint64 slot arrays, so this is generous).
constexpr std::uint64_t StackBytes = 256 * 1024;
using StackBuf = std::unique_ptr<std::uint8_t[]>;

/// Lane stacks recycle through a thread-local free list: a launch keeps at
/// most threads-per-team fibers live at once but runs thousands of teams,
/// and mapping + faulting a fresh quarter-megabyte stack per lane per team
/// costs more than many kernels do.
thread_local std::vector<StackBuf> StackPool;

StackBuf acquireStack() {
  if (StackPool.empty())
    return StackBuf(new std::uint8_t[StackBytes]);
  StackBuf B = std::move(StackPool.back());
  StackPool.pop_back();
  return B;
}

void recycleStack(StackBuf &&B) {
  if (B && StackPool.size() < 256)
    StackPool.push_back(std::move(B));
}

/// One lane's execution fiber.
struct LaneFiber {
#if CODESIGN_FIBER_RAWSWITCH
  void *Sp = nullptr;
#else
  ucontext_t Ctx;
#endif
  StackBuf Stack;
  bool Started = false;
};

struct HostTeam {
  /// The team running on this scratch; runTeam sets it before each team.
  vgpu::TeamModel *Team = nullptr;
  abi::cg_team T;
  std::vector<abi::cg_lane> Lanes;
  std::vector<std::vector<std::uint64_t>> SlotStore;
#if CODESIGN_FIBER_RAWSWITCH
  void *SchedSp = nullptr;
#else
  ucontext_t SchedCtx;
#endif
  std::vector<LaneFiber> Fibers;
  DriverFn Entry = nullptr;
  /// False when the module has no barrier: no lane can ever suspend, so
  /// lanes run straight on the scheduler's stack.
  bool UseFibers = false;
};

/// Fiber entry functions cannot portably receive pointers (makecontext) or
/// registers (the raw switch's `ret` into us); the scheduler parks the
/// team/lane to start here immediately before the first swap into the
/// fiber. Thread-local because the launch engine runs teams concurrently on
/// its worker threads (fibers always resume on the thread that is
/// scheduling their team).
thread_local HostTeam *FiberStartTeam = nullptr;
thread_local abi::cg_lane *FiberStartLane = nullptr;

void fiberMain() {
  HostTeam *H = FiberStartTeam;
  abi::cg_lane *L = FiberStartLane;
  H->Entry(L);
#if CODESIGN_FIBER_RAWSWITCH
  // The lane finished (status 1 or 2); hand control back for good. The raw
  // switch has no uc_link, so returning is not an option.
  void *Dead = nullptr;
  cgFiberSwitch(&Dead, H->SchedSp);
  __builtin_unreachable();
#endif
  // ucontext: returning ends the fiber; uc_link resumes the scheduler
  // context saved by the swap that ran us last.
}

/// After a host call that may have grown lane L's local arena or the
/// team's shared arena, or trapped L: republish both windows (the shared
/// one grows in place, so only its size changes), and let the generated
/// code unwind the trap.
void syncLane(HostTeam &H, abi::cg_lane &L, vgpu::Lane &TL) {
  const std::span<std::uint8_t> Window = TL.Local.mapped();
  L.local_base = Window.data();
  L.local_size = Window.size();
  H.T.shared_cap = H.Team->sharedWindow().size();
  if (TL.Status == vgpu::LaneStatus::Trapped)
    L.status = 2u;
}

//--- cg_team host callbacks -------------------------------------------------

std::uint64_t hostNativeOp(void *Host, abi::cg_lane *Lane, std::int64_t Id,
                           const std::uint64_t *Args, std::uint32_t N,
                           std::uint32_t ResultKind) {
  HostTeam &H = *static_cast<HostTeam *>(Host);
  vgpu::Lane &TL = H.Team->Lanes[Lane->tid];
  const std::uint64_t R = H.Team->callNative(
      TL, Id, Args, N, static_cast<ir::TypeKind>(ResultKind));
  syncLane(H, *Lane, TL);
  return R;
}

std::uint64_t hostMalloc(void *Host, std::uint64_t Size) {
  return static_cast<HostTeam *>(Host)->Team->deviceMalloc(Size);
}

void hostFree(void *Host, std::uint64_t AddrBits) {
  static_cast<HostTeam *>(Host)->Team->deviceFree(AddrBits);
}

std::uint8_t *hostResolve(void *Host, abi::cg_lane *Lane,
                          std::uint64_t AddrBits, std::uint64_t Size) {
  HostTeam &H = *static_cast<HostTeam *>(Host);
  vgpu::Lane &TL = H.Team->Lanes[Lane->tid];
  std::uint8_t *P = H.Team->resolve(TL, vgpu::DeviceAddr(AddrBits),
                                    static_cast<unsigned>(Size));
  syncLane(H, *Lane, TL);
  return P;
}

/// Barrier suspension: park the calling lane fiber (its status is already
/// 3 with the site recorded) and resume the team scheduler. Control comes
/// back here when the rendezvous releases the lane.
void hostSuspend(void *Host, abi::cg_lane *Lane) {
  auto &H = *static_cast<HostTeam *>(Host);
#if CODESIGN_FIBER_RAWSWITCH
  cgFiberSwitch(&H.Fibers[Lane->tid].Sp, H.SchedSp);
#else
  ::swapcontext(&H.Fibers[Lane->tid].Ctx, &H.SchedCtx);
#endif
}

/// Start lane I's fiber (first time) or resume it at the barrier it is
/// parked on; returns when the lane blocks.
void resumeFiber(HostTeam &H, std::uint32_t I) {
  LaneFiber &Fb = H.Fibers[I];
  if (!Fb.Started) {
    Fb.Stack = acquireStack();
    Fb.Started = true;
    FiberStartTeam = &H;
    FiberStartLane = &H.Lanes[I];
#if CODESIGN_FIBER_RAWSWITCH
    // Hand-build the frame the switch restores: a 16-byte-aligned slot
    // holding fiberMain as the `ret` target, six callee-saved register
    // slots below it (zeroed — their first-entry values are never read).
    // After the `ret`, rsp sits where a `call fiberMain` would have left
    // it, so the generated code's alignment assumptions hold.
    std::uint8_t *Top = Fb.Stack.get() + StackBytes;
    std::uintptr_t Entry =
        (reinterpret_cast<std::uintptr_t>(Top) - 8) & ~std::uintptr_t(15);
    void (*Fn)() = &fiberMain;
    std::memcpy(reinterpret_cast<void *>(Entry), &Fn, sizeof(Fn));
    Fb.Sp = reinterpret_cast<void *>(Entry - 48);
    std::memset(Fb.Sp, 0, 48);
#else
    ::getcontext(&Fb.Ctx);
    Fb.Ctx.uc_stack.ss_sp = Fb.Stack.get();
    Fb.Ctx.uc_stack.ss_size = StackBytes;
    Fb.Ctx.uc_link = &H.SchedCtx;
    ::makecontext(&Fb.Ctx, &fiberMain, 0);
#endif
  }
#if CODESIGN_FIBER_RAWSWITCH
  cgFiberSwitch(&H.SchedSp, Fb.Sp);
#else
  ::swapcontext(&H.SchedCtx, &Fb.Ctx);
#endif
  if (H.Lanes[I].status != 3u) {
    // Returned or trapped: the fiber is dead, its stack reusable.
    recycleStack(std::move(Fb.Stack));
  }
}

/// The team model's step for one lane: run it until it returns, traps or
/// suspends at a barrier, then report that to the lane's model state.
void runLane(HostTeam &H, vgpu::Lane &TL) {
  abi::cg_lane &L = H.Lanes[TL.Tid];
  L.status = 0u;
  if (H.UseFibers)
    resumeFiber(H, TL.Tid);
  else
    H.Entry(&L);
  switch (L.status) {
  case 1u:
    TL.Status = vgpu::LaneStatus::Done;
    break;
  case 2u:
    // Host-side traps (resolution, native ops) already hold their message.
    if (TL.Status != vgpu::LaneStatus::Trapped)
      H.Team->trap(TL, L.trap_msg);
    break;
  case 3u:
    TL.block(L.barrier_site, L.barrier_aligned != 0u);
    break;
  }
}

//===----------------------------------------------------------------------===//
// The backend
//===----------------------------------------------------------------------===//

class NativeBound final : public BoundKernel {
public:
  std::shared_ptr<const CompiledModule> CM;
  DriverFn Fn = nullptr;
  std::uint32_t NumSlots = 0;
  std::vector<std::uint64_t> CPool; ///< device addresses, per this image
};

class NativeBackend final : public Backend {
public:
  std::string_view name() const override { return "native"; }

  Expected<std::unique_ptr<BoundKernel>>
  bindKernel(const vgpu::ModuleImage &Image, const ir::Function *Kernel,
             const LaunchEnv &Env) override {
    if (Env.Config.DetectRaces)
      return Error("DetectRaces needs shadow-memory instrumentation the "
                   "generated code does not carry; use the tree or bytecode "
                   "backend");
    auto CMOr = ensureCompiled(Image.module());
    if (!CMOr)
      return CMOr.error();
    std::shared_ptr<const CompiledModule> CM = CMOr.takeValue();
    const auto KI = CM->Src.Kernels.find(Kernel->name());
    if (KI == CM->Src.Kernels.end())
      return makeError("no generated entry for kernel '@", Kernel->name(),
                       "'");

    auto Bound = std::make_unique<NativeBound>();
    Bound->Fn = CM->Drivers.at(Kernel->name());
    Bound->NumSlots = KI->second.NumSlots;
    Bound->CPool.reserve(CM->Src.CPool.size());
    const ir::Module &M = Image.module();
    for (const NativeCPoolEntry &E : CM->Src.CPool) {
      if (E.IsFunction)
        Bound->CPool.push_back(
            Image.functionAddress(M.functions()[E.Index].get()).Bits);
      else
        Bound->CPool.push_back(
            Image.addressOf(M.globals()[E.Index].get()).Bits);
    }
    Bound->CM = std::move(CM);
    return {std::move(Bound)};
  }

  vgpu::TeamRunOutcome runTeam(BoundKernel &Bound, const LaunchEnv &Env,
                               const vgpu::ModuleImage &Image,
                               const ir::Function *Kernel,
                               std::span<const std::uint64_t> Args,
                               std::uint32_t TeamId, std::uint32_t NumTeams,
                               std::uint32_t NumThreads) override {
    auto &BK = static_cast<NativeBound &>(Bound);
    CODESIGN_ASSERT(Args.size() == Kernel->numArgs(),
                    "argument count validated by the launch engine");
    vgpu::TeamModel Team(Env.Config, Env.GM, Env.Registry, Image, TeamId,
                         NumTeams, NumThreads);

    // One scratch HostTeam per worker thread, reused across the thousands
    // of teams a launch sweeps: the lane and slot arrays keep their
    // capacity. Everything a kernel can observe is reset below.
    thread_local HostTeam Scratch;
    HostTeam &H = Scratch;
    H.Team = &Team;
    H.T = abi::cg_team{};
    H.Lanes.resize(NumThreads);
    // Grow only: a narrower team leaves the wider team's slot arrays for
    // the next wide one.
    if (H.SlotStore.size() < NumThreads)
      H.SlotStore.resize(NumThreads);
    for (std::uint32_t I = 0; I < NumThreads; ++I) {
      auto &Slots = H.SlotStore[I];
      Slots.assign(std::max<std::uint32_t>(BK.NumSlots, 1), 0);
      for (unsigned A = 0; A < Kernel->numArgs(); ++A)
        Slots[A] =
            ir::eval::canonBits(Kernel->arg(A)->type().kind(), Args[A]);
      abi::cg_lane &L = H.Lanes[I];
      L = abi::cg_lane{};
      L.team = &H.T;
      L.slots = Slots.data();
      L.tid = I;
    }
    H.T.host = &H;
    H.T.team_id = TeamId;
    H.T.num_teams = NumTeams;
    H.T.num_threads = NumThreads;
    H.T.debug_checks = Env.Config.DebugChecks ? 1u : 0u;
    H.T.global_base = Team.GMBase;
    H.T.global_size = Team.GMCap;
    const std::span<std::uint8_t> Shared = Team.sharedWindow();
    H.T.shared_base = Shared.data();
    H.T.shared_cap = Shared.size();
    H.T.local_cap = Env.Config.LocalMemPerThread;
    H.T.cpool = BK.CPool.data();
    H.T.host_native_op = &hostNativeOp;
    H.T.host_malloc = &hostMalloc;
    H.T.host_free = &hostFree;
    H.T.host_resolve = &hostResolve;
    H.T.host_suspend = &hostSuspend;
    H.Entry = BK.Fn;
    H.UseFibers = BK.CM->Src.AnyBarriers;
    if (H.UseFibers) {
      H.Fibers.resize(NumThreads);
      for (LaneFiber &Fb : H.Fibers) {
        // A fiber can carry a stack across teams only when its lane was
        // still parked at a barrier when the previous team trapped; the
        // suspended frames hold no nontrivial objects, so the memory is
        // plain recyclable storage.
        recycleStack(std::move(Fb.Stack));
        Fb = LaneFiber{};
      }
    }

    return Team.run([&H](vgpu::Lane &L) { runLane(H, L); });
  }

private:
  Expected<std::shared_ptr<const CompiledModule>>
  ensureCompiled(const ir::Module &M) {
    const std::string Key = moduleKey(M);
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Cache.find(Key);
    if (It != Cache.end())
      return It->second;
    auto CM = std::make_shared<CompiledModule>();
    CM->Src = emitNativeModule(M);
    auto Handle = compileAndLoad(CM->Src.Source);
    if (!Handle)
      return Handle.error();
    CM->Handle = *Handle;
    for (const auto &[Name, Info] : CM->Src.Kernels) {
      void *Sym = ::dlsym(CM->Handle, Info.Symbol.c_str());
      if (!Sym)
        return makeError("generated module lacks driver symbol '",
                         Info.Symbol, "' for kernel '@", Name, "'");
      CM->Drivers[Name] = reinterpret_cast<DriverFn>(Sym);
    }
    auto Shared = std::shared_ptr<const CompiledModule>(std::move(CM));
    Cache.emplace(Key, Shared);
    return Shared;
  }

  std::mutex Mutex;
  std::unordered_map<std::string, std::shared_ptr<const CompiledModule>>
      Cache;
};

} // namespace

std::unique_ptr<Backend> makeNativeBackend() {
  return std::make_unique<NativeBackend>();
}

} // namespace codesign::exec
