//===- vgpu/Bytecode.hpp - Dense kernel bytecode for the fast tier ---------===//
//
// The second execution tier of the virtual GPU. Each compiled module is
// lowered ONCE into flat, register-allocated bytecode: one dense BCInst
// array per function, SSA values pre-assigned to integer slots (the same
// args-then-instructions numbering the tree walker's FunctionLayout uses),
// every operand pre-resolved to a slot index or a constant-pool index,
// branch targets as instruction indices, and phi nodes compiled into
// per-edge parallel-copy trampolines. Apart from those trampolines, every bytecode instruction is
// exactly one IR instruction, so each counts and charges once.
//
// The bytecode is pure program text: it references ir::GlobalVariable /
// ir::Function symbols through typed constant-pool entries that the
// bytecode backend resolves to an image's device addresses when it binds a
// kernel, so one lowering is shared by every image (and cached by the
// frontend's KernelCache next to the optimized module). A compile's
// lowering also carries its kernels' static stats, as a GPU code object
// carries its kernel descriptors, so the launch plan of an image loaded
// with it runs no liveness pass.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ir/Module.hpp"
#include "vgpu/Metrics.hpp"

namespace codesign::vgpu {

/// Imm of an Opcode::Phi record that traps instead of copying (a record
/// with Imm >= 0 is a phi-edge trampoline; Imm indexes BCFunction::Bundles).
/// Each trap matches the tree walker's: some phi of the successor has no
/// incoming value for the edge, the block ends without a terminator, or a
/// phi follows a non-phi (counted like any instruction, then rejected).
inline constexpr std::int64_t BCPhiNoIncoming = -1;
inline constexpr std::int64_t BCFellOffBlock = -2;
inline constexpr std::int64_t BCMidBlockPhi = -3;

/// Operand references index a frame's unified value array: indices below
/// NumSlots are argument/instruction slots, indices NumSlots + k read entry
/// k of the function's resolved constant pool (copied into the frame at
/// frame setup), so every operand read is a single branchless load.
/// "No slot" marker for void results.
inline constexpr std::uint32_t BCNoSlot = 0xFFFFFFFFu;
/// "No operand" marker (e.g. a void Ret).
inline constexpr std::uint32_t BCNoRef = 0xFFFFFFFFu;

/// One bytecode instruction: the ir::Opcode of the IR instruction it
/// lowers, whose value operations evaluate through ir/Eval.hpp. Phis never
/// appear as themselves: an Opcode::Phi record is a phi-edge trampoline, a
/// parallel copy for one CFG edge and then a jump into the successor body,
/// charged like the tree interpreter's en-bloc phi execution (cycles only,
/// no dynamic-instruction accounting), or one of the BCPhi traps above.
/// Fixed layout; operand/branch decoding needs no IR access on the hot
/// path. Src keeps the originating IR instruction for the cases that need
/// identity or payload at runtime: barrier alignment checks, assume/assert
/// trap messages, call argument checks.
struct BCInst {
  ir::Opcode Op = ir::Opcode::Phi;
  std::uint8_t TyKind = 0;    ///< ir::TypeKind of the result
  std::uint8_t SrcTyKind = 0; ///< ir::TypeKind of the source operand
  std::uint8_t Pred = 0;      ///< ir::CmpPred for compares
  std::uint8_t Cls = 0;       ///< vgpu::OpClass for the launch profile
  std::uint16_t Size = 0; ///< memory access size in bytes
  std::uint32_t Dst = BCNoSlot;
  std::uint32_t A = 0; ///< operand ref (slot or NumSlots+pool index)
  std::uint32_t B = 0;
  std::uint32_t C = 0;
  /// Branch targets as instruction indices; reused as (extras index,
  /// argument count) for Call/NativeOp, which have no targets.
  std::uint32_t T0 = 0;
  std::uint32_t T1 = 0;
  /// Immediate: Alloca size, AtomicOp, native functor id, phi bundle
  /// index or BCPhi trap.
  std::int64_t Imm = 0;
  const ir::Instruction *Src = nullptr;
};

/// A typed constant-pool entry. Literals carry canonical value bits;
/// global / function entries are resolved per image into device
/// address bits.
struct BCConst {
  enum class Kind : std::uint8_t { Lit, Global, Func };
  Kind K = Kind::Lit;
  std::uint64_t Bits = 0;
  const ir::GlobalVariable *G = nullptr;
  const ir::Function *F = nullptr;
};

/// One lowered function.
struct BCFunction {
  const ir::Function *F = nullptr;
  std::uint32_t Index = 0; ///< dense index within the BytecodeModule
  bool HasBody = false;    ///< declarations keep an empty body
  std::uint32_t NumArgs = 0;
  std::uint32_t NumSlots = 0; ///< frame size (args + non-void results)
  std::uint32_t Entry = 0;    ///< instruction index of the entry block
  /// ir::TypeKind of each parameter (argument canonicalization on calls
  /// without touching the IR).
  std::vector<std::uint8_t> ArgTyKinds;
  std::vector<BCInst> Code;
  std::vector<BCConst> Pool;
  /// Flattened call/native argument reference lists (BCInst::T0 indexes
  /// here, BCInst::T1 is the count).
  std::vector<std::uint32_t> Extras;
  /// Parallel-copy lists of phi-edge trampolines (BCInst::Imm indexes
  /// here). Each copy reads Src (a ref) and writes Dst (a slot); all reads
  /// happen before any write.
  struct PhiCopy {
    std::uint32_t Dst = 0;
    std::uint32_t Src = 0;
  };
  std::vector<std::vector<PhiCopy>> Bundles;
  /// A kernel's static stats as its compile computed them; empty when the
  /// lowering was made without them.
  std::optional<KernelStaticStats> Stats;
};

/// A kernel's static stats, handed to the lowering by the compile that
/// computed them.
struct KernelDescriptor {
  const ir::Function *Kernel = nullptr;
  KernelStaticStats Stats;
};

/// A module lowered to bytecode. Immutable after construction; shared
/// between the kernel cache, the images loaded with it, the bytecode
/// backend's bound kernels, and all executing teams.
struct BytecodeModule {
  const ir::Module *M = nullptr;
  std::vector<BCFunction> Functions; ///< module function order
  std::unordered_map<const ir::Function *, std::uint32_t> Index;

  [[nodiscard]] const BCFunction *functionFor(const ir::Function *F) const {
    auto It = Index.find(F);
    return It == Index.end() ? nullptr : &Functions[It->second];
  }
};

/// One-shot lowering of a whole module.
class BytecodeEmitter {
public:
  /// Lower every function of M (declarations become body-less entries so
  /// indirect calls to them can trap with the tree walker's message), and
  /// keep each descriptor's stats on its kernel's BCFunction.
  static std::shared_ptr<const BytecodeModule>
  lower(const ir::Module &M, std::span<const KernelDescriptor> Kernels = {});
};

} // namespace codesign::vgpu
