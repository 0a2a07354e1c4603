//===- vgpu/Bytecode.cpp - One-shot lowering of IR to dense bytecode -------===//
#include "vgpu/Bytecode.hpp"

#include <map>
#include <optional>

#include "analysis/Divergence.hpp"
#include "ir/BasicBlock.hpp"
#include "vgpu/Interpreter.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::vgpu {

using ir::BasicBlock;
using ir::Function;
using ir::GlobalVariable;
using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::TypeKind;
using ir::Value;
using ir::ValueKind;

namespace {

/// Direct opcode translation for the 1:1 part of the instruction set.
BCOp directOp(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return BCOp::Add;
  case Opcode::Sub:
    return BCOp::Sub;
  case Opcode::Mul:
    return BCOp::Mul;
  case Opcode::SDiv:
    return BCOp::SDiv;
  case Opcode::UDiv:
    return BCOp::UDiv;
  case Opcode::SRem:
    return BCOp::SRem;
  case Opcode::URem:
    return BCOp::URem;
  case Opcode::And:
    return BCOp::And;
  case Opcode::Or:
    return BCOp::Or;
  case Opcode::Xor:
    return BCOp::Xor;
  case Opcode::Shl:
    return BCOp::Shl;
  case Opcode::LShr:
    return BCOp::LShr;
  case Opcode::AShr:
    return BCOp::AShr;
  case Opcode::FAdd:
    return BCOp::FAdd;
  case Opcode::FSub:
    return BCOp::FSub;
  case Opcode::FMul:
    return BCOp::FMul;
  case Opcode::FDiv:
    return BCOp::FDiv;
  default:
    CODESIGN_UNREACHABLE("not a direct binop");
  }
}

/// Opcodes whose results the executor may broadcast across a warp when the
/// divergence analysis proves them uniform. Deliberately excludes anything
/// touching memory, calling, allocating, or trapping on its own authority
/// (Assume/AssertFail): those must run on every lane so traps, shadow
/// state and metrics stay per-lane exact.
bool replayEligible(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::ICmp:
  case Opcode::FCmp:
  case Opcode::Select:
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPCast:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
  case Opcode::Gep:
  case Opcode::BlockId:
  case Opcode::BlockDim:
  case Opcode::GridDim:
  case Opcode::WarpSize:
    return true;
  default:
    return false;
  }
}

/// Number of leading phis of a block (the en-bloc prefix the tree
/// interpreter executes as a parallel assignment).
std::size_t leadingPhis(const BasicBlock *BB) {
  std::size_t N = 0;
  while (N < BB->size() && BB->inst(N)->opcode() == Opcode::Phi)
    ++N;
  return N;
}

/// Lowers one function body into a BCFunction.
class FunctionLowering {
public:
  FunctionLowering(const Function &F, const BytecodeModule &Mod,
                   BCFunction &Out)
      : F(F), Mod(Mod), Out(Out) {}

  void run() {
    Out.NumArgs = F.numArgs();
    // Slot numbering: args first, then every non-void instruction in block
    // order — the same dense numbering ModuleImage::FunctionLayout uses.
    for (const auto &A : F.args())
      Slots[A.get()] = NumSlots++;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          Slots[I.get()] = NumSlots++;
    Out.ArgTyKinds.reserve(F.numArgs());
    for (const auto &A : F.args())
      Out.ArgTyKinds.push_back(static_cast<std::uint8_t>(A->type().kind()));

    // Warp-uniformity oracle: only for kernels. The analysis assumes
    // team-uniform arguments, which is exact for kernels (launch args are
    // identical across threads) but not for helpers, so helper bodies never
    // get the broadcast flag.
    if (F.hasAttr(ir::FnAttr::Kernel))
      DA.emplace(F);

    for (const auto &BB : F.blocks())
      emitBlock(BB.get());

    // Function entry. Entering a block with leading phis *not* via a branch
    // has no predecessor to select an incoming value: the tree interpreter
    // traps, and so do we.
    if (leadingPhis(F.entry()) > 0) {
      Out.Entry = emitPhiTrap(/*Kind=*/0);
    } else {
      Out.Entry = BlockStart.at(F.entry());
    }

    // Branch-target fixups; trampolines for phi-edges are created on first
    // use of each edge.
    for (const Fixup &Fx : Fixups) {
      const std::uint32_t Target = edgeTarget(Fx.Pred, Fx.Succ);
      (Fx.IsT1 ? Out.Code[Fx.InstIdx].T1 : Out.Code[Fx.InstIdx].T0) = Target;
    }
    Out.NumSlots = NumSlots;
    Out.HasBody = true;
    for (const BCInst &I : Out.Code)
      if (I.Flags & BCFlagWarpUniform) {
        Out.HasUniform = true;
        break;
      }
  }

private:
  //--- Operand references ----------------------------------------------------

  std::uint32_t lit(std::uint64_t Bits) {
    auto [It, New] = LitIdx.try_emplace(Bits, 0);
    if (New) {
      It->second = static_cast<std::uint32_t>(Out.Pool.size());
      Out.Pool.push_back({BCConst::Kind::Lit, Bits, nullptr, nullptr});
    }
    return NumSlots + It->second;
  }

  std::uint32_t ref(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return Slots.at(V);
    case ValueKind::ConstantInt:
      return lit(canonBits(V->type().kind(),
                            ir::cast<ir::ConstantInt>(V)->zext()));
    case ValueKind::ConstantFP:
      return lit(
          encodeF(V->type().kind(), ir::cast<ir::ConstantFP>(V)->value()));
    case ValueKind::ConstantNull:
    case ValueKind::Undef:
      return lit(0);
    case ValueKind::GlobalVariable: {
      const auto *G = ir::cast<GlobalVariable>(V);
      auto [It, New] = GlobalIdx.try_emplace(G, 0);
      if (New) {
        It->second = static_cast<std::uint32_t>(Out.Pool.size());
        Out.Pool.push_back({BCConst::Kind::Global, 0, G, nullptr});
      }
      return NumSlots + It->second;
    }
    case ValueKind::Function: {
      const Function *Fn = Function::fromValue(V);
      auto [It, New] = FuncIdx.try_emplace(Fn, 0);
      if (New) {
        It->second = static_cast<std::uint32_t>(Out.Pool.size());
        Out.Pool.push_back({BCConst::Kind::Func, 0, nullptr, Fn});
      }
      return NumSlots + It->second;
    }
    }
    CODESIGN_UNREACHABLE("unknown value kind");
  }

  std::uint32_t dstSlot(const Instruction *I) {
    return I->type().isVoid() ? BCNoSlot : Slots.at(I);
  }

  //--- Emission helpers ------------------------------------------------------

  std::uint32_t emit(BCInst Inst) {
    const auto Idx = static_cast<std::uint32_t>(Out.Code.size());
    Out.Code.push_back(Inst);
    return Idx;
  }

  BCInst base(const Instruction *I, BCOp Op) {
    BCInst Inst;
    Inst.Op = Op;
    Inst.TyKind = static_cast<std::uint8_t>(I->type().kind());
    Inst.Cls = static_cast<std::uint8_t>(classifyOpcode(I->opcode()));
    Inst.Dst = dstSlot(I);
    Inst.Src = I;
    if (DA && replayEligible(I->opcode()) && !I->type().isVoid() &&
        DA->isWarpUniformInstruction(I))
      Inst.Flags |= BCFlagWarpUniform;
    return Inst;
  }

  std::uint32_t emitPhiTrap(std::int64_t Kind,
                            const Instruction *Src = nullptr) {
    BCInst Inst;
    Inst.Op = BCOp::PhiTrap;
    Inst.Imm = Kind;
    Inst.Cls = static_cast<std::uint8_t>(OpClass::ControlFlow);
    Inst.Src = Src;
    return emit(Inst);
  }

  void branchFixup(std::uint32_t InstIdx, bool IsT1, const BasicBlock *Pred,
                   const BasicBlock *Succ) {
    Fixups.push_back({InstIdx, IsT1, Pred, Succ});
  }

  //--- Phi-edge trampolines --------------------------------------------------

  std::uint32_t edgeTarget(const BasicBlock *Pred, const BasicBlock *Succ) {
    const std::size_t P = leadingPhis(Succ);
    if (P == 0)
      return BlockStart.at(Succ);
    auto [It, New] = EdgeTramp.try_emplace({Pred, Succ}, 0);
    if (!New)
      return It->second;
    std::vector<BCFunction::PhiCopy> Copies;
    Copies.reserve(P);
    bool Missing = false;
    for (std::size_t Idx = 0; Idx < P; ++Idx) {
      const Instruction *Phi = Succ->inst(Idx);
      const Value *In = Phi->incomingFor(Pred);
      if (!In) {
        // The tree interpreter traps on the first phi without an incoming
        // value before writing anything; earlier reads are side-effect
        // free, so a bare trap is equivalent for the whole edge.
        Missing = true;
        break;
      }
      Copies.push_back({Slots.at(Phi), ref(In)});
    }
    std::uint32_t Idx;
    if (Missing) {
      Idx = emitPhiTrap(/*Kind=*/0);
    } else {
      BCInst Inst;
      Inst.Op = BCOp::PhiBundle;
      Inst.Imm = static_cast<std::int64_t>(Out.Bundles.size());
      Inst.Cls = static_cast<std::uint8_t>(OpClass::ControlFlow);
      Inst.T0 = BlockStart.at(Succ);
      Out.Bundles.push_back(std::move(Copies));
      Idx = emit(Inst);
    }
    It->second = Idx;
    return Idx;
  }

  //--- Block lowering --------------------------------------------------------

  void emitBlock(const BasicBlock *BB) {
    const std::size_t P = leadingPhis(BB);
    BlockStart[BB] = static_cast<std::uint32_t>(Out.Code.size());
    bool Terminated = false;
    for (std::size_t Idx = P; Idx < BB->size(); ++Idx) {
      const Instruction *I = BB->inst(Idx);
      if (I->opcode() == Opcode::Phi) {
        // Mid-block phi: the verifier rejects these, but the interpreter
        // counts the instruction and traps — replicate.
        emitPhiTrap(/*Kind=*/1, I);
        Terminated = true;
        break;
      }
      const Instruction *Next =
          Idx + 1 < BB->size() ? BB->inst(Idx + 1) : nullptr;
      if (tryFuse(I, Next, BB)) {
        ++Idx;
        continue;
      }
      emitInst(I, BB);
    }
    // A block whose last instruction is not a terminator lets execution run
    // off its end; the tree interpreter traps before counting anything.
    if (!Terminated && BB->terminator() == nullptr)
      emitPhiTrap(/*Kind=*/2);
  }

  /// Superinstruction peephole over adjacent single-use producer/consumer
  /// pairs: address compute + access, compare + branch. The fused
  /// instruction performs both dynamic-instruction countings and both cycle
  /// charges, and skips only the dead intermediate slot write.
  bool tryFuse(const Instruction *I, const Instruction *Next,
               const BasicBlock *BB) {
    if (!Next || I->numUses() != 1)
      return false;
    if (I->opcode() == Opcode::Gep) {
      if (Next->opcode() == Opcode::Load && Next->pointerOperand() == I) {
        BCInst Inst = base(Next, BCOp::GepLoad);
        Inst.Flags = 0; // two countings; never broadcast
        Inst.Cls = static_cast<std::uint8_t>(OpClass::Memory);
        Inst.A = ref(I->operand(0));
        Inst.B = ref(I->operand(1));
        Inst.Size = static_cast<std::uint16_t>(Next->type().sizeInBytes());
        emit(Inst);
        return true;
      }
      if (Next->opcode() == Opcode::Store && Next->operand(1) == I) {
        BCInst Inst = base(Next, BCOp::GepStore);
        Inst.Flags = 0;
        Inst.Cls = static_cast<std::uint8_t>(OpClass::Memory);
        Inst.A = ref(I->operand(0));
        Inst.B = ref(I->operand(1));
        Inst.C = ref(Next->operand(0));
        Inst.SrcTyKind =
            static_cast<std::uint8_t>(Next->operand(0)->type().kind());
        Inst.Size =
            static_cast<std::uint16_t>(Next->operand(0)->type().sizeInBytes());
        emit(Inst);
        return true;
      }
      return false;
    }
    if (I->opcode() == Opcode::ICmp && Next->opcode() == Opcode::CondBr &&
        Next->operand(0) == I) {
      BCInst Inst = base(I, BCOp::CmpBr);
      Inst.Flags =
          DA && DA->isWarpUniformInstruction(I) ? BCFlagUniformBranch : 0;
      Inst.Dst = BCNoSlot; // the condition slot is dead after the branch
      Inst.Pred = static_cast<std::uint8_t>(I->pred());
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      const std::uint32_t Idx = emit(Inst);
      branchFixup(Idx, /*IsT1=*/false, BB, Next->blockOperand(0));
      branchFixup(Idx, /*IsT1=*/true, BB, Next->blockOperand(1));
      return true;
    }
    return false;
  }

  void emitInst(const Instruction *I, const BasicBlock *BB) {
    switch (I->opcode()) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      BCInst Inst = base(I, directOp(I->opcode()));
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      emit(Inst);
      return;
    }
    case Opcode::ICmp:
    case Opcode::FCmp: {
      BCInst Inst = base(
          I, I->opcode() == Opcode::ICmp ? BCOp::ICmp : BCOp::FCmp);
      Inst.Pred = static_cast<std::uint8_t>(I->pred());
      Inst.SrcTyKind =
          static_cast<std::uint8_t>(I->operand(0)->type().kind());
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      emit(Inst);
      return;
    }
    case Opcode::Select: {
      BCInst Inst = base(I, BCOp::Select);
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      Inst.C = ref(I->operand(2));
      emit(Inst);
      return;
    }
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc:
    case Opcode::SIToFP:
    case Opcode::FPToSI:
    case Opcode::FPCast: {
      static constexpr BCOp Map[] = {BCOp::ZExt,   BCOp::SExt,
                                     BCOp::Trunc,  BCOp::SIToFP,
                                     BCOp::FPToSI, BCOp::FPCast};
      BCInst Inst =
          base(I, Map[static_cast<int>(I->opcode()) -
                      static_cast<int>(Opcode::ZExt)]);
      Inst.SrcTyKind =
          static_cast<std::uint8_t>(I->operand(0)->type().kind());
      Inst.A = ref(I->operand(0));
      emit(Inst);
      return;
    }
    case Opcode::PtrToInt:
    case Opcode::IntToPtr: {
      BCInst Inst = base(I, BCOp::PtrCast);
      Inst.A = ref(I->operand(0));
      emit(Inst);
      return;
    }
    case Opcode::Alloca: {
      BCInst Inst = base(I, BCOp::Alloca);
      Inst.Imm = I->imm();
      emit(Inst);
      return;
    }
    case Opcode::Load: {
      BCInst Inst = base(I, BCOp::Load);
      Inst.A = ref(I->operand(0));
      Inst.Size = static_cast<std::uint16_t>(I->type().sizeInBytes());
      emit(Inst);
      return;
    }
    case Opcode::Store: {
      BCInst Inst = base(I, BCOp::Store);
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      Inst.SrcTyKind =
          static_cast<std::uint8_t>(I->operand(0)->type().kind());
      Inst.Size =
          static_cast<std::uint16_t>(I->operand(0)->type().sizeInBytes());
      emit(Inst);
      return;
    }
    case Opcode::Gep: {
      BCInst Inst = base(I, BCOp::Gep);
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      emit(Inst);
      return;
    }
    case Opcode::AtomicRMW: {
      BCInst Inst = base(I, BCOp::AtomicRMW);
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      Inst.Imm = I->imm();
      Inst.Size = static_cast<std::uint16_t>(I->type().sizeInBytes());
      emit(Inst);
      return;
    }
    case Opcode::CmpXchg: {
      BCInst Inst = base(I, BCOp::CmpXchg);
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      Inst.C = ref(I->operand(2));
      Inst.Size = static_cast<std::uint16_t>(I->type().sizeInBytes());
      emit(Inst);
      return;
    }
    case Opcode::Malloc: {
      BCInst Inst = base(I, BCOp::Malloc);
      Inst.A = ref(I->operand(0));
      emit(Inst);
      return;
    }
    case Opcode::Free: {
      BCInst Inst = base(I, BCOp::Free);
      Inst.A = ref(I->operand(0));
      emit(Inst);
      return;
    }
    case Opcode::Br: {
      BCInst Inst = base(I, BCOp::Br);
      const std::uint32_t Idx = emit(Inst);
      branchFixup(Idx, /*IsT1=*/false, BB, I->blockOperand(0));
      return;
    }
    case Opcode::CondBr: {
      BCInst Inst = base(I, BCOp::CondBr);
      if (DA && !DA->isDivergentBlock(BB) && DA->isUniform(I->operand(0)))
        Inst.Flags |= BCFlagUniformBranch;
      Inst.A = ref(I->operand(0));
      const std::uint32_t Idx = emit(Inst);
      branchFixup(Idx, /*IsT1=*/false, BB, I->blockOperand(0));
      branchFixup(Idx, /*IsT1=*/true, BB, I->blockOperand(1));
      return;
    }
    case Opcode::Ret: {
      BCInst Inst = base(I, BCOp::Ret);
      Inst.A = I->numOperands() == 1 ? ref(I->operand(0)) : BCNoRef;
      emit(Inst);
      return;
    }
    case Opcode::Unreachable: {
      emit(base(I, BCOp::Unreachable));
      return;
    }
    case Opcode::Phi:
      CODESIGN_UNREACHABLE("phi handled by emitBlock");
    case Opcode::Call: {
      BCInst Inst = base(I, BCOp::Call);
      if (const Function *Callee = I->calledFunction()) {
        Inst.Imm =
            static_cast<std::int64_t>(Mod.Index.at(Callee)) + 1;
        Inst.A = BCNoRef;
      } else {
        Inst.Imm = 0;
        Inst.A = ref(I->operand(0));
      }
      Inst.T0 = static_cast<std::uint32_t>(Out.Extras.size());
      Inst.T1 = I->numCallArgs();
      for (unsigned A = 0; A < I->numCallArgs(); ++A)
        Out.Extras.push_back(ref(I->callArg(A)));
      emit(Inst);
      return;
    }
    case Opcode::ThreadId:
    case Opcode::BlockId:
    case Opcode::BlockDim:
    case Opcode::GridDim:
    case Opcode::WarpSize: {
      static constexpr BCOp Map[] = {BCOp::ThreadIdOp, BCOp::BlockIdOp,
                                     BCOp::BlockDimOp, BCOp::GridDimOp,
                                     BCOp::WarpSizeOp};
      emit(base(I, Map[static_cast<int>(I->opcode()) -
                       static_cast<int>(Opcode::ThreadId)]));
      return;
    }
    case Opcode::Barrier:
    case Opcode::AlignedBarrier: {
      emit(base(I, I->opcode() == Opcode::Barrier ? BCOp::BarrierOp
                                                  : BCOp::AlignedBarrierOp));
      return;
    }
    case Opcode::Assume: {
      BCInst Inst = base(I, BCOp::Assume);
      Inst.A = ref(I->operand(0));
      emit(Inst);
      return;
    }
    case Opcode::AssertFail: {
      BCInst Inst = base(I, BCOp::AssertFail);
      Inst.A = ref(I->operand(0));
      emit(Inst);
      return;
    }
    case Opcode::Trap: {
      emit(base(I, BCOp::TrapOp));
      return;
    }
    case Opcode::NativeOp: {
      BCInst Inst = base(I, BCOp::NativeCall);
      Inst.Imm = I->imm();
      Inst.T0 = static_cast<std::uint32_t>(Out.Extras.size());
      Inst.T1 = I->numOperands();
      for (unsigned A = 0; A < I->numOperands(); ++A)
        Out.Extras.push_back(ref(I->operand(A)));
      emit(Inst);
      return;
    }
    }
    CODESIGN_UNREACHABLE("unknown opcode");
  }

  const Function &F;
  const BytecodeModule &Mod;
  BCFunction &Out;
  std::optional<analysis::DivergenceAnalysis> DA;
  std::unordered_map<const Value *, std::uint32_t> Slots;
  std::uint32_t NumSlots = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> LitIdx;
  std::unordered_map<const GlobalVariable *, std::uint32_t> GlobalIdx;
  std::unordered_map<const Function *, std::uint32_t> FuncIdx;
  std::unordered_map<const BasicBlock *, std::uint32_t> BlockStart;
  struct Fixup {
    std::uint32_t InstIdx;
    bool IsT1;
    const BasicBlock *Pred;
    const BasicBlock *Succ;
  };
  std::vector<Fixup> Fixups;
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, std::uint32_t>
      EdgeTramp;
};

} // namespace

std::shared_ptr<const BytecodeModule>
BytecodeEmitter::lower(const ir::Module &M) {
  auto BM = std::make_shared<BytecodeModule>();
  BM->M = &M;
  BM->Functions.resize(M.functions().size());
  for (std::size_t Idx = 0; Idx < M.functions().size(); ++Idx) {
    const Function *F = M.functions()[Idx].get();
    BM->Functions[Idx].F = F;
    BM->Functions[Idx].Index = static_cast<std::uint32_t>(Idx);
    BM->Index[F] = static_cast<std::uint32_t>(Idx);
  }
  for (std::size_t Idx = 0; Idx < M.functions().size(); ++Idx) {
    const Function *F = M.functions()[Idx].get();
    if (F->isDeclaration())
      continue;
    FunctionLowering(*F, *BM, BM->Functions[Idx]).run();
  }
  return BM;
}

//===----------------------------------------------------------------------===//
// ModuleImage bytecode cache (declared in Interpreter.hpp)
//===----------------------------------------------------------------------===//

void ModuleImage::setBytecode(std::shared_ptr<const BytecodeModule> BC) const {
  CODESIGN_ASSERT(!BC || BC->M == &M, "bytecode lowered from another module");
  std::lock_guard<std::mutex> Lock(BCMutex);
  if (!BCMod)
    BCMod = std::move(BC);
}

void ModuleImage::materializeBytecodeLocked() const {
  if (BCPoolsReady)
    return;
  if (!BCMod)
    BCMod = BytecodeEmitter::lower(M);
  BCPools.resize(BCMod->Functions.size());
  for (const BCFunction &BF : BCMod->Functions) {
    std::vector<std::uint64_t> &Pool = BCPools[BF.Index];
    Pool.reserve(BF.Pool.size());
    for (const BCConst &Cst : BF.Pool) {
      switch (Cst.K) {
      case BCConst::Kind::Lit:
        Pool.push_back(Cst.Bits);
        break;
      case BCConst::Kind::Global:
        Pool.push_back(addressOf(Cst.G).Bits);
        break;
      case BCConst::Kind::Func:
        Pool.push_back(functionAddress(Cst.F).Bits);
        break;
      }
    }
  }
  BCPoolsReady = true;
}

const BytecodeModule &ModuleImage::bytecode() const {
  std::lock_guard<std::mutex> Lock(BCMutex);
  materializeBytecodeLocked();
  return *BCMod;
}

const std::vector<std::vector<std::uint64_t>> &
ModuleImage::bytecodePools() const {
  std::lock_guard<std::mutex> Lock(BCMutex);
  materializeBytecodeLocked();
  return BCPools;
}

} // namespace codesign::vgpu
