//===- vgpu/Bytecode.cpp - One-shot lowering of IR to dense bytecode -------===//
#include "vgpu/Bytecode.hpp"

#include <map>

#include "ir/BasicBlock.hpp"
#include "vgpu/TeamModel.hpp"

namespace codesign::vgpu {

using ir::BasicBlock;
using ir::Function;
using ir::GlobalVariable;
using ir::Instruction;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

namespace {

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
    // order — the same dense numbering as the tree walker's FunctionLayout.
    for (const auto &A : F.args())
      Slots[A.get()] = NumSlots++;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          Slots[I.get()] = NumSlots++;
    Out.ArgTyKinds.reserve(F.numArgs());
    for (const auto &A : F.args())
      Out.ArgTyKinds.push_back(static_cast<std::uint8_t>(A->type().kind()));

    for (const auto &BB : F.blocks())
      emitBlock(BB.get());

    // Function entry. Entering a block with leading phis *not* via a branch
    // has no predecessor to select an incoming value: the tree interpreter
    // traps, and so do we.
    if (leadingPhis(F.entry()) > 0) {
      Out.Entry = emitPhi(BCPhiNoIncoming);
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
      return lit(ir::cast<ir::ConstantInt>(V)->bits());
    case ValueKind::ConstantFP:
      return lit(ir::cast<ir::ConstantFP>(V)->bits());
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

  BCInst base(const Instruction *I) {
    BCInst Inst;
    Inst.Op = I->opcode();
    Inst.TyKind = static_cast<std::uint8_t>(I->type().kind());
    Inst.Cls = static_cast<std::uint8_t>(classifyOpcode(I->opcode()));
    Inst.Dst = dstSlot(I);
    Inst.Src = I;
    return Inst;
  }

  /// An Opcode::Phi record: a trampoline (Imm indexes Out.Bundles, Target
  /// is the successor's body) or, with a negative Imm, a BCPhi trap.
  std::uint32_t emitPhi(std::int64_t Imm, std::uint32_t Target = 0,
                        const Instruction *Src = nullptr) {
    BCInst Inst;
    Inst.Op = Opcode::Phi;
    Inst.Imm = Imm;
    Inst.Cls = static_cast<std::uint8_t>(OpClass::ControlFlow);
    Inst.T0 = Target;
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
    if (Missing) {
      It->second = emitPhi(BCPhiNoIncoming);
    } else {
      It->second = emitPhi(static_cast<std::int64_t>(Out.Bundles.size()),
                           BlockStart.at(Succ));
      Out.Bundles.push_back(std::move(Copies));
    }
    return It->second;
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
        emitPhi(BCMidBlockPhi, /*Target=*/0, I);
        Terminated = true;
        break;
      }
      emitInst(I, BB);
    }
    // A block whose last instruction is not a terminator lets execution run
    // off its end; the tree interpreter traps before counting anything.
    if (!Terminated && BB->terminator() == nullptr)
      emitPhi(BCFellOffBlock);
  }

  void emitInst(const Instruction *I, const BasicBlock *BB) {
    BCInst Inst = base(I);
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
      Inst.Pred = static_cast<std::uint8_t>(I->pred());
      Inst.SrcTyKind =
          static_cast<std::uint8_t>(I->operand(0)->type().kind());
      Inst.A = ref(I->operand(0));
      if (I->numOperands() > 1)
        Inst.B = ref(I->operand(1));
      if (I->numOperands() > 2)
        Inst.C = ref(I->operand(2));
      break;
    case Opcode::Alloca:
      Inst.Imm = I->imm();
      break;
    case Opcode::Load:
      Inst.A = ref(I->operand(0));
      Inst.Size = static_cast<std::uint16_t>(I->type().sizeInBytes());
      break;
    case Opcode::Store:
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      Inst.SrcTyKind =
          static_cast<std::uint8_t>(I->operand(0)->type().kind());
      Inst.Size =
          static_cast<std::uint16_t>(I->operand(0)->type().sizeInBytes());
      break;
    case Opcode::Gep:
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      break;
    case Opcode::AtomicRMW:
      Inst.A = ref(I->operand(0));
      Inst.B = ref(I->operand(1));
      Inst.Imm = I->imm();
      Inst.Size = static_cast<std::uint16_t>(I->type().sizeInBytes());
      break;
    case Opcode::Malloc:
    case Opcode::Free:
    case Opcode::Assume:
    case Opcode::AssertFail:
      Inst.A = ref(I->operand(0));
      break;
    case Opcode::Br: {
      const std::uint32_t Idx = emit(Inst);
      branchFixup(Idx, /*IsT1=*/false, BB, I->blockOperand(0));
      return;
    }
    case Opcode::CondBr: {
      Inst.A = ref(I->operand(0));
      const std::uint32_t Idx = emit(Inst);
      branchFixup(Idx, /*IsT1=*/false, BB, I->blockOperand(0));
      branchFixup(Idx, /*IsT1=*/true, BB, I->blockOperand(1));
      return;
    }
    case Opcode::Ret:
      Inst.A = I->numOperands() == 1 ? ref(I->operand(0)) : BCNoRef;
      break;
    case Opcode::Phi:
      CODESIGN_UNREACHABLE("phi handled by emitBlock");
    case Opcode::Call:
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
      break;
    case Opcode::ThreadId:
    case Opcode::BlockId:
    case Opcode::BlockDim:
    case Opcode::GridDim:
    case Opcode::Barrier:
    case Opcode::AlignedBarrier:
      break;
    case Opcode::NativeOp:
      Inst.Imm = I->imm();
      Inst.T0 = static_cast<std::uint32_t>(Out.Extras.size());
      Inst.T1 = I->numOperands();
      for (unsigned A = 0; A < I->numOperands(); ++A)
        Out.Extras.push_back(ref(I->operand(A)));
      break;
    }
    emit(Inst);
  }

  const Function &F;
  const BytecodeModule &Mod;
  BCFunction &Out;
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
BytecodeEmitter::lower(const ir::Module &M,
                       std::span<const KernelDescriptor> Kernels) {
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
  for (const KernelDescriptor &D : Kernels) {
    const BCFunction *BF = BM->functionFor(D.Kernel);
    CODESIGN_ASSERT(BF,
                    "kernel descriptor names a function of another module");
    BM->Functions[BF->Index].Stats = D.Stats;
  }
  return BM;
}

} // namespace codesign::vgpu
