#include "ir/Printer.hpp"

#include <map>
#include <sstream>

namespace codesign::ir {

namespace {

class FunctionPrinter {
public:
  explicit FunctionPrinter(const Function &F) : F(F) { number(); }

  std::string run() {
    std::ostringstream OS;
    OS << (F.isDeclaration() ? "declare " : "define ")
       << F.returnType().name() << " @" << F.name() << "(";
    for (unsigned I = 0; I < F.numArgs(); ++I) {
      if (I)
        OS << ", ";
      OS << F.arg(I)->type().name() << " " << ref(F.arg(I));
      if (F.argMap(I) != MapKind::None)
        OS << " map(" << mapKindName(F.argMap(I)) << ")";
    }
    OS << ")";
    if (F.hasAttr(FnAttr::Kernel))
      OS << " kernel";
    if (F.execMode() == ExecMode::Generic)
      OS << " exec_mode(generic)";
    else if (F.execMode() == ExecMode::SPMD)
      OS << " exec_mode(spmd)";
    if (F.hasAttr(FnAttr::NoInline))
      OS << " noinline";
    if (F.hasAttr(FnAttr::AlwaysInline))
      OS << " alwaysinline";
    if (F.hasAttr(FnAttr::Internal))
      OS << " internal";
    if (F.hasAttr(FnAttr::Pure))
      OS << " pure";
    if (F.isDeclaration()) {
      OS << "\n";
      return OS.str();
    }
    OS << " {\n";
    for (const auto &BB : F.blocks()) {
      OS << blockName(BB.get()) << ":\n";
      for (const auto &I : BB->instructions())
        OS << "  " << renderInst(*I) << "\n";
    }
    OS << "}\n";
    return OS.str();
  }

private:
  void number() {
    unsigned N = 0;
    for (const auto &A : F.args())
      Numbers[A.get()] = N++;
    unsigned BlockNo = 0;
    for (const auto &BB : F.blocks()) {
      BlockNames[BB.get()] =
          BB->name().empty() ? "bb" + std::to_string(BlockNo) : BB->name();
      ++BlockNo;
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          Numbers[I.get()] = N++;
    }
  }

  std::string blockName(const BasicBlock *BB) const {
    auto It = BlockNames.find(BB);
    return It == BlockNames.end() ? "<detached>" : It->second;
  }

  std::string ref(const Value *V) const {
    switch (V->kind()) {
    case ValueKind::ConstantInt:
      return std::to_string(cast<ConstantInt>(V)->value());
    case ValueKind::ConstantFP: {
      std::ostringstream OS;
      OS << cast<ConstantFP>(V)->value();
      return OS.str();
    }
    case ValueKind::ConstantNull:
      return "null";
    case ValueKind::Undef:
      return "undef";
    case ValueKind::GlobalVariable:
      return "@" + V->name();
    case ValueKind::Function:
      return "@" + Function::fromValue(V)->name();
    case ValueKind::Argument:
    case ValueKind::Instruction: {
      auto It = Numbers.find(V);
      if (It != Numbers.end())
        return "%" + std::to_string(It->second);
      return "%<" + (V->name().empty() ? std::string("?") : V->name()) + ">";
    }
    }
    return "?";
  }

  std::string renderInst(const Instruction &I) const {
    std::ostringstream OS;
    if (!I.type().isVoid())
      OS << ref(&I) << " = ";
    OS << opcodeName(I.opcode());
    if (I.opcode() == Opcode::ICmp || I.opcode() == Opcode::FCmp)
      OS << " " << cmpPredName(I.pred());
    if (!I.type().isVoid())
      OS << " " << I.type().name();
    if (I.opcode() == Opcode::Alloca || I.opcode() == Opcode::NativeOp ||
        I.opcode() == Opcode::Barrier || I.opcode() == Opcode::AlignedBarrier)
      OS << " #" << I.imm();
    if (I.opcode() == Opcode::AtomicRMW) {
      switch (I.atomicOp()) {
      case AtomicOp::Add:
        OS << " add";
        break;
      case AtomicOp::Max:
        OS << " max";
        break;
      case AtomicOp::Min:
        OS << " min";
        break;
      case AtomicOp::Exchange:
        OS << " xchg";
        break;
      }
    }
    for (unsigned OpIdx = 0; OpIdx < I.numOperands(); ++OpIdx)
      OS << (OpIdx ? ", " : " ") << ref(I.operand(OpIdx));
    if (I.numBlockOperands()) {
      OS << (I.numOperands() ? ", " : " ");
      for (unsigned BIdx = 0; BIdx < I.numBlockOperands(); ++BIdx)
        OS << (BIdx ? ", " : "") << "label "
           << blockName(I.blockOperand(BIdx));
    }
    if (!I.str().empty())
      OS << " !\"" << I.str() << "\"";
    return OS.str();
  }

  const Function &F;
  std::map<const Value *, unsigned> Numbers;
  std::map<const BasicBlock *, std::string> BlockNames;
};

} // namespace

std::string printFunction(const Function &F) {
  return FunctionPrinter(F).run();
}

std::string printModule(const Module &M) {
  std::ostringstream OS;
  OS << "; module '" << M.name() << "'\n";
  for (const auto &G : M.globals()) {
    OS << "@" << G->name() << " = " << addrSpaceName(G->space()) << " ["
       << G->sizeBytes() << " x i8]";
    if (G->isConstant())
      OS << " constant";
    if (!G->isInternal())
      OS << " external";
    if (!G->isZeroInit())
      OS << " <init>";
    OS << "\n";
  }
  if (!M.globals().empty())
    OS << "\n";
  for (const auto &F : M.functions())
    OS << printFunction(*F) << "\n";
  return OS.str();
}

} // namespace codesign::ir
