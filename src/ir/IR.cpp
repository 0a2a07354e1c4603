//===- ir/IR.cpp - Value/Instruction/Block/Function/Module implementation -===//
#include "ir/Module.hpp"

#include <algorithm>
#include <cstring>

namespace codesign::ir {

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::addUse(Instruction *User, unsigned OpIdx) {
  Users.push_back(Use{User, OpIdx});
}

void Value::removeUse(Instruction *User, unsigned OpIdx) {
  auto It = std::find(Users.begin(), Users.end(), Use{User, OpIdx});
  CODESIGN_ASSERT(It != Users.end(), "removing nonexistent use");
  Users.erase(It);
}

void Value::replaceAllUsesWith(Value *New) {
  CODESIGN_ASSERT(New != this, "RAUW with self");
  CODESIGN_ASSERT(New->type() == type(), "RAUW type mismatch");
  // setOperand mutates our use list; iterate over a copy.
  const std::vector<Use> Snapshot = Users;
  for (const Use &U : Snapshot)
    U.User->setOperand(U.OpIdx, New);
}

//===----------------------------------------------------------------------===//
// Instruction
//===----------------------------------------------------------------------===//

const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::URem:
    return "urem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::LShr:
    return "lshr";
  case Opcode::AShr:
    return "ashr";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::Select:
    return "select";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::SIToFP:
    return "sitofp";
  case Opcode::FPToSI:
    return "fptosi";
  case Opcode::FPCast:
    return "fpcast";
  case Opcode::PtrToInt:
    return "ptrtoint";
  case Opcode::IntToPtr:
    return "inttoptr";
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Gep:
    return "gep";
  case Opcode::AtomicRMW:
    return "atomicrmw";
  case Opcode::Malloc:
    return "malloc";
  case Opcode::Free:
    return "free";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Ret:
    return "ret";
  case Opcode::Phi:
    return "phi";
  case Opcode::Call:
    return "call";
  case Opcode::ThreadId:
    return "thread.id";
  case Opcode::BlockId:
    return "block.id";
  case Opcode::BlockDim:
    return "block.dim";
  case Opcode::GridDim:
    return "grid.dim";
  case Opcode::Barrier:
    return "barrier";
  case Opcode::AlignedBarrier:
    return "barrier.aligned";
  case Opcode::Assume:
    return "assume";
  case Opcode::AssertFail:
    return "assert";
  case Opcode::NativeOp:
    return "native";
  }
  return "?";
}

const char *cmpPredName(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::SLT:
    return "slt";
  case CmpPred::SLE:
    return "sle";
  case CmpPred::SGT:
    return "sgt";
  case CmpPred::SGE:
    return "sge";
  case CmpPred::ULT:
    return "ult";
  case CmpPred::ULE:
    return "ule";
  case CmpPred::UGT:
    return "ugt";
  case CmpPred::UGE:
    return "uge";
  case CmpPred::OEQ:
    return "oeq";
  case CmpPred::ONE:
    return "one";
  case CmpPred::OLT:
    return "olt";
  case CmpPred::OLE:
    return "ole";
  case CmpPred::OGT:
    return "ogt";
  case CmpPred::OGE:
    return "oge";
  }
  return "?";
}

Instruction::~Instruction() { dropOperands(); }

Function *Instruction::function() const {
  return Parent ? Parent->parent() : nullptr;
}

void Instruction::addOperand(Value *V) {
  CODESIGN_ASSERT(V, "null operand");
  Operands.push_back(V);
  V->addUse(this, static_cast<unsigned>(Operands.size() - 1));
}

void Instruction::setOperand(unsigned I, Value *V) {
  CODESIGN_ASSERT(I < Operands.size(), "operand index out of range");
  CODESIGN_ASSERT(V, "null operand");
  Operands[I]->removeUse(this, I);
  Operands[I] = V;
  V->addUse(this, I);
}

void Instruction::dropOperands() {
  for (unsigned I = 0; I < Operands.size(); ++I)
    Operands[I]->removeUse(this, I);
  Operands.clear();
}

void Instruction::removeOperand(unsigned I) {
  CODESIGN_ASSERT(I < Operands.size(), "operand index out of range");
  // Re-register all uses with updated indices (operand lists are short).
  std::vector<Value *> Vals(Operands.begin(), Operands.end());
  dropOperands();
  Vals.erase(Vals.begin() + I);
  for (Value *V : Vals)
    addOperand(V);
}

void Instruction::removeIncoming(const BasicBlock *BB) {
  CODESIGN_ASSERT(Op == Opcode::Phi, "removeIncoming on non-phi");
  for (unsigned I = 0; I < Blocks.size();) {
    if (Blocks[I] == BB) {
      removeOperand(I);
      Blocks.erase(Blocks.begin() + I);
    } else {
      ++I;
    }
  }
}

Value *Instruction::incomingFor(const BasicBlock *BB) const {
  CODESIGN_ASSERT(Op == Opcode::Phi, "incomingFor on non-phi");
  for (unsigned I = 0; I < Blocks.size(); ++I)
    if (Blocks[I] == BB)
      return Operands[I];
  return nullptr;
}

Function *Instruction::calledFunction() const {
  CODESIGN_ASSERT(Op == Opcode::Call, "calledFunction on non-call");
  return Function::fromValue(Operands[0]);
}

bool Instruction::hasSideEffects() const {
  switch (Op) {
  case Opcode::Store:
  case Opcode::AtomicRMW:
  case Opcode::Malloc:
  case Opcode::Free:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
  case Opcode::Call:
  case Opcode::Barrier:
  case Opcode::AlignedBarrier:
  case Opcode::AssertFail:
    return true;
  case Opcode::Assume:
    // Assume has no runtime effect, but naive DCE must not delete it: the
    // optimizer consumes it. Dedicated passes strip assumes when spent.
    return true;
  case Opcode::NativeOp:
    return NFlags.WritesMemory || NFlags.ReadsMemory;
  case Opcode::Alloca:
    // Allocas pin local storage; they are removed only via dedicated logic.
    return false;
  default:
    return false;
  }
}

bool Instruction::mayReadMemory() const {
  switch (Op) {
  case Opcode::Load:
  case Opcode::AtomicRMW:
  case Opcode::Call:
    return true;
  case Opcode::NativeOp:
    return NFlags.ReadsMemory;
  default:
    return false;
  }
}

bool Instruction::mayWriteMemory() const {
  switch (Op) {
  case Opcode::Store:
  case Opcode::AtomicRMW:
  case Opcode::Call:
  case Opcode::Malloc:
  case Opcode::Free:
    return true;
  case Opcode::NativeOp:
    return NFlags.WritesMemory;
  default:
    return false;
  }
}

unsigned Instruction::accessSize() const {
  switch (Op) {
  case Opcode::Load:
    return type().sizeInBytes();
  case Opcode::Store:
    return operand(0)->type().sizeInBytes();
  case Opcode::AtomicRMW:
    return operand(1)->type().sizeInBytes();
  default:
    CODESIGN_UNREACHABLE("accessSize on non-memory instruction");
  }
}

Value *Instruction::pointerOperand() const {
  switch (Op) {
  case Opcode::Load:
  case Opcode::AtomicRMW:
    return operand(0);
  case Opcode::Store:
    return operand(1);
  default:
    CODESIGN_UNREACHABLE("pointerOperand on non-memory instruction");
  }
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

BasicBlock::~BasicBlock() {
  for (const auto &I : Insts)
    I->dropOperands();
}

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  CODESIGN_ASSERT(I, "appending null instruction");
  I->Parent = this;
  Insts.push_back(std::move(I));
  return Insts.back().get();
}

Instruction *BasicBlock::insertAt(std::size_t Pos,
                                  std::unique_ptr<Instruction> I) {
  CODESIGN_ASSERT(Pos <= Insts.size(), "insert position out of range");
  I->Parent = this;
  auto It = Insts.insert(Insts.begin() + static_cast<std::ptrdiff_t>(Pos),
                         std::move(I));
  return It->get();
}

std::size_t BasicBlock::indexOf(const Instruction *I) const {
  for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx)
    if (Insts[Idx].get() == I)
      return Idx;
  CODESIGN_UNREACHABLE("instruction not in block");
}

void BasicBlock::erase(Instruction *I) {
  CODESIGN_ASSERT(I->useEmpty(), "erasing instruction with uses");
  I->dropOperands();
  const std::size_t Idx = indexOf(I);
  Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(Idx));
}

std::unique_ptr<Instruction> BasicBlock::detach(Instruction *I) {
  const std::size_t Idx = indexOf(I);
  std::unique_ptr<Instruction> Owned = std::move(Insts[Idx]);
  Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(Idx));
  Owned->Parent = nullptr;
  return Owned;
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  std::vector<BasicBlock *> Out;
  if (const Instruction *T = terminator())
    for (unsigned I = 0; I < T->numBlockOperands(); ++I)
      Out.push_back(T->blockOperand(I));
  return Out;
}

std::vector<BasicBlock *> BasicBlock::predecessors() const {
  std::vector<BasicBlock *> Out;
  if (!Parent)
    return Out;
  for (const auto &BB : Parent->blocks()) {
    const Instruction *T = BB->terminator();
    if (!T)
      continue;
    for (unsigned I = 0; I < T->numBlockOperands(); ++I) {
      if (T->blockOperand(I) == this) {
        Out.push_back(BB.get());
        break;
      }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Function::Function(std::string Name, Type RetTy, std::vector<Type> ParamTys)
    : FnName(std::move(Name)), RetTy(RetTy) {
  Args.reserve(ParamTys.size());
  for (unsigned I = 0; I < ParamTys.size(); ++I)
    Args.push_back(std::make_unique<Argument>(ParamTys[I], this, I));
}

Function::~Function() {
  for (const auto &BB : Blocks)
    for (const auto &I : BB->instructions())
      I->dropOperands();
}

Function *Function::fromValue(Value *V) {
  if (V && V->kind() == ValueKind::Function)
    return static_cast<FunctionValue *>(V)->Fn;
  return nullptr;
}

const Function *Function::fromValue(const Value *V) {
  if (V && V->kind() == ValueKind::Function)
    return static_cast<const FunctionValue *>(V)->Fn;
  return nullptr;
}

BasicBlock *Function::createBlock(std::string Name) {
  Blocks.push_back(std::make_unique<BasicBlock>(std::move(Name)));
  Blocks.back()->Parent = this;
  return Blocks.back().get();
}

void Function::eraseBlock(BasicBlock *BB) {
  // Drop operands of all instructions first so intra-block cycles
  // (e.g. phis) do not trip the use checks, then destroy.
  for (const auto &I : BB->instructions())
    I->dropOperands();
  for (const auto &I : BB->instructions()) {
    if (!I->useEmpty()) {
      const Use &U = I->uses().front();
      fatalError("erasing block '" + BB->name() + "' (fn @" +
                 (BB->parent() ? BB->parent()->name() : "?") +
                 "): value of opcode '" + opcodeName(I->opcode()) +
                 "' still used by '" + opcodeName(U.User->opcode()) +
                 "' in block '" +
                 (U.User->parent() ? U.User->parent()->name() : "?") + "'");
    }
  }
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &P) { return P.get() == BB; });
  CODESIGN_ASSERT(It != Blocks.end(), "block not in function");
  Blocks.erase(It);
}

std::size_t Function::instructionCount() const {
  std::size_t N = 0;
  for (const auto &BB : Blocks)
    N += BB->size();
  return N;
}

//===----------------------------------------------------------------------===//
// GlobalVariable
//===----------------------------------------------------------------------===//

bool GlobalVariable::isZeroInit() const {
  if (Init.empty())
    return true;
  return std::all_of(Init.begin(), Init.end(),
                     [](std::uint8_t B) { return B == 0; });
}

void GlobalVariable::setScalarInit(std::uint64_t V, unsigned Bytes) {
  CODESIGN_ASSERT(Bytes <= Size, "scalar init larger than global");
  std::vector<std::uint8_t> Data(Size, 0);
  std::memcpy(Data.data(), &V, Bytes);
  Init = std::move(Data);
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Module::~Module() {
  for (const auto &F : Funcs)
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        I->dropOperands();
}

Function *Module::createFunction(std::string Name, Type RetTy,
                                 std::vector<Type> ParamTys) {
  CODESIGN_ASSERT(FuncIndex.find(Name) == FuncIndex.end(),
                  "duplicate function name");
  Funcs.push_back(
      std::make_unique<Function>(Name, RetTy, std::move(ParamTys)));
  Function *F = Funcs.back().get();
  F->Parent = this;
  FuncIndex.emplace(std::move(Name), F);
  return F;
}

Function *Module::findFunction(std::string_view Name) const {
  auto It = FuncIndex.find(Name);
  return It == FuncIndex.end() ? nullptr : It->second;
}

void Module::eraseFunction(Function *F) {
  CODESIGN_ASSERT(F->asValue()->useEmpty(),
                  "erasing function whose address is still used");
  // Drop every operand reference across the whole body first: blocks can
  // use each other's values, so erasing them one by one would trip the
  // use-list checks.
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      I->dropOperands();
  while (!F->blocks().empty())
    F->eraseBlock(F->blocks().back().get());
  FuncIndex.erase(F->name());
  auto It = std::find_if(Funcs.begin(), Funcs.end(),
                         [&](const auto &P) { return P.get() == F; });
  CODESIGN_ASSERT(It != Funcs.end(), "function not in module");
  Funcs.erase(It);
}

void Module::renameFunction(Function *F, std::string NewName) {
  CODESIGN_ASSERT(FuncIndex.find(NewName) == FuncIndex.end(),
                  "duplicate function name");
  FuncIndex.erase(F->name());
  F->setName(NewName);
  FuncIndex.emplace(std::move(NewName), F);
}

GlobalVariable *Module::createGlobal(std::string Name, AddrSpace Space,
                                     std::uint64_t SizeBytes, unsigned Align) {
  CODESIGN_ASSERT(GlobalIndex.find(Name) == GlobalIndex.end(),
                  "duplicate global name");
  Globals.push_back(
      std::make_unique<GlobalVariable>(Name, Space, SizeBytes, Align));
  GlobalVariable *G = Globals.back().get();
  GlobalIndex.emplace(std::move(Name), G);
  return G;
}

GlobalVariable *Module::findGlobal(std::string_view Name) const {
  auto It = GlobalIndex.find(Name);
  return It == GlobalIndex.end() ? nullptr : It->second;
}

void Module::eraseGlobal(GlobalVariable *G) {
  CODESIGN_ASSERT(G->useEmpty(), "erasing global with uses");
  GlobalIndex.erase(G->name());
  auto It = std::find_if(Globals.begin(), Globals.end(),
                         [&](const auto &P) { return P.get() == G; });
  CODESIGN_ASSERT(It != Globals.end(), "global not in module");
  Globals.erase(It);
}

ConstantInt *Module::constInt(Type Ty, std::int64_t V) {
  CODESIGN_ASSERT(Ty.isInteger(), "constInt requires integer type");
  V = static_cast<std::int64_t>(
      eval::canonBits(Ty.kind(), static_cast<std::uint64_t>(V)));
  auto Key = std::make_pair(static_cast<std::uint8_t>(Ty.kind()), V);
  auto It = IntConstants.find(Key);
  if (It != IntConstants.end())
    return It->second.get();
  auto Owned = std::make_unique<ConstantInt>(Ty, V);
  ConstantInt *C = Owned.get();
  IntConstants.emplace(Key, std::move(Owned));
  return C;
}

ConstantFP *Module::constFP(Type Ty, double V) {
  CODESIGN_ASSERT(Ty.isFloat(), "constFP requires float type");
  std::uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  auto Key = std::make_pair(static_cast<std::uint8_t>(Ty.kind()), Bits);
  auto It = FPConstants.find(Key);
  if (It != FPConstants.end())
    return It->second.get();
  auto Owned = std::make_unique<ConstantFP>(Ty, V);
  ConstantFP *C = Owned.get();
  FPConstants.emplace(Key, std::move(Owned));
  return C;
}

UndefValue *Module::undef(Type Ty) {
  auto Key = static_cast<std::uint8_t>(Ty.kind());
  auto It = Undefs.find(Key);
  if (It != Undefs.end())
    return It->second.get();
  auto Owned = std::make_unique<UndefValue>(Ty);
  UndefValue *U = Owned.get();
  Undefs.emplace(Key, std::move(Owned));
  return U;
}

std::size_t Module::instructionCount() const {
  std::size_t N = 0;
  for (const auto &F : Funcs)
    N += F->instructionCount();
  return N;
}

} // namespace codesign::ir
