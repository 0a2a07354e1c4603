//===- tests/opt/test_value_semantics.cpp - One table, four evaluators -----===//
//
// Every value operation of the IR (integer and float binops, icmp, fcmp,
// select and the casts), over every kind it accepts and a fixed table of
// operands, built as one module with one output slot per case. The module
// runs unfolded under the tree, bytecode and native backends, which must
// store the same bytes. A copy then goes through the constant folder,
// which must turn every stored value into a constant whose canonical bits
// are the executed ones: the folder computes with the evaluators the
// backends run (ir/Eval.hpp), so folding cannot change a kernel's results.
// A division or remainder by zero must stay unfolded for the runtime to
// trap on; BytecodeTier.DivisionByZeroTrapsIdentically checks the trap.
// The binary also runs under -DCODESIGN_SANITIZE=undefined (ctest -L
// ubsan), which checks the folder's arithmetic on the same table.
//
// The cases are spread over kernels of CasesPerKernel each, all in one
// module, so native still compiles once. One kernel would not do: the host
// compiler's -O2 time grows faster than quadratically with the length of a
// straight-line function (2.5 s for 500 cases, 66 s for 2000; the table
// has about 10000).
//
//===----------------------------------------------------------------------===//
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "opt/Pipeline.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::opt {
namespace {

using namespace ir;

/// The integer operands: signs, the i32 and i64 extremes, and shift counts
/// at and past both widths. Each kind takes them canonicalized.
const std::int64_t IntTable[] = {0,
                                 1,
                                 -1,
                                 2,
                                 std::numeric_limits<std::int32_t>::min(),
                                 std::numeric_limits<std::int32_t>::max(),
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(),
                                 31,
                                 32,
                                 63,
                                 64,
                                 65};

/// The float operands. f32 constants keep these unrounded, as the frontend
/// builds them: 0.1 and 2^24 + 1 are not floats.
const double FloatTable[] = {0.0,
                             -0.0,
                             1.0,
                             -1.0,
                             0.1,
                             16777217.0, // 2^24 + 1
                             1e300,
                             -1e300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             9223372036854775808.0}; // 2^63

const Type IntKinds[] = {Type::i1(), Type::i32(), Type::i64()};
const Type FloatKinds[] = {Type::f32(), Type::f64()};

const Opcode IntBinops[] = {Opcode::Add,  Opcode::Sub,  Opcode::Mul,
                            Opcode::SDiv, Opcode::UDiv, Opcode::SRem,
                            Opcode::URem, Opcode::And,  Opcode::Or,
                            Opcode::Xor,  Opcode::Shl,  Opcode::LShr,
                            Opcode::AShr};
const Opcode FloatBinops[] = {Opcode::FAdd, Opcode::FSub, Opcode::FMul,
                              Opcode::FDiv};
const CmpPred IntPreds[] = {CmpPred::EQ,  CmpPred::NE,  CmpPred::SLT,
                            CmpPred::SLE, CmpPred::SGT, CmpPred::SGE,
                            CmpPred::ULT, CmpPred::ULE, CmpPred::UGT,
                            CmpPred::UGE};
const CmpPred FloatPreds[] = {CmpPred::OEQ, CmpPred::ONE, CmpPred::OLT,
                              CmpPred::OLE, CmpPred::OGT, CmpPred::OGE};

/// The table's integer constants of kind Ty, without duplicates.
std::vector<Value *> intOperands(Module &M, Type Ty) {
  std::vector<Value *> Out;
  for (const std::int64_t V : IntTable) {
    Value *C = M.constInt(Ty, V);
    if (std::find(Out.begin(), Out.end(), C) == Out.end())
      Out.push_back(C);
  }
  return Out;
}

std::vector<Value *> floatOperands(Module &M, Type Ty) {
  std::vector<Value *> Out;
  for (const double V : FloatTable)
    Out.push_back(M.constFP(Ty, V));
  return Out;
}

std::vector<Value *> operandsOf(Module &M, Type Ty) {
  if (Ty.isPointer())
    return {M.nullPtr()};
  return Ty.isFloat() ? floatOperands(M, Ty) : intOperands(M, Ty);
}

std::string show(const Value *V) {
  char Buf[64];
  if (const auto *C = dynCast<ConstantInt>(V))
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(C->value()));
  else if (const auto *C = dynCast<ConstantFP>(V))
    std::snprintf(Buf, sizeof(Buf), "%.17g", C->value());
  else
    std::snprintf(Buf, sizeof(Buf), "null");
  return Buf;
}

/// Cases per table kernel (see the file comment).
constexpr std::size_t CasesPerKernel = 64;

/// A division or remainder whose divisor is zero: it traps when executed.
bool traps(Opcode Op, const Value *Divisor) {
  return (Op == Opcode::SDiv || Op == Opcode::UDiv || Op == Opcode::SRem ||
          Op == Opcode::URem) &&
         cast<ConstantInt>(Divisor)->isZero();
}

/// The name of table kernel K.
std::string tableKernel(std::size_t K) { return "table" + std::to_string(K); }

/// Builds kernels "table<K>"(ptr out), which store case I's value at
/// out + 8*I (kernel K holds the CasesPerKernel cases from
/// K * CasesPerKernel on), and kernel "traps"(ptr out), which stores every
/// division and remainder by zero. Returns a description of each table
/// case.
std::vector<std::string> buildTable(Module &M) {
  IRBuilder B(M);
  Function *Traps = M.createFunction("traps", Type::voidTy(), {Type::ptr()});
  Traps->addAttr(FnAttr::Kernel);
  BasicBlock *TrapsBB = Traps->createBlock("entry");
  Function *Table = nullptr;
  BasicBlock *TableBB = nullptr;

  std::vector<std::string> What;
  std::int64_t TrapSlots = 0;
  // Value-building code runs at the table kernel's insertion point; record
  // then stores the value and opens the next kernel when this one is full.
  const auto openKernel = [&] {
    if (Table)
      B.retVoid();
    Table = M.createFunction(tableKernel(What.size() / CasesPerKernel),
                             Type::voidTy(), {Type::ptr()});
    Table->addAttr(FnAttr::Kernel);
    TableBB = Table->createBlock("entry");
    B.setInsertPoint(TableBB);
  };
  const auto record = [&](Value *V, std::string Desc) {
    B.store(V, B.gep(Table->arg(0), 8 * static_cast<std::int64_t>(
                                            What.size())));
    What.push_back(std::move(Desc));
    if (What.size() % CasesPerKernel == 0)
      openKernel();
  };
  openKernel();

  for (const Opcode Op : IntBinops)
    for (const Type Ty : IntKinds)
      for (Value *A : intOperands(M, Ty))
        for (Value *C : intOperands(M, Ty)) {
          const std::string Desc = std::string(opcodeName(Op)) + " " +
                                   std::string(Ty.name()) + " " + show(A) +
                                   ", " + show(C);
          if (!traps(Op, C)) {
            record(B.binop(Op, A, C), Desc);
            continue;
          }
          B.setInsertPoint(TrapsBB);
          B.store(B.binop(Op, A, C), B.gep(Traps->arg(0), 8 * TrapSlots++));
          B.setInsertPoint(TableBB);
        }
  for (const Opcode Op : FloatBinops)
    for (const Type Ty : FloatKinds)
      for (Value *A : floatOperands(M, Ty))
        for (Value *C : floatOperands(M, Ty))
          record(B.binop(Op, A, C), std::string(opcodeName(Op)) + " " +
                                        std::string(Ty.name()) + " " +
                                        show(A) + ", " + show(C));
  for (const CmpPred P : IntPreds)
    for (const Type Ty : {Type::i1(), Type::i32(), Type::i64(), Type::ptr()})
      for (Value *A : operandsOf(M, Ty))
        for (Value *C : operandsOf(M, Ty))
          record(B.cmp(P, A, C), std::string("icmp ") + cmpPredName(P) + " " +
                                     std::string(Ty.name()) + " " + show(A) +
                                     ", " + show(C));
  for (const CmpPred P : FloatPreds)
    for (const Type Ty : FloatKinds)
      for (Value *A : floatOperands(M, Ty))
        for (Value *C : floatOperands(M, Ty))
          record(B.cmp(P, A, C), std::string("fcmp ") + cmpPredName(P) + " " +
                                     std::string(Ty.name()) + " " + show(A) +
                                     ", " + show(C));
  for (const bool Cond : {false, true})
    for (const Type Ty : {Type::i1(), Type::i32(), Type::i64(), Type::f32(),
                          Type::f64(), Type::ptr()}) {
      const std::vector<Value *> Ops = operandsOf(M, Ty);
      for (std::size_t K = 0; K < Ops.size(); ++K) {
        Value *Other = Ops[(K + 1) % Ops.size()];
        record(B.select(B.i1(Cond), Ops[K], Other),
               "select " + std::string(Ty.name()) + " " +
                   std::to_string(Cond) + ", " + show(Ops[K]) + ", " +
                   show(Other));
      }
    }

  struct CastCase {
    Opcode Op;
    Type From, To;
  };
  std::vector<CastCase> Casts;
  for (const Opcode Op : {Opcode::ZExt, Opcode::SExt})
    for (const auto &[From, To] :
         {std::pair{Type::i1(), Type::i32()}, std::pair{Type::i1(), Type::i64()},
          std::pair{Type::i32(), Type::i64()}})
      Casts.push_back({Op, From, To});
  for (const auto &[From, To] :
       {std::pair{Type::i64(), Type::i32()}, std::pair{Type::i64(), Type::i1()},
        std::pair{Type::i32(), Type::i1()}})
    Casts.push_back({Opcode::Trunc, From, To});
  for (const Type I : IntKinds)
    for (const Type F : FloatKinds) {
      Casts.push_back({Opcode::SIToFP, I, F});
      Casts.push_back({Opcode::FPToSI, F, I});
    }
  Casts.push_back({Opcode::FPCast, Type::f32(), Type::f64()});
  Casts.push_back({Opcode::FPCast, Type::f64(), Type::f32()});
  Casts.push_back({Opcode::PtrToInt, Type::ptr(), Type::i64()});
  Casts.push_back({Opcode::IntToPtr, Type::i64(), Type::ptr()});
  for (const CastCase &Cc : Casts)
    for (Value *A : operandsOf(M, Cc.From))
      record(B.castOp(Cc.Op, A, Cc.To),
             std::string(opcodeName(Cc.Op)) + " " + std::string(Cc.From.name()) +
                 " " + show(A) + " to " + std::string(Cc.To.name()));

  B.retVoid();
  B.setInsertPoint(TrapsBB);
  B.retVoid();
  return What;
}

/// The values the kernels Names store, in store order.
std::vector<const Value *> storedValues(const Module &M,
                                        const std::vector<std::string> &Names) {
  std::vector<const Value *> Out;
  for (const std::string &Name : Names)
    for (const auto &I : M.findFunction(Name)->entry()->instructions())
      if (I->opcode() == Opcode::Store)
        Out.push_back(I->storedValue());
  return Out;
}

std::vector<std::string> tableKernels(std::size_t Cases) {
  std::vector<std::string> Names;
  for (std::size_t K = 0; K * CasesPerKernel < Cases; ++K)
    Names.push_back(tableKernel(K));
  return Names;
}

/// Run every table kernel under Backend; the output slots, read back.
std::vector<std::uint8_t> runTable(std::string_view Backend,
                                   std::size_t Cases) {
  Module M;
  buildTable(M);
  vgpu::VirtualGPU GPU;
  EXPECT_TRUE(GPU.setExecBackend(Backend).hasValue());
  auto Image = GPU.loadImage(M);
  const vgpu::DeviceAddr Out = GPU.allocate(8 * Cases);
  std::vector<std::uint8_t> Bytes(8 * Cases, 0);
  GPU.write(Out, Bytes);
  const std::vector<std::uint64_t> Args{Out.Bits};
  for (const std::string &Name : tableKernels(Cases)) {
    const vgpu::LaunchResult LR = GPU.launch(*Image, Name, Args, 1, 1);
    EXPECT_TRUE(LR.Ok) << Backend << " " << Name << ": " << LR.Error;
  }
  GPU.read(Out, Bytes);
  return Bytes;
}

TEST(ValueSemantics, FolderComputesWhatEveryBackendExecutes) {
  Module Ref;
  const std::vector<std::string> What = buildTable(Ref);
  ASSERT_TRUE(verifyModule(Ref).empty());
  const std::vector<const Value *> Stored =
      storedValues(Ref, tableKernels(What.size()));
  ASSERT_EQ(Stored.size(), What.size());

  // The unfolded kernels, executed: the three backends must agree.
  const std::vector<std::uint8_t> Tree = runTable("tree", What.size());
  for (const std::string_view Backend : {"bytecode", "native"}) {
    const std::vector<std::uint8_t> Got = runTable(Backend, What.size());
    std::size_t Diffs = 0;
    for (std::size_t I = 0; I < What.size(); ++I) {
      std::uint64_t A = 0, B = 0;
      std::memcpy(&A, Tree.data() + 8 * I, 8);
      std::memcpy(&B, Got.data() + 8 * I, 8);
      if (A != B && ++Diffs <= 20)
        ADD_FAILURE() << What[I] << ": tree stores 0x" << std::hex << A
                      << ", " << Backend << " 0x" << B;
    }
    EXPECT_EQ(Diffs, 0u) << Backend << ", of " << What.size() << " cases";
  }

  // A copy, folded: every stored value must be the executed constant.
  Module Folded;
  buildTable(Folded);
  runConstantFold(Folded);
  const std::vector<const Value *> FoldedStored =
      storedValues(Folded, tableKernels(What.size()));
  ASSERT_EQ(FoldedStored.size(), What.size());
  std::size_t Mismatches = 0;
  for (std::size_t I = 0; I < What.size(); ++I) {
    const Type Ty = Stored[I]->type();
    std::uint64_t Raw = 0;
    std::memcpy(&Raw, Tree.data() + 8 * I, Ty.sizeInBytes());
    const std::uint64_t Executed = eval::canonBits(Ty.kind(), Raw);
    const Value *V = FoldedStored[I];
    std::string Got;
    bool Ok = false;
    if (const auto *C = dynCast<ConstantInt>(V)) {
      Ok = C->bits() == Executed;
      Got = show(C);
    } else if (const auto *C = dynCast<ConstantFP>(V)) {
      Ok = C->bits() == Executed;
      Got = show(C);
    } else if (isa<ConstantNull>(V)) {
      Ok = Executed == 0;
      Got = "null";
    } else {
      // A non-null pointer has no constant form: inttoptr stays.
      const auto *Inst = dynCast<Instruction>(V);
      Ok = Executed != 0 && Inst && Inst->opcode() == Opcode::IntToPtr;
      Got = Inst ? std::string("unfolded ") + opcodeName(Inst->opcode())
                 : std::string("not a constant");
    }
    if (Ok)
      continue;
    if (++Mismatches <= 40)
      ADD_FAILURE() << What[I] << ": executed bits 0x" << std::hex
                    << Executed << std::dec << ", folded to " << Got;
  }
  EXPECT_EQ(Mismatches, 0u) << "of " << What.size() << " cases";
}

TEST(ValueSemantics, DivisionByZeroStaysUnfolded) {
  Module M;
  buildTable(M);
  runConstantFold(M);
  const std::vector<const Value *> Stored = storedValues(M, {"traps"});
  // Four ops, i1/i32/i64, every dividend of the kind over a zero divisor.
  EXPECT_EQ(Stored.size(), 4u * (2 + 11 + 13));
  for (const Value *V : Stored) {
    const auto *I = dynCast<Instruction>(V);
    ASSERT_NE(I, nullptr) << "a division by zero was folded to a constant";
    EXPECT_TRUE(I->opcode() == Opcode::SDiv || I->opcode() == Opcode::UDiv ||
                I->opcode() == Opcode::SRem || I->opcode() == Opcode::URem)
        << opcodeName(I->opcode());
  }
}

} // namespace
} // namespace codesign::opt
