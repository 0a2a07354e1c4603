//===- ir/IRBuilder.hpp - Convenience instruction factory ----------------===//
//
// The builder appends instructions to a current insertion block. Both the
// device-runtime generator (src/rt) and the OpenMP frontend lowering
// (src/frontend) are written against this interface.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "ir/Module.hpp"

namespace codesign::ir {

/// Appends instructions at the end of a current block.
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}

  /// The module being built into.
  [[nodiscard]] Module &module() const { return M; }
  /// Current insertion block (null until set).
  [[nodiscard]] BasicBlock *insertBlock() const { return BB; }
  /// Set the insertion block; new instructions append at its end.
  void setInsertPoint(BasicBlock *B) { BB = B; }

  // --- Constants (forwarded from the module) --------------------------------
  ConstantInt *i1(bool V) { return M.constBool(V); }
  ConstantInt *i32(std::int32_t V) { return M.constI32(V); }
  ConstantInt *i64(std::int64_t V) { return M.constI64(V); }
  ConstantFP *f64(double V) { return M.constFP(Type::f64(), V); }
  ConstantFP *f32(double V) { return M.constFP(Type::f32(), V); }
  ConstantNull *nullPtr() { return M.nullPtr(); }

  // --- Arithmetic ------------------------------------------------------------
  Value *binop(Opcode Op, Value *A, Value *B);
  Value *add(Value *A, Value *B) { return binop(Opcode::Add, A, B); }
  Value *sub(Value *A, Value *B) { return binop(Opcode::Sub, A, B); }
  Value *mul(Value *A, Value *B) { return binop(Opcode::Mul, A, B); }
  Value *sdiv(Value *A, Value *B) { return binop(Opcode::SDiv, A, B); }
  Value *udiv(Value *A, Value *B) { return binop(Opcode::UDiv, A, B); }
  Value *srem(Value *A, Value *B) { return binop(Opcode::SRem, A, B); }
  Value *urem(Value *A, Value *B) { return binop(Opcode::URem, A, B); }
  Value *and_(Value *A, Value *B) { return binop(Opcode::And, A, B); }
  Value *or_(Value *A, Value *B) { return binop(Opcode::Or, A, B); }
  Value *xor_(Value *A, Value *B) { return binop(Opcode::Xor, A, B); }
  Value *shl(Value *A, Value *B) { return binop(Opcode::Shl, A, B); }
  Value *lshr(Value *A, Value *B) { return binop(Opcode::LShr, A, B); }
  Value *fadd(Value *A, Value *B) { return binop(Opcode::FAdd, A, B); }
  Value *fsub(Value *A, Value *B) { return binop(Opcode::FSub, A, B); }
  Value *fmul(Value *A, Value *B) { return binop(Opcode::FMul, A, B); }
  Value *fdiv(Value *A, Value *B) { return binop(Opcode::FDiv, A, B); }

  /// Integer or float comparison (predicate selects which).
  Value *cmp(CmpPred P, Value *A, Value *B);
  Value *icmpEQ(Value *A, Value *B) { return cmp(CmpPred::EQ, A, B); }
  Value *icmpNE(Value *A, Value *B) { return cmp(CmpPred::NE, A, B); }
  Value *icmpSLT(Value *A, Value *B) { return cmp(CmpPred::SLT, A, B); }
  Value *icmpULT(Value *A, Value *B) { return cmp(CmpPred::ULT, A, B); }

  Value *select(Value *Cond, Value *TrueV, Value *FalseV);

  // --- Conversions -----------------------------------------------------------
  Value *castOp(Opcode Op, Value *V, Type To);
  Value *zext(Value *V, Type To) { return castOp(Opcode::ZExt, V, To); }
  Value *sext(Value *V, Type To) { return castOp(Opcode::SExt, V, To); }
  Value *trunc(Value *V, Type To) { return castOp(Opcode::Trunc, V, To); }
  Value *sitofp(Value *V, Type To) { return castOp(Opcode::SIToFP, V, To); }
  Value *fptosi(Value *V, Type To) { return castOp(Opcode::FPToSI, V, To); }
  Value *ptrToInt(Value *V) { return castOp(Opcode::PtrToInt, V, Type::i64()); }
  Value *intToPtr(Value *V) { return castOp(Opcode::IntToPtr, V, Type::ptr()); }

  // --- Memory ----------------------------------------------------------------
  /// Per-thread stack allocation of SizeBytes.
  Value *allocaBytes(std::uint64_t SizeBytes, std::string Name = {});
  /// Typed load through a pointer.
  Value *load(Type Ty, Value *Ptr);
  /// Store Val through Ptr.
  Instruction *store(Value *Val, Value *Ptr);
  /// Pointer arithmetic: Base + Offset (Offset is i64).
  Value *gep(Value *Base, Value *Offset);
  /// Pointer arithmetic with a constant byte offset.
  Value *gep(Value *Base, std::int64_t Offset);
  /// Atomic read-modify-write; returns the old value.
  Value *atomicRMW(AtomicOp Op, Value *Ptr, Value *V);
  /// Device heap allocation (global memory).
  Value *mallocOp(Value *SizeBytes);
  /// Release a Malloc'd pointer.
  Instruction *freeOp(Value *Ptr);

  // --- Control flow ------------------------------------------------------------
  Instruction *br(BasicBlock *Target);
  Instruction *condBr(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB);
  Instruction *retVoid();
  Instruction *ret(Value *V);
  /// Create an (initially empty) phi; use addIncoming on the result.
  Instruction *phi(Type Ty);

  // --- Calls ---------------------------------------------------------------
  /// Direct call.
  Value *call(Function *Callee, std::span<Value *const> Args);
  Value *call(Function *Callee, std::initializer_list<Value *> Args) {
    return call(Callee, std::span<Value *const>(Args.begin(), Args.size()));
  }
  /// Indirect call through a function pointer; the return type must be
  /// supplied because pointers are opaque.
  Value *callIndirect(Type RetTy, Value *Callee,
                      std::span<Value *const> Args);
  Value *callIndirect(Type RetTy, Value *Callee,
                      std::initializer_list<Value *> Args) {
    return callIndirect(RetTy, Callee,
                        std::span<Value *const>(Args.begin(), Args.size()));
  }

  // --- GPU intrinsics ---------------------------------------------------------
  Value *threadId();
  Value *blockId();
  Value *blockDim();
  Value *gridDim();

  // --- Synchronization / metadata -----------------------------------------------
  /// Unaligned team barrier with the given id.
  Instruction *barrier(int Id = 0);
  /// Aligned team barrier (paper Figure 6): every thread of the team reaches
  /// this same instruction.
  Instruction *alignedBarrier(int Id = 0);
  /// Compiler assumption: Cond (i1) holds here.
  Instruction *assume(Value *Cond);
  /// Debug-mode assertion with message; release builds turn these into
  /// assumptions (paper Section III-G).
  Instruction *assertCond(Value *Cond, std::string Msg);
  /// Invoke a registered host functor.
  Value *nativeOp(std::int64_t FnId, Type RetTy, std::span<Value *const> Args,
                  NativeOpFlags Flags);
  Value *nativeOp(std::int64_t FnId, Type RetTy,
                  std::initializer_list<Value *> Args, NativeOpFlags Flags) {
    return nativeOp(FnId, RetTy,
                    std::span<Value *const>(Args.begin(), Args.size()), Flags);
  }

private:
  Instruction *insert(std::unique_ptr<Instruction> I);

  Module &M;
  BasicBlock *BB = nullptr;
};

} // namespace codesign::ir
