//===- ir/Instruction.hpp - Instruction representation --------------------===//
//
// A single Instruction class with an opcode tag plus small payload fields
// covers the whole instruction set. GPU-specific operations (thread/block id
// reads, aligned and unaligned barriers) are first-class opcodes so the
// optimizer can reason about them directly — the moral equivalent of
// openmp-opt knowing __kmpc_* semantics in the paper. The tags (Opcode,
// CmpPred, AtomicOp) are defined in ir/Eval.hpp beside what each value
// operation computes.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/Eval.hpp"
#include "ir/Value.hpp"

namespace codesign::ir {

class BasicBlock;
class Function;

/// Side-effect summary flags for NativeOp instructions. Set by the frontend
/// when it emits the operation, consumed by the optimizer. This mirrors how
/// the paper attaches assumptions (ext_no_call_asm etc.) to otherwise
/// opaque code such as inline assembly (Figure 6).
struct NativeOpFlags {
  bool ReadsMemory = true;
  bool WritesMemory = true;
  /// A divergent native op may behave differently per thread; a uniform one
  /// computes the same value for every thread of the team.
  bool Divergent = true;
  /// Per-operand refinement of ReadsMemory/WritesMemory for pointer
  /// operands: bit i set means the native body may read (resp. write)
  /// memory *through operand i*. The all-ones default is the conservative
  /// "touches everything it can reach" assumption; frontends that know
  /// their native bodies (the proxy apps, the mapping bench) narrow the
  /// masks so the map-inference pass can prove read-only / write-only
  /// buffer arguments. The masks only refine — a cleared bit is
  /// meaningless while the corresponding coarse flag is false.
  std::uint32_t ReadsArgsMask = ~0U;
  std::uint32_t WritesArgsMask = ~0U;

  /// May the op read memory reachable from operand I?
  [[nodiscard]] bool readsOperand(unsigned I) const {
    return ReadsMemory && (I >= 32 || (ReadsArgsMask & (1U << I)) != 0);
  }
  /// May the op write memory reachable from operand I?
  [[nodiscard]] bool writesOperand(unsigned I) const {
    return WritesMemory && (I >= 32 || (WritesArgsMask & (1U << I)) != 0);
  }
};

/// Printable opcode mnemonic.
const char *opcodeName(Opcode Op);

/// Printable predicate mnemonic.
const char *cmpPredName(CmpPred P);

/// An instruction: an operation with operands, an optional result value
/// (the instruction *is* the result value), and bookkeeping payloads.
class Instruction final : public Value {
public:
  Instruction(Opcode Op, Type Ty) : Value(ValueKind::Instruction, Ty), Op(Op) {}
  ~Instruction() override;

  /// The operation tag.
  [[nodiscard]] Opcode opcode() const { return Op; }
  /// The block containing this instruction (null when detached).
  [[nodiscard]] BasicBlock *parent() const { return Parent; }
  /// The function containing this instruction (null when detached).
  [[nodiscard]] Function *function() const;

  // --- Operands -----------------------------------------------------------

  /// Number of value operands.
  [[nodiscard]] unsigned numOperands() const {
    return static_cast<unsigned>(Operands.size());
  }
  /// Operand at index I.
  [[nodiscard]] Value *operand(unsigned I) const {
    CODESIGN_ASSERT(I < Operands.size(), "operand index out of range");
    return Operands[I];
  }
  /// Append an operand (updates use lists).
  void addOperand(Value *V);
  /// Replace operand I with V (updates use lists).
  void setOperand(unsigned I, Value *V);
  /// Remove all operands (updates use lists). Used before erasing.
  void dropOperands();
  /// Remove the operand at index I, shifting later operands down (use
  /// lists are re-registered with their new indices).
  void removeOperand(unsigned I);

  // --- Block operands (branch targets / phi incoming blocks) --------------

  /// Number of block operands.
  [[nodiscard]] unsigned numBlockOperands() const {
    return static_cast<unsigned>(Blocks.size());
  }
  /// Block operand at index I.
  [[nodiscard]] BasicBlock *blockOperand(unsigned I) const {
    CODESIGN_ASSERT(I < Blocks.size(), "block operand index out of range");
    return Blocks[I];
  }
  /// Append a block operand.
  void addBlockOperand(BasicBlock *BB) { Blocks.push_back(BB); }
  /// Replace block operand I.
  void setBlockOperand(unsigned I, BasicBlock *BB) {
    CODESIGN_ASSERT(I < Blocks.size(), "block operand index out of range");
    Blocks[I] = BB;
  }

  // --- Payload accessors ---------------------------------------------------

  /// Comparison predicate (ICmp/FCmp only).
  [[nodiscard]] CmpPred pred() const { return Pred; }
  void setPred(CmpPred P) { Pred = P; }

  /// Immediate payload: Alloca size, NativeOp functor id, AtomicRMW op,
  /// Barrier id. Interpreted per opcode.
  [[nodiscard]] std::int64_t imm() const { return Imm; }
  void setImm(std::int64_t V) { Imm = V; }

  /// AtomicRMW operation (AtomicRMW only).
  [[nodiscard]] AtomicOp atomicOp() const {
    return static_cast<AtomicOp>(Imm);
  }

  /// String payload: AssertFail message, optional annotation.
  [[nodiscard]] const std::string &str() const { return StrPayload; }
  void setStr(std::string S) { StrPayload = std::move(S); }

  /// NativeOp side-effect summary (NativeOp only).
  [[nodiscard]] NativeOpFlags nativeFlags() const { return NFlags; }
  void setNativeFlags(NativeOpFlags F) { NFlags = F; }

  // --- Phi helpers ----------------------------------------------------------

  /// Add an incoming (value, predecessor) pair to a Phi.
  void addIncoming(Value *V, BasicBlock *BB) {
    CODESIGN_ASSERT(Op == Opcode::Phi, "addIncoming on non-phi");
    addOperand(V);
    addBlockOperand(BB);
  }
  /// Incoming value for predecessor BB (null when BB is not incoming).
  [[nodiscard]] Value *incomingFor(const BasicBlock *BB) const;
  /// Remove the incoming pair(s) for predecessor BB from a Phi.
  void removeIncoming(const BasicBlock *BB);

  // --- Call helpers ---------------------------------------------------------

  /// Direct callee when operand 0 is a Function, else null (indirect call).
  [[nodiscard]] Function *calledFunction() const;
  /// Argument count of a call (operands minus the callee).
  [[nodiscard]] unsigned numCallArgs() const {
    CODESIGN_ASSERT(Op == Opcode::Call, "numCallArgs on non-call");
    return numOperands() - 1;
  }
  /// Call argument I (0-based, excluding the callee operand).
  [[nodiscard]] Value *callArg(unsigned I) const {
    CODESIGN_ASSERT(Op == Opcode::Call, "callArg on non-call");
    return operand(I + 1);
  }

  // --- Classification -------------------------------------------------------

  /// True for instructions that end a basic block.
  [[nodiscard]] bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
  }
  /// True for Barrier/AlignedBarrier.
  [[nodiscard]] bool isBarrier() const {
    return Op == Opcode::Barrier || Op == Opcode::AlignedBarrier;
  }
  /// True when removing the instruction could change observable behaviour
  /// even if its result is unused. Calls are conservatively included; the
  /// optimizer refines call effects via the runtime-info table.
  [[nodiscard]] bool hasSideEffects() const;
  /// True when the instruction may read from memory.
  [[nodiscard]] bool mayReadMemory() const;
  /// True when the instruction may write to memory.
  [[nodiscard]] bool mayWriteMemory() const;

  /// Size in bytes of the memory access (Load/Store/AtomicRMW).
  [[nodiscard]] unsigned accessSize() const;
  /// The pointer operand of a memory access instruction.
  [[nodiscard]] Value *pointerOperand() const;
  /// The value operand of a Store.
  [[nodiscard]] Value *storedValue() const {
    CODESIGN_ASSERT(Op == Opcode::Store, "storedValue on non-store");
    return operand(0);
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Instruction;
  }

private:
  friend class BasicBlock;

  Opcode Op;
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
  std::vector<BasicBlock *> Blocks;
  CmpPred Pred = CmpPred::EQ;
  std::int64_t Imm = 0;
  std::string StrPayload;
  NativeOpFlags NFlags;
};

} // namespace codesign::ir
