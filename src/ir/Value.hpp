//===- ir/Value.hpp - Value hierarchy for the mini SSA IR -----------------===//
//
// Value is the base of everything an instruction can reference: arguments,
// other instructions, constants, globals, and functions. Values maintain
// use-lists so passes can enumerate users and perform
// replaceAllUsesWith — the workhorse of the constant/value propagation
// optimizations from the paper's Section IV-B.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/Type.hpp"
#include "support/Error.hpp"

namespace codesign::ir {

class Instruction;
class Function;

/// Discriminator for the Value hierarchy (LLVM-style manual RTTI).
enum class ValueKind : std::uint8_t {
  Argument,
  Instruction,
  ConstantInt,
  ConstantFP,
  ConstantNull,
  Undef,
  GlobalVariable,
  Function,
};

/// One use of a Value by an Instruction, identified by operand index.
struct Use {
  Instruction *User = nullptr;
  unsigned OpIdx = 0;

  friend bool operator==(const Use &A, const Use &B) {
    return A.User == B.User && A.OpIdx == B.OpIdx;
  }
};

/// Base class for all IR values. Non-copyable; values are owned by their
/// parent container (module, function, or basic block) and referenced by
/// raw pointer everywhere else.
class Value {
public:
  Value(ValueKind K, Type Ty) : Kind(K), Ty(Ty) {}
  virtual ~Value() = default;
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  /// Dynamic kind of this value.
  [[nodiscard]] ValueKind kind() const { return Kind; }
  /// Static type of this value.
  [[nodiscard]] Type type() const { return Ty; }

  /// Optional name, used for printing and lookup of globals/functions.
  [[nodiscard]] const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// All uses of this value. Order is insertion order and deterministic.
  [[nodiscard]] const std::vector<Use> &uses() const { return Users; }
  /// True when nothing references this value.
  [[nodiscard]] bool useEmpty() const { return Users.empty(); }
  /// Number of uses.
  [[nodiscard]] std::size_t numUses() const { return Users.size(); }

  /// Rewrite every use of this value to use New instead. New must have the
  /// same type.
  void replaceAllUsesWith(Value *New);

  /// True for ConstantInt/ConstantFP/ConstantNull/Undef.
  [[nodiscard]] bool isConstant() const {
    return Kind == ValueKind::ConstantInt || Kind == ValueKind::ConstantFP ||
           Kind == ValueKind::ConstantNull || Kind == ValueKind::Undef;
  }

protected:
  void changeType(Type NewTy) { Ty = NewTy; }

private:
  friend class Instruction;
  void addUse(Instruction *User, unsigned OpIdx);
  void removeUse(Instruction *User, unsigned OpIdx);

  ValueKind Kind;
  Type Ty;
  std::string Name;
  std::vector<Use> Users;
};

/// A formal parameter of a Function.
class Argument final : public Value {
public:
  Argument(Type Ty, Function *Parent, unsigned Index)
      : Value(ValueKind::Argument, Ty), Parent(Parent), Index(Index) {}

  /// The function this argument belongs to.
  [[nodiscard]] Function *parent() const { return Parent; }
  /// Zero-based position in the parameter list.
  [[nodiscard]] unsigned index() const { return Index; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Argument;
  }

private:
  Function *Parent;
  unsigned Index;
};

/// An integer constant (i1, i32 or i64). Uniqued per module.
class ConstantInt final : public Value {
public:
  ConstantInt(Type Ty, std::int64_t V)
      : Value(ValueKind::ConstantInt, Ty), Val(V) {
    CODESIGN_ASSERT(Ty.isInteger(), "ConstantInt requires integer type");
  }

  /// Signed value (i1 constants are 0 or 1).
  [[nodiscard]] std::int64_t value() const { return Val; }
  /// Value reinterpreted as unsigned.
  [[nodiscard]] std::uint64_t zext() const {
    return static_cast<std::uint64_t>(Val);
  }
  /// True when the value is zero.
  [[nodiscard]] bool isZero() const { return Val == 0; }
  /// The canonical 64-bit encoding (ir/Eval.hpp).
  [[nodiscard]] std::uint64_t bits() const {
    return eval::canonBits(type().kind(), zext());
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstantInt;
  }

private:
  std::int64_t Val;
};

/// A floating-point constant (f32 or f64). Uniqued per module by bit pattern.
class ConstantFP final : public Value {
public:
  ConstantFP(Type Ty, double V) : Value(ValueKind::ConstantFP, Ty), Val(V) {
    CODESIGN_ASSERT(Ty.isFloat(), "ConstantFP requires float type");
  }

  /// The constant's value (f32 constants are stored widened).
  [[nodiscard]] double value() const { return Val; }
  /// The canonical 64-bit encoding (ir/Eval.hpp): an f32 constant rounds to
  /// float here, as it does wherever it is executed.
  [[nodiscard]] std::uint64_t bits() const {
    return eval::encodeF(type().kind(), Val);
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstantFP;
  }

private:
  double Val;
};

/// The null pointer constant.
class ConstantNull final : public Value {
public:
  ConstantNull() : Value(ValueKind::ConstantNull, Type::ptr()) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstantNull;
  }
};

/// An undefined value of a given type. Reading it in the interpreter is a
/// detected error in debug executions.
class UndefValue final : public Value {
public:
  explicit UndefValue(Type Ty) : Value(ValueKind::Undef, Ty) {}
  static bool classof(const Value *V) { return V->kind() == ValueKind::Undef; }
};

/// dyn_cast/cast helpers in the LLVM style, scoped to this hierarchy.
template <typename To> To *dynCast(Value *V) {
  return V && To::classof(V) ? static_cast<To *>(V) : nullptr;
}
template <typename To> const To *dynCast(const Value *V) {
  return V && To::classof(V) ? static_cast<const To *>(V) : nullptr;
}
template <typename To> To *cast(Value *V) {
  CODESIGN_ASSERT(V && To::classof(V), "invalid cast");
  return static_cast<To *>(V);
}
template <typename To> const To *cast(const Value *V) {
  CODESIGN_ASSERT(V && To::classof(V), "invalid cast");
  return static_cast<const To *>(V);
}
template <typename To> bool isa(const Value *V) {
  return V && To::classof(V);
}

} // namespace codesign::ir
