//===- ir/Function.hpp - Function representation ---------------------------===//
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/BasicBlock.hpp"
#include "ir/MapKind.hpp"

namespace codesign::ir {

class Module;

/// Function attributes that drive optimizer behaviour. They mirror the roles
/// the paper relies on: the new runtime is shipped as analyzable bitcode
/// (AlwaysInline/Internal) while the legacy runtime is opaque (NoInline and
/// declarations the optimizer must treat as unknown).
enum class FnAttr : std::uint8_t {
  Kernel,       ///< GPU kernel entry point (launched by the host runtime).
  Internal,     ///< Not visible outside the module; safe to remove when dead.
  NoInline,     ///< Never inline (models opaque legacy-runtime entry points).
  AlwaysInline, ///< Inline at every call site during optimization.
  Pure,         ///< No memory effects; result depends only on arguments.
  MainThreadOnly, ///< Documented to execute only on the team's main thread.
};

/// Execution mode of a kernel (paper Section II-C / III-A).
enum class ExecMode : std::uint8_t { None, Generic, SPMD };

/// A function: signature, attributes and (unless it is a declaration) a CFG
/// of basic blocks. The entry block is blocks().front().
class Function {
public:
  Function(std::string Name, Type RetTy, std::vector<Type> ParamTys);
  /// Drops all operand references in the body (across blocks) before the
  /// blocks are destroyed; see ~BasicBlock.
  ~Function();
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  /// Symbol name (unique within the module).
  [[nodiscard]] const std::string &name() const { return FnName; }
  void setName(std::string N) { FnName = std::move(N); }

  /// The module owning this function (null while detached).
  [[nodiscard]] Module *parent() const { return Parent; }

  /// Return type.
  [[nodiscard]] Type returnType() const { return RetTy; }

  /// Formal parameters.
  [[nodiscard]] const std::vector<std::unique_ptr<Argument>> &args() const {
    return Args;
  }
  /// Number of parameters.
  [[nodiscard]] unsigned numArgs() const {
    return static_cast<unsigned>(Args.size());
  }
  /// Parameter I.
  [[nodiscard]] Argument *arg(unsigned I) const {
    CODESIGN_ASSERT(I < Args.size(), "argument index out of range");
    return Args[I].get();
  }

  /// The value-of-this-function, usable as a Call callee or stored as a
  /// function pointer (e.g. the team work-function slot).
  [[nodiscard]] Value *asValue() { return &FnValue; }
  [[nodiscard]] const Value *asValue() const { return &FnValue; }
  /// Given a Value known to be a function address, recover the Function.
  static Function *fromValue(Value *V);
  static const Function *fromValue(const Value *V);

  // --- Attributes -----------------------------------------------------------

  /// True when the attribute is set.
  [[nodiscard]] bool hasAttr(FnAttr A) const {
    return (AttrMask & bit(A)) != 0;
  }
  void addAttr(FnAttr A) { AttrMask |= bit(A); }
  void removeAttr(FnAttr A) { AttrMask &= ~bit(A); }

  /// Kernel execution mode; None for non-kernels.
  [[nodiscard]] ExecMode execMode() const { return Mode; }
  void setExecMode(ExecMode M) { Mode = M; }

  // --- Data-mapping clauses (kernels only) ----------------------------------
  //
  // Two per-argument annotation arrays, both defaulting to MapKind::None:
  //
  //   * declared maps — the map(to/from/...) clauses the frontend spec
  //     carried; what the programmer asked for. None on a pointer argument
  //     means "no explicit clause" (implicit tofrom).
  //   * inferred maps — the minimal transfer set the opt/MapInference pass
  //     proved sufficient; None means the pass has not run (consumers must
  //     fall back to the declared/implicit clause).
  //
  // The arrays are allocated lazily; functions without map clauses pay
  // nothing.

  /// Declared map clause for argument I (None without a clause).
  [[nodiscard]] MapKind argMap(unsigned I) const {
    return I < DeclaredMaps.size() ? DeclaredMaps[I] : MapKind::None;
  }
  void setArgMap(unsigned I, MapKind K) {
    CODESIGN_ASSERT(I < Args.size(), "argMap index out of range");
    if (DeclaredMaps.size() < Args.size())
      DeclaredMaps.resize(Args.size(), MapKind::None);
    DeclaredMaps[I] = K;
  }
  /// True when any argument carries an explicit map clause.
  [[nodiscard]] bool hasMapClauses() const {
    for (MapKind K : DeclaredMaps)
      if (K != MapKind::None)
        return true;
    return false;
  }

  /// Map kind the inference pass deduced for argument I (None = not run).
  [[nodiscard]] MapKind inferredArgMap(unsigned I) const {
    return I < InferredMaps.size() ? InferredMaps[I] : MapKind::None;
  }
  void setInferredArgMap(unsigned I, MapKind K) {
    CODESIGN_ASSERT(I < Args.size(), "inferredArgMap index out of range");
    if (InferredMaps.size() < Args.size())
      InferredMaps.resize(Args.size(), MapKind::None);
    InferredMaps[I] = K;
  }
  /// True when the inference pass annotated this function.
  [[nodiscard]] bool hasInferredMaps() const { return !InferredMaps.empty(); }

  /// True when the function has no body (external declaration). The
  /// optimizer must assume worst-case behaviour for calls to declarations
  /// unless the runtime-info table says otherwise.
  [[nodiscard]] bool isDeclaration() const { return Blocks.empty(); }

  // --- Blocks ---------------------------------------------------------------

  /// Basic blocks in layout order; front() is the entry block.
  [[nodiscard]] const std::vector<std::unique_ptr<BasicBlock>> &
  blocks() const {
    return Blocks;
  }
  /// The entry block. Precondition: not a declaration.
  [[nodiscard]] BasicBlock *entry() const {
    CODESIGN_ASSERT(!Blocks.empty(), "entry() on declaration");
    return Blocks.front().get();
  }
  /// Create and append a new block.
  BasicBlock *createBlock(std::string Name);
  /// Remove and destroy a block. Instructions inside must be unused
  /// externally; their operands are dropped.
  void eraseBlock(BasicBlock *BB);

  /// Total instruction count across all blocks.
  [[nodiscard]] std::size_t instructionCount() const;

private:
  friend class Module;

  static std::uint32_t bit(FnAttr A) {
    return 1U << static_cast<std::uint32_t>(A);
  }

  /// Values representing the address of a function. Lives inside Function so
  /// lifetime matches.
  class FunctionValue final : public Value {
  public:
    explicit FunctionValue(Function *F)
        : Value(ValueKind::Function, Type::ptr()), Fn(F) {}
    Function *Fn;
    static bool classof(const Value *V) {
      return V->kind() == ValueKind::Function;
    }
  };

  std::string FnName;
  Module *Parent = nullptr;
  Type RetTy;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<MapKind> DeclaredMaps; ///< lazily sized; see argMap()
  std::vector<MapKind> InferredMaps; ///< lazily sized; see inferredArgMap()
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::uint32_t AttrMask = 0;
  ExecMode Mode = ExecMode::None;
  FunctionValue FnValue{this};
};

} // namespace codesign::ir
