//===- ir/Module.hpp - Translation unit container --------------------------===//
//
// A Module owns functions, globals and uniqued constants. A compiled kernel
// is a Module produced by the frontend, linked against a device runtime
// module, optimized in place, and then executed by the virtual GPU.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/Function.hpp"
#include "ir/Global.hpp"

namespace codesign::ir {

/// A translation unit: functions + globals + constants.
class Module {
public:
  explicit Module(std::string Name = "module") : ModName(std::move(Name)) {}
  /// Drops all operand references module-wide (bodies may reference globals
  /// and other functions' address values) before members are destroyed.
  ~Module();
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// Module name (diagnostics only).
  [[nodiscard]] const std::string &name() const { return ModName; }

  // --- Functions ------------------------------------------------------------

  /// Create a function owned by this module. The name must be unused.
  Function *createFunction(std::string Name, Type RetTy,
                           std::vector<Type> ParamTys);
  /// Find a function by name, or null.
  [[nodiscard]] Function *findFunction(std::string_view Name) const;
  /// All functions in creation order.
  [[nodiscard]] const std::vector<std::unique_ptr<Function>> &
  functions() const {
    return Funcs;
  }
  /// Remove and destroy a function. Its address value must be unused.
  void eraseFunction(Function *F);
  /// Rename F, keeping the name index consistent. NewName must be unused.
  void renameFunction(Function *F, std::string NewName);

  // --- Globals ---------------------------------------------------------------

  /// Create a global variable owned by this module. The name must be unused.
  GlobalVariable *createGlobal(std::string Name, AddrSpace Space,
                               std::uint64_t SizeBytes, unsigned Align = 8);
  /// Find a global by name, or null.
  [[nodiscard]] GlobalVariable *findGlobal(std::string_view Name) const;
  /// All globals in creation order.
  [[nodiscard]] const std::vector<std::unique_ptr<GlobalVariable>> &
  globals() const {
    return Globals;
  }
  /// Remove and destroy a global. It must be unused.
  void eraseGlobal(GlobalVariable *G);

  // --- Constants (uniqued per module) ----------------------------------------

  /// Integer constant of the given type, holding V in the canonical
  /// encoding (ir/Eval.hpp canonBits): an i1 keeps V's low bit, an i32 its
  /// sign-extended low 32 bits.
  ConstantInt *constInt(Type Ty, std::int64_t V);
  /// i1 constant.
  ConstantInt *constBool(bool V) { return constInt(Type::i1(), V ? 1 : 0); }
  /// i32 constant.
  ConstantInt *constI32(std::int32_t V) { return constInt(Type::i32(), V); }
  /// i64 constant.
  ConstantInt *constI64(std::int64_t V) { return constInt(Type::i64(), V); }
  /// Floating-point constant of the given type.
  ConstantFP *constFP(Type Ty, double V);
  /// The null pointer.
  ConstantNull *nullPtr() { return &Null; }
  /// Undef of the given type.
  UndefValue *undef(Type Ty);

  /// Total instruction count across all functions (size metric for tests
  /// and for the feature-pruning bench).
  [[nodiscard]] std::size_t instructionCount() const;

  // --- Content identity -------------------------------------------------------

  /// Content key assigned by the frontend's kernel cache (empty when the
  /// module was built outside the cacheable compile path). Execution
  /// backends that memoize expensive per-module work — the native backend's
  /// compiled shared objects — key on this instead of re-hashing the IR.
  [[nodiscard]] const std::string &cacheKey() const { return CacheKey; }
  void setCacheKey(std::string K) { CacheKey = std::move(K); }

private:
  std::string ModName;
  std::string CacheKey;
  std::vector<std::unique_ptr<Function>> Funcs;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;
  std::map<std::string, Function *, std::less<>> FuncIndex;
  std::map<std::string, GlobalVariable *, std::less<>> GlobalIndex;

  std::map<std::pair<std::uint8_t, std::int64_t>, std::unique_ptr<ConstantInt>>
      IntConstants;
  std::map<std::pair<std::uint8_t, std::uint64_t>, std::unique_ptr<ConstantFP>>
      FPConstants;
  ConstantNull Null;
  std::map<std::uint8_t, std::unique_ptr<UndefValue>> Undefs;
};

} // namespace codesign::ir
