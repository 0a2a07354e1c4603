//===- ir/Type.hpp - Scalar type system for the mini SSA IR ---------------===//
//
// The IR deliberately supports only the scalar types the OpenMP device
// runtime and the proxy-app kernels need. Pointers are untyped (opaque, like
// modern LLVM); address-space information lives on the *memory objects*
// (globals, allocas, allocation calls), and analyses recover it by tracing
// pointer provenance, exactly as openmp-opt does.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <string_view>

#include "ir/Eval.hpp" // TypeKind
#include "support/Error.hpp"

namespace codesign::ir {

/// A value-semantic scalar type.
class Type {
public:
  constexpr Type() : Kind(TypeKind::Void) {}
  constexpr explicit Type(TypeKind K) : Kind(K) {}

  /// Named constructors for each kind.
  static constexpr Type voidTy() { return Type(TypeKind::Void); }
  static constexpr Type i1() { return Type(TypeKind::I1); }
  static constexpr Type i32() { return Type(TypeKind::I32); }
  static constexpr Type i64() { return Type(TypeKind::I64); }
  static constexpr Type f32() { return Type(TypeKind::F32); }
  static constexpr Type f64() { return Type(TypeKind::F64); }
  static constexpr Type ptr() { return Type(TypeKind::Ptr); }

  /// The kind tag.
  [[nodiscard]] constexpr TypeKind kind() const { return Kind; }

  [[nodiscard]] constexpr bool isVoid() const {
    return Kind == TypeKind::Void;
  }
  [[nodiscard]] constexpr bool isInteger() const {
    return Kind == TypeKind::I1 || Kind == TypeKind::I32 ||
           Kind == TypeKind::I64;
  }
  [[nodiscard]] constexpr bool isFloat() const {
    return Kind == TypeKind::F32 || Kind == TypeKind::F64;
  }
  [[nodiscard]] constexpr bool isPointer() const {
    return Kind == TypeKind::Ptr;
  }
  [[nodiscard]] constexpr bool isI1() const { return Kind == TypeKind::I1; }

  /// Size in bytes when stored in memory. Void has no size.
  [[nodiscard]] constexpr unsigned sizeInBytes() const {
    switch (Kind) {
    case TypeKind::Void:
      return 0;
    case TypeKind::I1:
      return 1;
    case TypeKind::I32:
    case TypeKind::F32:
      return 4;
    case TypeKind::I64:
    case TypeKind::F64:
    case TypeKind::Ptr:
      return 8;
    }
    return 0;
  }

  /// Number of value bits for integer types (1, 32 or 64).
  [[nodiscard]] constexpr unsigned bitWidth() const {
    switch (Kind) {
    case TypeKind::I1:
      return 1;
    case TypeKind::I32:
      return 32;
    case TypeKind::I64:
      return 64;
    default:
      return 0;
    }
  }

  /// Short printable name ("i32", "ptr", ...).
  [[nodiscard]] std::string_view name() const {
    switch (Kind) {
    case TypeKind::Void:
      return "void";
    case TypeKind::I1:
      return "i1";
    case TypeKind::I32:
      return "i32";
    case TypeKind::I64:
      return "i64";
    case TypeKind::F32:
      return "f32";
    case TypeKind::F64:
      return "f64";
    case TypeKind::Ptr:
      return "ptr";
    }
    return "?";
  }

  friend constexpr bool operator==(Type A, Type B) {
    return A.Kind == B.Kind;
  }
  friend constexpr bool operator!=(Type A, Type B) { return !(A == B); }

private:
  TypeKind Kind;
};

/// Address spaces for memory objects. Mirrors the GPU memory hierarchy the
/// paper's Figure 2 describes: global memory visible to the league, shared
/// memory visible within a team, constant memory read-only, and local
/// (per-thread, "stack") memory.
enum class AddrSpace : std::uint8_t { Global, Shared, Constant, Local };

/// Printable name of an address space.
constexpr std::string_view addrSpaceName(AddrSpace AS) {
  switch (AS) {
  case AddrSpace::Global:
    return "global";
  case AddrSpace::Shared:
    return "shared";
  case AddrSpace::Constant:
    return "constant";
  case AddrSpace::Local:
    return "local";
  }
  return "?";
}

} // namespace codesign::ir
