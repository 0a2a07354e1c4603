//===- ir/Eval.hpp - What every IR value instruction computes --------------===//
//
// The one definition of the IR's value semantics. The constant folder
// (opt/ConstantFold.cpp) and all three execution backends (the tree walker,
// the bytecode VM and the native backend's generated C++) compute every
// integer binop, float binop, icmp, fcmp, select, cast and atomic update by
// calling the evaluators below, so a folded constant is the value the
// device would have computed.
//
// Values travel in the canonical 64-bit encoding: i1 is 0/1, i32 is
// sign-extended, f32 keeps its float bits in the low 32 bits (so every f32
// operand and result is rounded to float), and i64, f64 and pointers are
// raw. Every NaN an operation produces is the positive quiet NaN of its
// kind. Everything here is defined behaviour in C++: add/sub/mul wrap modulo
// 2^64 (computed on unsigned operands, so signed overflow never happens at
// the language level), INT64_MIN / -1 wraps to INT64_MIN (remainder 0)
// instead of executing the one x86 idiv that SIGFPEs, shift counts are
// masked to the operand width, and float-to-int conversion saturates (NaN
// converts to 0) instead of hitting the out-of-range UB of a raw cast.
// Division and remainder by zero are the only traps: the integer evaluator
// returns the trap message, and the caller raises it (the folder leaves the
// instruction for the runtime to trap on).
//
// The file is std-only: the native backend embeds it verbatim into every
// generated translation unit (src/exec/CMakeLists.txt), and the optimizer
// uses it without linking the virtual GPU. That is why the instruction
// set's tags (TypeKind, Opcode, CmpPred, AtomicOp) are defined here, for
// ir/Type.hpp and ir/Instruction.hpp to use, and why the global-memory
// atomics that generated code shares with the team model live here too.
// The ubsan build flavor (-DCODESIGN_SANITIZE=undefined) exercises all of
// it.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>

namespace codesign::ir {

/// The scalar kinds supported by the IR.
enum class TypeKind : std::uint8_t { Void, I1, I32, I64, F32, F64, Ptr };

/// Every operation the IR supports.
enum class Opcode : std::uint8_t {
  // Integer arithmetic / bitwise.
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // Floating point arithmetic.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Comparison and selection.
  ICmp,
  FCmp,
  Select,
  // Conversions.
  ZExt,
  SExt,
  Trunc,
  SIToFP,
  FPToSI,
  FPCast,
  PtrToInt,
  IntToPtr,
  // Memory.
  Alloca,    // imm = size in bytes; yields a Local-space pointer
  Load,      // op0 = pointer; result type = loaded type
  Store,     // op0 = value, op1 = pointer
  Gep,       // op0 = base pointer, op1 = byte offset (i64); yields pointer
  AtomicRMW, // imm = AtomicOp; op0 = pointer, op1 = value; yields old value
  Malloc,    // op0 = size (i64); yields Global-space pointer
  Free,      // op0 = pointer from Malloc
  // Control flow.
  Br,     // block0 = target
  CondBr, // op0 = i1 condition; block0 = true, block1 = false
  Ret,    // op0 = value (absent for void returns)
  Phi,    // opN = incoming value, blockN = incoming block
  Call,   // op0 = callee (Function or pointer value), op1.. = arguments
  // GPU intrinsics (uniform values the paper's invariant propagation
  // exploits, Section IV-B4).
  ThreadId, // thread index within the team
  BlockId,  // team index within the league
  BlockDim, // threads per team
  GridDim,  // teams per league
  // Synchronization.
  Barrier,        // unaligned team barrier; imm = barrier id
  AlignedBarrier, // aligned team barrier (all threads at same instruction)
  // Compiler/runtime metadata.
  Assume,     // op0 = i1; informs the optimizer the condition holds
  AssertFail, // op0 = i1; str = message. Debug-mode runtime check.
  NativeOp,   // imm = registered host functor id; opN = arguments
};

/// Comparison predicates for ICmp (integer) and FCmp (ordered float).
enum class CmpPred : std::uint8_t {
  EQ,
  NE,
  SLT,
  SLE,
  SGT,
  SGE,
  ULT,
  ULE,
  UGT,
  UGE,
  OEQ,
  ONE,
  OLT,
  OLE,
  OGT,
  OGE,
};

/// Operations for AtomicRMW.
enum class AtomicOp : std::uint8_t { Add, Max, Min, Exchange };

namespace eval {

//===----------------------------------------------------------------------===//
// Two's-complement primitives
//===----------------------------------------------------------------------===//

/// Wrapping add modulo 2^64; bit-identical to signed wrap-around.
[[nodiscard]] inline std::uint64_t addWrap(std::uint64_t A, std::uint64_t B) {
  return A + B;
}

/// Wrapping subtract modulo 2^64.
[[nodiscard]] inline std::uint64_t subWrap(std::uint64_t A, std::uint64_t B) {
  return A - B;
}

/// Wrapping multiply modulo 2^64 (the low 64 bits of the product are the
/// same for signed and unsigned interpretation).
[[nodiscard]] inline std::uint64_t mulWrap(std::uint64_t A, std::uint64_t B) {
  return A * B;
}

/// Signed division on the canonical encoding. Returns false for division
/// by zero (the caller traps). The INT64_MIN / -1 overflow case — UB for
/// int64_t operands, a SIGFPE on x86 — is defined to wrap: the quotient is
/// INT64_MIN, matching two's-complement negation (see DESIGN.md section 5).
[[nodiscard]] inline bool sdiv(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  const auto SA = static_cast<std::int64_t>(A);
  const auto SB = static_cast<std::int64_t>(B);
  if (SB == 0)
    return false;
  if (SA == std::numeric_limits<std::int64_t>::min() && SB == -1) {
    R = A; // wraps to INT64_MIN
    return true;
  }
  R = static_cast<std::uint64_t>(SA / SB);
  return true;
}

/// Signed remainder; false for remainder by zero. INT64_MIN % -1 is
/// defined as 0 (consistent with the wrapped quotient).
[[nodiscard]] inline bool srem(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  const auto SA = static_cast<std::int64_t>(A);
  const auto SB = static_cast<std::int64_t>(B);
  if (SB == 0)
    return false;
  if (SA == std::numeric_limits<std::int64_t>::min() && SB == -1) {
    R = 0;
    return true;
  }
  R = static_cast<std::uint64_t>(SA % SB);
  return true;
}

/// Unsigned division on width-adjusted operands; false for zero divisor.
[[nodiscard]] inline bool udiv(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  if (B == 0)
    return false;
  R = A / B;
  return true;
}

/// Unsigned remainder on width-adjusted operands; false for zero divisor.
[[nodiscard]] inline bool urem(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  if (B == 0)
    return false;
  R = A % B;
  return true;
}

/// Arithmetic shift right of a canonical (sign-extended) value by a
/// pre-masked amount. Signed right shift of a negative value is defined
/// (arithmetic) since C++20.
[[nodiscard]] inline std::uint64_t ashr(std::uint64_t A, unsigned Sh) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(A) >> Sh);
}

/// Float-to-signed conversion with defined out-of-range behaviour: the
/// result saturates to the int64 range and NaN converts to 0 (the
/// saturating semantics of cvt.rzi on NVIDIA hardware); a raw cast would
/// be UB for values outside [INT64_MIN, INT64_MAX).
[[nodiscard]] inline std::int64_t fpToI64(double D) {
  if (D != D) // NaN
    return 0;
  // 2^63 is exactly representable; everything >= it saturates high. The
  // low bound -2^63 is itself representable and in range.
  constexpr double Hi = 9223372036854775808.0; // 2^63
  if (D >= Hi)
    return std::numeric_limits<std::int64_t>::max();
  if (D < -Hi)
    return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(D);
}

//===----------------------------------------------------------------------===//
// The canonical encoding
//===----------------------------------------------------------------------===//

/// Canonical i32: the low 32 bits, sign-extended.
[[nodiscard]] inline std::uint64_t sext32(std::uint64_t Bits) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(
      static_cast<std::int32_t>(static_cast<std::uint32_t>(Bits))));
}

/// The value of canonical f32 bits (the float's bits in the low 32).
[[nodiscard]] inline double decodeF32(std::uint64_t Bits) {
  const auto W = static_cast<std::uint32_t>(Bits);
  float F;
  std::memcpy(&F, &W, sizeof(F));
  return static_cast<double>(F);
}

/// The value of canonical f64 bits.
[[nodiscard]] inline double decodeF64(std::uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// Canonical bits of V rounded to f32. Every NaN is the one positive quiet
/// NaN: a NaN's sign and payload otherwise depend on how the host computed
/// it (x86 arithmetic yields a negative NaN, a host compiler folding the
/// constant operands of generated native code a positive one).
[[nodiscard]] inline std::uint64_t encodeF32(double V) {
  if (V != V)
    return 0x7FC00000ULL;
  const auto F = static_cast<float>(V);
  std::uint32_t W;
  std::memcpy(&W, &F, sizeof(W));
  return W;
}

/// Canonical bits of an f64 value; every NaN is the one positive quiet NaN.
[[nodiscard]] inline std::uint64_t encodeF64(double V) {
  if (V != V)
    return 0x7FF8000000000000ULL;
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Canonical 64-bit bits of a value of kind K: i1 keeps the low bit, i32
/// the sign-extended low 32 bits; i64, pointers and float bit patterns are
/// kept as they are.
[[nodiscard]] inline std::uint64_t canonBits(TypeKind K, std::uint64_t Bits) {
  switch (K) {
  case TypeKind::I1:
    return Bits & 1;
  case TypeKind::I32:
    return sext32(Bits);
  default:
    return Bits;
  }
}

/// The width-adjusted (zero-extended) view of canonical integer bits.
[[nodiscard]] inline std::uint64_t zextBits(TypeKind K, std::uint64_t Bits) {
  switch (K) {
  case TypeKind::I1:
    return Bits & 1;
  case TypeKind::I32:
    return Bits & 0xFFFFFFFFULL;
  default:
    return Bits;
  }
}

/// The value of canonical float bits of kind K (f32 or f64).
[[nodiscard]] inline double decodeF(TypeKind K, std::uint64_t Bits) {
  return K == TypeKind::F32 ? decodeF32(Bits) : decodeF64(Bits);
}

/// Canonical bits of V as a float of kind K (f32 or f64).
[[nodiscard]] inline std::uint64_t encodeF(TypeKind K, double V) {
  return K == TypeKind::F32 ? encodeF32(V) : encodeF64(V);
}

//===----------------------------------------------------------------------===//
// Evaluators
//
// Each takes the opcode (or predicate), the kind(s) and canonical operand
// bits, and returns canonical result bits. They are forced inline: the
// bytecode dispatch loop calls each from one case, and generated native
// code calls them with a constant opcode and kind, which the host compiler
// folds down to the one operation.
//===----------------------------------------------------------------------===//

/// Integer binop Op (Add .. AShr) of kind K. Returns null and sets R, or
/// returns the trap message of a division or remainder by zero and leaves
/// R alone. Signed ops see the canonical (sign-extended) operands, unsigned
/// ops and shifts the width-adjusted (zero-extended) ones.
[[nodiscard, gnu::always_inline]] inline const char *
intBinop(Opcode Op, TypeKind K, std::uint64_t A, std::uint64_t B,
         std::uint64_t &R) {
  const std::uint64_t UA = zextBits(K, A);
  const std::uint64_t UB = zextBits(K, B);
  const unsigned ShMask = K == TypeKind::I32 ? 31 : 63;
  std::uint64_t V = 0;
  switch (Op) {
  case Opcode::Add:
    V = addWrap(A, B);
    break;
  case Opcode::Sub:
    V = subWrap(A, B);
    break;
  case Opcode::Mul:
    V = mulWrap(A, B);
    break;
  case Opcode::SDiv:
    if (!sdiv(A, B, V))
      return "integer division by zero";
    break;
  case Opcode::UDiv:
    if (!udiv(UA, UB, V))
      return "integer division by zero";
    break;
  case Opcode::SRem:
    if (!srem(A, B, V))
      return "integer remainder by zero";
    break;
  case Opcode::URem:
    if (!urem(UA, UB, V))
      return "integer remainder by zero";
    break;
  case Opcode::And:
    V = A & B;
    break;
  case Opcode::Or:
    V = A | B;
    break;
  case Opcode::Xor:
    V = A ^ B;
    break;
  case Opcode::Shl:
    V = UA << (UB & ShMask);
    break;
  case Opcode::LShr:
    V = UA >> (UB & ShMask);
    break;
  case Opcode::AShr:
    V = ashr(A, static_cast<unsigned>(UB & ShMask));
    break;
  default:
    return "not an integer binop";
  }
  R = canonBits(K, V);
  return nullptr;
}

/// Float binop Op (FAdd .. FDiv) of kind K, computed in double and rounded
/// to K.
[[nodiscard, gnu::always_inline]] inline std::uint64_t
floatBinop(Opcode Op, TypeKind K, std::uint64_t A, std::uint64_t B) {
  const double X = decodeF(K, A);
  const double Y = decodeF(K, B);
  double V = 0;
  switch (Op) {
  case Opcode::FAdd:
    V = X + Y;
    break;
  case Opcode::FSub:
    V = X - Y;
    break;
  case Opcode::FMul:
    V = X * Y;
    break;
  case Opcode::FDiv:
    V = X / Y;
    break;
  default:
    break;
  }
  return encodeF(K, V);
}

/// Integer (or pointer) compare: 1 or 0. Canonical sign-extension is an
/// order-preserving embedding for the unsigned predicates as well, so raw
/// compares of the canonical bits suffice. A float predicate yields 0.
[[nodiscard, gnu::always_inline]] inline std::uint64_t
icmp(CmpPred P, std::uint64_t A, std::uint64_t B) {
  const auto SA = static_cast<std::int64_t>(A);
  const auto SB = static_cast<std::int64_t>(B);
  switch (P) {
  case CmpPred::EQ:
    return A == B;
  case CmpPred::NE:
    return A != B;
  case CmpPred::SLT:
    return SA < SB;
  case CmpPred::SLE:
    return SA <= SB;
  case CmpPred::SGT:
    return SA > SB;
  case CmpPred::SGE:
    return SA >= SB;
  case CmpPred::ULT:
    return A < B;
  case CmpPred::ULE:
    return A <= B;
  case CmpPred::UGT:
    return A > B;
  case CmpPred::UGE:
    return A >= B;
  default:
    return 0;
  }
}

/// Ordered float compare of operands of kind K: 1 or 0 (0 when either is
/// NaN, except for ONE, which is C++'s !=). An integer predicate yields 0.
[[nodiscard, gnu::always_inline]] inline std::uint64_t
fcmp(CmpPred P, TypeKind K, std::uint64_t A, std::uint64_t B) {
  const double X = decodeF(K, A);
  const double Y = decodeF(K, B);
  switch (P) {
  case CmpPred::OEQ:
    return X == Y;
  case CmpPred::ONE:
    return X != Y;
  case CmpPred::OLT:
    return X < Y;
  case CmpPred::OLE:
    return X <= Y;
  case CmpPred::OGT:
    return X > Y;
  case CmpPred::OGE:
    return X >= Y;
  default:
    return 0;
  }
}

/// Select on a canonical i1 condition.
[[nodiscard, gnu::always_inline]] inline std::uint64_t
select(std::uint64_t C, std::uint64_t A, std::uint64_t B) {
  return C ? A : B;
}

/// Conversion Op (ZExt .. IntToPtr) of canonical bits A of kind From to
/// kind To.
[[nodiscard, gnu::always_inline]] inline std::uint64_t
cast(Opcode Op, TypeKind To, TypeKind From, std::uint64_t A) {
  switch (Op) {
  case Opcode::ZExt:
    return canonBits(To, zextBits(From, A));
  case Opcode::SExt:
  case Opcode::Trunc:
    return canonBits(To, A);
  case Opcode::SIToFP:
    return encodeF(To, static_cast<double>(static_cast<std::int64_t>(A)));
  case Opcode::FPToSI:
    return canonBits(To,
                     static_cast<std::uint64_t>(fpToI64(decodeF(From, A))));
  case Opcode::FPCast:
    return encodeF(To, decodeF(From, A));
  default: // PtrToInt, IntToPtr: the bits move unchanged
    return A;
  }
}

/// Any value operation, dispatched to the evaluators above: Ops holds the
/// canonical operands, K is the result kind and From the first operand's
/// kind. Returns null and sets R, or returns the trap message (a division
/// or remainder by zero, or an opcode that is not a value operation).
/// Called with a constant opcode, it folds to that one operation.
[[nodiscard, gnu::always_inline]] inline const char *
evaluate(Opcode Op, CmpPred P, TypeKind K, TypeKind From,
         const std::uint64_t *Ops, std::uint64_t &R) {
  switch (Op) {
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
    return intBinop(Op, K, Ops[0], Ops[1], R);
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    R = floatBinop(Op, K, Ops[0], Ops[1]);
    return nullptr;
  case Opcode::ICmp:
    R = icmp(P, Ops[0], Ops[1]);
    return nullptr;
  case Opcode::FCmp:
    R = fcmp(P, From, Ops[0], Ops[1]);
    return nullptr;
  case Opcode::Select:
    R = select(Ops[0], Ops[1], Ops[2]);
    return nullptr;
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPCast:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    R = cast(Op, K, From, Ops[0]);
    return nullptr;
  default:
    return "not a value operation";
  }
}

/// New value of an atomic read-modify-write, from the canonical old value
/// and the canonical operand.
[[nodiscard]] inline std::uint64_t atomicResult(AtomicOp Op, std::uint64_t Old,
                                                std::uint64_t V) {
  const auto OldS = static_cast<std::int64_t>(Old);
  const auto VS = static_cast<std::int64_t>(V);
  switch (Op) {
  case AtomicOp::Add:
    return addWrap(Old, V);
  case AtomicOp::Max:
    return OldS < VS ? V : Old;
  case AtomicOp::Min:
    return VS < OldS ? V : Old;
  case AtomicOp::Exchange:
    return V;
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Atomic memory words
//===----------------------------------------------------------------------===//

/// True when host storage P can serve a lock-free atomic of Size bytes.
[[nodiscard]] inline bool atomicCapable(const std::uint8_t *P, unsigned Size) {
  return (Size == 4 || Size == 8) &&
         reinterpret_cast<std::uintptr_t>(P) % Size == 0;
}

/// Atomically replace the U-sized word at P with NewBitsFor(old); returns
/// the raw old bits (zero-extended). Teams of one launch may contend on the
/// same global-memory word, so the read-modify-write must be a real atomic:
/// a plain load/store pair would tear under the parallel launch engine.
template <typename U, typename Op>
std::uint64_t atomicFetchModify(std::uint8_t *P, Op &&NewBitsFor) {
  std::atomic_ref<U> A(*reinterpret_cast<U *>(P));
  U Old = A.load(std::memory_order_relaxed);
  for (;;) {
    const U New = static_cast<U>(NewBitsFor(static_cast<std::uint64_t>(Old)));
    if (A.compare_exchange_weak(Old, New, std::memory_order_acq_rel,
                                std::memory_order_relaxed))
      return static_cast<std::uint64_t>(Old);
  }
}

} // namespace eval
} // namespace codesign::ir
