//===- vgpu/IntOps.hpp - Well-defined value semantics for the evaluators ---===//
//
// One source of truth for the arithmetic the execution backends perform on
// the canonical 64-bit value encoding (i1 is 0/1, i32 is sign-extended, f32
// keeps its float bits in the low 32 bits, everything else is raw).
// Everything here is defined behaviour in C++: add/sub/mul wrap modulo 2^64
// (computed on unsigned operands, so signed overflow never happens at the
// language level), INT64_MIN / -1 wraps to INT64_MIN (remainder 0) instead
// of executing the one x86 idiv that SIGFPEs, and float-to-int conversion
// saturates (NaN converts to 0) instead of hitting the out-of-range UB of a
// raw cast. Division and remainder by zero are reported to the caller,
// which raises the trap. The encoding primitives and the global-memory
// atomics (std::atomic_ref CAS loops) live here too.
//
// The file is std-only: the team model (TeamModel.hpp) and both
// interpreters evaluate through it, and the native backend embeds it
// verbatim into every generated translation unit, so all three backends
// compute with the same code. The ubsan build flavor
// (-DCODESIGN_SANITIZE=undefined) exercises all of it.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>

namespace codesign::vgpu::intops {

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

/// Canonical bits of V rounded to f32.
[[nodiscard]] inline std::uint64_t encodeF32(double V) {
  const auto F = static_cast<float>(V);
  std::uint32_t W;
  std::memcpy(&W, &F, sizeof(W));
  return W;
}

/// Canonical bits of an f64 value.
[[nodiscard]] inline std::uint64_t encodeF64(double V) {
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

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

/// Atomic compare-and-swap of the U-sized word at P; returns the observed
/// raw old bits. Comparing at storage width is exact: canonicalization is
/// injective on the width.
template <typename U>
std::uint64_t atomicCas(std::uint8_t *P, std::uint64_t Expected,
                        std::uint64_t Desired) {
  std::atomic_ref<U> A(*reinterpret_cast<U *>(P));
  U Observed = static_cast<U>(Expected);
  A.compare_exchange_strong(Observed, static_cast<U>(Desired),
                            std::memory_order_acq_rel,
                            std::memory_order_relaxed);
  return static_cast<std::uint64_t>(Observed);
}

} // namespace codesign::vgpu::intops
