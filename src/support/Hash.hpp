//===- support/Hash.hpp - XXH64 byte hash ----------------------------------===//
//
// XXH64 (xxHash's published 64-bit hash), used wherever the project hashes
// bulk bytes: the proxy apps' read-back outputs (AppRunResult::OutputHash)
// and the native backend's module keys. It reads 8-byte little-endian words
// into four independent lanes, so a long input hashes at close to memory
// speed, and every input bit reaches every output bit through the rotates
// and the final avalanche. Results equal the reference implementation's
// for every length and seed (spec: xxHash's doc/xxhash_spec.md), on hosts
// of either byte order. Std-only.
//
// Chaining: seeding each buffer's hash with the previous result hashes a
// sequence of buffers in order, e.g. H = xxh64(B, xxh64(A)).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace codesign {

namespace xxh64_detail {

inline constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t P3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t P4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t P5 = 0x27D4EB2F165667C5ULL;

template <typename T> T readLE(const unsigned char *P) {
  T V;
  std::memcpy(&V, P, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    T Swapped = 0;
    for (std::size_t I = 0; I < sizeof(T); ++I)
      Swapped = static_cast<T>((Swapped << 8) | ((V >> (8 * I)) & 0xFF));
    V = Swapped;
  }
  return V;
}

inline std::uint64_t mix(std::uint64_t Acc, std::uint64_t Lane) {
  Acc += Lane * P2;
  return std::rotl(Acc, 31) * P1;
}

inline std::uint64_t merge(std::uint64_t Acc, std::uint64_t V) {
  return (Acc ^ mix(0, V)) * P1 + P4;
}

} // namespace xxh64_detail

/// XXH64 of Size bytes at Data under Seed.
inline std::uint64_t xxh64(const void *Data, std::size_t Size,
                           std::uint64_t Seed = 0) {
  using namespace xxh64_detail;
  const auto *P = static_cast<const unsigned char *>(Data);
  const unsigned char *const End = P + Size;
  std::uint64_t H;
  if (Size >= 32) {
    std::uint64_t V1 = Seed + P1 + P2, V2 = Seed + P2, V3 = Seed,
                  V4 = Seed - P1;
    for (const unsigned char *Limit = End - 32; P <= Limit; P += 32) {
      V1 = mix(V1, readLE<std::uint64_t>(P));
      V2 = mix(V2, readLE<std::uint64_t>(P + 8));
      V3 = mix(V3, readLE<std::uint64_t>(P + 16));
      V4 = mix(V4, readLE<std::uint64_t>(P + 24));
    }
    H = std::rotl(V1, 1) + std::rotl(V2, 7) + std::rotl(V3, 12) +
        std::rotl(V4, 18);
    H = merge(merge(merge(merge(H, V1), V2), V3), V4);
  } else {
    H = Seed + P5;
  }
  H += static_cast<std::uint64_t>(Size);
  for (; End - P >= 8; P += 8)
    H = std::rotl(H ^ mix(0, readLE<std::uint64_t>(P)), 27) * P1 + P4;
  if (End - P >= 4) {
    H = std::rotl(H ^ (readLE<std::uint32_t>(P) * P1), 23) * P2 + P3;
    P += 4;
  }
  for (; P < End; ++P)
    H = std::rotl(H ^ (*P * P5), 11) * P1;
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  return H ^ (H >> 32);
}

inline std::uint64_t xxh64(std::string_view S, std::uint64_t Seed = 0) {
  return xxh64(S.data(), S.size(), Seed);
}

} // namespace codesign
