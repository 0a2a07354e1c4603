#include "support/Hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <utility>

namespace codesign {
namespace {

/// Sixteen distinct, non-zero doubles: four 32-byte stripes, so every
/// XXH64 lane sees four words.
std::array<double, 16> sampleOutput() {
  std::array<double, 16> D;
  for (std::size_t I = 0; I < D.size(); ++I)
    D[I] = 1.5 + static_cast<double>(I) * 0.25;
  return D;
}

std::uint64_t hashOf(const std::array<double, 16> &D, std::uint64_t Seed = 0) {
  return xxh64(D.data(), sizeof(D), Seed);
}

TEST(Hash, KnownXxh64Values) {
  EXPECT_EQ(xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Hash, EveryLengthHashesDistinctly) {
  // Lengths 0..64 cover the byte, 4-byte and 8-byte tails, with and without
  // whole 32-byte stripes before them.
  std::array<unsigned char, 64> Buf;
  for (std::size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = static_cast<unsigned char>(I * 37 + 11);
  std::set<std::uint64_t> Seen;
  for (std::size_t Len = 0; Len <= Buf.size(); ++Len)
    EXPECT_TRUE(Seen.insert(xxh64(Buf.data(), Len)).second) << Len;
}

TEST(Hash, SwappingDoublesChangesIt) {
  const auto Base = sampleOutput();
  for (std::size_t Gap : {1u, 4u}) { // adjacent; 4 apart is the same lane
    auto D = Base;
    std::swap(D[2], D[2 + Gap]);
    EXPECT_NE(hashOf(D), hashOf(Base)) << "gap " << Gap;
  }
}

TEST(Hash, NegatingTwoDoublesInOneLaneChangesIt) {
  // Word-wise FNV misses this: bit 63 of a word only reaches bit 63 of its
  // lane, so two sign flips in one lane cancel.
  const auto Base = sampleOutput();
  auto D = Base;
  D[1] = -D[1];
  D[5] = -D[5];
  EXPECT_NE(hashOf(D), hashOf(Base));
}

TEST(Hash, FlippingAnyBitChangesIt) {
  const auto Base = sampleOutput();
  const std::uint64_t H = hashOf(Base);
  for (std::size_t W = 0; W < Base.size(); ++W)
    for (unsigned Bit = 0; Bit < 64; ++Bit) {
      auto D = Base;
      std::uint64_t Bits;
      std::memcpy(&Bits, &D[W], 8);
      Bits ^= std::uint64_t(1) << Bit;
      std::memcpy(&D[W], &Bits, 8);
      EXPECT_NE(hashOf(D), H) << "word " << W << " bit " << Bit;
    }
}

TEST(Hash, ChainIsOrderSensitive) {
  // Two equal-length outputs, chained as AppHarness::run chains them.
  const auto A = sampleOutput();
  auto B = A;
  B[0] = 42.0;
  EXPECT_NE(hashOf(B, hashOf(A)), hashOf(A, hashOf(B)));
}

TEST(Hash, SeedChangesIt) {
  const auto D = sampleOutput();
  EXPECT_NE(hashOf(D, 0), hashOf(D, 1));
  EXPECT_NE(xxh64("", 0), xxh64("", 1));
}

} // namespace
} // namespace codesign
