#include "vgpu/Memory.hpp"

#include <gtest/gtest.h>

namespace codesign::vgpu {
namespace {

TEST(DeviceAddr, EncodingRoundTrips) {
  DeviceAddr A = DeviceAddr::make(MemSpace::Shared, 0x1234, 0);
  EXPECT_EQ(A.space(), MemSpace::Shared);
  EXPECT_EQ(A.offset(), 0x1234u);
  DeviceAddr L = DeviceAddr::make(MemSpace::Local, 64, 17);
  EXPECT_EQ(L.space(), MemSpace::Local);
  EXPECT_EQ(L.owner(), 17u);
  EXPECT_EQ(L.offset(), 64u);
}

TEST(DeviceAddr, NullIsDistinct) {
  EXPECT_TRUE(DeviceAddr::null().isNull());
  EXPECT_FALSE(DeviceAddr::make(MemSpace::Global, 16).isNull());
  EXPECT_EQ(DeviceAddr::null().space(), MemSpace::Invalid);
}

TEST(DeviceAddr, AdvancePreservesTag) {
  DeviceAddr A = DeviceAddr::make(MemSpace::Global, 100);
  DeviceAddr B = A.advance(28);
  EXPECT_EQ(B.space(), MemSpace::Global);
  EXPECT_EQ(B.offset(), 128u);
  DeviceAddr C = B.advance(-28);
  EXPECT_EQ(C, A);
}

TEST(GlobalMemory, AllocateWriteRead) {
  GlobalMemory GM(1 << 16);
  std::uint64_t Off = *GM.allocate(64);
  std::vector<std::uint8_t> In{1, 2, 3, 4};
  GM.write(Off, In);
  std::vector<std::uint8_t> Out(4);
  GM.read(Off, Out);
  EXPECT_EQ(In, Out);
}

TEST(GlobalMemory, OffsetZeroNeverAllocated) {
  GlobalMemory GM(1 << 16);
  for (int I = 0; I < 10; ++I)
    EXPECT_NE(*GM.allocate(8), 0u) << "offset 0 is the null encoding";
}

TEST(GlobalMemory, FreeCoalescesAndReuses) {
  GlobalMemory GM(1 << 12);
  std::uint64_t A = *GM.allocate(1024);
  std::uint64_t B = *GM.allocate(1024);
  std::uint64_t C = *GM.allocate(1024);
  (void)B;
  GM.release(A);
  GM.release(C);
  GM.release(B);
  EXPECT_EQ(GM.bytesInUse(), 0u);
  // After coalescing, the whole arena is available again.
  std::uint64_t Big = *GM.allocate(3 * 1024);
  EXPECT_GT(Big, 0u);
}

TEST(GlobalMemory, AlignmentHonored) {
  GlobalMemory GM(1 << 16);
  (void)*GM.allocate(3); // misalign the cursor
  std::uint64_t A = *GM.allocate(64, 256);
  EXPECT_EQ(A % 256, 0u);
}

TEST(GlobalMemory, DoubleFreeDies) {
  GlobalMemory GM(1 << 12);
  std::uint64_t A = *GM.allocate(16);
  GM.release(A);
  EXPECT_DEATH(GM.release(A), "unallocated");
}

TEST(GlobalMemory, ExhaustionReturnsRecoverableError) {
  GlobalMemory GM(1 << 10);
  auto R = GM.allocate(1 << 20);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("exhausted"), std::string::npos);
  // The allocator must stay fully usable after a failed request.
  auto Ok = GM.allocate(64);
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(GM.bytesInUse(), 64u);
  GM.release(*Ok);
  EXPECT_EQ(GM.bytesInUse(), 0u);
}

TEST(GlobalMemory, HostileSizeDoesNotOverflowFitCheck) {
  GlobalMemory GM(1 << 12);
  // Near-UINT64_MAX sizes once wrapped the `Waste + Size` fit arithmetic
  // and handed out bogus blocks; they must simply fail.
  for (std::uint64_t Size :
       {~std::uint64_t(0), ~std::uint64_t(0) - 15, std::uint64_t(1) << 63}) {
    auto R = GM.allocate(Size);
    EXPECT_FALSE(R.hasValue()) << "size " << Size;
  }
  EXPECT_EQ(GM.bytesInUse(), 0u);
  EXPECT_TRUE(GM.allocate(128).hasValue());
}

TEST(GlobalMemory, HugeAlignmentDoesNotWrap) {
  GlobalMemory GM(1 << 12);
  // Aligning past the end of the arena must fail, not wrap around to a
  // bogus low offset.
  auto R = GM.allocate(16, std::uint64_t(1) << 63);
  EXPECT_FALSE(R.hasValue());
}

TEST(GlobalMemory, NonPowerOfTwoAlignmentDies) {
  GlobalMemory GM(1 << 12);
  EXPECT_DEATH((void)GM.allocate(16, 24), "power of two");
  EXPECT_DEATH((void)GM.allocate(16, 0), "power of two");
}

TEST(GlobalMemory, TinyArenaRejected) {
  // A size at or below the 16-byte null guard used to underflow the free
  // list into a near-2^64-byte block.
  EXPECT_DEATH(GlobalMemory GM(16), "16-byte");
  EXPECT_DEATH(GlobalMemory GM(0), "16-byte");
}

TEST(BumpArena, WatermarkDiscipline) {
  BumpArena A(4096);
  std::uint64_t W0 = A.watermark();
  std::uint64_t X = *A.allocate(100);
  std::uint64_t Y = *A.allocate(100);
  EXPECT_NE(X, Y);
  EXPECT_EQ(X % 16, 0u);
  EXPECT_EQ(Y % 16, 0u);
  A.restore(W0);
  std::uint64_t Z = *A.allocate(100);
  EXPECT_EQ(Z, X) << "restore rewinds the bump pointer";
}

TEST(BumpArena, CapEnforced) {
  BumpArena A(128);
  ASSERT_TRUE(A.allocate(100).has_value());
  EXPECT_FALSE(A.allocate(100).has_value())
      << "exhaustion is reported to the caller, which traps the lane";
  EXPECT_EQ(A.data(120, 16), nullptr) << "accesses past the cap too";
  EXPECT_NE(A.data(112, 16), nullptr);
}

} // namespace
} // namespace codesign::vgpu
