#include "vgpu/Memory.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>

#include "vgpu/VirtualGPU.hpp"

namespace codesign::vgpu {
namespace {

/// Field Index (0 = size, 1 = resident) of /proc/self/statm, in bytes.
std::uint64_t statmBytes(int Index) {
  std::ifstream Statm("/proc/self/statm");
  std::uint64_t Pages = 0;
  for (int I = 0; I <= Index; ++I)
    Statm >> Pages;
  return Pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// Resident-set growth allowed while a test builds its arenas: far below
/// what committing them would take.
constexpr std::uint64_t RssSlack = 64ULL << 20;

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

TEST(GlobalMemory, ArenaPastAddressReachRejected) {
  // DeviceAddr::make masks offsets to 46 bits, so a larger arena would let
  // high offsets alias low addresses. The size is refused before mapping.
  EXPECT_DEATH(GlobalMemory GM((std::uint64_t(1) << 46) + 1), "2\\^46");
  EXPECT_DEATH(GlobalMemory GM(~std::uint64_t(0)), "2\\^46");
}

TEST(GlobalMemory, RefusedReservationIsFatal) {
  // Cap the death-test child's address space a little above what it maps
  // already, so reserving 1 GiB must fail: a diagnostic naming the size and
  // errno, not an exception.
  EXPECT_DEATH(
      {
        rlimit Limit{};
        ::getrlimit(RLIMIT_AS, &Limit);
        Limit.rlim_cur =
            std::min<rlim_t>(Limit.rlim_max, statmBytes(0) + RssSlack);
        ::setrlimit(RLIMIT_AS, &Limit);
        GlobalMemory GM(std::uint64_t(1) << 30);
      },
      "cannot reserve 1073741824 bytes .*errno");
}

TEST(GlobalMemory, GiBArenaCostsOnlyWhatItTouches) {
  const std::uint64_t Before = statmBytes(1);
  GlobalMemory GM(std::uint64_t(1) << 30);
  const std::array<std::uint8_t, 8> Zero{};
  std::array<std::uint8_t, 8> Word{};
  Word.fill(0xAB);
  GM.read(16, Word);
  EXPECT_EQ(Word, Zero) << "fresh memory reads as zero at the low end";
  Word.fill(0xAB);
  GM.read(GM.capacity() - 8, Word);
  EXPECT_EQ(Word, Zero) << "and at the high end";
  const std::array<std::uint8_t, 8> Pattern{1, 2, 3, 4, 5, 6, 7, 8};
  GM.write(GM.capacity() - 8, Pattern);
  GM.read(GM.capacity() - 8, Word);
  EXPECT_EQ(Word, Pattern);
  EXPECT_LT(statmBytes(1), Before + RssSlack)
      << "a 1 GiB arena must commit only the pages it touched";
}

TEST(GlobalMemory, DefaultDevicesCostOnlyWhatTheyTouch) {
  // Eight default devices alive at once (the proxy-app suite builds seven),
  // each holding a small written buffer.
  const std::uint64_t Before = statmBytes(1);
  std::vector<std::unique_ptr<VirtualGPU>> Devices;
  const std::vector<std::uint8_t> In(4096, 0x5A);
  for (int I = 0; I < 8; ++I) {
    auto GPU = std::make_unique<VirtualGPU>();
    ASSERT_EQ(GPU->config().GlobalMemBytes, DeviceConfig{}.GlobalMemBytes);
    const DeviceAddr Buf = GPU->allocate(In.size());
    GPU->write(Buf, In);
    std::vector<std::uint8_t> Out(In.size());
    GPU->read(Buf, Out);
    EXPECT_EQ(Out, In);
    Devices.push_back(std::move(GPU));
  }
  EXPECT_LT(statmBytes(1), Before + RssSlack)
      << "building a device must not commit its whole arena";
}

TEST(VirtualGPU, SplitCopiesAndFillsKeepEveryByte) {
  constexpr std::uint64_t Chunk = VirtualGPU::CopyChunk;
  // Four pieces, the last one partial, between two guard buffers.
  constexpr std::uint64_t Size = 3 * Chunk + 16;
  std::vector<std::uint8_t> In(Size);
  for (std::uint64_t I = 0; I < Size; ++I)
    In[I] = static_cast<std::uint8_t>(I * 131 + 7);
  const std::vector<std::uint8_t> Guard(64, 0x5A);
  for (unsigned Width : {1u, 4u}) {
    DeviceConfig Config;
    Config.HostThreads = Width;
    VirtualGPU GPU(Config);
    const DeviceAddr Before = GPU.allocate(Guard.size());
    const DeviceAddr Buf = GPU.allocate(Size);
    const DeviceAddr After = GPU.allocate(Guard.size());
    ASSERT_EQ(Buf.offset(), Before.offset() + Guard.size());
    ASSERT_EQ(After.offset(), Buf.offset() + Size);
    GPU.write(Before, Guard);
    GPU.write(After, Guard);

    GPU.write(Buf, In);
    std::vector<std::uint8_t> Out(Size);
    GPU.read(Buf, Out);
    EXPECT_EQ(Out, In) << "width " << Width;
    // A read that starts and ends inside pieces.
    std::vector<std::uint8_t> Mid(Chunk + 10);
    GPU.read(Buf.advance(Chunk - 3), Mid);
    EXPECT_TRUE(std::equal(Mid.begin(), Mid.end(), In.begin() + (Chunk - 3)))
        << "width " << Width;

    // Every byte but the first and the last.
    GPU.fill(Buf.advance(1), Size - 2, 0xC3);
    GPU.read(Buf, Out);
    std::vector<std::uint8_t> Want(Size, 0xC3);
    Want.front() = In.front();
    Want.back() = In.back();
    EXPECT_EQ(Out, Want) << "width " << Width;

    std::vector<std::uint8_t> Left(Guard.size()), Right(Guard.size());
    GPU.read(Before, Left);
    GPU.read(After, Right);
    EXPECT_EQ(Left, Guard) << "width " << Width;
    EXPECT_EQ(Right, Guard) << "width " << Width;
  }
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
