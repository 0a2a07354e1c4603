#include "vgpu/Memory.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace codesign::vgpu {

GlobalMemory::GlobalMemory(std::uint64_t SizeBytes) : ArenaSize(SizeBytes) {
  // Offset 0 is reserved so that a global address with offset 0 never
  // collides with the null pointer encoding. Sizes at or below the guard
  // would underflow the free list, so they are rejected outright.
  CODESIGN_ASSERT(SizeBytes > 16,
                  "device global memory must be larger than the 16-byte "
                  "reserved null guard");
  // DeviceAddr::make masks offsets to 46 bits: past that, a global address
  // would silently alias a low one.
  CODESIGN_ASSERT(SizeBytes <= DeviceAddr::OffsetMask + 1,
                  "device global memory must not exceed 2^46 bytes, the "
                  "reach of a device address's 46-bit offset field");
  // Reserve, do not write: the OS commits each page, zeroed, on first
  // touch.
  void *P = ::mmap(nullptr, SizeBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED) {
    const int Err = errno;
    fatalError("cannot reserve " + std::to_string(SizeBytes) +
                   " bytes of device global memory: mmap failed with errno " +
                   std::to_string(Err) + " (" + std::strerror(Err) + ")",
               __FILE__, __LINE__);
  }
  Base = static_cast<std::uint8_t *>(P);
  FreeBlocks[16] = SizeBytes - 16;
}

GlobalMemory::~GlobalMemory() { ::munmap(Base, ArenaSize); }

Expected<std::uint64_t> GlobalMemory::allocate(std::uint64_t Size,
                                               std::uint64_t Align) {
  CODESIGN_ASSERT(Size > 0, "zero-size device allocation");
  CODESIGN_ASSERT(Align != 0 && (Align & (Align - 1)) == 0,
                  "device allocation alignment must be a power of two");
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto It = FreeBlocks.begin(); It != FreeBlocks.end(); ++It) {
    const std::uint64_t Start = It->first;
    const std::uint64_t BlockSize = It->second;
    const std::uint64_t Aligned = (Start + Align - 1) & ~(Align - 1);
    if (Aligned < Start) // Start + Align - 1 wrapped around
      continue;
    const std::uint64_t Waste = Aligned - Start;
    // Overflow-safe fit check: never form Waste + Size, which can wrap for
    // hostile sizes and make an undersized block look large enough.
    if (BlockSize < Waste || BlockSize - Waste < Size)
      continue;
    FreeBlocks.erase(It);
    if (Waste > 0)
      FreeBlocks[Start] = Waste;
    const std::uint64_t Remainder = BlockSize - Waste - Size;
    if (Remainder > 0)
      FreeBlocks[Aligned + Size] = Remainder;
    LiveBlocks[Aligned] = Size;
    InUse += Size;
    return Aligned;
  }
  return makeError("device global memory exhausted (requested ",
                   std::to_string(Size), " bytes aligned to ",
                   std::to_string(Align), ", ",
                   std::to_string(ArenaSize - InUse - 16),
                   " bytes unallocated)");
}

void GlobalMemory::release(std::uint64_t Offset) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = LiveBlocks.find(Offset);
  CODESIGN_ASSERT(It != LiveBlocks.end(), "free of unallocated device memory");
  std::uint64_t Size = It->second;
  InUse -= Size;
  LiveBlocks.erase(It);
  // Coalesce with neighbours.
  auto Next = FreeBlocks.upper_bound(Offset);
  if (Next != FreeBlocks.end() && Offset + Size == Next->first) {
    Size += Next->second;
    Next = FreeBlocks.erase(Next);
  }
  if (Next != FreeBlocks.begin()) {
    auto Prev = std::prev(Next);
    if (Prev->first + Prev->second == Offset) {
      Prev->second += Size;
      return;
    }
  }
  FreeBlocks[Offset] = Size;
}

void GlobalMemory::write(std::uint64_t Offset,
                         std::span<const std::uint8_t> Data) {
  CODESIGN_ASSERT(Offset + Data.size() <= ArenaSize,
                  "global write out of bounds");
  std::memcpy(Base + Offset, Data.data(), Data.size());
}

void GlobalMemory::read(std::uint64_t Offset,
                        std::span<std::uint8_t> Out) const {
  CODESIGN_ASSERT(Offset + Out.size() <= ArenaSize,
                  "global read out of bounds");
  std::memcpy(Out.data(), Base + Offset, Out.size());
}

void GlobalMemory::fill(std::uint64_t Offset, std::uint64_t Size,
                        std::uint8_t Byte) {
  CODESIGN_ASSERT(Offset + Size <= ArenaSize, "global fill out of bounds");
  std::memset(Base + Offset, Byte, Size);
}

std::uint8_t *GlobalMemory::data(std::uint64_t Offset, std::uint64_t Size) {
  CODESIGN_ASSERT(Offset + Size <= ArenaSize, "global access out of bounds");
  return Base + Offset;
}

} // namespace codesign::vgpu
