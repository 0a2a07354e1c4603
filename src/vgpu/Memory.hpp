//===- vgpu/Memory.hpp - Device memory arenas -------------------------------===//
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "support/Error.hpp"
#include "vgpu/Address.hpp"

namespace codesign::vgpu {

/// The device's global memory: a flat byte arena with a first-fit free-list
/// allocator. Statics (module globals) are carved out at image load time;
/// the rest serves host allocations (libomptarget-style buffers) and device
/// `malloc` (the runtime's fallback when the shared stack is full,
/// paper Section III-D).
class GlobalMemory {
public:
  /// SizeBytes must exceed the 16-byte reserved null guard at offset 0;
  /// smaller configurations are rejected with a fatal diagnostic.
  explicit GlobalMemory(std::uint64_t SizeBytes);

  /// Total capacity in bytes.
  [[nodiscard]] std::uint64_t capacity() const { return Bytes.size(); }

  /// Allocate Size bytes with the given alignment (a power of two);
  /// returns the offset, or a recoverable error on exhaustion so callers
  /// (host runtime data mapping, device malloc) can propagate or degrade.
  /// Thread-safe: concurrent teams may malloc/free during a launch.
  Expected<std::uint64_t> allocate(std::uint64_t Size,
                                   std::uint64_t Align = 16);
  /// Release an allocation previously returned by allocate(). Thread-safe.
  void release(std::uint64_t Offset);
  /// Bytes currently allocated (for leak checks in tests).
  [[nodiscard]] std::uint64_t bytesInUse() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return InUse;
  }

  /// Raw access. Offset+Size must be in bounds.
  void write(std::uint64_t Offset, std::span<const std::uint8_t> Data);
  void read(std::uint64_t Offset, std::span<std::uint8_t> Out) const;
  [[nodiscard]] std::uint8_t *data(std::uint64_t Offset, std::uint64_t Size);
  [[nodiscard]] const std::uint8_t *data(std::uint64_t Offset,
                                         std::uint64_t Size) const;

private:
  std::vector<std::uint8_t> Bytes;
  /// Guards the allocator state (free/live lists); the byte arena itself is
  /// accessed lock-free under the device memory model (disjoint or atomic).
  mutable std::mutex Mutex;
  std::map<std::uint64_t, std::uint64_t> FreeBlocks; // offset -> size
  std::map<std::uint64_t, std::uint64_t> LiveBlocks; // offset -> size
  std::uint64_t InUse = 0;
};

/// A simple bump arena with watermark save/restore, used for per-thread
/// local memory (allocas are released when the owning frame returns). Both
/// the allocation and the access path report exhaustion to the caller,
/// which traps the guest lane: a guest kernel must never abort the host.
class BumpArena {
public:
  /// Cap is the maximum size; backing storage grows on demand so idle
  /// threads cost nothing.
  explicit BumpArena(std::uint64_t Cap) : Cap(Cap) {}

  /// Allocate Size bytes aligned to 16; returns the offset, or nothing
  /// when the arena cannot hold them.
  std::optional<std::uint64_t> allocate(std::uint64_t Size) {
    const std::uint64_t Off = (Top + 15) & ~std::uint64_t{15};
    if (Size > Cap || Off > Cap - Size)
      return std::nullopt;
    Top = Off + Size;
    ensure(Top);
    return Off;
  }
  /// Current watermark, to be restored on frame exit.
  [[nodiscard]] std::uint64_t watermark() const { return Top; }
  /// Roll back to a previously saved watermark.
  void restore(std::uint64_t Mark) {
    CODESIGN_ASSERT(Mark <= Top, "invalid watermark restore");
    Top = Mark;
  }

  /// Host storage of [Offset, Offset + Size), or null when the range
  /// reaches past the cap.
  [[nodiscard]] std::uint8_t *data(std::uint64_t Offset, std::uint64_t Size) {
    if (Size > Cap || Offset > Cap - Size)
      return nullptr;
    ensure(Offset + Size);
    return Bytes.data() + Offset;
  }

  /// The backing bytes mapped so far, for executors that address local
  /// memory through a raw window (it moves when data() grows it, and it
  /// never reaches past the cap).
  [[nodiscard]] std::span<std::uint8_t> mapped() { return Bytes; }

private:
  /// Map at least Size (<= Cap) bytes, never more than Cap: mapped() is
  /// then exactly the range an access may reach without a bounds check.
  void ensure(std::uint64_t Size) {
    if (Bytes.size() < Size)
      Bytes.resize(std::min(Cap, std::max<std::uint64_t>(Size * 2, 256)));
  }

  std::uint64_t Cap;
  std::vector<std::uint8_t> Bytes;
  std::uint64_t Top = 0;
};

} // namespace codesign::vgpu
