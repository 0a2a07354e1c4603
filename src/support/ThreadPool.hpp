//===- support/ThreadPool.hpp - The process's persistent fork-join executor -===//
//
// One executor per process serves every parallel launch: its workers start
// the first time a job needs them, block while idle and live until the
// process ends, so each keeps its thread_local team state from one launch
// to the next. Every parallelFor call is a job of a given width that its
// caller always works. The pool serves one open job at a time and its idle
// workers join that job up to its width; a caller that finds another job
// open runs its own alone, so no caller queues behind another. Indices are
// claimed through an atomic counter in increasing order, so the
// lowest-numbered item is always processed before any higher-numbered item
// is claimed (the launch engine's determinism guarantee rests on this).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace codesign::support {

/// Resolve a requested host-thread count: 0 means "one per hardware
/// thread", anything else is taken literally. Always returns >= 1.
unsigned resolveHostThreads(unsigned Requested);

/// The process-wide fork-join executor.
class ThreadPool {
public:
  /// The executor. It is never destroyed: its workers block until the
  /// process ends.
  static ThreadPool &global();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Invoke Fn(I) for every I in [0, N) on at most Width threads, the
  /// caller included, and return once every invocation completed. Starts
  /// the workers a width of min(Width, N) needs the first time it is
  /// asked for. Safe to call from many threads at once. The caller runs
  /// the whole job alone while another job is open, and in a child forked
  /// after workers started.
  template <typename FnT>
  void parallelFor(unsigned Width, std::uint64_t N, FnT &&Fn) {
    using F = std::remove_reference_t<FnT>; // may be const
    run(Width, N, const_cast<void *>(static_cast<const void *>(&Fn)),
        [](void *Ctx, std::uint64_t I) { (*static_cast<F *>(Ctx))(I); });
  }

  /// Workers started so far; they never exit.
  [[nodiscard]] unsigned workers() const;

private:
  struct Job;

  ThreadPool() = default;
  void run(unsigned Width, std::uint64_t N, void *Ctx,
           void (*Call)(void *, std::uint64_t));
  /// Make J the open job and start the workers it needs; false when
  /// another job is open.
  bool open(Job &J);
  void workerLoop();

  mutable std::mutex Mutex;
  std::condition_variable WakeCV; ///< a job opened (workers wait here)
  std::condition_variable DoneCV; ///< a job's last helper detached
  Job *Open = nullptr;            ///< the job workers may join
  std::vector<std::thread> Workers;
  /// Set in a child forked after workers started: the child has none of
  /// them, and the parent's waiters are baked into the copied mutex and
  /// condition variables, so the child never touches either.
  std::atomic<bool> ForkedChild{false};
};

} // namespace codesign::support
