#include "support/ThreadPool.hpp"

#include <pthread.h>

#include "support/Error.hpp"

namespace codesign::support {

unsigned resolveHostThreads(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  // hardware_concurrency() asks the OS on every call, a few microseconds
  // that every launch and app run would pay; the count is fixed for the
  // process's life.
  static const unsigned HW = [] {
    const unsigned N = std::thread::hardware_concurrency();
    return N != 0 ? N : 1;
  }();
  return HW;
}

/// One parallelFor call. Lives on its caller's stack; it is the open job
/// while its caller claims indices, unless another job was open first.
struct ThreadPool::Job {
  void *Ctx = nullptr;
  void (*Call)(void *, std::uint64_t) = nullptr;
  std::uint64_t Size = 0;
  unsigned MaxHelpers = 0;            ///< Width - 1
  std::atomic<std::uint64_t> Next{0}; ///< next unclaimed index
  unsigned Helpers = 0;               ///< workers attached (Mutex)

  [[nodiscard]] bool joinable() const {
    return Helpers < MaxHelpers && Next.load(std::memory_order_relaxed) < Size;
  }

  void work() {
    for (std::uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Size; I = Next.fetch_add(1, std::memory_order_relaxed))
      Call(Ctx, I);
  }
};

ThreadPool &ThreadPool::global() {
  static ThreadPool *Pool = new ThreadPool();
  return *Pool;
}

unsigned ThreadPool::workers() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return static_cast<unsigned>(Workers.size());
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    Job *J = nullptr;
    WakeCV.wait(Lock, [&] { return (J = Open) && J->joinable(); });
    ++J->Helpers;
    Lock.unlock();
    J->work();
    Lock.lock();
    if (--J->Helpers == 0)
      DoneCV.notify_all();
  }
}

bool ThreadPool::open(Job &J) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Open)
    return false;
  if (Workers.empty()) {
    const auto InChild = [] {
      global().ForkedChild.store(true, std::memory_order_relaxed);
    };
    CODESIGN_ASSERT(pthread_atfork(nullptr, nullptr, InChild) == 0,
                    "cannot register the executor's fork handler");
  }
  while (Workers.size() < J.MaxHelpers)
    Workers.emplace_back([this] { workerLoop(); });
  Open = &J;
  return true;
}

void ThreadPool::run(unsigned Width, std::uint64_t N, void *Ctx,
                     void (*Call)(void *, std::uint64_t)) {
  if (N < Width)
    Width = static_cast<unsigned>(N);
  Job J;
  J.Ctx = Ctx;
  J.Call = Call;
  J.Size = N;
  J.MaxHelpers = Width > 1 ? Width - 1 : 0;
  if (Width <= 1 || ForkedChild.load(std::memory_order_relaxed) || !open(J)) {
    J.work();
    return;
  }
  for (unsigned I = 0; I < J.MaxHelpers; ++I)
    WakeCV.notify_one();
  J.work();
  // Every index is claimed; close the job so no worker joins it late, and
  // wait for the helpers still finishing the indices they claimed.
  std::unique_lock<std::mutex> Lock(Mutex);
  Open = nullptr;
  DoneCV.wait(Lock, [&] { return J.Helpers == 0; });
}

} // namespace codesign::support
