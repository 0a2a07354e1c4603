#include "support/ThreadPool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace codesign::support {
namespace {

ThreadPool &pool() { return ThreadPool::global(); }

TEST(ResolveHostThreads, ZeroMeansHardwareAndNeverZero) {
  EXPECT_GE(resolveHostThreads(0), 1u);
  EXPECT_EQ(resolveHostThreads(1), 1u);
  EXPECT_EQ(resolveHostThreads(7), 7u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  constexpr std::uint64_t N = 10000;
  std::vector<std::atomic<std::uint32_t>> Seen(N);
  pool().parallelFor(4, N, [&](std::uint64_t I) {
    Seen[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint64_t I = 0; I < N; ++I)
    ASSERT_EQ(Seen[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, SingleThreadRunsInline) {
  const unsigned Before = pool().workers();
  const std::thread::id Caller = std::this_thread::get_id();
  std::uint64_t Sum = 0;
  bool AllOnCaller = true;
  // Width 1 runs the job in the caller, so unsynchronized access is fine.
  pool().parallelFor(1, 100, [&](std::uint64_t I) {
    Sum += I;
    AllOnCaller = AllOnCaller && std::this_thread::get_id() == Caller;
  });
  EXPECT_EQ(Sum, 4950u);
  EXPECT_TRUE(AllOnCaller);
  EXPECT_EQ(pool().workers(), Before);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<std::uint64_t> Sum{0};
    pool().parallelFor(3, 64, [&](std::uint64_t I) {
      Sum.fetch_add(I + 1, std::memory_order_relaxed);
    });
    ASSERT_EQ(Sum.load(), 64u * 65u / 2);
  }
}

TEST(ThreadPool, EmptyAndTinyJobs) {
  std::atomic<std::uint64_t> Count{0};
  pool().parallelFor(4, 0, [&](std::uint64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0u);
  pool().parallelFor(4, 1, [&](std::uint64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1u);
  // Fewer items than the width: claims beyond N must be no-ops.
  pool().parallelFor(4, 2, [&](std::uint64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 3u);
}

TEST(ThreadPool, ManyMoreItemsThanThreads) {
  std::atomic<std::uint64_t> Sum{0};
  pool().parallelFor(2, 100000, [&](std::uint64_t I) {
    Sum.fetch_add(I, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), 99999ull * 100000ull / 2);
}

TEST(ThreadPool, ConcurrentCallersEachSeeEveryIndexOnce) {
  constexpr unsigned Callers = 4;
  constexpr std::uint64_t N = 5000;
  std::vector<std::vector<std::atomic<std::uint32_t>>> Seen(Callers);
  for (auto &S : Seen)
    S = std::vector<std::atomic<std::uint32_t>>(N);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Callers; ++C)
    Threads.emplace_back([&, C] {
      // Start the four jobs as close together as the host allows.
      Ready.fetch_add(1);
      while (Ready.load() < Callers)
        std::this_thread::yield();
      for (int Round = 0; Round < 10; ++Round)
        pool().parallelFor(4, N, [&](std::uint64_t I) {
          Seen[C][I].fetch_add(1, std::memory_order_relaxed);
        });
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C < Callers; ++C)
    for (std::uint64_t I = 0; I < N; ++I)
      ASSERT_EQ(Seen[C][I].load(), 10u) << "caller " << C << " index " << I;
}

TEST(ThreadPool, CallerNeverWaitsForAnotherOpenJob) {
  // Job A cannot finish until job B has: if B queued behind A, both would
  // wait until A gives up.
  std::atomic<bool> AStarted{false}, BDone{false}, ATimedOut{false};
  std::thread A([&] {
    pool().parallelFor(2, 2, [&](std::uint64_t) {
      AStarted.store(true);
      const auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!BDone.load() && std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      if (!BDone.load())
        ATimedOut.store(true);
    });
  });
  while (!AStarted.load())
    std::this_thread::yield();
  std::atomic<std::uint64_t> Sum{0};
  pool().parallelFor(4, 64, [&](std::uint64_t I) {
    Sum.fetch_add(I + 1, std::memory_order_relaxed);
  });
  BDone.store(true);
  A.join();
  EXPECT_EQ(Sum.load(), 64u * 65u / 2);
  EXPECT_FALSE(ATimedOut.load()) << "job B waited for job A";
}

TEST(ThreadPool, JobNeverRunsWiderThanItsWidth) {
  // Start more workers than the job below may use.
  pool().parallelFor(4, 64, [](std::uint64_t) {});
  ASSERT_GE(pool().workers(), 3u);
  std::mutex Mutex;
  std::set<std::thread::id> Ran;
  std::atomic<unsigned> InFlight{0}, Peak{0};
  pool().parallelFor(2, 64, [&](std::uint64_t) {
    const unsigned Now = InFlight.fetch_add(1) + 1;
    unsigned Seen = Peak.load();
    while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Ran.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    InFlight.fetch_sub(1);
  });
  EXPECT_LE(Ran.size(), 2u);
  EXPECT_LE(Peak.load(), 2u);
}

TEST(ThreadPool, WideningStartsOnlyTheMissingWorkers) {
  const unsigned Before = pool().workers();
  // A width of W needs W - 1 workers besides the caller.
  pool().parallelFor(Before + 2, 64, [](std::uint64_t) {});
  EXPECT_EQ(pool().workers(), Before + 1);
  pool().parallelFor(Before + 3, 64, [](std::uint64_t) {});
  EXPECT_EQ(pool().workers(), Before + 2);
  pool().parallelFor(Before + 3, 64, [](std::uint64_t) {});
  EXPECT_EQ(pool().workers(), Before + 2) << "a repeat started workers";
  // A job narrower than its width needs no more workers either.
  pool().parallelFor(Before + 8, 2, [](std::uint64_t) {});
  EXPECT_EQ(pool().workers(), Before + 2);
}

TEST(ThreadPoolDeathTest, ForkedChildRunsItsJobsAlone) {
  // The parent's workers exist only in the parent; a child forked after
  // they started must still finish every job.
  pool().parallelFor(4, 64, [](std::uint64_t) {});
  ASSERT_GE(pool().workers(), 3u);
  EXPECT_EXIT(
      {
        std::atomic<std::uint64_t> Sum{0};
        pool().parallelFor(4, 64, [&](std::uint64_t I) {
          Sum.fetch_add(I + 1, std::memory_order_relaxed);
        });
        std::exit(Sum.load() == 64u * 65u / 2 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace codesign::support
