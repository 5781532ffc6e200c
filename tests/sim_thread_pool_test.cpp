#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "vgr/sim/thread_pool.hpp"

namespace vgr::sim {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadDegradesToSerialLoop) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // strictly in order: no worker involved
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreTasksThanThreadsAndViceVersa) {
  ThreadPool pool{8};
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i) + 1); });
  EXPECT_EQ(sum.load(), 6);
  sum = 0;
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NeverRunsMoreThanThreadCount) {
  // The caller counts as one of the `threads`: a k-thread pool must never
  // have more than k calls in flight, or VGR_THREADS=cores oversubscribes.
  for (const std::size_t k : {2u, 4u}) {
    ThreadPool pool{k};
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> peak{0};
    pool.parallel_for(3 * k, [&](std::size_t) {
      const std::size_t now = ++in_flight;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --in_flight;
    });
    EXPECT_LE(peak.load(), k) << "threads=" << k;
    EXPECT_GE(peak.load(), 2u) << "threads=" << k;
  }
}

TEST(ThreadPool, CallerExceptionJoinsHelpersFirst) {
  // Only the calling thread throws. parallel_for may rethrow only after its
  // helpers are joined: by then every other index has run, and none of
  // them can still be touching `fn` or this frame.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCount = 32;
  ThreadPool pool{kThreads};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_took_one{false};
  std::vector<std::atomic<int>> done(kCount);
  EXPECT_THROW(pool.parallel_for(kCount,
                                 [&](std::size_t i) {
                                   if (std::this_thread::get_id() == caller) {
                                     caller_took_one = true;
                                     throw std::runtime_error{"caller"};
                                   }
                                   // Hold each helper on its first index until
                                   // the caller has one, so the caller throws.
                                   while (!caller_took_one) std::this_thread::yield();
                                   std::this_thread::sleep_for(std::chrono::milliseconds(2));
                                   done[i].fetch_add(1);
                                 }),
               std::runtime_error);
  int ran = 0;
  for (const auto& d : done) ran += d.load();
  EXPECT_EQ(ran, static_cast<int>(kCount) - 1);
}

}  // namespace
}  // namespace vgr::sim
