#include "vgr/sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace vgr::sim {

std::size_t ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_{threads > 0 ? threads : hardware_threads()} {}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const {
  // Tasks are coarse (a whole scenario run), so one atomic per task is noise.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  // Declared after `next`, so it is destroyed first: every helper is joined
  // before `next` and `fn` go away, even when the caller's fn(i) throws.
  std::vector<std::jthread> helpers;
  for (std::size_t h = 1; h < std::min(n, threads_); ++h) helpers.emplace_back(drain);
  drain();
}

}  // namespace vgr::sim
