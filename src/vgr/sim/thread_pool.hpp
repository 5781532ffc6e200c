#pragma once

#include <cstddef>
#include <functional>

namespace vgr::sim {

/// Fork-join pool for run-level parallelism. The simulator itself stays
/// single-threaded: the unit of parallelism is one whole scenario run, which
/// owns all of its state, so tasks need no discipline beyond "don't touch
/// globals". Constructing a pool starts no thread; each `parallel_for`
/// starts its helpers and joins them before it returns.
class ThreadPool {
 public:
  /// At most `threads` concurrent calls, the caller's included. 0 picks
  /// `hardware_threads()`.
  explicit ThreadPool(std::size_t threads = 0);

  /// Concurrent calls per `parallel_for` (>= 1).
  [[nodiscard]] std::size_t thread_count() const { return threads_; }

  /// Runs `fn(i)` for every i in [0, n). The caller and min(n, threads) - 1
  /// helper threads pull indices from one shared counter; with one thread
  /// this is the plain in-order loop. Helpers are joined before the call
  /// returns, also when `fn` throws on the caller (the exception then
  /// propagates after every other index ran). An exception escaping `fn` on
  /// a helper terminates.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// Physical hardware concurrency; never 0 (an unknown count reports as
  /// 1). Benches use this to flag ladder rows that oversubscribe the host.
  static std::size_t hardware_threads();

 private:
  std::size_t threads_;
};

}  // namespace vgr::sim
