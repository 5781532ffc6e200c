// Counting global operator new/delete for the benchmark binary, on the
// pattern of tests/alloc_regression_test.cpp. The inter-area A/B workload
// allocates from four pool threads at once, so the count is kept in
// cache-line-padded shards picked per thread: a single shared atomic would
// add cross-core traffic to every allocation inside the timed section.

#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr std::size_t kShards = 64;

struct alignas(64) Shard {
  std::atomic<std::uint64_t> count{0};
};

Shard g_shards[kShards];
std::atomic<bool> g_counting{false};
thread_local char t_shard_marker;

void count_one() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  // The address of a thread_local differs per thread; its page bits pick a
  // shard. Collisions only cost contention, never a lost count.
  const auto bits = reinterpret_cast<std::uintptr_t>(&t_shard_marker);
  g_shards[(bits >> 12) % kShards].count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_seq_cst); }

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Shard& s : g_shards) total += s.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  perfbench::count_one();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::count_one();
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::count_one();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
