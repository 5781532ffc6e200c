#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through global operator new while counting is on.
/// The benchmark switches counting on only around its timed section, so the
/// figure excludes set-up, reference checks and the report itself.
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace perfbench
