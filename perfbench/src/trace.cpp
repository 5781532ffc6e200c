#include "trace.hpp"

#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::SpanId Tracer::begin(const char* name, SpanId parent, std::uint32_t run) {
  spans_.push_back(Span{name, now_ns(), -1, parent, run});
  return static_cast<SpanId>(spans_.size());
}

void Tracer::end(SpanId id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = now_ns();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  // Children of one parent never overlap (spans are opened and closed on a
  // single thread in call order), so a parent's self time is its duration
  // minus the sum of its children's durations.
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Summary {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };
  std::map<std::string, Summary> by_name;

  std::fprintf(f, "{\n  \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "    {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %u, \"run\": %u}%s\n",
                 i + 1, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run,
                 i + 1 < spans_.size() ? "," : "");
    if (s.end_ns < 0) continue;
    Summary& sum = by_name[s.name];
    ++sum.count;
    sum.total_ns += s.end_ns - s.start_ns;
    sum.self_ns += s.end_ns - s.start_ns - child_ns[i + 1];
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::size_t n = 0;
  for (const auto& [name, sum] : by_name) {
    std::fprintf(f, "    \"%s\": {\"count\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(sum.count),
                 static_cast<double>(sum.total_ns) * 1e-9,
                 static_cast<double>(sum.self_ns) * 1e-9, ++n < by_name.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
