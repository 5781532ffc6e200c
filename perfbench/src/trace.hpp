#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded from the
/// benchmark's own code around each call into a library layer and written
/// out once, when the benchmark ends. Single-threaded: spans are only
/// opened on the main thread (the traced run drives pooled work as one span).
class Tracer {
 public:
  using SpanId = std::uint32_t;  ///< 0 = none (root / tracing off)

  explicit Tracer(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; `run` groups the spans of one workload execution.
  SpanId begin(const char* name, SpanId parent, std::uint32_t run);
  void end(SpanId id);

  /// Writes every span plus a per-name summary (count, total and self time,
  /// where self time is the span's duration minus what its children cover)
  /// as JSON. Returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    SpanId parent;
    std::uint32_t run;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_{std::chrono::steady_clock::now()};
  std::vector<Span> spans_;
};

/// RAII span; a null or disabled tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, Tracer::SpanId parent, std::uint32_t run)
      : tracer_{tracer != nullptr && tracer->enabled() ? tracer : nullptr},
        id_{tracer_ != nullptr ? tracer_->begin(name, parent, run) : 0} {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] Tracer::SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_;
};

}  // namespace perfbench
