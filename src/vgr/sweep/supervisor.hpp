#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "vgr/sweep/journal.hpp"

namespace vgr::sweep {

/// One unit of supervised work: a sweep point restricted to a seed range.
/// Runs execute with seeds `first_run+1 .. first_run+runs` (the ab_runner
/// contract), so chunking a point by seed range and merging the shard
/// results reproduces the monolithic run bit for bit.
struct ShardSpec {
  std::string key;  ///< stable identity, also the journal lookup key
  std::uint64_t first_run{0};
  std::uint64_t runs{1};
};

/// What one shard attempt produced. `payload` is an opaque JSON value the
/// supervisor journals verbatim; the timeout counters decide what happens
/// next (an attempt is clean only when no run tripped a watchdog and no
/// exception escaped the shard function).
struct ShardOutcome {
  std::string payload;
  std::uint64_t timed_out_events{0};
  std::uint64_t timed_out_wall{0};
  bool error{false};

  [[nodiscard]] bool clean() const {
    return !error && timed_out_events == 0 && timed_out_wall == 0;
  }
};

/// Supervisor settings. Entrypoints fill them from the `VGR_SWEEP*` rows
/// of the knob table (vgr/sweep/knobs.cpp; docs/robustness.md).
struct SupervisorConfig {
  bool enabled{false};                        ///< supervised path on
  std::string journal_path{"sweep.journal"};
  bool resume{false};                         ///< journaled shards are not re-run
  std::uint64_t max_retries{2};               ///< retries of a wall trip or an error
  double backoff_ms{50.0};                    ///< base retry backoff, doubled per retry
  std::uint64_t seed_chunk{0};                ///< seeds per shard; 0 = one shard per point
  /// Crash-test hook: raise(SIGKILL) after this many journal appends
  /// (< 0 = disabled).
  long long fault_after_appends{-1};
};

/// Sweep-level health counters, reported in the bench JSON `supervisor`
/// block so a study's output says how it was obtained, not just what.
struct SweepCounters {
  std::uint64_t shards{0};      ///< shards presented to run_shard
  std::uint64_t completed{0};   ///< shards that produced a payload
  std::uint64_t resumed{0};     ///< shards satisfied from the journal
  std::uint64_t retries{0};     ///< extra attempts spent
  std::uint64_t quarantined_events{0};
  std::uint64_t quarantined_wall{0};
  std::uint64_t quarantined_error{0};
  std::uint64_t drained{0};     ///< shards skipped by SIGINT/SIGTERM drain
  std::uint64_t timed_out_events{0};  ///< arm watchdog trips, all attempts
  std::uint64_t timed_out_wall{0};

  /// The counter list: calls `fn(json_name, member_pointer)` once per field,
  /// in the key order of the manifest and of the bench JSON `supervisor`
  /// block; both writers walk it, so a new counter is one row here.
  template <typename Fn>
  static void for_each(Fn&& fn) {
    fn("shards", &SweepCounters::shards);
    fn("completed", &SweepCounters::completed);
    fn("resumed", &SweepCounters::resumed);
    fn("retries", &SweepCounters::retries);
    fn("quarantined_events", &SweepCounters::quarantined_events);
    fn("quarantined_wall", &SweepCounters::quarantined_wall);
    fn("quarantined_error", &SweepCounters::quarantined_error);
    fn("drained", &SweepCounters::drained);
    fn("timed_out_events", &SweepCounters::timed_out_events);
    fn("timed_out_wall", &SweepCounters::timed_out_wall);
  }

  [[nodiscard]] std::uint64_t quarantined() const {
    return quarantined_events + quarantined_wall + quarantined_error;
  }
};

/// Crash-resilient sweep executor: journals every finished shard (fsync'd,
/// checksummed) and resumes by journal lookup, while SIGINT/SIGTERM request
/// a graceful drain instead of killing the study mid-shard. A failed shard
/// is retried, with exponential backoff, only when another attempt can
/// come out differently (a wall-clock trip or an exception); an event-budget
/// trip repeats exactly under the same seeds, so it is quarantined at once.
/// A shard always runs all its seeds: a point never merges a partial shard.
///
/// With `config.enabled == false` the supervisor opens no journal and
/// installs no signal handlers; run_shard must not be called then
/// (run_ab_supervised runs the point directly instead).
class Supervisor {
 public:
  using ShardFn = std::function<ShardOutcome(const ShardSpec&)>;

  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;
  Supervisor(Supervisor&&) = delete;
  Supervisor& operator=(Supervisor&&) = delete;

  /// False when the journal could not be opened (supervised mode only).
  [[nodiscard]] bool ok() const { return !config_.enabled || journal_.has_value(); }
  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const SupervisorConfig& config() const { return config_; }
  [[nodiscard]] const SweepCounters& counters() const { return counters_; }
  [[nodiscard]] const Journal* journal() const {
    return journal_.has_value() ? &*journal_ : nullptr;
  }
  /// True once SIGINT/SIGTERM asked for a drain (or a test forced one).
  [[nodiscard]] static bool drain_requested();
  /// Test hook: behave as if SIGINT had arrived.
  static void request_drain();
  /// Test hook: clear the process-wide drain flag (a real process never
  /// un-drains; tests need the flag back down between cases).
  static void reset_drain();

  /// Runs one shard: journal lookup, then attempts. Returns the payload JSON text;
  /// nullopt when the shard was quarantined (now or in the journal) or
  /// skipped because a drain was requested.
  std::optional<std::string> run_shard(const ShardSpec& spec, const ShardFn& fn);

  /// Flushes the resumable manifest (`<journal>.manifest`). Called by the
  /// destructor too; explicit calls let benches write it before reporting.
  void finish();

 private:
  std::optional<std::string> resume_from(const JournalRecord& rec);
  void record(const ShardSpec& spec, const char* status, std::uint64_t attempts,
              const char* cause, const std::string& payload);
  void maybe_fault();
  void write_manifest() const;

  SupervisorConfig config_;
  std::optional<Journal> journal_;
  SweepCounters counters_;
  std::uint64_t appends_{0};
  bool signals_installed_{false};
  void (*old_sigint_)(int){nullptr};
  void (*old_sigterm_)(int){nullptr};
};

}  // namespace vgr::sweep
