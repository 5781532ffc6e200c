#include "vgr/sweep/supervisor.hpp"

#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <string_view>

namespace vgr::sweep {
namespace {

/// Drain request flag, set (only set — never cleared, never read-modify-
/// write) by the signal handler. `volatile sig_atomic_t` is the full extent
/// of what an async handler may touch (vgr_lint rule VGR008 enforces this).
volatile std::sig_atomic_t g_drain = 0;

void drain_handler(int /*signum*/) { g_drain = 1; }

/// Deterministic retry backoff. nanosleep is async-signal-tolerant and,
/// unlike std::this_thread::sleep_for, needs no <thread> include (VGR006).
void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ms / 1000.0);
  ts.tv_nsec = static_cast<long>((ms - static_cast<double>(ts.tv_sec) * 1000.0) * 1e6);
  nanosleep(&ts, nullptr);
}

const char* outcome_cause(const ShardOutcome& outcome) {
  if (outcome.error) return "error";
  if (outcome.timed_out_events > 0) return "events";
  if (outcome.timed_out_wall > 0) return "wall";
  return "none";
}

/// The quarantine counter of a journal `cause`.
std::uint64_t& quarantined_for(SweepCounters& counters, std::string_view cause) {
  if (cause == "events") return counters.quarantined_events;
  if (cause == "wall") return counters.quarantined_wall;
  return counters.quarantined_error;
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config) : config_{std::move(config)} {
  if (!config_.enabled) return;
  journal_ = Journal::open(config_.journal_path);
  if (!journal_.has_value()) {
    std::fprintf(stderr, "[sweep] cannot open journal %s: %s\n",
                 config_.journal_path.c_str(), std::strerror(errno));
    return;
  }
  if (journal_->truncated_bytes() > 0) {
    std::fprintf(stderr, "[sweep] journal %s: truncated %zu torn trailing bytes\n",
                 config_.journal_path.c_str(), journal_->truncated_bytes());
  }
  if (!config_.resume && !journal_->records().empty()) {
    // Guard against silently mixing two studies into one journal: reusing
    // an existing journal is an explicit choice (VGR_SWEEP_RESUME=1 /
    // `vgr_sweep resume`), not a side effect of re-running a bench.
    std::fprintf(stderr,
                 "[sweep] journal %s already holds %zu record(s); set "
                 "VGR_SWEEP_RESUME=1 to resume or remove the journal to start over\n",
                 config_.journal_path.c_str(), journal_->records().size());
    journal_.reset();
    return;
  }
  old_sigint_ = std::signal(SIGINT, drain_handler);
  old_sigterm_ = std::signal(SIGTERM, drain_handler);
  signals_installed_ = true;
}

Supervisor::~Supervisor() {
  finish();
  if (signals_installed_) {
    std::signal(SIGINT, old_sigint_ != SIG_ERR ? old_sigint_ : SIG_DFL);
    std::signal(SIGTERM, old_sigterm_ != SIG_ERR ? old_sigterm_ : SIG_DFL);
  }
}

bool Supervisor::drain_requested() { return g_drain != 0; }

void Supervisor::request_drain() { g_drain = 1; }

void Supervisor::reset_drain() { g_drain = 0; }

std::optional<std::string> Supervisor::run_shard(const ShardSpec& spec, const ShardFn& fn) {
  assert(enabled());
  ++counters_.shards;

  if (journal_.has_value()) {
    if (const JournalRecord* rec = journal_->find(spec.key); rec != nullptr) {
      return resume_from(*rec);
    }
  }

  const char* cause = "none";
  std::uint64_t attempts = 0;
  double backoff = config_.backoff_ms;
  do {
    if (drain_requested()) {
      // Not journaled: a resumed sweep will execute this shard from scratch.
      ++counters_.drained;
      return std::nullopt;
    }
    if (attempts > 0) {
      ++counters_.retries;
      backoff_sleep(backoff);
      backoff *= 2.0;
    }
    ++attempts;
    ShardOutcome outcome;
    try {
      outcome = fn(spec);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "[sweep] shard %s attempt %llu failed: %s\n", spec.key.c_str(),
                   static_cast<unsigned long long>(attempts), ex.what());
      outcome.error = true;
    }
    counters_.timed_out_events += outcome.timed_out_events;
    counters_.timed_out_wall += outcome.timed_out_wall;
    if (outcome.clean()) {
      record(spec, "done", attempts, "none",
             outcome.payload.empty() ? "null" : outcome.payload);
      ++counters_.completed;
      return outcome.payload;
    }
    cause = outcome_cause(outcome);
    // The same seeds replay the same event count, so an event-budget trip
    // would trip again; only a wall trip or an exception may not.
  } while (std::strcmp(cause, "events") != 0 && attempts <= config_.max_retries);

  std::fprintf(stderr, "[sweep] quarantining shard %s after %llu attempts (cause: %s)\n",
               spec.key.c_str(), static_cast<unsigned long long>(attempts), cause);
  ++quarantined_for(counters_, cause);
  record(spec, "quarantined", attempts, cause, "null");
  return std::nullopt;
}

std::optional<std::string> Supervisor::resume_from(const JournalRecord& rec) {
  ++counters_.resumed;
  // Quarantine is sticky across resumes: re-running a poisoned shard would
  // make resumed output depend on how often the sweep crashed. A "degraded"
  // record, a half-seed shard written by an older binary, is a quarantine
  // of its cause too: a point never merges a partial shard.
  if (!rec.merges()) {
    ++quarantined_for(counters_, rec.cause);
    return std::nullopt;
  }
  ++counters_.completed;
  return rec.payload;
}

void Supervisor::record(const ShardSpec& spec, const char* status, std::uint64_t attempts,
                        const char* cause, const std::string& payload) {
  if (!journal_.has_value()) return;
  JournalRecord rec;
  rec.shard = spec.key;
  rec.status = status;
  rec.fidelity = "full";
  rec.attempts = attempts;
  rec.cause = cause;
  rec.payload = payload;
  journal_->append(rec);
  maybe_fault();
}

void Supervisor::maybe_fault() {
  if (config_.fault_after_appends < 0) return;
  ++appends_;
  if (appends_ >= static_cast<std::uint64_t>(config_.fault_after_appends)) {
    // Crash-test hook (VGR_SWEEP_FAULT_AFTER): die as hard as a power cut.
    // The journal append above already fsync'd, which is exactly what the
    // kill-and-resume test verifies.
    std::fprintf(stderr, "[sweep] fault injection: SIGKILL after %llu appends\n",
                 static_cast<unsigned long long>(appends_));
    std::fflush(stderr);
    raise(SIGKILL);
  }
}

void Supervisor::finish() {
  if (!config_.enabled || !journal_.has_value()) return;
  write_manifest();
}

void Supervisor::write_manifest() const {
  const std::string path = config_.journal_path + ".manifest";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  const bool drained = counters_.drained > 0 || drain_requested();
  std::fprintf(f, "{\"journal\":\"%s\",\"status\":\"%s\"", config_.journal_path.c_str(),
               drained ? "drained" : "complete");
  SweepCounters::for_each([&](const char* name, auto member) {
    std::fprintf(f, ",\"%s\":%llu", name, static_cast<unsigned long long>(counters_.*member));
  });
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace vgr::sweep
