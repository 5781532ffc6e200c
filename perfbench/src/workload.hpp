#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "vgr/scenario/highway.hpp"

namespace perfbench {

/// Which public scenario entry point a workload drives.
enum class Experiment {
  kIntra,    ///< one HighwayScenario::run_intra_area
  kInter,    ///< one HighwayScenario::run_inter_area
  kInterAb,  ///< scenario::run_inter_area_ab over `runs` seeds
};

/// The generated inputs of one workload: everything the library sees.
struct Inputs {
  Experiment experiment{Experiment::kIntra};
  vgr::scenario::HighwayConfig config{};
  std::uint64_t runs{1};       ///< A/B seed count (kInterAb)
  std::uint64_t first_run{0};  ///< A/B seeds are first_run+1 .. first_run+runs
  std::size_t threads{1};      ///< A/B worker threads

  /// Scenario executions per workload execution (both arms of every A/B seed).
  [[nodiscard]] std::uint64_t scenario_runs() const;
  /// Simulated seconds per workload execution (runs x arms x horizon).
  [[nodiscard]] double simulated_seconds() const;
};

/// Parses the comma-separated `key=value` input spec that run.py generates
/// from the workload name and seed. Throws std::invalid_argument on an
/// unknown key or a malformed value.
[[nodiscard]] Inputs parse_inputs(const std::string& spec);

/// Exact outputs of an execution, compared bit for bit: integers verbatim,
/// doubles with 17 significant digits (round-trip exact). Values are kept
/// as JSON literals.
using Outputs = std::map<std::string, std::string>;

/// Exact layer counters summed over an execution's scenario runs.
struct Counts {
  std::uint64_t frames_sent{0};
  std::uint64_t receptions{0};
  std::uint64_t index_rebuilds{0};
  std::uint64_t stations_created{0};
  std::uint64_t deliveries{0};
  std::uint64_t beacons_replayed{0};
  std::uint64_t frames_flooded{0};
  std::uint64_t mac_transmitted{0};
  std::uint64_t mac_backoff_retries{0};
  std::uint64_t mac_queue_overflow{0};
  std::uint64_t dcc_gated_drops{0};
};

struct Execution {
  Outputs outputs;
  /// Delivered packets: flood receptions (incl. the source, as the
  /// repository's allocation gate counts them) or destination receipts.
  std::uint64_t deliveries{0};
  bool timed_out{false};
  /// Inter-area runs: overall reception and packet count, kept as numbers
  /// so observe() can repeat the A/B harness's accumulation exactly.
  double reception{0.0};
  std::uint64_t packets{0};
  /// Wall seconds of each scenario run (set-up + simulation); filled by
  /// observe() only.
  std::vector<double> run_s;
  /// The layer counters; zero for the A/B harness, which does not expose them.
  Counts counts{};
};

/// One workload execution through the public scenario API; this is what
/// the timed section repeats. Spans go to `tracer` when it is enabled.
[[nodiscard]] Execution run_workload(const Inputs& in, Tracer* tracer, Tracer::SpanId parent,
                                     std::uint32_t run_id);

/// The same scenario runs one by one through HighwayScenario, on `threads`
/// workers, so the exact layer counters and per-run wall times can be read.
/// Its outputs share keys with run_workload's, which must agree.
[[nodiscard]] Execution observe(const Inputs& in, std::size_t threads, Tracer* tracer,
                                Tracer::SpanId parent, std::uint32_t run_id);

/// Wall seconds to build one of the workload's scenarios, run it to a zero
/// horizon (prefill, stations, certificates) and tear it down.
[[nodiscard]] double time_setup(const Inputs& in);

/// Adds `from` into `into`; returns the keys present in both whose values
/// differ (an inconsistency between two views of the same execution).
std::vector<std::string> merge_outputs(Outputs& into, const Outputs& from);

}  // namespace perfbench
