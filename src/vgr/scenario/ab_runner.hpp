#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vgr/scenario/highway.hpp"

namespace vgr::scenario {

/// Paired A/B experiment results: the attacker-free baseline, the attacked
/// timeline, and the paper's headline metric (gamma for inter-area
/// interception, lambda for intra-area blockage — the average relative
/// reception drop over 5 s bins).
struct AbResult {
  /// Per-arm drop/congestion totals, folded over every run of the arm from
  /// each run's RunCounters (docs/robustness.md). The MAC counters are zero
  /// unless the MAC layer is enabled; ingest drops are zero on an
  /// un-faulted channel.
  struct ArmTotals {
    std::uint64_t mac_queue_overflow{0};
    std::uint64_t mac_retry_exhausted{0};
    std::uint64_t mac_dcc_gated{0};
    std::uint64_t mac_backoff_retries{0};
    std::uint64_t mac_transmitted{0};
    std::uint64_t ingest_drops{0};
    std::uint64_t frames_flooded{0};
    double peak_cbr{0.0};  ///< max over runs of the per-run peak CBR

    enum class Merge { kSum, kMax };
    /// The counter list: calls `fn(json_name, member_pointer, merge, source)`
    /// once per field, in journal key order; `source` reads the field from
    /// one run's RunCounters. Runs, shard merges and the journal codec
    /// (vgr/sweep/ab_codec) all walk it, so a new counter is one row here.
    template <typename Fn>
    static void for_each_counter(Fn&& fn) {
      using R = const RunCounters&;
      fn("mac_queue_overflow", &ArmTotals::mac_queue_overflow, Merge::kSum,
         [](R r) { return r.mac.queue_overflow_drops; });
      fn("mac_retry_exhausted", &ArmTotals::mac_retry_exhausted, Merge::kSum,
         [](R r) { return r.mac.retry_exhausted_drops; });
      fn("mac_dcc_gated", &ArmTotals::mac_dcc_gated, Merge::kSum,
         [](R r) { return r.mac.dcc_gated_drops; });
      fn("mac_backoff_retries", &ArmTotals::mac_backoff_retries, Merge::kSum,
         [](R r) { return r.mac.backoff_retries; });
      fn("mac_transmitted", &ArmTotals::mac_transmitted, Merge::kSum,
         [](R r) { return r.mac.transmitted; });
      fn("ingest_drops", &ArmTotals::ingest_drops, Merge::kSum,
         [](R r) { return r.ingest_drops; });
      fn("frames_flooded", &ArmTotals::frames_flooded, Merge::kSum,
         [](R r) { return r.frames_flooded; });
      fn("peak_cbr", &ArmTotals::peak_cbr, Merge::kMax, [](R r) { return r.peak_cbr; });
    }

    /// One run's counters as arm totals.
    static ArmTotals of(const RunCounters& run) {
      ArmTotals t;
      for_each_counter([&](const char*, auto member, Merge, auto source) {
        t.*member = source(run);
      });
      return t;
    }

    /// Folds `other` into these totals, field by field per its merge rule.
    void merge(const ArmTotals& other) {
      for_each_counter([&](const char*, auto member, Merge how, auto) {
        this->*member = how == Merge::kSum ? this->*member + other.*member
                                           : std::max(this->*member, other.*member);
      });
    }
  };

  sim::BinnedRate baseline;
  sim::BinnedRate attacked;
  double attack_rate{0.0};          ///< gamma / lambda
  double baseline_reception{0.0};   ///< overall rate, attacker-free
  double attacked_reception{0.0};   ///< overall rate, attacked
  ArmTotals baseline_totals{};
  ArmTotals attacked_totals{};
  /// Packet-weighted accumulators behind baseline_reception /
  /// attacked_reception in the inter-area experiment (the intra-area one
  /// derives receptions from the merged bins and leaves these at zero).
  /// Exposed so sweep shards (vgr/sweep) merge receptions exactly instead
  /// of re-weighting already-divided ratios.
  double reception_base_hits{0.0};
  double reception_base_trials{0.0};
  double reception_atk_hits{0.0};
  double reception_atk_trials{0.0};
  std::uint64_t runs{0};
  /// Runs (seed-paired A/B executions) where at least one arm tripped the
  /// per-run watchdog (`Fidelity::run_wall_budget_s` / `run_max_events`) and
  /// stopped before its horizon. Such runs still contribute their partial
  /// timelines; a non-zero count says the result covers less than its horizon.
  std::uint64_t timed_out_runs{0};
  /// `timed_out_runs` split by cause, counted per *arm* (a run where both
  /// arms trip contributes twice here but once above): the event-budget trip
  /// is deterministic, the wall-clock one is host-dependent, and the sweep
  /// supervisor retries only the latter.
  std::uint64_t timed_out_events{0};
  std::uint64_t timed_out_wall{0};

  /// Folds `next`, the result of the following seed range, into this one:
  /// bins, arm totals, reception accumulators, run and timeout counts. Runs
  /// and sweep shards both fold in seed order, so every floating-point sum
  /// has one fixed order. Both results must share one bin geometry.
  void merge(const AbResult& next);
  /// Derives `attack_rate` and the two receptions from the folded
  /// accumulators: packet-weighted when any packet was counted (inter-area),
  /// else the overall rate of the merged bins (intra-area).
  void finish();
};

/// Per-run config fields set by runtime knobs, as plain data: `values`
/// holds them and `fields` lists the members that hold one. The harness
/// copies exactly those members over every run's config after the caller's
/// own settings, so a set knob wins over a sweep's programmatic arm value,
/// and an empty list leaves every run untouched.
struct ConfigOverrides {
  HighwayConfig values{};
  std::vector<void (*)(HighwayConfig& to, const HighwayConfig& from)> fields;
  /// The knob rows behind `fields` as `NAME=value;` text, in knob-table
  /// order (filled by the knob parser, vgr/sweep/knobs.cpp). Unlike the
  /// function pointers it is the same in every process, so sweep shard
  /// keys fingerprint it.
  std::string settings;

  /// Marks the member reached by the member-pointer chain `Path` (e.g.
  /// `&HighwayConfig::faults, &phy::FaultConfig::drop_probability`) as set
  /// and returns it in `values` for the caller to fill.
  template <auto... Path>
  auto& set() {
    fields.push_back([](HighwayConfig& to, const HighwayConfig& from) {
      (to .* ... .* Path) = (from .* ... .* Path);
    });
    return (values .* ... .* Path);
  }

  void apply(HighwayConfig& config) const {
    for (const auto copy : fields) copy(config, values);
  }
};

/// Experiment fidelity, so the same benches run in minutes on a laptop or
/// at full paper fidelity (100 runs x 200 s). Entrypoints fill it from the
/// knob table (vgr/sweep/knobs.cpp: `VGR_RUNS`, `VGR_SIM_SECONDS`,
/// `VGR_THREADS`, `VGR_RUN_TIMEOUT_S`, `VGR_RUN_MAX_EVENTS`, and the
/// per-run resilience, MAC and DCC rows that land in `overrides`); library
/// code reads only these fields, never the environment.
struct Fidelity {
  std::uint64_t runs{3};
  /// Seed-range offset for sweep shards (vgr/sweep): the runs executed are
  /// seeded `first_run+1 .. first_run+runs`, so a sweep point can be cut
  /// into seed-range shards whose merged result equals the monolithic run.
  /// 0 (the default, not a knob) keeps historical behaviour.
  std::uint64_t first_run{0};
  double sim_seconds{-1.0};  ///< <= 0 keeps the config's duration
  /// Worker threads for independent runs; 0 = all hardware threads.
  /// Results are bit-identical for every value because runs are merged in
  /// seed order (see ab_runner.cpp).
  std::size_t threads{0};
  /// Per-run watchdog (see HighwayConfig): 0 disables either bound.
  double run_wall_budget_s{0.0};
  std::uint64_t run_max_events{0};
  /// Applied over every run's config (faults, churn, recovery, MAC, DCC).
  ConfigOverrides overrides{};
};

/// An all-zero A/B result with the bin geometry every run of `config` under
/// `fidelity` is folded into: 5 s bins up to the effective horizon.
AbResult empty_ab_result(const HighwayConfig& config, const Fidelity& fidelity);

/// Runs `runs` paired (attacker-free, attacked) inter-area experiments with
/// seeds 1..runs and merges the binned reception timelines. `config.attack`
/// selects the attacker for the B-arm (kNone keeps the classic kInterArea
/// interceptor); the A-arm always clears it.
AbResult run_inter_area_ab(HighwayConfig config, const Fidelity& fidelity);

/// Same pairing for the intra-area (CBF flood) experiment.
AbResult run_intra_area_ab(HighwayConfig config, const Fidelity& fidelity);

}  // namespace vgr::scenario
