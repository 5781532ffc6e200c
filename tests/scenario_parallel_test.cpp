// Determinism of the parallel experiment harness: dispatching independent
// runs across a thread pool and merging in seed order must reproduce the
// serial path bit for bit — attack rate, every timeline bin, and the
// overall reception figures. This is the contract that lets VGR_THREADS be
// a pure performance knob.

#include <gtest/gtest.h>


#include "vgr/scenario/ab_runner.hpp"

namespace vgr::scenario {
namespace {

HighwayConfig quick_config(AttackKind attack) {
  HighwayConfig cfg;
  cfg.attack = attack;
  cfg.sim_duration = sim::Duration::seconds(15.0);
  // Thinner traffic keeps the 4-runs-x-2-arms suite fast while still
  // exercising spawns, exits, forwarding, and the attacker.
  cfg.prefill_spacing_m = 90.0;
  cfg.entry_spacing_m = 90.0;
  return cfg;
}

Fidelity with_threads(std::size_t threads) {
  Fidelity f;
  f.runs = 4;
  f.threads = threads;
  return f;
}

void expect_bit_identical(const AbResult& serial, const AbResult& parallel) {
  // Exact equality on purpose: merging in seed order preserves the
  // floating-point accumulation order, so these are the same bits.
  EXPECT_EQ(serial.attack_rate, parallel.attack_rate);
  EXPECT_EQ(serial.baseline_reception, parallel.baseline_reception);
  EXPECT_EQ(serial.attacked_reception, parallel.attacked_reception);
  EXPECT_EQ(serial.runs, parallel.runs);
  ASSERT_EQ(serial.baseline.bin_count(), parallel.baseline.bin_count());
  for (std::size_t i = 0; i < serial.baseline.bin_count(); ++i) {
    EXPECT_EQ(serial.baseline.has_data(i), parallel.baseline.has_data(i)) << "bin " << i;
    EXPECT_EQ(serial.baseline.rate(i), parallel.baseline.rate(i)) << "bin " << i;
    EXPECT_EQ(serial.attacked.rate(i), parallel.attacked.rate(i)) << "bin " << i;
  }
}

TEST(ParallelHarness, InterAreaSerialAndParallelAreBitIdentical) {
  const HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  const AbResult serial = run_inter_area_ab(cfg, with_threads(1));
  const AbResult parallel = run_inter_area_ab(cfg, with_threads(4));
  expect_bit_identical(serial, parallel);
  // Sanity: the attack actually bites, so we are not comparing zeros.
  EXPECT_GT(serial.baseline_reception, 0.0);
}

TEST(ParallelHarness, IntraAreaSerialAndParallelAreBitIdentical) {
  const HighwayConfig cfg = quick_config(AttackKind::kIntraArea);
  const AbResult serial = run_intra_area_ab(cfg, with_threads(1));
  const AbResult parallel = run_intra_area_ab(cfg, with_threads(4));
  expect_bit_identical(serial, parallel);
  EXPECT_GT(serial.baseline_reception, 0.0);
}

TEST(ParallelHarness, MacDccCongestionArmIsBitIdentical) {
  // The contention layer runs entirely inside each run's event loop with a
  // private RNG stream, so a MAC+DCC fleet under the congestion flooder is
  // as thread-count-invariant as the classic experiments — including every
  // MAC drop counter and the peak CBR in the merged arm totals.
  HighwayConfig cfg = quick_config(AttackKind::kCongestionFlood);
  cfg.sim_duration = sim::Duration::seconds(10.0);
  cfg.flood_rate_hz = 2500.0;
  cfg.beacon_interval = sim::Duration::seconds(0.1);
  cfg.packet_interval = sim::Duration::seconds(0.1);
  cfg.mac.enabled = true;
  cfg.dcc.enabled = true;
  Fidelity f1 = with_threads(1);
  Fidelity f4 = with_threads(4);
  f1.runs = f4.runs = 2;
  const AbResult serial = run_inter_area_ab(cfg, f1);
  const AbResult parallel = run_inter_area_ab(cfg, f4);
  expect_bit_identical(serial, parallel);

  EXPECT_EQ(serial.attacked_totals.mac_transmitted, parallel.attacked_totals.mac_transmitted);
  EXPECT_EQ(serial.attacked_totals.mac_queue_overflow,
            parallel.attacked_totals.mac_queue_overflow);
  EXPECT_EQ(serial.attacked_totals.mac_retry_exhausted,
            parallel.attacked_totals.mac_retry_exhausted);
  EXPECT_EQ(serial.attacked_totals.mac_dcc_gated, parallel.attacked_totals.mac_dcc_gated);
  EXPECT_EQ(serial.attacked_totals.mac_backoff_retries,
            parallel.attacked_totals.mac_backoff_retries);
  EXPECT_EQ(serial.attacked_totals.peak_cbr, parallel.attacked_totals.peak_cbr);
  EXPECT_EQ(serial.attacked_totals.frames_flooded, parallel.attacked_totals.frames_flooded);

  // The attack plumbing engaged: frames were flooded and beacons gated.
  EXPECT_GT(serial.attacked_totals.frames_flooded, 0u);
  EXPECT_GT(serial.attacked_totals.mac_dcc_gated, 0u);
  EXPECT_GT(serial.attacked_totals.peak_cbr, 0.3);
  // The A-arm is attacker-free: nothing flooded there.
  EXPECT_EQ(serial.baseline_totals.frames_flooded, 0u);
}

TEST(ParallelHarness, SpatialIndexDoesNotChangeResults) {
  // The medium's spatial index must be a pure accelerator: a full A/B
  // experiment with the index disabled reproduces the indexed results.
  HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  const AbResult indexed = run_inter_area_ab(cfg, with_threads(2));
  cfg.spatial_index = false;
  const AbResult scanned = run_inter_area_ab(cfg, with_threads(2));
  expect_bit_identical(indexed, scanned);
}

// --- Per-run watchdog (docs/robustness.md) --------------------------------

TEST(ParallelHarness, TinyEventBudgetReportsRunsAsTimedOut) {
  // An event budget far below what a run needs trips the circuit breaker in
  // every run; all of them are reported as timed out in the merged result
  // instead of hanging or silently passing truncated data off as complete.
  const HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  Fidelity f = with_threads(2);
  f.runs = 2;
  f.run_max_events = 50;
  const AbResult r = run_inter_area_ab(cfg, f);
  EXPECT_EQ(r.timed_out_runs, r.runs);
}

TEST(ParallelHarness, NoWatchdogMeansNoTimedOutRuns) {
  const HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  Fidelity f = with_threads(2);
  f.runs = 2;
  const AbResult r = run_inter_area_ab(cfg, f);
  EXPECT_EQ(r.timed_out_runs, 0u);
}

}  // namespace
}  // namespace vgr::scenario
