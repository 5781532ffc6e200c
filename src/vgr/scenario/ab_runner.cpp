#include "vgr/scenario/ab_runner.hpp"

#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "vgr/sim/thread_pool.hpp"

namespace vgr::scenario {
namespace {

constexpr sim::Duration kBin = sim::Duration::seconds(5.0);

/// The horizon every run of `config` under `fidelity` simulates to.
sim::Duration horizon(const HighwayConfig& config, const Fidelity& fidelity) {
  return fidelity.sim_seconds > 0.0 ? sim::Duration::seconds(fidelity.sim_seconds)
                                    : config.sim_duration;
}

void apply_fidelity(HighwayConfig& config, const Fidelity& fidelity) {
  config.sim_duration = horizon(config, fidelity);
  // Knob-set resilience, MAC and DCC fields apply to every run of every
  // experiment binary, so any existing sweep can be re-run under channel
  // faults, node churn, the recovery layer or a contended channel without a
  // rebuild. No overrides leave the programmatic config untouched.
  fidelity.overrides.apply(config);
  config.run_wall_budget_s = fidelity.run_wall_budget_s;
  config.run_max_events = fidelity.run_max_events;
}

/// The attacker deployed in the B-arm: the configured attack when one is
/// set, else the experiment family's classic attacker (`fallback`). Keeps
/// historical call sites (config.attack == kNone) bit-identical while
/// letting the congestion sweeps pair "no attacker" against a flooder.
AttackKind b_arm_attack(const HighwayConfig& config, AttackKind fallback) {
  return config.attack == AttackKind::kNone ? fallback : config.attack;
}

/// One seed's run pair as a one-run AbResult, ready to fold in seed order.
template <typename Result>
AbResult one_run(const Result& baseline, const Result& attacked) {
  AbResult r{baseline.binned(kBin), attacked.binned(kBin)};
  r.baseline_totals = AbResult::ArmTotals::of(baseline);
  r.attacked_totals = AbResult::ArmTotals::of(attacked);
  r.runs = 1;
  if (baseline.timed_out || attacked.timed_out) r.timed_out_runs = 1;
  for (const sim::BudgetTrip cause : {baseline.timed_out_cause, attacked.timed_out_cause}) {
    if (cause == sim::BudgetTrip::kEvents) ++r.timed_out_events;
    if (cause == sim::BudgetTrip::kWall) ++r.timed_out_wall;
  }
  if constexpr (std::is_same_v<Result, InterAreaResult>) {
    // Inter-area receptions are packet-weighted run averages.
    const auto base_packets = static_cast<double>(baseline.packets.size());
    const auto atk_packets = static_cast<double>(attacked.packets.size());
    r.reception_base_hits = baseline.overall_reception() * base_packets;
    r.reception_base_trials = base_packets;
    r.reception_atk_hits = attacked.overall_reception() * atk_packets;
    r.reception_atk_trials = atk_packets;
  }
  return r;
}

/// The A/B driver of both experiments (`Run` is the HighwayScenario member
/// that runs one). Dispatches `fidelity.runs` seed-paired runs across a
/// thread pool and folds their one-run results in strict seed order. Each
/// run is a self-contained `HighwayScenario` (own event queue, medium, RNG
/// stream seeded from the run index), so the only cross-thread state is the
/// result slot each run writes once. Folding in seed order keeps every
/// floating-point accumulation in the exact order of the serial loop, which
/// is what makes the output bit-identical for any VGR_THREADS.
template <auto Run, AttackKind kClassicAttack>
AbResult run_ab(HighwayConfig config, const Fidelity& fidelity) {
  AbResult out = empty_ab_result(config, fidelity);
  apply_fidelity(config, fidelity);
  const auto run_pair = [&config, first = fidelity.first_run](std::size_t run) {
    const auto run_arm = [&](AttackKind attack) {
      HighwayConfig c = config;
      c.seed = first + run + 1;
      c.attack = attack;
      return std::invoke(Run, HighwayScenario{c});
    };
    const auto baseline = run_arm(AttackKind::kNone);
    const auto attacked = run_arm(b_arm_attack(config, kClassicAttack));
    return one_run(baseline, attacked);
  };
  const auto runs = static_cast<std::size_t>(fidelity.runs);
  std::vector<std::optional<AbResult>> pairs(runs);
  sim::ThreadPool pool{fidelity.threads};
  // Two references: small enough for std::function's inline buffer, so the
  // dispatch itself allocates nothing.
  pool.parallel_for(runs, [&pairs, &run_pair](std::size_t run) {
    pairs[run].emplace(run_pair(run));
  });
  for (const std::optional<AbResult>& pair : pairs) out.merge(*pair);
  out.finish();
  return out;
}

}  // namespace

void AbResult::merge(const AbResult& next) {
  baseline.merge(next.baseline);
  attacked.merge(next.attacked);
  baseline_totals.merge(next.baseline_totals);
  attacked_totals.merge(next.attacked_totals);
  reception_base_hits += next.reception_base_hits;
  reception_base_trials += next.reception_base_trials;
  reception_atk_hits += next.reception_atk_hits;
  reception_atk_trials += next.reception_atk_trials;
  runs += next.runs;
  timed_out_runs += next.timed_out_runs;
  timed_out_events += next.timed_out_events;
  timed_out_wall += next.timed_out_wall;
}

void AbResult::finish() {
  attack_rate = sim::BinnedRate::average_drop(baseline, attacked);
  if (reception_base_trials > 0.0 || reception_atk_trials > 0.0) {
    baseline_reception =
        reception_base_trials > 0.0 ? reception_base_hits / reception_base_trials : 0.0;
    attacked_reception =
        reception_atk_trials > 0.0 ? reception_atk_hits / reception_atk_trials : 0.0;
  } else {
    baseline_reception = baseline.overall();
    attacked_reception = attacked.overall();
  }
}

AbResult empty_ab_result(const HighwayConfig& config, const Fidelity& fidelity) {
  const sim::Duration h = horizon(config, fidelity);
  return AbResult{sim::BinnedRate{kBin, h}, sim::BinnedRate{kBin, h}};
}

AbResult run_inter_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  return run_ab<&HighwayScenario::run_inter_area, AttackKind::kInterArea>(config, fidelity);
}

AbResult run_intra_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  return run_ab<&HighwayScenario::run_intra_area, AttackKind::kIntraArea>(config, fidelity);
}

}  // namespace vgr::scenario
