// Reproduces paper Figure 14: effectiveness of the standard-compatible
// mitigations — (a) the GF plausibility check (threshold = DSRC NLoS
// median) against the inter-area interception attack at three attack
// ranges, including the attacker-free bonus the paper highlights; (b) the
// CBF RHL-drop check (threshold 3) against the intra-area blockage attack.

#include <cstdio>

#include "bench_util.hpp"
#include "vgr/scenario/highway.hpp"

using namespace vgr;
using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

namespace {

struct Setting {
  const char* label;
  double range_m;
};

/// One A/B call per (attack range, mitigation): the attacked arm runs the
/// interceptor, the baseline arm the same mitigated config without it.
AbResult inter_ab(double range_m, bool mitigated, const Fidelity& fidelity) {
  HighwayConfig cfg;
  cfg.attack_range_m = range_m;
  cfg.mitigation =
      mitigated ? mitigation::Profile::kPlausibilityCheck : mitigation::Profile::kNone;
  return scenario::run_inter_area_ab(cfg, fidelity);
}

AbResult intra_ab(double range_m, bool mitigated, const Fidelity& fidelity) {
  HighwayConfig cfg;
  cfg.attack_range_m = range_m;
  cfg.mitigation = mitigated ? mitigation::Profile::kRhlDropCheck : mitigation::Profile::kNone;
  return scenario::run_intra_area_ab(cfg, fidelity);
}

}  // namespace

int main() {
  const Fidelity fidelity = sweep::knobs_from_env(3).fidelity;
  bench::banner("Figure 14", "mitigation effectiveness (DSRC)", fidelity);

  const phy::RangeTable ranges = phy::range_table(phy::AccessTechnology::kDsrc);

  std::printf("\nFig 14a — GF plausibility check (threshold %.0f m, extrapolating)\n",
              ranges.nlos_median_m);
  const Setting settings[] = {
      {"wN attacker", ranges.nlos_worst_m},
      {"mN attacker", ranges.nlos_median_m},
      {"mL attacker", ranges.los_median_m},
  };
  // The attacker-free row is the baseline arm of the wN runs.
  double free_plain = 0.0, free_fixed = 0.0;
  for (const Setting& s : settings) {
    const AbResult plain = inter_ab(s.range_m, /*mitigated=*/false, fidelity);
    const AbResult fixed = inter_ab(s.range_m, /*mitigated=*/true, fidelity);
    std::printf("  %-14s recv (attacked) = %5.3f -> %5.3f with check  (%+.1f pp)\n", s.label,
                plain.attacked_reception, fixed.attacked_reception,
                (fixed.attacked_reception - plain.attacked_reception) * 100.0);
    if (&s == &settings[0]) {
      free_plain = plain.baseline_reception;
      free_fixed = fixed.baseline_reception;
    }
  }
  std::printf("  %-14s recv (no attack) = %5.3f -> %5.3f with check  (%+.1f pp)\n",
              "attacker-free", free_plain, free_fixed, (free_fixed - free_plain) * 100.0);

  std::printf("\nFig 14b — CBF RHL-drop check (threshold 3)\n");
  const Setting intra_settings[] = {
      {"wN attacker", ranges.nlos_worst_m},
      {"mN attacker", ranges.nlos_median_m},
  };
  for (const Setting& s : intra_settings) {
    const AbResult plain = intra_ab(s.range_m, /*mitigated=*/false, fidelity);
    const AbResult fixed = intra_ab(s.range_m, /*mitigated=*/true, fidelity);
    std::printf("  %-14s recv: af = %5.3f, attacked = %5.3f, attacked+check = %5.3f\n",
                s.label, plain.baseline_reception, plain.attacked_reception,
                fixed.attacked_reception);
  }

  std::printf("\npaper reference: 14a recovers +53.7%% / +61.6%% / +53.4%% (wN/mN/mL) and\n"
              "+39.9%% attacker-free (to 94.3%%); 14b realigns attacked reception with the\n"
              "attacker-free curves.\n");
  return 0;
}
