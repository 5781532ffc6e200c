// Reproduces paper Figure 8: accumulated packet interception rate over time
// for the inter-area attack in the DSRC scenarios ("attack-range_changed-
// parameter" naming, 'dflt' = default settings). The cumulative interception
// rate at time t is 1 - cum_reception_atk(t) / cum_reception_af(t).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace vgr;
using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

int main() {
  const Fidelity fidelity = sweep::knobs_from_env(3).fidelity;
  bench::banner("Figure 8", "accumulated inter-area interception rate over time (DSRC)",
                fidelity);

  const phy::RangeTable ranges = phy::range_table(phy::AccessTechnology::kDsrc);

  struct Scenario {
    const char* label;
    HighwayConfig cfg;
  };
  std::vector<Scenario> scenarios;
  {
    HighwayConfig c;
    c.attack_range_m = ranges.los_median_m;
    scenarios.push_back({"mL_dflt", c});
  }
  {
    HighwayConfig c;
    c.attack_range_m = ranges.nlos_median_m;
    scenarios.push_back({"mN_dflt", c});
  }
  {
    HighwayConfig c;
    c.attack_range_m = ranges.nlos_worst_m;
    scenarios.push_back({"wN_dflt", c});
  }
  {
    HighwayConfig c;
    c.attack_range_m = ranges.nlos_worst_m;
    c.locte_ttl = sim::Duration::seconds(5.0);
    scenarios.push_back({"wN_ttl5", c});
  }
  {
    HighwayConfig c;
    c.attack_range_m = ranges.nlos_worst_m;
    c.entry_spacing_m = 100.0;
    c.prefill_spacing_m = 100.0;
    scenarios.push_back({"wN_i100", c});
  }
  {
    HighwayConfig c;
    c.attack_range_m = ranges.nlos_worst_m;
    c.two_way = true;
    scenarios.push_back({"wN_2dir", c});
  }

  std::vector<AbResult> results;
  results.reserve(scenarios.size());
  for (const auto& s : scenarios) results.push_back(run_inter_area_ab(s.cfg, fidelity));

  std::printf("\ncumulative interception rate over time:\n  %-8s", "t (s)");
  for (const auto& s : scenarios) std::printf(" %-9s", s.label);
  std::printf("\n");
  const std::size_t bins = results.front().baseline.bin_count();
  const double width = results.front().baseline.bin_width().to_seconds();
  for (std::size_t i = 0; i < bins; ++i) {
    std::printf("  %-8.0f", (static_cast<double>(i) + 1.0) * width);
    for (const auto& r : results) {
      const double af = r.baseline.cumulative(i);
      const double atk = r.attacked.cumulative(i);
      const double rate = af > 0.0 ? 1.0 - atk / af : 0.0;
      std::printf(" %-9.3f", rate < 0.0 ? 0.0 : rate);
    }
    std::printf("\n");
  }

  std::printf("\nfinal accumulated interception rates:\n");
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    const double af = results[k].baseline.cumulative(bins - 1);
    const double atk = results[k].attacked.cumulative(bins - 1);
    std::printf("  %-10s %.1f%%\n", scenarios[k].label,
                af > 0.0 ? (1.0 - atk / af) * 100.0 : 0.0);
  }
  std::printf("\npaper reference: mL saturates at ~100%%; wN variants cluster below;\n"
              "shorter TTL lowers the curve; two-direction raises it.\n");
  return 0;
}
