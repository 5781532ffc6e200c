// bench_resilience — PDR and interception under deterministic fault
// injection and node churn (docs/robustness.md).
//
// Two sweeps over the inter-area experiment, each point a full paired A/B
// (attacker-free vs inter-area interceptor) plus a mitigated arm (both §V
// defenses enabled under attack) and a recovery arm (the self-healing
// forwarding plane of docs/robustness.md — SCF buffering, bounded per-hop
// retransmission and the neighbour monitor — with no attacker, against
// the same degraded channel):
//
//  1. Channel-loss sweep: frame drop + per-link loss + byte corruption
//     scaled together from a clean channel to a badly degraded one, with a
//     Gilbert–Elliott burst component at the upper settings.
//  2. Churn sweep: fleet-wide crash/reboot rate from none to one crash
//     every two seconds.
//
//  3. Congestion sweep: the replay flooder (attack #3, a certificate-less
//     outsider replaying captured frames purely for airtime) at an
//     escalating rate against a CSMA/CA fleet, once with DCC off and once
//     with reactive DCC on. The contrast is the point: plain CSMA collapses
//     under load (CW escalation overshoots the flood gaps, retries exhaust)
//     while the DCC arm sheds beacons and paces data but keeps delivering.
//
// The question each curve answers: does the attack's advantage (and the
// mitigation's recovery) survive on a lossy, churning network, or was it an
// artifact of the clean simulation? Writes BENCH_resilience.json (override
// with VGR_BENCH_JSON). Defaults finish in a few minutes; raise VGR_RUNS /
// VGR_SIM_SECONDS for full fidelity.
//
// The sweep body lives in vgr/sweep/resilience_sweep so the same study runs
// under the crash-resilient sweep supervisor (VGR_SWEEP=1, docs/robustness.md
// "Sweep supervisor") and from the vgr_sweep CLI. With the supervisor off —
// the default — the output is byte-identical to the historical monolithic
// bench.

#include <string>

#include "bench_util.hpp"
#include "vgr/sweep/resilience_sweep.hpp"

int main() {
  using namespace vgr;
  const sweep::KnobSpec knobs = sweep::knobs_from_env(/*default_runs=*/4);
  vgr::bench::banner("bench_resilience",
                     "attack + mitigation under channel faults and node churn", knobs.fidelity,
                     /*default_sim_seconds=*/20.0);
  scenario::Fidelity f = knobs.fidelity;
  if (f.sim_seconds <= 0.0) f.sim_seconds = 20.0;

  sweep::Supervisor supervisor{knobs.supervisor};
  if (!supervisor.ok()) return 1;

  const std::string path = knobs.bench_json.empty() ? "BENCH_resilience.json" : knobs.bench_json;
  return sweep::run_resilience_sweep(supervisor, f, sweep::ResilienceSelection{}, path);
}
