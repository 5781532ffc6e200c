// vgr_sweep — CLI front end for the crash-resilient sweep supervisor
// (docs/robustness.md, "Sweep supervisor").
//
//   vgr_sweep run    [--journal PATH] [--out PATH] [--loss L] [--churn L] [--flood L]
//   vgr_sweep resume [same options]
//   vgr_sweep status [--journal PATH]
//
// `run` executes the resilience study under the supervisor with a fresh
// journal (it refuses a journal that already holds records); `resume`
// continues a killed or drained study, re-using every journaled shard and
// executing only the missing ones; `status` decodes the journal read-only
// and summarizes progress. Point lists are comma-separated values, or
// "none" to skip an axis (defaults reproduce bench_resilience). Fidelity
// comes from the usual VGR_RUNS / VGR_SIM_SECONDS / VGR_THREADS knobs and
// supervision from VGR_SWEEP_* (the CLI forces VGR_SWEEP on).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "vgr/sweep/knobs.hpp"
#include "vgr/sweep/resilience_sweep.hpp"

namespace {

using namespace vgr;

int usage() {
  std::fprintf(stderr,
               "usage: vgr_sweep <run|resume|status> [--journal PATH] [--out PATH]\n"
               "                 [--loss v,v,...|none] [--churn v,v,...|none]\n"
               "                 [--flood v,v,...|none]\n");
  return 2;
}

/// Parses "0,0.05,0.4" (or "none" -> empty); false on malformed input.
bool parse_levels(const char* arg, std::vector<double>& out) {
  out.clear();
  if (std::strcmp(arg, "none") == 0) return true;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) return false;
    out.push_back(v);
    p = end;
    if (*p == ',') ++p;
    else if (*p != '\0') return false;
  }
  return !out.empty();
}

int status(const std::string& journal_path) {
  std::size_t torn = 0;
  const std::vector<sweep::JournalRecord> records = sweep::Journal::scan(journal_path, &torn);
  std::size_t done = 0, quarantined = 0;
  // Counted as a resume treats them: an old "degraded" record is quarantined.
  for (const sweep::JournalRecord& rec : records) {
    if (rec.merges()) {
      ++done;
    } else {
      ++quarantined;
    }
  }
  std::printf("journal: %s\n", journal_path.c_str());
  std::printf("records: %zu done, %zu quarantined\n", done, quarantined);
  if (torn > 0) {
    std::printf("torn tail: %zu byte(s) — a resume will truncate them\n", torn);
  }
  for (const sweep::JournalRecord& rec : records) {
    std::printf("  %-12s %-8s attempts=%llu cause=%-6s %s\n", rec.status.c_str(),
                rec.fidelity.c_str(), static_cast<unsigned long long>(rec.attempts),
                rec.cause.c_str(), rec.shard.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "run" && mode != "resume" && mode != "status") return usage();

  const sweep::KnobSpec knobs = sweep::knobs_from_env(/*default_runs=*/4);
  sweep::SupervisorConfig config = knobs.supervisor;
  config.enabled = true;
  config.resume = mode == "resume";
  std::string out_path = knobs.bench_json.empty() ? "BENCH_resilience.json" : knobs.bench_json;
  sweep::ResilienceSelection selection;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--journal") {
      config.journal_path = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--loss") {
      if (!parse_levels(value, selection.loss)) return usage();
    } else if (flag == "--churn") {
      if (!parse_levels(value, selection.churn)) return usage();
    } else if (flag == "--flood") {
      if (!parse_levels(value, selection.flood)) return usage();
    } else {
      return usage();
    }
  }

  if (mode == "status") return status(config.journal_path);

  scenario::Fidelity fidelity = knobs.fidelity;
  if (fidelity.sim_seconds <= 0.0) fidelity.sim_seconds = 20.0;

  sweep::Supervisor supervisor{config};
  if (!supervisor.ok()) return 1;
  return sweep::run_resilience_sweep(supervisor, fidelity, selection, out_path);
}
