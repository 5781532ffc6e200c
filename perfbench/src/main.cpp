// vgr_perfbench: measures one benchmark workload and prints a JSON report
// as its last line of standard output. run.py generates the inputs from the
// workload name and seed, runs this binary, checks the outputs against the
// committed references and prints the final result.
//
//   vgr_perfbench --mode e2e|trace --seconds S --inputs SPEC
//                 [--reference-inputs SPEC] [--trace-out PATH]
//
// e2e:   end-to-end metrics with tracing off (set-up, timed repetitions of
//        the workload through the public scenario API, memory, allocations).
// trace: per-layer metrics: exact counters from a serial pass, traced vs
//        untraced repetitions (tracing overhead) and per-layer replays.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-up repetitions before each timed execution: set-up takes
/// milliseconds, so its median needs many samples to hold still.
constexpr int kSetupRepsPerExecution = 5;

struct Args {
  std::string mode{"e2e"};
  double seconds{10.0};
  std::string inputs;
  std::string reference_inputs;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--mode") {
      if (value != "e2e" && value != "trace") throw std::invalid_argument("bad mode: " + value);
      a.mode = value;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    } else if (key == "--inputs") {
      a.inputs = value;
    } else if (key == "--reference-inputs") {
      a.reference_inputs = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument: " + key);
    }
  }
  if (a.inputs.empty()) throw std::invalid_argument("--inputs is required");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_outputs(const Outputs& o) {
  std::string out = "{";
  for (const auto& [k, v] : o) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + v;
  }
  return out + "}";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

/// Attempts, failures and the outputs every execution must reproduce.
struct Ledger {
  std::uint64_t attempted{0};
  std::vector<std::string> failures;

  /// Records one execution; its outputs must agree with `expected` on
  /// every shared key, and keys new to `expected` are added to it.
  void check(const char* what, const Execution& ex, Outputs& expected) {
    ++attempted;
    if (ex.timed_out) {
      failures.push_back(std::string{what} + ": watchdog tripped");
      return;
    }
    const std::vector<std::string> conflicts = merge_outputs(expected, ex.outputs);
    if (!conflicts.empty()) {
      failures.push_back(std::string{what} + ": output '" + conflicts.front() +
                         "' differs between executions of the same inputs");
    }
  }
};

/// Exact outputs at the reference inputs: the observe pass, plus the public
/// API execution when that is a different code path (the A/B harness).
Outputs reference_outputs(const Inputs& ref, Ledger& ledger) {
  Outputs out;
  ledger.check("reference", observe(ref, ref.threads, nullptr, 0, 0), out);
  if (ref.experiment == Experiment::kInterAb) {
    ledger.check("reference", run_workload(ref, nullptr, 0, 0), out);
  }
  return out;
}

struct Timed {
  double wall_s;
  double allocs_per_delivery;
};

/// One timed execution; allocations are counted only inside it.
Timed timed_execution(const Inputs& in, Ledger& ledger, Outputs& expected, Tracer* tracer,
                      std::uint32_t run_id) {
  const std::uint64_t a0 = alloc_count();
  set_alloc_counting(true);
  const auto t0 = Clock::now();
  const Execution ex = run_workload(in, tracer, 0, run_id);
  const double wall = seconds_since(t0);
  set_alloc_counting(false);
  const auto allocs = static_cast<double>(alloc_count() - a0);
  ledger.check("timed", ex, expected);
  return Timed{wall, allocs / static_cast<double>(std::max<std::uint64_t>(ex.deliveries, 1))};
}

struct Measurement {
  std::vector<Metric> metrics;
  std::size_t reps{0};
  std::size_t setup_reps{0};
};

void print_report(const Args& args, const Inputs& in, const Ledger& ledger,
                  const Outputs& outputs, const Outputs* ref, const Measurement& m) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::string s = "{\"mode\": " + json_string(args.mode);
  s += ", \"stamp\": {\"compiler\": " + json_string(VGR_PERFBENCH_COMPILER) +
       ", \"build_type\": " + json_string(VGR_PERFBENCH_BUILD_TYPE) +
       ", \"optimized\": " + (optimized ? "true" : "false") +
       ", \"threads\": " +
       std::to_string(in.experiment == Experiment::kInterAb ? in.threads : 1) +
       ", \"reps\": " + std::to_string(m.reps) + ", \"setup_reps\": " +
       std::to_string(m.setup_reps) + "}";
  s += ", \"attempted\": " + std::to_string(ledger.attempted);
  s += ", \"failures\": [";
  for (std::size_t i = 0; i < ledger.failures.size(); ++i) {
    s += (i ? ", " : "") + json_string(ledger.failures[i]);
  }
  s += "], \"outputs\": " + json_outputs(outputs);
  if (ref != nullptr) s += ", \"reference_outputs\": " + json_outputs(*ref);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    const Metric& metric = m.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    s += (i ? ", " : "") + json_string(metric.name) + ": {\"value\": " + buf +
         ", \"unit\": " + json_string(metric.unit) +
         ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Tracing off: set-up samples, then repetitions of the workload for
/// `seconds`, with allocations counted inside each.
Measurement measure_end_to_end(const Inputs& in, double seconds, Ledger& ledger,
                               Outputs& outputs) {
  // Set-up samples are spread between the timed executions, so a slow
  // spell on a shared host lands on a few samples rather than on all.
  std::vector<double> setup, wall, allocs;
  const auto t0 = Clock::now();
  while (wall.empty() || seconds_since(t0) < seconds) {
    for (int i = 0; i < kSetupRepsPerExecution; ++i) setup.push_back(time_setup(in));
    const Timed t = timed_execution(in, ledger, outputs, nullptr, 0);
    wall.push_back(t.wall_s);
    allocs.push_back(t.allocs_per_delivery);
  }
  const double wall_s = median(wall);
  Measurement m;
  m.reps = wall.size();
  m.setup_reps = setup.size();
  m.metrics = {
      {"setup_s", median(setup), "s", setup.size()},
      {"wall_s", wall_s, "s", wall.size()},
      {"sim_s_per_wall_s", in.simulated_seconds() / wall_s, "1", wall.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"allocs_per_delivery", median(allocs), "count", allocs.size()},
  };
  return m;
}

/// Tracing on: untraced and traced repetitions for half of `seconds`, then
/// the layer replays. `observed` is the serial observe pass.
Measurement measure_per_layer(const Inputs& in, double seconds, const Execution& observed,
                              Ledger& ledger, Outputs& outputs, Tracer& tracer,
                              Tracer::SpanId root) {
  // Untraced and traced executions alternate, so drift on the host hits
  // both sides alike; their median difference is the tracing overhead.
  std::vector<double> untraced, traced, setup;
  const auto t0 = Clock::now();
  std::uint32_t run_id = 2;
  while (untraced.empty() || seconds_since(t0) < 0.5 * seconds) {
    untraced.push_back(timed_execution(in, ledger, outputs, nullptr, 0).wall_s);
    traced.push_back(timed_execution(in, ledger, outputs, &tracer, run_id++).wall_s);
    setup.push_back(time_setup(in));
  }
  const double wall_s = median(untraced);

  const Counts& c = observed.counts;
  const std::uint64_t runs = in.scenario_runs();
  Counts per_run = c;
  per_run.frames_sent /= runs;
  per_run.receptions /= runs;
  const LayerCosts l = measure_layers(in, per_run, &tracer, root);

  // What the replays account for: per scenario run, every reception's
  // medium fan-out and router ingest, the traffic ticks and the set-up;
  // pooled runs share the wall time across the threads.
  const double threads =
      in.experiment == Experiment::kInterAb ? static_cast<double>(in.threads) : 1.0;
  const double per_run_layer_s =
      1e-9 * static_cast<double>(per_run.receptions) *
          (l.phy_ns_per_reception + l.gn_ns_per_ingest) +
      1e-6 * l.traffic_tick_us * static_cast<double>(l.traffic_ticks) + median(setup);
  const double attributed_s = per_run_layer_s * static_cast<double>(runs) / threads;
  double serial_s = 0.0;
  for (const double s : observed.run_s) serial_s += s;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::size_t nr = observed.run_s.size();

  Measurement m;
  m.reps = untraced.size() + traced.size();
  m.setup_reps = setup.size();
  m.metrics = {
      {"phy.frames_sent", n(c.frames_sent), "count", 1},
      {"phy.receptions", n(c.receptions), "count", 1},
      {"phy.receptions_per_frame", n(c.receptions) / std::max(n(c.frames_sent), 1.0), "1", 1},
      {"phy.index_rebuilds", n(c.index_rebuilds), "count", 1},
      {"phy.ns_per_reception", l.phy_ns_per_reception, "ns", 1},
      {"sim.events_fired", n(l.sim_events_fired), "count", 1},
      {"sim.ns_per_event", l.sim_ns_per_event, "ns", 1},
      {"gn.ns_per_ingest", l.gn_ns_per_ingest, "ns", 1},
      {"gn.loct_update_cold_ns", l.gn_loct_update_cold_ns, "ns", 1},
      {"gn.loct_update_warm_ns", l.gn_loct_update_warm_ns, "ns", 1},
      {"gn.gf_select_ns", l.gn_gf_select_ns, "ns", 1},
      {"security.verify_cold_ns", l.security_verify_cold_ns, "ns", 1},
      {"security.verify_warm_ns", l.security_verify_warm_ns, "ns", 1},
      {"traffic.tick_us", l.traffic_tick_us, "us", 1},
      {"phy.mac_transmitted", n(c.mac_transmitted), "count", 1},
      {"phy.mac_backoff_retries", n(c.mac_backoff_retries), "count", 1},
      {"phy.mac_queue_overflow", n(c.mac_queue_overflow), "count", 1},
      {"phy.dcc_gated_drops", n(c.dcc_gated_drops), "count", 1},
      {"attack.frames_flooded", n(c.frames_flooded), "count", 1},
      {"attack.beacons_replayed", n(c.beacons_replayed), "count", 1},
      {"scenario.run_s_p50", percentile(observed.run_s, 0.5), "s", nr},
      {"scenario.run_s_p90", percentile(observed.run_s, 0.9), "s", nr},
      {"sim.pool_efficiency", serial_s / (threads * wall_s), "1", untraced.size()},
      {"scenario.receptions_per_delivery", n(c.receptions) / std::max(n(c.deliveries), 1.0),
       "1", 1},
      {"scenario.unattributed_s", wall_s - attributed_s, "s", untraced.size()},
      {"trace.overhead_s", median(traced) - wall_s, "s", traced.size()},
  };
  return m;
}

int run(const Args& args) {
  const Inputs in = parse_inputs(args.inputs);
  const bool trace = args.mode == "trace";
  const auto started = Clock::now();
  Ledger ledger;
  Tracer tracer{trace};
  Outputs outputs;
  Execution observed;
  Measurement m;
  {
    const Scope root{&tracer, "benchmark", 0, 0};
    // The observe pass fills caches and the allocator before anything is
    // timed, and reads the exact layer counters. Serial when traced, so its
    // per-run spans and wall times are uncontended.
    observed = observe(in, trace ? 1 : in.threads, &tracer, root.id(), /*run_id=*/1);
    ledger.check("observe", observed, outputs);
    m = trace ? measure_per_layer(in, args.seconds, observed, ledger, outputs, tracer, root.id())
              : measure_end_to_end(in, args.seconds, ledger, outputs);
  }

  std::optional<Outputs> ref;
  if (!args.reference_inputs.empty()) {
    if (args.reference_inputs == args.inputs) {
      ref = outputs;
    } else {
      ref = reference_outputs(parse_inputs(args.reference_inputs), ledger);
    }
  }
  if (trace && !args.trace_out.empty() && !tracer.write(args.trace_out)) {
    ledger.failures.push_back("cannot write trace file " + args.trace_out);
  }
  std::fprintf(stderr, "perfbench: %s finished in %.1f s\n", args.mode.c_str(),
               seconds_since(started));
  print_report(args, in, ledger, outputs, ref ? &*ref : nullptr, m);
  return ledger.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgr_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgr_perfbench: %s\n", e.what());
    return 2;
  }
}
