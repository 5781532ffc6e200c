#include "workload.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace perfbench {
namespace {

using vgr::scenario::AttackKind;
using vgr::scenario::HighwayConfig;
using vgr::scenario::HighwayScenario;

/// Per-run wall-clock watchdog. A run that trips it stops early, reports
/// timed_out and counts as failed instead of hanging the benchmark; no
/// workload comes near it on a healthy build.
constexpr double kWatchdogSeconds = 60.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string literal(std::uint64_t v) { return std::to_string(v); }

std::string literal(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_double(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const double d = std::stod(v, &used);
  if (used != v.size() || !std::isfinite(d)) {
    throw std::invalid_argument("bad number for " + key + ": " + v);
  }
  return d;
}

std::uint64_t parse_uint(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long u = std::stoull(v, &used);
  if (used != v.size() || v.front() == '-') {
    throw std::invalid_argument("bad integer for " + key + ": " + v);
  }
  return u;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "0") return false;
  if (v == "1") return true;
  throw std::invalid_argument("bad flag for " + key + " (want 0 or 1): " + v);
}

void add_counts(Outputs& out, const Counts& c) {
  out["frames_sent"] = literal(c.frames_sent);
  out["receptions"] = literal(c.receptions);
  out["index_rebuilds"] = literal(c.index_rebuilds);
  out["stations_created"] = literal(c.stations_created);
  out["deliveries"] = literal(c.deliveries);
  out["beacons_replayed"] = literal(c.beacons_replayed);
  out["frames_flooded"] = literal(c.frames_flooded);
  out["mac_transmitted"] = literal(c.mac_transmitted);
  out["mac_backoff_retries"] = literal(c.mac_backoff_retries);
  out["mac_queue_overflow"] = literal(c.mac_queue_overflow);
  out["dcc_gated_drops"] = literal(c.dcc_gated_drops);
}

void add_medium(Counts& c, const HighwayScenario& s) {
  c.frames_sent += s.medium().frames_sent();
  c.receptions += s.medium().frames_delivered();
  c.index_rebuilds += s.medium().index_rebuilds();
  c.stations_created += s.stations_created();
}

void add_mac(Counts& c, const vgr::phy::MacStats& mac) {
  c.mac_transmitted += mac.transmitted;
  c.mac_backoff_retries += mac.backoff_retries;
  c.mac_queue_overflow += mac.queue_overflow_drops;
  c.dcc_gated_drops += mac.dcc_gated_drops;
}

std::uint64_t received(const vgr::scenario::InterAreaResult& r) {
  std::uint64_t n = 0;
  for (const auto& p : r.packets) n += p.received ? 1 : 0;
  return n;
}

/// Runs one scenario of a single-run workload and reads everything it
/// exposes: result outputs plus the medium's counters.
Execution run_single(const HighwayConfig& config, Experiment experiment, Tracer* tracer,
                     Tracer::SpanId parent, std::uint32_t run_id) {
  Execution ex;
  std::optional<HighwayScenario> scenario;
  {
    const Scope span{tracer, "scenario.setup", parent, run_id};
    scenario.emplace(config);
  }
  Counts& c = ex.counts;
  if (experiment == Experiment::kIntra) {
    vgr::scenario::IntraAreaResult r;
    {
      const Scope span{tracer, "scenario.run_intra_area", parent, run_id};
      r = scenario->run_intra_area();
    }
    std::uint64_t reached = 0, audience = 0;
    for (const auto& f : r.floods) {
      reached += f.reached;
      audience += f.total;
    }
    ex.outputs["reception"] = literal(r.overall_reception());
    ex.outputs["floods"] = literal(static_cast<std::uint64_t>(r.floods.size()));
    ex.outputs["audience"] = literal(audience);
    c.deliveries = reached;
    c.frames_flooded = r.frames_flooded;
    add_mac(c, r.mac);
    ex.timed_out = r.timed_out;
  } else {
    vgr::scenario::InterAreaResult r;
    {
      const Scope span{tracer, "scenario.run_inter_area", parent, run_id};
      r = scenario->run_inter_area();
    }
    ex.reception = r.overall_reception();
    ex.packets = r.packets.size();
    ex.outputs["reception"] = literal(ex.reception);
    ex.outputs["packets"] = literal(ex.packets);
    ex.outputs["peak_cbr"] = literal(r.peak_cbr);
    c.deliveries = received(r);
    c.beacons_replayed = r.beacons_replayed;
    c.frames_flooded = r.frames_flooded;
    add_mac(c, r.mac);
    ex.timed_out = r.timed_out;
  }
  add_medium(c, *scenario);
  {
    const Scope span{tracer, "scenario.teardown", parent, run_id};
    scenario.reset();
  }
  ex.deliveries = c.deliveries;
  add_counts(ex.outputs, c);
  return ex;
}

/// The A/B arm configs exactly as run_inter_area_ab builds them.
HighwayConfig ab_arm(const Inputs& in, std::uint64_t run, bool attacked) {
  HighwayConfig c = in.config;
  c.seed = in.first_run + run + 1;
  if (!attacked) {
    c.attack = AttackKind::kNone;
  } else if (c.attack == AttackKind::kNone) {
    c.attack = AttackKind::kInterArea;
  }
  return c;
}

vgr::scenario::Fidelity ab_fidelity(const Inputs& in) {
  vgr::scenario::Fidelity f;
  f.runs = in.runs;
  f.first_run = in.first_run;
  f.threads = in.threads;
  f.run_wall_budget_s = kWatchdogSeconds;
  return f;
}

}  // namespace

std::uint64_t Inputs::scenario_runs() const {
  return experiment == Experiment::kInterAb ? 2 * runs : 1;
}

double Inputs::simulated_seconds() const {
  return static_cast<double>(scenario_runs()) * config.sim_duration.to_seconds();
}

Inputs parse_inputs(const std::string& spec) {
  Inputs in;
  in.config.run_wall_budget_s = kWatchdogSeconds;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      throw std::invalid_argument("bad input item: " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string v = item.substr(eq + 1);
    HighwayConfig& c = in.config;
    if (key == "experiment") {
      if (v == "intra") {
        in.experiment = Experiment::kIntra;
      } else if (v == "inter") {
        in.experiment = Experiment::kInter;
      } else if (v == "inter_ab") {
        in.experiment = Experiment::kInterAb;
      } else {
        throw std::invalid_argument("unknown experiment: " + v);
      }
    } else if (key == "attack") {
      if (v == "none") {
        c.attack = AttackKind::kNone;
      } else if (v == "inter") {
        c.attack = AttackKind::kInterArea;
      } else if (v == "congestion") {
        c.attack = AttackKind::kCongestionFlood;
      } else {
        throw std::invalid_argument("unknown attack: " + v);
      }
    } else if (key == "seed") {
      c.seed = parse_uint(key, v);
    } else if (key == "runs") {
      in.runs = parse_uint(key, v);
      if (in.runs == 0) throw std::invalid_argument("runs must be positive");
    } else if (key == "first_run") {
      in.first_run = parse_uint(key, v);
    } else if (key == "threads") {
      in.threads = parse_uint(key, v);
      if (in.threads == 0) throw std::invalid_argument("threads must be positive");
    } else if (key == "spacing_m") {
      c.prefill_spacing_m = c.entry_spacing_m = parse_double(key, v);
      if (c.prefill_spacing_m <= 0.0) throw std::invalid_argument("spacing_m must be positive");
    } else if (key == "sim_s") {
      c.sim_duration = vgr::sim::Duration::seconds(parse_double(key, v));
    } else if (key == "beacon_s") {
      c.beacon_interval = vgr::sim::Duration::seconds(parse_double(key, v));
    } else if (key == "packet_s") {
      c.packet_interval = vgr::sim::Duration::seconds(parse_double(key, v));
    } else if (key == "flood_hz") {
      c.flood_rate_hz = parse_double(key, v);
    } else if (key == "mac") {
      c.mac.enabled = parse_bool(key, v);
    } else if (key == "dcc") {
      c.dcc.enabled = parse_bool(key, v);
    } else if (key == "queue_limit") {
      c.mac.queue_limit = parse_uint(key, v);
    } else {
      throw std::invalid_argument("unknown input key: " + key);
    }
  }
  return in;
}

std::vector<std::string> merge_outputs(Outputs& into, const Outputs& from) {
  std::vector<std::string> conflicts;
  for (const auto& [key, value] : from) {
    const auto [it, inserted] = into.emplace(key, value);
    if (!inserted && it->second != value) conflicts.push_back(key);
  }
  return conflicts;
}

Execution run_workload(const Inputs& in, Tracer* tracer, Tracer::SpanId parent,
                       std::uint32_t run_id) {
  if (in.experiment != Experiment::kInterAb) {
    return run_single(in.config, in.experiment, tracer, parent, run_id);
  }
  std::optional<vgr::scenario::AbResult> ab;
  {
    const Scope span{tracer, "scenario.run_inter_area_ab", parent, run_id};
    ab.emplace(vgr::scenario::run_inter_area_ab(in.config, ab_fidelity(in)));
  }
  const vgr::scenario::AbResult& r = *ab;
  Execution ex;
  ex.outputs["gamma"] = literal(r.attack_rate);
  ex.outputs["baseline_reception"] = literal(r.baseline_reception);
  ex.outputs["attacked_reception"] = literal(r.attacked_reception);
  ex.outputs["reception_base_hits"] = literal(r.reception_base_hits);
  ex.outputs["reception_base_trials"] = literal(r.reception_base_trials);
  ex.outputs["reception_atk_hits"] = literal(r.reception_atk_hits);
  ex.outputs["reception_atk_trials"] = literal(r.reception_atk_trials);
  ex.deliveries =
      static_cast<std::uint64_t>(std::llround(r.reception_base_hits + r.reception_atk_hits));
  ex.timed_out = r.timed_out_runs != 0;
  return ex;
}

Execution observe(const Inputs& in, std::size_t threads, Tracer* tracer, Tracer::SpanId parent,
                  std::uint32_t run_id) {
  if (in.experiment != Experiment::kInterAb) {
    const auto t0 = std::chrono::steady_clock::now();
    const Scope span{tracer, "scenario.run", parent, run_id};
    Execution ex = run_single(in.config, in.experiment, tracer, span.id(), run_id);
    ex.run_s.push_back(seconds_since(t0));
    return ex;
  }

  // One task per (seed, arm); the pool runs them in any order, the merge
  // below walks them in seed order so the float sums repeat the harness's.
  const std::size_t tasks = static_cast<std::size_t>(in.scenario_runs());
  std::vector<std::optional<Execution>> results(tasks);
  std::vector<double> task_s(tasks, 0.0);
  const bool traced = threads == 1 && tracer != nullptr;
  {
    vgr::sim::ThreadPool pool{threads};
    pool.parallel_for(tasks, [&](std::size_t i) {
      const auto t0 = std::chrono::steady_clock::now();
      const HighwayConfig c = ab_arm(in, i / 2, i % 2 == 1);
      Tracer* t = traced ? tracer : nullptr;
      const Scope span{t, "scenario.run", parent, run_id};
      results[i].emplace(run_single(c, Experiment::kInter, t, span.id(), run_id));
      task_s[i] = seconds_since(t0);
    });
  }

  Execution ex;
  ex.run_s = task_s;
  Counts& c = ex.counts;
  double base_hits = 0.0, base_total = 0.0, atk_hits = 0.0, atk_total = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) {
    const Execution& r = *results[i];
    const Counts& rc = r.counts;
    c.frames_sent += rc.frames_sent;
    c.receptions += rc.receptions;
    c.index_rebuilds += rc.index_rebuilds;
    c.stations_created += rc.stations_created;
    c.deliveries += rc.deliveries;
    c.beacons_replayed += rc.beacons_replayed;
    c.frames_flooded += rc.frames_flooded;
    c.mac_transmitted += rc.mac_transmitted;
    c.mac_backoff_retries += rc.mac_backoff_retries;
    c.mac_queue_overflow += rc.mac_queue_overflow;
    c.dcc_gated_drops += rc.dcc_gated_drops;
    ex.timed_out = ex.timed_out || r.timed_out;
    // Same expression and order as run_inter_area_ab's accumulators.
    const auto packets = static_cast<double>(r.packets);
    const double hits = r.reception * packets;
    if (i % 2 == 0) {
      base_hits += hits;
      base_total += packets;
    } else {
      atk_hits += hits;
      atk_total += packets;
    }
  }
  ex.deliveries = c.deliveries;
  ex.outputs["reception_base_hits"] = literal(base_hits);
  ex.outputs["reception_base_trials"] = literal(base_total);
  ex.outputs["reception_atk_hits"] = literal(atk_hits);
  ex.outputs["reception_atk_trials"] = literal(atk_total);
  add_counts(ex.outputs, c);
  return ex;
}

double time_setup(const Inputs& in) {
  HighwayConfig c = in.experiment == Experiment::kInterAb ? ab_arm(in, 0, true) : in.config;
  c.sim_duration = vgr::sim::Duration::zero();
  const auto t0 = std::chrono::steady_clock::now();
  {
    HighwayScenario scenario{c};
    if (in.experiment == Experiment::kIntra) {
      (void)scenario.run_intra_area();
    } else {
      (void)scenario.run_inter_area();
    }
  }
  return seconds_since(t0);
}

}  // namespace perfbench
