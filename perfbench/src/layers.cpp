#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "vgr/gn/greedy_forwarder.hpp"
#include "vgr/gn/location_table.hpp"
#include "vgr/gn/router.hpp"
#include "vgr/phy/medium.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/security/secured_message.hpp"
#include "vgr/sim/event_queue.hpp"
#include "vgr/traffic/traffic_sim.hpp"

namespace perfbench {
namespace {

using namespace vgr;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double per(double total, std::uint64_t n) { return n > 0 ? total / static_cast<double>(n) : 0.0; }

/// Keeps a computed value alive so the compiler cannot drop the loop that
/// produced it.
volatile double g_sink = 0.0;

traffic::TrafficSimulation::Config traffic_config(const scenario::HighwayConfig& c) {
  traffic::TrafficSimulation::Config t;
  t.entry_spacing_m = c.entry_spacing_m;
  t.prefill_spacing_m = c.prefill_spacing_m;
  return t;
}

/// The workload's road at t = 0: every prefilled vehicle's position and,
/// for each vehicle, the vehicles within the radio range of its transmitter.
struct Geometry {
  std::vector<geo::Position> pos;
  std::vector<std::vector<std::uint32_t>> receivers;
  double range_m{0.0};
  std::uint64_t links{0};  ///< sum of receiver-list sizes
};

Geometry make_geometry(const scenario::HighwayConfig& c) {
  const traffic::RoadSegment road{c.road_length_m, c.lanes_per_direction, c.two_way};
  traffic::TrafficSimulation sim{road, traffic_config(c)};
  sim.prefill();
  Geometry g;
  for (const traffic::Vehicle* v : sim.vehicles()) g.pos.push_back(v->position(road));
  g.range_m = c.resolved_vehicle_range();
  g.receivers.resize(g.pos.size());
  for (std::uint32_t s = 0; s < g.pos.size(); ++s) {
    for (std::uint32_t r = 0; r < g.pos.size(); ++r) {
      if (r != s && geo::distance(g.pos[s], g.pos[r]) <= g.range_m) {
        g.receivers[s].push_back(r);
      }
    }
    g.links += g.receivers[s].size();
  }
  return g;
}

net::GnAddress vehicle_address(std::uint32_t i) {
  return net::GnAddress{net::GnAddress::StationType::kPassengerCar,
                        net::MacAddress{0x0200'0000'0000ULL | (i + 1)}};
}

net::LongPositionVector pv_at(std::uint32_t i, geo::Position p, sim::TimePoint t) {
  return net::LongPositionVector{vehicle_address(i), t, p, 30.0, 0.0};
}

/// A signed single-hop beacon, built exactly as Router::send_beacon_now does.
security::SecuredMessagePtr signed_beacon(const net::LongPositionVector& pv,
                                          sim::Duration lifetime,
                                          const security::Signer& signer) {
  net::Packet p;
  p.basic.remaining_hop_limit = 1;
  p.basic.lifetime = lifetime;
  p.common.type = net::CommonHeader::HeaderType::kBeacon;
  p.common.max_hop_limit = 1;
  p.extended = net::BeaconHeader{pv};
  return security::share(security::SecuredMessage::sign(p, signer));
}

/// Beacon rounds that together make about one scenario run's receptions
/// (every vehicle beacons once per round), bounded to keep the replay short.
std::uint64_t rounds_for(const Geometry& g, const Counts& per_run) {
  if (g.links == 0) return 1;
  const double r = std::round(static_cast<double>(per_run.receptions) /
                              static_cast<double>(g.links));
  return static_cast<std::uint64_t>(std::clamp(r, 1.0, 10.0));
}

/// phy + sim: one run's worth of frames through a Medium whose nodes only
/// count receptions, each transmission fired from the replay's EventQueue.
void replay_medium(const scenario::HighwayConfig& c, const Geometry& g, const Counts& per_run,
                   LayerCosts& out) {
  sim::EventQueue events;
  phy::Medium medium{events, c.tech};
  medium.set_index_mode(phy::IndexMode::kExplicit);  // positions are static
  if (c.mac.enabled) medium.set_airtime_overhead_bytes(c.mac.airtime_overhead_bytes);
  std::uint64_t receptions = 0;
  security::CertificateAuthority ca;
  std::vector<phy::Frame> frames;
  for (std::uint32_t i = 0; i < g.pos.size(); ++i) {
    phy::Medium::NodeConfig node;
    node.mac = vehicle_address(i).mac();
    node.position = [p = g.pos[i]] { return p; };
    node.tx_range_m = g.range_m;
    medium.add_node(std::move(node), [&receptions](const phy::Frame&, phy::RadioId) {
      ++receptions;
    });
    const security::Signer signer{ca.enroll(vehicle_address(i))};
    frames.push_back(phy::Frame{vehicle_address(i).mac(), net::MacAddress::broadcast(),
                                signed_beacon(pv_at(i, g.pos[i], {}), c.beacon_interval, signer),
                                {}});
  }

  // Each transmission schedules the next, so the queue holds what a
  // scenario's does: the in-flight deliveries plus one pending send.
  struct Sender {
    sim::EventQueue* events;
    phy::Medium* medium;
    const std::vector<phy::Frame>* frames;
    sim::Rng rng;
    std::uint64_t left;
    sim::Duration gap;
    void fire() {
      const auto s = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frames->size()) - 1));
      medium->transmit(phy::RadioId{s + 1}, (*frames)[s]);
      if (--left > 0) events->schedule_in(gap, [this] { fire(); });
    }
  };
  const std::uint64_t n_frames = std::max<std::uint64_t>(per_run.frames_sent, 1);
  Sender sender{&events, &medium, &frames, sim::Rng{c.seed}, n_frames,
                sim::Duration::nanos(std::max<std::int64_t>(
                    c.sim_duration.count() / static_cast<std::int64_t>(n_frames), 1))};
  events.schedule_in(sim::Duration::zero(), [&sender] { sender.fire(); });

  const auto t0 = Clock::now();
  events.run_until(sim::TimePoint::at(c.sim_duration + sim::Duration::seconds(1.0)));
  const double ns = ns_since(t0);
  out.phy_ns_per_reception = per(ns, receptions);
  out.sim_events_fired = events.fired_count();
  out.sim_ns_per_event = per(ns, out.sim_events_fired);
}

/// gn: beacon frames ingested by a router per vehicle, in the order a
/// transmission's receivers get them. The routers never beacon themselves.
void replay_ingest(const scenario::HighwayConfig& c, const Geometry& g, std::uint64_t rounds,
                   LayerCosts& out) {
  sim::EventQueue events;
  phy::Medium medium{events, c.tech};
  medium.set_index_mode(phy::IndexMode::kExplicit);
  security::CertificateAuthority ca;
  gn::RouterConfig rc = gn::RouterConfig::for_technology(c.tech);
  rc.locte_ttl = c.locte_ttl;
  rc.beacon_interval = sim::Duration::seconds(1e6);
  rc.cbf_dist_max_m = g.range_m;
  rc.default_hop_limit = c.hop_limit;

  const std::size_t n = g.pos.size();
  std::vector<security::Signer> signers;
  std::vector<std::unique_ptr<gn::StaticMobility>> mobility;
  std::vector<std::unique_ptr<gn::Router>> routers;
  for (std::uint32_t i = 0; i < n; ++i) {
    signers.emplace_back(ca.enroll(vehicle_address(i)));
    mobility.push_back(std::make_unique<gn::StaticMobility>(g.pos[i]));
    routers.push_back(std::make_unique<gn::Router>(events, medium, signers.back(),
                                                   ca.trust_store(), *mobility.back(), rc,
                                                   g.range_m, sim::Rng{c.seed + i}));
    routers.back()->start();
  }

  std::vector<std::vector<phy::Frame>> frames(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const sim::TimePoint t = sim::TimePoint::at(c.beacon_interval * static_cast<double>(r + 1));
    for (std::uint32_t s = 0; s < n; ++s) {
      frames[r].push_back(phy::Frame{vehicle_address(s).mac(), net::MacAddress::broadcast(),
                                     signed_beacon(pv_at(s, g.pos[s], t), c.beacon_interval,
                                                   signers[s]),
                                     {}});
    }
  }

  double ns = 0.0;
  std::uint64_t ingests = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const sim::TimePoint t = sim::TimePoint::at(c.beacon_interval * static_cast<double>(r + 1));
    events.schedule_at(t, [&, r] {
      const auto t0 = Clock::now();
      for (std::uint32_t s = 0; s < n; ++s) {
        for (const std::uint32_t rx : g.receivers[s]) routers[rx]->ingest(frames[r][s]);
      }
      ns += ns_since(t0);
      ingests += g.links;
    });
  }
  events.run_until(sim::TimePoint::at(c.beacon_interval * static_cast<double>(rounds + 1)));
  out.gn_ns_per_ingest = per(ns, ingests);
}

/// gn: LocationTable::update as the receptions of `rounds` beacon rounds
/// drive it — receiver-major across one table per vehicle (cold) — and the
/// same number of updates into a single table (warm).
void replay_location_table(const scenario::HighwayConfig& c, const Geometry& g,
                           std::uint64_t rounds, LayerCosts& out) {
  const std::size_t n = g.pos.size();
  std::vector<gn::LocationTable> tables(n, gn::LocationTable{c.locte_ttl});
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const sim::TimePoint t = sim::TimePoint::at(c.beacon_interval * static_cast<double>(r + 1));
    for (std::uint32_t s = 0; s < n; ++s) {
      const net::LongPositionVector pv = pv_at(s, g.pos[s], t);
      for (const std::uint32_t rx : g.receivers[s]) (void)tables[rx].update(pv, t, true);
    }
  }
  const double cold_ns = ns_since(t0);
  const std::uint64_t updates = rounds * g.links;
  out.gn_loct_update_cold_ns = per(cold_ns, updates);

  // The warm table holds the neighbours of the middle vehicle and takes
  // their updates round-robin, each pass with a newer timestamp.
  const std::uint32_t mid = static_cast<std::uint32_t>(n / 2);
  const std::vector<std::uint32_t>& nbrs = g.receivers[mid];
  if (nbrs.empty()) return;
  gn::LocationTable table{c.locte_ttl};
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < updates;) {
    const sim::TimePoint t = sim::TimePoint::at(sim::Duration::nanos(
        static_cast<std::int64_t>(i / nbrs.size()) + 1));
    for (std::size_t k = 0; k < nbrs.size() && i < updates; ++k, ++i) {
      (void)table.update(pv_at(nbrs[k], g.pos[nbrs[k]], t), t, true);
    }
  }
  out.gn_loct_update_warm_ns = per(ns_since(t1), updates);
}

/// gn: greedy next-hop selection toward the far destination, from a
/// vehicle a quarter of the way along the road holding its neighbours.
void replay_gf_select(const scenario::HighwayConfig& c, const Geometry& g, LayerCosts& out) {
  std::uint32_t self = 0;
  for (std::uint32_t i = 0; i < g.pos.size(); ++i) {
    if (std::abs(g.pos[i].x - c.road_length_m / 4.0) <
        std::abs(g.pos[self].x - c.road_length_m / 4.0)) {
      self = i;
    }
  }
  const sim::TimePoint t = sim::TimePoint::at(sim::Duration::seconds(1.0));
  gn::LocationTable table{c.locte_ttl};
  for (const std::uint32_t r : g.receivers[self]) {
    (void)table.update(pv_at(r, g.pos[r], t), t, true);
  }
  const geo::Position destination{c.road_length_m + 20.0, 2.5};
  constexpr std::uint64_t kCalls = 100'000;
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const auto sel = gn::select_next_hop(table, vehicle_address(self), g.pos[self], destination,
                                         t, gn::GfPolicy{});
    if (sel) acc += sel->distance_to_destination_m;
  }
  out.gn_gf_select_ns = per(ns_since(t0), kCalls);
  g_sink = acc;
}

/// security: verification of fresh beacons from every vehicle once the
/// certificates are known (memo miss), then of the same beacons again
/// (memo hit) — the first receiver of a frame and its co-receivers.
void replay_verify(const scenario::HighwayConfig& c, const Geometry& g, LayerCosts& out) {
  constexpr int kColdRounds = 3;
  constexpr int kWarmPasses = 10;
  const std::size_t n = g.pos.size();
  security::CertificateAuthority ca;
  std::vector<security::Signer> signers;
  for (std::uint32_t i = 0; i < n; ++i) signers.emplace_back(ca.enroll(vehicle_address(i)));
  const std::shared_ptr<const security::TrustStore> trust = ca.trust_store();

  auto round = [&](int r) {
    const sim::TimePoint t = sim::TimePoint::at(sim::Duration::seconds(r + 1.0));
    std::vector<security::SecuredMessagePtr> msgs;
    for (std::uint32_t i = 0; i < n; ++i) {
      msgs.push_back(signed_beacon(pv_at(i, g.pos[i], t), c.beacon_interval, signers[i]));
    }
    return msgs;
  };
  std::uint64_t ok = 0;
  for (const auto& m : round(0)) ok += m->verify(*trust) ? 1 : 0;  // certificate cache

  double cold_ns = 0.0;
  std::vector<security::SecuredMessagePtr> last;
  for (int r = 1; r <= kColdRounds; ++r) {
    last = round(r);
    const auto t0 = Clock::now();
    for (const auto& m : last) ok += m->verify(*trust) ? 1 : 0;
    cold_ns += ns_since(t0);
  }
  const auto t1 = Clock::now();
  for (int p = 0; p < kWarmPasses; ++p) {
    for (const auto& m : last) ok += m->verify(*trust) ? 1 : 0;
  }
  out.security_verify_warm_ns = per(ns_since(t1), kWarmPasses * n);
  out.security_verify_cold_ns = per(cold_ns, kColdRounds * n);
  g_sink = static_cast<double>(ok);
}

/// traffic: one scenario run's IDM ticks on the workload's road.
void replay_traffic(const scenario::HighwayConfig& c, LayerCosts& out) {
  const traffic::RoadSegment road{c.road_length_m, c.lanes_per_direction, c.two_way};
  const traffic::TrafficSimulation::Config tc = traffic_config(c);
  traffic::TrafficSimulation sim{road, tc};
  sim.prefill();
  const auto ticks = static_cast<std::uint64_t>(
      std::max(1.0, std::round(c.sim_duration.to_seconds() / tc.tick_seconds)));
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ticks; ++i) sim.tick();
  out.traffic_tick_us = per(ns_since(t0), ticks) / 1000.0;
  out.traffic_ticks = ticks;
}

}  // namespace

LayerCosts measure_layers(const Inputs& in, const Counts& per_run, Tracer* tracer,
                          Tracer::SpanId parent) {
  const scenario::HighwayConfig& c = in.config;
  LayerCosts out;
  const Geometry g = make_geometry(c);
  const std::uint64_t rounds = rounds_for(g, per_run);
  {
    const Scope span{tracer, "phy.medium_replay", parent, 0};
    replay_medium(c, g, per_run, out);
  }
  {
    const Scope span{tracer, "gn.ingest_replay", parent, 0};
    replay_ingest(c, g, rounds, out);
  }
  {
    const Scope span{tracer, "gn.location_table_replay", parent, 0};
    replay_location_table(c, g, rounds, out);
  }
  {
    const Scope span{tracer, "gn.gf_select_replay", parent, 0};
    replay_gf_select(c, g, out);
  }
  {
    const Scope span{tracer, "security.verify_replay", parent, 0};
    replay_verify(c, g, out);
  }
  {
    const Scope span{tracer, "traffic.tick_replay", parent, 0};
    replay_traffic(c, out);
  }
  return out;
}

}  // namespace perfbench
