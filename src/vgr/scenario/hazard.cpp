#include "vgr/scenario/hazard.hpp"

#include <algorithm>

#include "vgr/gn/config.hpp"

namespace vgr::scenario {
namespace {

constexpr std::uint64_t kReporterMac = 0x0200'0000'F100ULL;
constexpr std::uint64_t kGateMac = 0x0200'0000'F200ULL;

}  // namespace

HazardScenario::HazardScenario(HazardConfig config)
    : config_{config},
      vehicle_range_m_{config.vehicle_range_m > 0.0
                           ? config.vehicle_range_m
                           : phy::range_table(config.tech).nlos_median_m},
      master_rng_{config.seed},
      road_{config.road_length_m, config.lanes_per_direction, /*two_way=*/true} {
  master_rng_.fork();  // discarded medium-stream draw: every later fork depends on it
  medium_ = std::make_unique<phy::Medium>(events_, config_.tech);
  // Positions move only on the traffic tick; rebuild the radio index once
  // per tick instead of per event (see HighwayScenario for the rationale).
  medium_->set_index_mode(phy::IndexMode::kExplicit);

  traffic::TrafficSimulation::Config tcfg;
  tcfg.entry_spacing_m = 30.0;
  if (config_.prefill_spacing_m >= 0.0) {
    tcfg.prefill_spacing_m = config_.prefill_spacing_m;
  } else {
    // Case 1 studies a filling road; case 2 an already-populated one.
    tcfg.prefill_spacing_m =
        config_.mode == HazardConfig::Case::kGreedyForwarding ? 0.0 : 60.0;
  }
  traffic_ = std::make_unique<traffic::TrafficSimulation>(road_, tcfg);
  traffic_->set_on_spawn([this](traffic::Vehicle& v) { spawn_station(v); });
  traffic_->set_on_exit([this](traffic::Vehicle& v) { destroy_station(v); });
  traffic_->set_on_tick([this] { medium_->invalidate_index(); });
}

HazardScenario::~HazardScenario() = default;

double HazardScenario::resolved_attack_range() const {
  if (config_.attack_range_m > 0.0) return config_.attack_range_m;
  return config_.mode == HazardConfig::Case::kGreedyForwarding
             ? phy::range_table(config_.tech).nlos_median_m
             : 500.0;
}

void HazardScenario::spawn_station(traffic::Vehicle& v) {
  const net::MacAddress mac{0x0200'0000'0000ULL | v.id()};
  const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar, mac};
  gn::RouterConfig rc = gn::RouterConfig::for_technology(config_.tech);
  rc.cbf_dist_max_m = vehicle_range_m_;

  Station st;
  st.mobility = std::make_unique<VehicleMobility>(v, road_);
  st.router = std::make_unique<gn::Router>(events_, *medium_, security::Signer{ca_.enroll(addr)},
                                           ca_.trust_store(), *st.mobility, rc, vehicle_range_m_,
                                           master_rng_.fork());
  st.router->start();
  stations_.emplace(v.id(), std::move(st));
}

void HazardScenario::destroy_station(traffic::Vehicle& v) {
  const auto it = stations_.find(v.id());
  if (it == stations_.end()) return;
  it->second.router->shutdown();
  stations_.erase(it);
}

Station HazardScenario::make_static_station(net::MacAddress mac, geo::Position pos) {
  const net::GnAddress addr{net::GnAddress::StationType::kRoadSideUnit, mac};
  gn::RouterConfig rc = gn::RouterConfig::for_technology(config_.tech);
  rc.cbf_dist_max_m = vehicle_range_m_;
  Station st;
  st.mobility = std::make_unique<gn::StaticMobility>(pos);
  st.router = std::make_unique<gn::Router>(events_, *medium_, security::Signer{ca_.enroll(addr)},
                                           ca_.trust_store(), *st.mobility, rc, vehicle_range_m_,
                                           master_rng_.fork());
  st.router->start();
  return st;
}

void HazardScenario::send_notification() {
  // Notify the entrance: GF toward a small area at the gate (case 1) or a
  // CBF flood over the whole segment (case 2). Repeats until notified.
  if (config_.mode == HazardConfig::Case::kGreedyForwarding) {
    const geo::GeoArea gate_area = geo::GeoArea::circle({-10.0, 2.5}, 40.0);
    reporter_.router->send_geo_broadcast(gate_area, net::Bytes{0x4A});
  } else {
    const geo::GeoArea whole_road = geo::GeoArea::rectangle(
        {config_.road_length_m / 2.0, 0.0}, config_.road_length_m / 2.0 + 60.0, 60.0);
    reporter_.router->send_geo_broadcast(whole_road, net::Bytes{0x4A});
  }
  if (!result_.entrance_notified &&
      events_.now() + config_.notify_interval <= sim::TimePoint::at(config_.sim_duration)) {
    events_.schedule_in(config_.notify_interval, [this] { send_notification(); });
  }
}

HazardResult HazardScenario::run() {
  // Reporter: the heading vehicle stopped right at the hazard.
  reporter_ = make_static_station(net::MacAddress{kReporterMac},
                                  {config_.hazard_x_m - 10.0, road_.lane_center_y(
                                                                  traffic::Direction::kEastbound, 0)});
  // Gate: roadside unit at the eastbound entrance; closes entry on notice.
  gate_ = make_static_station(net::MacAddress{kGateMac}, {0.0, 2.5});
  gate_.router->set_delivery_handler([this](const gn::Router::Delivery&) {
    if (result_.entrance_notified) return;
    result_.entrance_notified = true;
    result_.notified_at_s = events_.now().to_seconds();
    traffic_->set_entry_enabled(traffic::Direction::kEastbound, false);
  });

  if (config_.attacked) {
    const geo::Position spot{config_.road_length_m / 2.0, 12.5};
    if (config_.mode == HazardConfig::Case::kGreedyForwarding) {
      interceptor_ = std::make_unique<attack::InterAreaInterceptor>(events_, *medium_, spot,
                                                                    resolved_attack_range());
    } else {
      blocker_ = std::make_unique<attack::IntraAreaBlocker>(events_, *medium_, spot,
                                                            resolved_attack_range());
    }
  }

  traffic_->prefill();
  traffic_->run_on(events_, sim::TimePoint::at(config_.sim_duration));

  // Hazard activation.
  events_.schedule_at(sim::TimePoint::at(config_.hazard_time), [this] {
    traffic_->set_hazard(traffic::Direction::kEastbound, config_.hazard_x_m);
    send_notification();
  });

  // Sample the eastbound vehicle count once per second.
  const auto sample = [this](auto&& self) -> void {
    const double t = events_.now().to_seconds();
    const double n = static_cast<double>(traffic_->count(traffic::Direction::kEastbound));
    result_.vehicles_over_time.emplace_back(t, n);
    result_.peak_vehicle_count = std::max(result_.peak_vehicle_count, n);
    result_.final_vehicle_count = n;
    if (events_.now() + sim::Duration::seconds(1.0) <= sim::TimePoint::at(config_.sim_duration)) {
      events_.schedule_in(sim::Duration::seconds(1.0), [this, self] { self(self); });
    }
  };
  sample(sample);

  events_.run_until(sim::TimePoint::at(config_.sim_duration));
  return result_;
}

}  // namespace vgr::scenario
