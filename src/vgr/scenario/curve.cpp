#include "vgr/scenario/curve.hpp"

#include <algorithm>
#include <cmath>

namespace vgr::scenario {
namespace {

/// Minimal kinematic actor for the scripted scenario: 1-D position with a
/// commanded deceleration and a floor speed.
struct Actor {
  double x;
  double speed;
  double direction;  // +1 east, -1 west
  double decel;
  double floor;

  void step(double dt) {
    speed = std::max(floor, speed - decel * dt);
    x += direction * speed * dt;
  }
};

class CurveMobility final : public gn::MobilityProvider {
 public:
  explicit CurveMobility(const Actor& actor, double y) : actor_{&actor}, y_{y} {}
  [[nodiscard]] geo::Position position() const override { return {actor_->x, y_}; }
  [[nodiscard]] double speed_mps() const override { return actor_->speed; }
  [[nodiscard]] double heading_rad() const override {
    return actor_->direction > 0 ? 0.0 : M_PI;
  }

 private:
  const Actor* actor_;
  double y_;
};

}  // namespace

CurveResult run_curve_scenario(const CurveConfig& config) {
  sim::Rng rng{config.seed};
  sim::EventQueue events;
  rng.fork();  // discarded medium-stream draw: every later fork depends on it
  phy::Medium medium{events, config.tech};
  security::CertificateAuthority ca;
  const double range = phy::range_table(config.tech).nlos_median_m;

  // Terrain: the curve blocks radio between the two sides for low antennas
  // (|y| < 20 m); R1 and the attacker sit high on the outer edge.
  medium.set_obstruction([](geo::Position a, geo::Position b) {
    const bool opposite_sides = (a.x < 0.0) != (b.x < 0.0);
    const bool both_low = std::abs(a.y) < 20.0 && std::abs(b.y) < 20.0;
    return opposite_sides && both_low;
  });

  Actor v1{config.v1_start_x, config.v1_speed, +1.0, config.approach_decel,
           config.v1_cruise_floor};
  Actor v2{config.v2_start_x, config.v2_speed, -1.0, config.approach_decel,
           config.v2_cruise_floor};

  CurveMobility v1_mob{v1, -2.5};
  CurveMobility v2_mob{v2, 2.5};
  gn::StaticMobility r1_mob{{0.0, 30.0}};

  gn::RouterConfig rc = gn::RouterConfig::for_technology(config.tech);
  rc.cbf_dist_max_m = range;

  auto make_router = [&](const gn::MobilityProvider& mob, std::uint64_t mac_bits,
                         net::GnAddress::StationType type) {
    const net::GnAddress addr{type, net::MacAddress{mac_bits}};
    return std::make_unique<gn::Router>(events, medium, security::Signer{ca.enroll(addr)},
                                        ca.trust_store(), mob, rc, range, rng.fork());
  };
  auto r_v1 = make_router(v1_mob, 0x0200'0000'0001ULL, net::GnAddress::StationType::kPassengerCar);
  auto r_v2 = make_router(v2_mob, 0x0200'0000'0002ULL, net::GnAddress::StationType::kPassengerCar);
  auto r_r1 = make_router(r1_mob, 0x0200'0000'0101ULL, net::GnAddress::StationType::kRoadSideUnit);
  r_v1->start();
  r_v2->start();
  r_r1->start();

  std::unique_ptr<attack::IntraAreaBlocker> blocker;
  if (config.attacked) {
    attack::IntraAreaBlocker::Config bc;
    bc.mode = attack::IntraAreaBlocker::Mode::kTargetedReplay;
    bc.targeted_range_m = 5.0;  // only R1, 3 m away, hears the replay
    blocker = std::make_unique<attack::IntraAreaBlocker>(events, medium,
                                                         geo::Position{3.0, 31.0}, range, bc);
  }

  CurveResult result;
  bool v2_warned = false;
  r_v2->set_delivery_handler([&](const gn::Router::Delivery&) {
    if (v2_warned) return;
    v2_warned = true;
    result.warning_delivered = true;
    result.warning_delivered_at_s = events.now().to_seconds();
    // The warned driver brakes toward a stop before the passing zone.
    v2.decel = config.warned_decel;
    v2.floor = 0.0;
  });

  bool warned_sent = false;
  bool emergency = false;
  double see_each_other_at = -1.0;
  double next_sample = 0.0;

  const double dt = config.tick_s;
  const auto until = sim::TimePoint::at(sim::Duration::seconds(config.sim_seconds));
  while (events.now() < until && !result.collision) {
    const double t = events.now().to_seconds();

    // --- Scripted driver logic ---
    if (!warned_sent && t >= config.warn_time_s) {
      warned_sent = true;
      v1.decel = config.hazard_decel;  // V1 brakes harder and swerves
      r_v1->send_geo_broadcast(geo::GeoArea::circle({0.0, 0.0}, 600.0),
                               net::Bytes{'L', 'C', 'W'});  // lane-change warning
    }
    // Sight line: once both vehicles are near the apex and within the sight
    // distance, drivers react and emergency-brake (after a reaction delay).
    const double gap = v2.x - v1.x;
    const bool head_on_course =
        v1.x >= -config.passing_zone_m && v1.x <= config.passing_zone_m;
    if (see_each_other_at < 0.0 && head_on_course && gap <= config.sight_distance_m) {
      see_each_other_at = t;
    }
    if (!emergency && see_each_other_at >= 0.0 && t >= see_each_other_at + config.reaction_s) {
      emergency = true;
      v1.decel = config.emergency_decel;
      v1.floor = 0.0;
      v2.decel = config.emergency_decel;
      v2.floor = 0.0;
    }

    // --- Collision test: V1 occupies the oncoming lane inside the passing
    // zone; a head-on happens if the bumpers meet there.
    const bool v1_in_oncoming_lane =
        v1.x >= -config.passing_zone_m && v1.x <= config.passing_zone_m;
    if (v1_in_oncoming_lane) {
      result.min_gap_m = std::min(result.min_gap_m, gap);
      if (gap <= 4.5) {
        result.collision = true;
        result.collision_time_s = t;
      }
    }

    if (t >= next_sample) {
      result.profile.push_back(CurveSample{t, v1.speed, v2.speed, v1.x, v2.x});
      next_sample += 0.1;
    }

    v1.step(dt);
    v2.step(dt);
    events.run_until(events.now() + sim::Duration::seconds(dt));
  }
  return result;
}

}  // namespace vgr::scenario
