#pragma once

#include <memory>

#include "vgr/gn/mobility.hpp"
#include "vgr/gn/router.hpp"
#include "vgr/traffic/road.hpp"
#include "vgr/traffic/vehicle.hpp"

namespace vgr::scenario {

/// Adapts a traffic-model vehicle to the router's mobility interface. The
/// adapter must not outlive the vehicle it wraps; `HighwayScenario` tears
/// stations down in its exit hook before the vehicle is destroyed.
class VehicleMobility final : public gn::MobilityProvider {
 public:
  VehicleMobility(const traffic::Vehicle& vehicle, const traffic::RoadSegment& road)
      : vehicle_{&vehicle}, road_{&road} {}

  [[nodiscard]] geo::Position position() const override { return vehicle_->position(*road_); }
  [[nodiscard]] double speed_mps() const override { return vehicle_->speed(); }
  [[nodiscard]] double heading_rad() const override { return vehicle_->heading(); }

 private:
  const traffic::Vehicle* vehicle_;
  const traffic::RoadSegment* road_;
};

/// One station's communication stack: its mobility source plus its router.
/// Used for both vehicles (VehicleMobility) and roadside units
/// (StaticMobility).
struct Station {
  std::unique_ptr<gn::MobilityProvider> mobility;
  std::unique_ptr<gn::Router> router;
};

}  // namespace vgr::scenario
