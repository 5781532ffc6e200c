// Edge-case router tests: fallback modes, buffered-packet expiry, CBF with
// unknown senders, beacon cadence statistics, and configuration plumbing.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "vgr/gn/router.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::gn {
namespace {

using namespace vgr::sim::literals;

constexpr double kRange = 486.0;

struct Node {
  std::unique_ptr<StaticMobility> mobility;
  std::unique_ptr<Router> router;
  std::vector<Router::Delivery> deliveries;
};

class RouterEdgeTest : public ::testing::Test {
 protected:
  RouterEdgeTest() : medium_{events_, phy::AccessTechnology::kDsrc} {}

  Node& add_node(double x, RouterConfig cfg = default_config(), double range = kRange) {
    nodes_.push_back(std::make_unique<Node>());
    Node& n = *nodes_.back();
    n.mobility = std::make_unique<StaticMobility>(geo::Position{x, 0.0});
    const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar,
                              net::MacAddress{0x600 + nodes_.size()}};
    n.router = std::make_unique<Router>(events_, medium_, security::Signer{ca_.enroll(addr)},
                                        ca_.trust_store(), *n.mobility, cfg, range,
                                        rng_.fork());
    n.router->set_delivery_handler(
        [&n](const Router::Delivery& d) { n.deliveries.push_back(d); });
    return n;
  }

  static RouterConfig default_config() {
    RouterConfig cfg = RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
    cfg.cbf_dist_max_m = kRange;
    return cfg;
  }

  void beacons() {
    for (auto& n : nodes_) n->router->send_beacon_now();
    run_for(100_ms);
  }
  void run_for(sim::Duration d) { events_.run_until(events_.now() + d); }

  sim::EventQueue events_;
  phy::Medium medium_;
  security::CertificateAuthority ca_;
  sim::Rng rng_{8888};
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(RouterEdgeTest, BufferedPacketExpiresWithoutNeighbors) {
  RouterConfig cfg = default_config();
  cfg.gf_retry_interval = 100_ms;  // expiry = 20 * retry interval = 2 s
  Node& a = add_node(0.0, cfg);
  a.router->send_geo_broadcast(geo::GeoArea::circle({2000.0, 0.0}, 50.0), {1});
  run_for(100_ms);
  EXPECT_EQ(a.router->stats().gf_buffered, 1u);
  run_for(5_s);
  EXPECT_EQ(a.router->stats().gf_drops, 1u);
  EXPECT_EQ(a.router->stats().gf_unicast_forwards, 0u);
}

TEST_F(RouterEdgeTest, CbfUnknownForwarderUsesMaxContention) {
  // A GBC's source PV makes the *source* known to its direct receivers,
  // but a receiver of a *forwarded* copy only knows the forwarder from its
  // beacons. Node b never beacons, so when c receives b's rebroadcast it
  // cannot place b and must contend with TO_MAX (100 ms).
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(800.0);
  (void)b;

  const auto area = geo::GeoArea::rectangle({400.0, 0.0}, 900.0, 50.0);
  a.router->send_geo_broadcast(area, {1});
  // b (400 m from a) fires at TO ~= 18-20 ms; c receives that copy and,
  // lacking b's position, waits the full TO_MAX before its own rebroadcast.
  run_for(110_ms);
  EXPECT_EQ(b.router->stats().cbf_rebroadcasts, 1u);
  EXPECT_EQ(c.router->stats().cbf_rebroadcasts, 0u);
  run_for(40_ms);  // past 20 ms + TO_MAX + jitter
  EXPECT_EQ(c.router->stats().cbf_rebroadcasts, 1u);
  EXPECT_EQ(c.deliveries.size(), 1u);
}

TEST_F(RouterEdgeTest, BeaconCadenceWithinConfiguredBounds) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  a.router->start();
  run_for(60_s);
  // Period 3 s + up to 0.75 s jitter: 60 s fits 16-20 beacons.
  EXPECT_GE(a.router->stats().beacons_sent, 16u);
  EXPECT_LE(a.router->stats().beacons_sent, 21u);
  EXPECT_EQ(b.router->stats().beacons_received, a.router->stats().beacons_sent);
}

TEST_F(RouterEdgeTest, PvMaxAgeIsConfigurable) {
  RouterConfig cfg = default_config();
  cfg.pv_max_age = 10_s;  // lenient freshness window
  Node& a = add_node(0.0, cfg);
  Node& b = add_node(100.0, cfg);
  run_for(8_s);

  // A beacon carrying an 8 s old PV passes the widened freshness check.
  net::Packet p;
  p.common.type = net::CommonHeader::HeaderType::kBeacon;
  auto pv = b.router->self_pv();
  pv.timestamp = events_.now() - 8_s;
  p.extended = net::BeaconHeader{pv};
  phy::Medium::NodeConfig inj;
  inj.mac = net::MacAddress{0x777};
  inj.position = [] { return geo::Position{50.0, 0.0}; };
  inj.tx_range_m = 200.0;
  const auto injector = medium_.add_node(std::move(inj), [](const phy::Frame&, phy::RadioId) {});
  phy::Frame frame;
  frame.src = b.router->mac();
  frame.msg =
      security::share(security::SecuredMessage::sign(p, security::Signer{ca_.enroll(pv.address)}));
  medium_.transmit(injector, frame);
  run_for(100_ms);

  EXPECT_EQ(a.router->stats().stale_pv_drops, 0u);
  EXPECT_TRUE(a.router->location_table().find(pv.address, events_.now()).has_value());
}

TEST_F(RouterEdgeTest, GbcToAreaContainingOnlySelfDeliversNowhere) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  beacons();
  // Area covers only the source; the source broadcasts, b is outside and
  // must forward-only (GF toward the area), never deliver.
  a.router->send_geo_broadcast(geo::GeoArea::circle({0.0, 0.0}, 50.0), {1});
  run_for(1_s);
  EXPECT_TRUE(b.deliveries.empty());
}

TEST_F(RouterEdgeTest, OutOfAreaReceiverForwardsBackIntoArea) {
  // Source outside the area forwards via GF; the receiver inside delivers
  // and floods. A receiver *past* the area must route the packet back.
  Node& src = add_node(900.0);
  Node& inside = add_node(450.0);
  Node& beyond = add_node(0.0);
  beacons();
  src.router->send_geo_broadcast(geo::GeoArea::circle({450.0, 0.0}, 60.0), {1});
  run_for(1_s);
  EXPECT_EQ(inside.deliveries.size(), 1u);
  EXPECT_TRUE(beyond.deliveries.empty());
}

TEST_F(RouterEdgeTest, LifetimeFieldRoundTripsThroughForwarding) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  beacons();
  a.router->send_geo_broadcast(geo::GeoArea::rectangle({200.0, 0.0}, 500.0, 50.0), {1},
                               std::nullopt, sim::Duration::seconds(42.0));
  run_for(1_s);
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].packet().basic.lifetime, sim::Duration::seconds(42.0));
}

TEST_F(RouterEdgeTest, StatsStartAtZero) {
  Node& a = add_node(0.0);
  const RouterStats& s = a.router->stats();
  EXPECT_EQ(s.beacons_sent + s.beacons_received + s.gbc_originated + s.delivered +
                s.gf_unicast_forwards + s.cbf_rebroadcasts + s.auth_failures + s.duplicates,
            0u);
}

TEST_F(RouterEdgeTest, RunningFlagTracksLifecycle) {
  Node& a = add_node(0.0);
  EXPECT_TRUE(a.router->running());
  a.router->shutdown();
  EXPECT_FALSE(a.router->running());
  a.router->shutdown();  // idempotent
  EXPECT_FALSE(a.router->running());
}

}  // namespace
}  // namespace vgr::gn
