#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "vgr/phy/medium.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::phy {
namespace {

using namespace vgr::sim::literals;

struct TestNode {
  geo::Position pos;
  std::vector<Frame> received;
  RadioId id{};
};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_{events_, AccessTechnology::kDsrc} {}

  TestNode& add(geo::Position pos, double range, std::uint64_t mac, bool promiscuous = false) {
    nodes_.push_back(std::make_unique<TestNode>());
    TestNode& n = *nodes_.back();
    n.pos = pos;
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [&n] { return n.pos; };
    cfg.tx_range_m = range;
    cfg.promiscuous = promiscuous;
    n.id = medium_.add_node(std::move(cfg), [&n](const Frame& f, RadioId) {
      n.received.push_back(f);
    });
    return n;
  }

  Frame broadcast_frame(std::uint64_t src) {
    Frame f;
    f.src = net::MacAddress{src};
    f.dst = net::MacAddress::broadcast();
    f.msg = security::share(security::SecuredMessage{});
    return f;
  }

  void settle() { events_.run_until(events_.now() + 1_s); }

  sim::EventQueue events_;
  Medium medium_;
  std::vector<std::unique_ptr<TestNode>> nodes_;
};

TEST_F(MediumTest, DeliversWithinRange) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.received.size(), 0u);  // no self-delivery
}

TEST_F(MediumTest, DropsBeyondRange) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({150, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, RangeIsSenderDetermined) {
  // b has a tiny range but still hears a, whose range covers it.
  TestNode& a = add({0, 0}, 500.0, 1);
  TestNode& b = add({400, 0}, 10.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(b.received.size(), 1u);
  // The reverse direction fails: b's 10 m range cannot reach a.
  medium_.transmit(b.id, broadcast_frame(2));
  settle();
  EXPECT_TRUE(a.received.empty());
}

TEST_F(MediumTest, UnicastFilteredByMac) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({10, 0}, 100.0, 2);
  TestNode& c = add({20, 0}, 100.0, 3);
  Frame f = broadcast_frame(1);
  f.dst = net::MacAddress{3};
  medium_.transmit(a.id, f);
  settle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(MediumTest, PromiscuousNodeOverhearsUnicast) {
  TestNode& a = add({0, 0}, 100.0, 1);
  add({10, 0}, 100.0, 2);
  TestNode& sniffer = add({30, 0}, 100.0, 0xBAD, /*promiscuous=*/true);
  Frame f = broadcast_frame(1);
  f.dst = net::MacAddress{2};
  medium_.transmit(a.id, f);
  settle();
  EXPECT_EQ(sniffer.received.size(), 1u);
}

TEST_F(MediumTest, PrefetchHintPrecedesDeliveries) {
  // (mac, stage) per hint call and (mac, -1) per delivery, in call order.
  std::vector<std::pair<std::uint64_t, int>> log;
  const auto add_logged = [&](geo::Position pos, std::uint64_t mac, bool promiscuous,
                              bool hinted) {
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [pos] { return pos; };
    cfg.tx_range_m = 100.0;
    cfg.promiscuous = promiscuous;
    if (hinted) {
      cfg.prefetch = [&log, mac](const Frame&, int stage) { log.emplace_back(mac, stage); };
    }
    return medium_.add_node(std::move(cfg),
                            [&log, mac](const Frame&, RadioId) { log.emplace_back(mac, -1); });
  };
  // RadioIds are issued in this order, so ascending RadioId is ascending mac.
  const RadioId sender = add_logged({0, 0}, 1, false, true);
  add_logged({10, 0}, 2, false, true);   // unicast destination
  add_logged({20, 0}, 3, false, true);   // bystander, MAC-filtered
  add_logged({30, 0}, 4, true, true);    // promiscuous sniffer
  add_logged({500, 0}, 5, true, true);   // out of range
  add_logged({40, 0}, 6, true, false);   // no hint, still receives

  Frame f = broadcast_frame(1);
  f.dst = net::MacAddress{2};
  medium_.transmit(sender, f);
  const std::vector<std::pair<std::uint64_t, int>> hints{{2, 0}, {4, 0}, {2, 1}, {4, 1}};
  EXPECT_EQ(log, hints);  // all hints ran inside transmit, before any delivery

  settle();
  std::vector<std::pair<std::uint64_t, int>> expected = hints;
  expected.insert(expected.end(), {{2, -1}, {4, -1}, {6, -1}});  // nearest first
  EXPECT_EQ(log, expected);
}

TEST_F(MediumTest, RangeOverrideAppliesToSingleFrame) {
  TestNode& a = add({0, 0}, 1000.0, 1);
  TestNode& b = add({500, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1), /*range_override_m=*/100.0);
  settle();
  EXPECT_TRUE(b.received.empty());
  medium_.transmit(a.id, broadcast_frame(1));  // back to full power
  settle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(MediumTest, SetTxRangeTakesEffect) {
  TestNode& a = add({0, 0}, 10.0, 1);
  TestNode& b = add({500, 0}, 100.0, 2);
  medium_.set_tx_range(a.id, 600.0);
  EXPECT_DOUBLE_EQ(medium_.tx_range(a.id), 600.0);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(MediumTest, RemovedNodeReceivesNothing) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({10, 0}, 100.0, 2);
  medium_.remove_node(b.id);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, RemovalDuringFlightIsSafe) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({10, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  medium_.remove_node(b.id);  // frame already in flight
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, ObstructionBlocksPath) {
  TestNode& a = add({-50, 0}, 200.0, 1);
  TestNode& b = add({50, 0}, 200.0, 2);
  medium_.set_obstruction([](geo::Position p, geo::Position q) {
    return (p.x < 0.0) != (q.x < 0.0);
  });
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, DeliveryIsDelayedNotInstant) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  EXPECT_TRUE(b.received.empty());  // nothing until events run
  settle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(MediumTest, CountersTrackTraffic) {
  TestNode& a = add({0, 0}, 100.0, 1);
  add({10, 0}, 100.0, 2);
  add({20, 0}, 100.0, 3);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(medium_.frames_sent(), 1u);
  EXPECT_EQ(medium_.frames_delivered(), 2u);
}

TEST_F(MediumTest, AirtimeOverheadExtendsTheBusyWindow) {
  // The airtime of a frame derives from its exact encoded GN wire size plus
  // the configured link-layer overhead. Default overhead is 0 — MAC-off
  // runs keep the historical GN-only airtime byte for byte.
  EXPECT_EQ(medium_.airtime_overhead_bytes(), 0u);
  TestNode& a = add({0, 0}, 100.0, 1);
  add({50, 0}, 100.0, 2);

  Frame f = broadcast_frame(1);
  const std::size_t wire = f.msg->wire_size();
  medium_.transmit(a.id, std::move(f));
  settle();
  // The transmitter occupies its own channel for exactly the airtime.
  EXPECT_EQ(medium_.busy_time(a.id), airtime(AccessTechnology::kDsrc, wire));

  medium_.set_airtime_overhead_bytes(38);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(medium_.busy_time(a.id),
            airtime(AccessTechnology::kDsrc, wire) +
                airtime(AccessTechnology::kDsrc, wire + 38));
}

TEST(Technology, TableIIRanges) {
  const RangeTable dsrc = range_table(AccessTechnology::kDsrc);
  EXPECT_DOUBLE_EQ(dsrc.los_median_m, 1283.0);
  EXPECT_DOUBLE_EQ(dsrc.nlos_median_m, 486.0);
  EXPECT_DOUBLE_EQ(dsrc.nlos_worst_m, 327.0);
  const RangeTable cv2x = range_table(AccessTechnology::kCv2x);
  EXPECT_DOUBLE_EQ(cv2x.los_median_m, 1703.0);
  EXPECT_DOUBLE_EQ(cv2x.nlos_median_m, 593.0);
  EXPECT_DOUBLE_EQ(cv2x.nlos_worst_m, 359.0);
}

TEST(Technology, AirtimeScalesWithSize) {
  const auto t1 = airtime(AccessTechnology::kDsrc, 100);
  const auto t2 = airtime(AccessTechnology::kDsrc, 200);
  EXPECT_GT(t2, t1);
  // 100 bytes at 6 Mbps = 133.3 us.
  EXPECT_NEAR(t1.to_seconds() * 1e6, 133.3, 0.5);
}

TEST(Technology, PropagationDelayIsLightSpeed) {
  EXPECT_NEAR(propagation_delay(300.0).to_seconds() * 1e6, 1.0, 0.01);
}

TEST(Technology, Names) {
  EXPECT_STREQ(name(AccessTechnology::kDsrc), "DSRC");
  EXPECT_STREQ(name(AccessTechnology::kCv2x), "C-V2X");
}

}  // namespace
}  // namespace vgr::phy
