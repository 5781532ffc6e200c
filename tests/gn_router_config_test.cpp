// Coverage for the technology-derived router configuration defaults.

#include <gtest/gtest.h>

#include "vgr/gn/config.hpp"

namespace vgr {
namespace {

TEST(RouterConfig, DefaultsMatchStandardAndPaper) {
  const gn::RouterConfig cfg;
  EXPECT_EQ(cfg.beacon_interval, sim::Duration::seconds(3.0));
  EXPECT_EQ(cfg.beacon_jitter, sim::Duration::millis(750));
  EXPECT_EQ(cfg.locte_ttl, sim::Duration::seconds(20.0));
  EXPECT_EQ(cfg.cbf_to_min, sim::Duration::millis(1));
  EXPECT_EQ(cfg.cbf_to_max, sim::Duration::millis(100));
  EXPECT_EQ(cfg.default_hop_limit, 10);
  EXPECT_FALSE(cfg.plausibility_check);
  EXPECT_FALSE(cfg.rhl_drop_check);
  EXPECT_FALSE(cfg.gf_ack);
  EXPECT_FALSE(cfg.dad_enabled);
  EXPECT_EQ(cfg.rhl_drop_threshold, 3);
}

TEST(RouterConfig, ForTechnologyPicksNlosMedian) {
  const auto dsrc = gn::RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
  EXPECT_DOUBLE_EQ(dsrc.cbf_dist_max_m, 486.0);
  EXPECT_DOUBLE_EQ(dsrc.plausibility_threshold_m, 486.0);
  const auto cv2x = gn::RouterConfig::for_technology(phy::AccessTechnology::kCv2x);
  EXPECT_DOUBLE_EQ(cv2x.cbf_dist_max_m, 593.0);
  EXPECT_DOUBLE_EQ(cv2x.plausibility_threshold_m, 593.0);
}

}  // namespace
}  // namespace vgr
