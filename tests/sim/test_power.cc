/**
 * @file
 * Activity-based power model: static floor, activity scaling, and
 * configuration validation.
 */

#include <gtest/gtest.h>

#include "arch/layout.hh"
#include "sim/power.hh"

namespace tsp {
namespace {

TEST(PowerModel, StaticFloorMatchesConfig)
{
    ChipConfig cfg;
    const PowerReport pm = energyOf(cfg, {}, 1); // One idle cycle.
    const double floor = cfg.power.uncoreStaticW +
                         cfg.power.superlaneStaticW * kSuperlanes;
    EXPECT_NEAR(pm.averagePowerW(), floor, 1e-9);
    EXPECT_EQ(pm.cycles(), 1u);
    EXPECT_EQ(energyOf(cfg, {}, 0).averagePowerW(), 0.0);
}

TEST(PowerModel, ActivityAddsDynamicEnergy)
{
    ChipConfig cfg;
    const PowerReport idle = energyOf(cfg, {}, 1);
    ActivityTotals act;
    act.maccOps = 4ull * 320 * 320; // Peak MXM cycle.
    act.vxmLaneOps = 320;
    act.sramAccesses = 88;
    act.icuDispatches = 100;
    const PowerReport busy = energyOf(cfg, act, 1);
    EXPECT_GT(busy.totalEnergyJ(), idle.totalEnergyJ());
    // Peak MXM activity should dominate: 409,600 MACCs x 0.4 pJ =
    // ~164 W of dynamic power at 1 GHz.
    EXPECT_GT(busy.averagePowerW(), idle.averagePowerW() + 150.0);
}

TEST(ChipConfigDeath, BadSuperlaneCountIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        ChipConfig cfg;
        cfg.activeSuperlanes = 21;
        cfg.validate();
    };
    ASSERT_EXIT(body(), ::testing::ExitedWithCode(1),
                "activeSuperlanes");
}

TEST(ChipConfigDeath, BadClockIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        ChipConfig cfg;
        cfg.clockHz = 0.0;
        cfg.validate();
    };
    ASSERT_EXIT(body(), ::testing::ExitedWithCode(1), "clockHz");
}

TEST(Vec320, LaneHelpers)
{
    Vec320 v;
    v.set(3, 7, 0xab);
    EXPECT_EQ(v.at(3, 7), 0xab);
    EXPECT_EQ(v.bytes[3 * kLanesPerSuperlane + 7], 0xab);
    Vec320 w = v;
    EXPECT_EQ(v, w);
    w.set(0, 0, 1);
    EXPECT_FALSE(v == w);
}

TEST(Layout, PosNamesReadable)
{
    EXPECT_EQ(Layout::posName(Layout::vxm), "VXM");
    EXPECT_EQ(Layout::posName(Layout::mxmWest), "MXM_W");
    EXPECT_EQ(Layout::posName(Layout::sxmEast), "SXM_E");
    EXPECT_EQ(Layout::posName(Layout::c2cEast), "C2C_E");
    EXPECT_EQ(Layout::posName(Layout::memPos(Hemisphere::West, 0)),
              "MEM_W0");
    EXPECT_EQ(Layout::posName(Layout::memPos(Hemisphere::East, 43)),
              "MEM_E43");
}

} // namespace
} // namespace tsp
