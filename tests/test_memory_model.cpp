#include "sim/memory_model.hpp"

#include <gtest/gtest.h>

namespace retro::sim {
namespace {

TEST(MemoryModel, NoPressureBelowThreshold) {
  MemoryModelConfig cfg;
  cfg.heapLimitBytes = 1000;
  cfg.pressureThreshold = 0.65;
  MemoryModel m(cfg);
  m.setLiveBytes(600);
  EXPECT_EQ(m.gcSlowdownFactor(), 1.0);
  EXPECT_FALSE(m.isOutOfMemory());
}

TEST(MemoryModel, SlowdownGrowsWithPressure) {
  MemoryModelConfig cfg;
  cfg.heapLimitBytes = 1000;
  MemoryModel m(cfg);
  m.setLiveBytes(700);
  const double low = m.gcSlowdownFactor();
  m.setLiveBytes(900);
  const double mid = m.gcSlowdownFactor();
  m.setLiveBytes(990);
  const double high = m.gcSlowdownFactor();
  EXPECT_GT(low, 1.0);
  EXPECT_GT(mid, low);
  EXPECT_GT(high, mid);
  EXPECT_LE(high, MemoryModel::kMaxSlowdown);
}

TEST(MemoryModel, OutOfMemoryAtLimit) {
  MemoryModelConfig cfg;
  cfg.heapLimitBytes = 1000;
  MemoryModel m(cfg);
  EXPECT_TRUE(m.setLiveBytes(1000));   // exactly at limit: still alive
  EXPECT_FALSE(m.setLiveBytes(1001));  // over: dead
  EXPECT_TRUE(m.isOutOfMemory());
  // Death is final, even once the live bytes fall back.
  EXPECT_FALSE(m.setLiveBytes(500));
  EXPECT_TRUE(m.isOutOfMemory());
}

TEST(MemoryModel, UtilizationFraction) {
  MemoryModelConfig cfg;
  cfg.heapLimitBytes = 2000;
  MemoryModel m(cfg);
  m.setLiveBytes(500);
  EXPECT_DOUBLE_EQ(m.utilization(), 0.25);
}

TEST(MemoryModel, FigureThirteenTrajectory) {
  // Growing live bytes must produce: flat -> degrading -> dead, the
  // shape of the paper's Fig. 13.
  MemoryModelConfig cfg;
  cfg.heapLimitBytes = 2ull << 30;
  MemoryModel m(cfg);
  bool sawFlat = false;
  bool sawDegraded = false;
  bool died = false;
  for (uint64_t bytes = 0; bytes <= (2ull << 30) + (64ull << 20);
       bytes += 64ull << 20) {
    if (!m.setLiveBytes(bytes)) {
      died = true;
      break;
    }
    const double f = m.gcSlowdownFactor();
    if (f == 1.0) sawFlat = true;
    if (f > 2.0) sawDegraded = true;
  }
  EXPECT_TRUE(sawFlat);
  EXPECT_TRUE(sawDegraded);
  EXPECT_TRUE(died);
}

}  // namespace
}  // namespace retro::sim
