#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/bit_util.h"
#include "util/timer.h"

namespace kw {
namespace {

TEST(BitUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
  EXPECT_EQ(ceil_log2(1ULL << 62), 62u);
  EXPECT_EQ(ceil_log2((1ULL << 62) + 1), 63u);
}

TEST(BitUtil, FloorLog2) {
  EXPECT_EQ(floor_log2(0), 0u);
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(BitUtil, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(BitUtil, LogsAreConsistent) {
  for (std::uint64_t x = 1; x < 10000; x += 7) {
    EXPECT_LE(floor_log2(x), ceil_log2(x));
    EXPECT_LE(ceil_log2(x), floor_log2(x) + 1);
    EXPECT_GE(next_pow2(x), x);
    EXPECT_LT(next_pow2(x), 2 * x + 1);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = timer.millis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 2000.0);
  timer.reset();
  EXPECT_LT(timer.millis(), 15.0);
}

}  // namespace
}  // namespace kw
