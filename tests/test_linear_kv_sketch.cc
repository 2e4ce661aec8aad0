#include "sketch/linear_kv_sketch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "serialize/binary_io.h"
#include "util/random.h"

namespace kw {
namespace {

[[nodiscard]] LinearKvConfig make_config(std::size_t capacity,
                                         std::uint64_t seed) {
  LinearKvConfig c;
  c.max_key = 1 << 16;
  c.max_payload_coord = 1 << 16;
  c.capacity = capacity;
  c.tables = 3;
  c.load_factor = 0.5;
  c.payload_budget = 4;
  c.payload_rows = 3;
  c.seed = seed;
  return c;
}

TEST(LinearKv, EmptyDecodesEmpty) {
  const LinearKeyValueSketch sketch(make_config(16, 1));
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
  EXPECT_TRUE(sketch.is_zero());
}

TEST(LinearKv, SingleKeySingleNeighbor) {
  LinearKeyValueSketch sketch(make_config(16, 2));
  sketch.update(/*key=*/42, 1, /*payload_coord=*/7, 1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].key, 42u);
  EXPECT_EQ((*decoded)[0].key_count, 1);
  const auto payload = sketch.decode_payload((*decoded)[0]);
  ASSERT_TRUE(payload.has_value());
  ASSERT_EQ(payload->size(), 1u);
  EXPECT_EQ((*payload)[0].coord, 7u);
  EXPECT_EQ((*payload)[0].value, 1);
}

TEST(LinearKv, ManyKeysRecovered) {
  LinearKeyValueSketch sketch(make_config(64, 3));
  std::map<std::uint64_t, std::uint64_t> truth;  // key -> single neighbor
  Rng rng(4);
  while (truth.size() < 50) {
    truth[rng.next_below(1 << 16)] = rng.next_below(1 << 16);
  }
  for (const auto& [key, nb] : truth) sketch.update(key, 1, nb, 1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), truth.size());
  for (const auto& entry : *decoded) {
    ASSERT_TRUE(truth.contains(entry.key));
    const auto payload = sketch.decode_payload(entry);
    ASSERT_TRUE(payload.has_value());
    ASSERT_EQ(payload->size(), 1u);
    EXPECT_EQ((*payload)[0].coord, truth[entry.key]);
  }
}

TEST(LinearKv, MultiNeighborPayloadWithinBudget) {
  // Payload peeling at full budget has a small inherent failure rate (the
  // IBLT stuck-configuration probability); callers retry across sampling
  // levels.  Statistically: decode must succeed for nearly all seeds and,
  // when it succeeds, must be exactly right.
  int successes = 0;
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    LinearKeyValueSketch sketch(make_config(16, 500 + trial));
    sketch.update(9, 1, 100, 1);
    sketch.update(9, 1, 200, 1);
    sketch.update(9, 1, 300, 1);
    const auto decoded = sketch.decode();
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0].key_count, 3);
    const auto payload = sketch.decode_payload((*decoded)[0]);
    if (!payload.has_value()) continue;
    std::set<std::uint64_t> coords;
    for (const auto& rec : *payload) coords.insert(rec.coord);
    ASSERT_EQ(coords, (std::set<std::uint64_t>{100, 200, 300}));
    ++successes;
  }
  EXPECT_GE(successes, kTrials - 4);
}

TEST(LinearKv, PayloadOverBudgetDetected) {
  LinearKeyValueSketch sketch(make_config(16, 6));
  for (std::uint64_t i = 0; i < 40; ++i) sketch.update(9, 1, 100 + i, 1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_FALSE(sketch.decode_payload((*decoded)[0]).has_value());
}

TEST(LinearKv, InsertDeleteCancelsEntirely) {
  LinearKeyValueSketch sketch(make_config(16, 7));
  sketch.update(5, 1, 50, 1);
  sketch.update(6, 1, 60, 1);
  sketch.update(5, -1, 50, -1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].key, 6u);
}

TEST(LinearKv, OverloadDetectedNotMisdecoded) {
  LinearKeyValueSketch sketch(make_config(8, 8));
  Rng rng(9);
  // 40x the capacity: decode must refuse.
  std::set<std::uint64_t> keys;
  while (keys.size() < 320) keys.insert(rng.next_below(1 << 16));
  for (const auto k : keys) sketch.update(k, 1, 1, 1);
  EXPECT_FALSE(sketch.decode().has_value());
}

TEST(LinearKv, MergeCombinesAcrossInstances) {
  const auto config = make_config(32, 10);
  LinearKeyValueSketch a(config);
  LinearKeyValueSketch b(config);
  a.update(1, 1, 10, 1);
  b.update(2, 1, 20, 1);
  b.update(1, 1, 11, 1);
  a.merge(b, 1);
  const auto decoded = a.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].key, 1u);
  EXPECT_EQ((*decoded)[0].key_count, 2);
  const auto payload = a.decode_payload((*decoded)[0]);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 2u);
}

TEST(LinearKv, MergeSubtractGivesZero) {
  const auto config = make_config(32, 11);
  LinearKeyValueSketch a(config);
  LinearKeyValueSketch b(config);
  for (std::uint64_t k = 0; k < 20; ++k) {
    a.update(k, 1, k + 1000, 1);
    b.update(k, 1, k + 1000, 1);
  }
  a.merge(b, -1);
  EXPECT_TRUE(a.is_zero());
}

TEST(LinearKv, IncompatibleMergeThrows) {
  LinearKeyValueSketch a(make_config(8, 1));
  LinearKeyValueSketch b(make_config(8, 2));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LinearKv, KeyOutOfRangeThrows) {
  LinearKeyValueSketch sketch(make_config(8, 1));
  EXPECT_THROW(sketch.update(1 << 16, 1, 0, 1), std::out_of_range);
}

// Load sweep: at or below capacity decode succeeds nearly always.
class KvLoad : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KvLoad, DecodableAtCapacity) {
  const std::size_t keys = GetParam();
  int success = 0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    LinearKeyValueSketch sketch(make_config(keys, 500 + trial));
    Rng rng(trial);
    std::set<std::uint64_t> chosen;
    while (chosen.size() < keys) chosen.insert(rng.next_below(1 << 16));
    for (const auto k : chosen) sketch.update(k, 1, k % 1000, 1);
    const auto decoded = sketch.decode();
    if (!decoded.has_value()) continue;
    ASSERT_EQ(decoded->size(), keys);
    ++success;
  }
  EXPECT_GE(success, kTrials - 1);
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, KvLoad,
                         ::testing::Values(4, 16, 64, 256));


TEST(LinearKv, CraftedStateFailsInsteadOfCyclingThePeel) {
  // Keep only the first of the three cells one key wrote (its other two
  // records are dropped from the state stream).  Peeling that cell leaves
  // -key in the other tables, peeling one of those restores +key in the
  // first, and so on forever; honest state peels at most once per stored
  // cell, so the decoder gives up instead.
  LinearKeyValueSketch honest(make_config(16, 12));
  honest.update(42, 1, 7, 1);
  ser::Writer w;
  honest.serialize_state(w);
  std::vector<unsigned char> bytes = w.buffer();
  bytes[0] = 1;  // record count (u64, little-endian): 3 -> 1
  for (std::size_t i = 1; i < 8; ++i) bytes[i] = 0;
  LinearKeyValueSketch crafted(make_config(16, 12));
  ser::Reader r(bytes.data(), bytes.size());
  crafted.deserialize_state(r);
  EXPECT_FALSE(crafted.decode().has_value());
}

}  // namespace
}  // namespace kw
