// The kv table of Section 3.2 as a single table: a one-level KvTableBank,
// the form the multipass baseline keeps per vertex.
#include "sketch/linear_kv_sketch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
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

[[nodiscard]] KvTableBank make_table(std::size_t capacity,
                                     std::uint64_t seed) {
  return KvTableBank(make_config(capacity, seed), /*levels=*/1);
}

// The table's one level, decoded.
[[nodiscard]] std::optional<std::vector<KvEntry>> decode(
    const KvTableBank& table) {
  std::optional<std::vector<KvEntry>> out;
  table.decode_levels(
      [&out](std::size_t, const std::optional<std::vector<KvEntry>>& level) {
        out = level;
      });
  return out;
}

void update(KvTableBank& table, std::uint64_t key, std::int64_t key_delta,
            std::uint64_t payload_coord, std::int64_t payload_delta) {
  table.update(key, key_delta, payload_coord, payload_delta, /*jmax=*/0);
}

TEST(LinearKv, EmptyDecodesEmpty) {
  const KvTableBank sketch = make_table(16, 1);
  const auto decoded = decode(sketch);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
  EXPECT_TRUE(sketch.is_zero());
}

TEST(LinearKv, SingleKeySingleNeighbor) {
  KvTableBank sketch = make_table(16, 2);
  update(sketch, /*key=*/42, 1, /*payload_coord=*/7, 1);
  const auto decoded = decode(sketch);
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
  KvTableBank sketch = make_table(64, 3);
  std::map<std::uint64_t, std::uint64_t> truth;  // key -> single neighbor
  Rng rng(4);
  while (truth.size() < 50) {
    truth[rng.next_below(1 << 16)] = rng.next_below(1 << 16);
  }
  for (const auto& [key, nb] : truth) update(sketch, key, 1, nb, 1);
  const auto decoded = decode(sketch);
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
    KvTableBank sketch = make_table(16, 500 + trial);
    update(sketch, 9, 1, 100, 1);
    update(sketch, 9, 1, 200, 1);
    update(sketch, 9, 1, 300, 1);
    const auto decoded = decode(sketch);
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
  KvTableBank sketch = make_table(16, 6);
  for (std::uint64_t i = 0; i < 40; ++i) update(sketch, 9, 1, 100 + i, 1);
  const auto decoded = decode(sketch);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_FALSE(sketch.decode_payload((*decoded)[0]).has_value());
}

TEST(LinearKv, InsertDeleteCancelsEntirely) {
  KvTableBank sketch = make_table(16, 7);
  update(sketch, 5, 1, 50, 1);
  update(sketch, 6, 1, 60, 1);
  update(sketch, 5, -1, 50, -1);
  const auto decoded = decode(sketch);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].key, 6u);
}

TEST(LinearKv, OverloadDetectedNotMisdecoded) {
  KvTableBank sketch = make_table(8, 8);
  Rng rng(9);
  // 40x the capacity: decode must refuse.
  std::set<std::uint64_t> keys;
  while (keys.size() < 320) keys.insert(rng.next_below(1 << 16));
  for (const auto k : keys) update(sketch, k, 1, 1, 1);
  EXPECT_FALSE(decode(sketch).has_value());
}

TEST(LinearKv, MergeCombinesAcrossInstances) {
  const auto config = make_config(32, 10);
  KvTableBank a(config, 1);
  KvTableBank b(config, 1);
  update(a, 1, 1, 10, 1);
  update(b, 2, 1, 20, 1);
  update(b, 1, 1, 11, 1);
  a.merge(b, 1);
  const auto decoded = decode(a);
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
  KvTableBank a(config, 1);
  KvTableBank b(config, 1);
  for (std::uint64_t k = 0; k < 20; ++k) {
    update(a, k, 1, k + 1000, 1);
    update(b, k, 1, k + 1000, 1);
  }
  a.merge(b, -1);
  EXPECT_TRUE(a.is_zero());
}

TEST(LinearKv, IncompatibleMergeThrows) {
  KvTableBank a = make_table(8, 1);
  KvTableBank b = make_table(8, 2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LinearKv, KeyOutOfRangeThrows) {
  KvTableBank sketch = make_table(8, 1);
  EXPECT_THROW(update(sketch, 1 << 16, 1, 0, 1), std::out_of_range);
}

// Load sweep: at or below capacity decode succeeds nearly always.
class KvLoad : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KvLoad, DecodableAtCapacity) {
  const std::size_t keys = GetParam();
  int success = 0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    KvTableBank sketch = make_table(keys, 500 + trial);
    Rng rng(trial);
    std::set<std::uint64_t> chosen;
    while (chosen.size() < keys) chosen.insert(rng.next_below(1 << 16));
    for (const auto k : chosen) update(sketch, k, 1, k % 1000, 1);
    const auto decoded = decode(sketch);
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
  KvTableBank honest = make_table(16, 12);
  update(honest, 42, 1, 7, 1);
  ser::Writer w;
  honest.serialize_flat_state(w);
  std::vector<unsigned char> bytes = w.buffer();
  bytes[0] = 1;  // record count (u64, little-endian): 3 -> 1
  for (std::size_t i = 1; i < 8; ++i) bytes[i] = 0;
  KvTableBank crafted = make_table(16, 12);
  ser::Reader r(bytes.data(), bytes.size());
  crafted.deserialize_flat_state(r);
  EXPECT_FALSE(decode(crafted).has_value());
}

}  // namespace
}  // namespace kw
