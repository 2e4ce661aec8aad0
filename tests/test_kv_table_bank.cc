// KvTableBank: the per-terminal H^u_* level bank of the two-pass spanner.
// Golden digests pin what every level decodes to -- the (key, count,
// payload cells) of each recovered entry, or the fact that the level is
// undecodable -- over many seeds and loads below, at and above capacity,
// with rows that cancel to zero and entries whose stored rows stop short of
// the deeper levels.  The digests were taken from the per-level rescan
// decoder that preceded the queue peeler, so they also certify that the
// peeler change is output-neutral.
#include "sketch/linear_kv_sketch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "serialize/binary_io.h"
#include "util/random.h"

namespace kw {
namespace {

constexpr std::size_t kLevels = 4;
constexpr std::size_t kCapacity = 16;
constexpr std::uint64_t kSpace = 1 << 12;

[[nodiscard]] LinearKvConfig bank_config(std::uint64_t seed) {
  LinearKvConfig c;
  c.max_key = kSpace;
  c.max_payload_coord = kSpace;
  c.capacity = kCapacity;
  c.tables = 3;
  c.load_factor = 0.5;
  c.payload_budget = 4;
  c.payload_rows = 3;
  c.seed = seed;
  return c;
}

using LevelDecodes = std::vector<std::optional<std::vector<KvEntry>>>;

// Every level's decode, indexed by level, plus the walk's touched bytes.
[[nodiscard]] LevelDecodes decode_all(const KvTableBank& bank,
                                      std::size_t* touched) {
  LevelDecodes out(bank.levels());
  *touched = bank.decode_levels(
      [&out](std::size_t level,
             const std::optional<std::vector<KvEntry>>& decoded) {
        out[level] = decoded;
      });
  return out;
}

// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void cell(const OneSparseCell& c) {
    word(static_cast<std::uint64_t>(c.count));
    word(c.coord_sum);
    word(c.fp1);
    word(c.fp2);
  }
};

struct Tally {
  std::size_t undecodable = 0;  // levels that returned nullopt
  std::size_t entries = 0;      // entries recovered over all levels
};

void digest_levels(const LevelDecodes& levels, Digest& d, Tally& tally) {
  for (const auto& decoded : levels) {
    if (!decoded.has_value()) {
      d.word(~std::uint64_t{0});
      ++tally.undecodable;
      continue;
    }
    d.word(decoded->size());
    tally.entries += decoded->size();
    for (const KvEntry& e : *decoded) {
      d.word(e.key);
      d.word(static_cast<std::uint64_t>(e.key_count));
      d.word(e.payload.size());
      for (const OneSparseCell& c : e.payload) d.cell(c);
    }
  }
}

// Loads `keys` distinct keys (1-3 payload neighbors each, each key at a
// random deepest level so many entries' rows stop below the top level).
// Every fourth key also gets an insert/delete pair that cancels to a zero
// row, and every fifth a delete at a shallower level than its insert, so
// the key is live only at the levels in between.
[[nodiscard]] KvTableBank load_bank(std::uint64_t seed, std::size_t keys) {
  KvTableBank bank(bank_config(seed), kLevels);
  Rng rng(seed * 7919 + keys);
  std::set<std::uint64_t> used;
  while (used.size() < keys) {
    const std::uint64_t key = rng.next_below(kSpace);
    if (!used.insert(key).second) continue;
    const std::size_t jmax = rng.next_below(kLevels);
    const std::size_t neighbors = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < neighbors; ++i) {
      bank.update(key, 1, rng.next_below(kSpace), 1, jmax);
    }
    if (used.size() % 4 == 0) {
      const std::uint64_t coord = rng.next_below(kSpace);
      bank.update(key, 1, coord, 1, jmax);
      bank.update(key, -1, coord, -1, jmax);
    }
    if (used.size() % 5 == 0 && jmax > 0) {
      const std::uint64_t coord = rng.next_below(kSpace);
      const std::size_t shallow = rng.next_below(jmax);
      bank.update(key, 1, coord, 1, jmax);
      bank.update(key, -1, coord, -1, shallow);
    }
  }
  return bank;
}

struct Sweep {
  std::uint64_t digest = 0;
  Tally tally;
};

[[nodiscard]] Sweep sweep(std::size_t keys) {
  Digest d;
  Sweep s;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const KvTableBank bank = load_bank(seed, keys);
    std::size_t touched = 0;
    digest_levels(decode_all(bank, &touched), d, s.tally);
    EXPECT_EQ(touched, bank.touched_bytes()) << "seed " << seed;
  }
  s.digest = d.h;
  return s;
}

TEST(KvTableBank, GoldenBelowCapacity) {
  const Sweep s = sweep(kCapacity / 2);
  EXPECT_EQ(s.tally.undecodable, 0u);
  EXPECT_EQ(s.digest, 0xdf49dc4d00d5d4c1ULL);
}

TEST(KvTableBank, GoldenAtCapacity) {
  const Sweep s = sweep(kCapacity);
  EXPECT_GT(s.tally.entries, 0u);
  EXPECT_EQ(s.digest, 0x5fea1f0af745b963ULL);
}

TEST(KvTableBank, GoldenAboveCapacity) {
  // Loads past the table size leave stuck cells at the shallow levels
  // (every key is live at level 0), while the deeper, sparser levels still
  // decode: both outcomes are pinned.
  const Sweep s = sweep(3 * kCapacity);
  EXPECT_GT(s.tally.undecodable, 0u);
  EXPECT_GT(s.tally.entries, 0u);
  EXPECT_EQ(s.digest, 0x7a7b084e30d653d6ULL);
}

TEST(KvTableBank, CancelledRowsDecodeEmpty) {
  KvTableBank bank(bank_config(3), kLevels);
  for (std::uint64_t k = 0; k < 10; ++k) {
    bank.update(k * 37, 1, k, 1, k % kLevels);
    bank.update(k * 37, -1, k, -1, k % kLevels);
  }
  EXPECT_TRUE(bank.is_zero());
  std::size_t touched = 0;
  const LevelDecodes levels = decode_all(bank, &touched);
  for (const auto& decoded : levels) {
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->empty());
  }
  EXPECT_EQ(touched, bank.touched_bytes());
  EXPECT_EQ(touched, sizeof(LinearKvConfig));  // no live cell anywhere
}

TEST(KvTableBank, ShortRowsAreZeroAtDeeperLevels) {
  // Key 5 lives at levels 0..1, key 9 at 0..3: level 2 and 3 see only 9.
  KvTableBank bank(bank_config(4), kLevels);
  bank.update(5, 1, 50, 1, 1);
  bank.update(9, 1, 90, 1, 3);
  std::size_t touched = 0;
  const LevelDecodes levels = decode_all(bank, &touched);
  for (std::size_t j = 0; j < kLevels; ++j) {
    ASSERT_TRUE(levels[j].has_value()) << "level " << j;
    std::vector<std::uint64_t> keys;
    for (const KvEntry& e : *levels[j]) keys.push_back(e.key);
    if (j <= 1) {
      EXPECT_EQ(keys, (std::vector<std::uint64_t>{5, 9})) << "level " << j;
    } else {
      EXPECT_EQ(keys, (std::vector<std::uint64_t>{9})) << "level " << j;
    }
  }
  EXPECT_EQ(touched, bank.touched_bytes());
}

TEST(KvTableBank, MutatingOneStoredCellChangesTheDigest) {
  const KvTableBank bank = load_bank(7, kCapacity / 2);
  ser::Writer w;
  bank.serialize_state(w);
  std::vector<unsigned char> bytes = w.buffer();
  // Header: entry count, levels, cell stride; then the first entry's slot
  // id and row count; its first cell's count word follows.
  constexpr std::size_t kFirstCell = 5 * 8;
  ASSERT_GT(bytes.size(), kFirstCell + 8);
  bytes[kFirstCell] ^= 1;

  KvTableBank mutated(bank_config(7), kLevels);
  ser::Reader r(bytes.data(), bytes.size());
  mutated.deserialize_state(r);

  const auto digest_of = [](const KvTableBank& b) {
    Digest d;
    Tally tally;
    std::size_t touched = 0;
    digest_levels(decode_all(b, &touched), d, tally);
    return d.h;
  };
  KvTableBank reloaded(bank_config(7), kLevels);
  ser::Reader clean(w.buffer().data(), w.buffer().size());
  reloaded.deserialize_state(clean);
  EXPECT_EQ(digest_of(reloaded), digest_of(bank));
  EXPECT_NE(digest_of(mutated), digest_of(bank));
}

TEST(KvTableBank, PayloadOverloadedKeyAtCapacity) {
  // A bank filled to capacity whose key 3 carries far more payload
  // coordinates than the embedded payload sketch's budget: the kv peel
  // still recovers every key, and the overloaded key's payload decode
  // reports failure instead of a wrong neighbor set.
  KvTableBank bank(bank_config(11), 1);
  for (std::uint64_t k = 0; k < kCapacity; ++k) {
    const std::size_t neighbors = k == 3 ? 40 : 1;
    for (std::uint64_t i = 0; i < neighbors; ++i) {
      bank.update(k * 101, 1, 7 + i * 13, 1, 0);
    }
  }
  std::size_t touched = 0;
  const LevelDecodes levels = decode_all(bank, &touched);
  ASSERT_TRUE(levels[0].has_value());
  ASSERT_EQ(levels[0]->size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    const KvEntry& e = (*levels[0])[i];
    EXPECT_EQ(e.key, i * 101);
    const auto payload = bank.decode_payload(e);
    if (e.key == 3 * 101) {
      EXPECT_EQ(e.key_count, 40);
      EXPECT_FALSE(payload.has_value());
    } else {
      EXPECT_EQ(e.key_count, 1);
      ASSERT_TRUE(payload.has_value());
      ASSERT_EQ(payload->size(), 1u);
      EXPECT_EQ((*payload)[0].coord, 7u);
    }
  }
}

TEST(KvTableBank, CraftedStateFailsInsteadOfCyclingThePeel) {
  // As LinearKv.CraftedStateFailsInsteadOfCyclingThePeel: one surviving
  // cell of a key's three makes the peel alternate +key / -key forever.
  KvTableBank honest(bank_config(12), kLevels);
  honest.update(42, 1, 7, 1, 2);
  ser::Writer w;
  honest.serialize_state(w);
  std::vector<unsigned char> bytes = w.buffer();
  bytes[0] = 1;  // entry count (u64, little-endian): 3 -> 1
  for (std::size_t i = 1; i < 8; ++i) bytes[i] = 0;
  KvTableBank crafted(bank_config(12), kLevels);
  ser::Reader r(bytes.data(), bytes.size());
  crafted.deserialize_state(r);
  std::size_t touched = 0;
  const LevelDecodes levels = decode_all(crafted, &touched);
  for (std::size_t j = 0; j <= 2; ++j) {
    EXPECT_FALSE(levels[j].has_value()) << "level " << j;
  }
  ASSERT_TRUE(levels[3].has_value());  // the key never reached level 3
  EXPECT_TRUE(levels[3]->empty());
}

}  // namespace
}  // namespace kw
