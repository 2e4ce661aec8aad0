// The serialization subsystem: envelope integrity (magic/version/CRC/tag),
// byte-identical round trips for every serializable type, geometry
// validation on load, the k-shard merge-from-bytes protocol, and
// StreamEngine checkpoint/restore.
#include "serialize/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/neighborhood_sketch.h"
#include "agm/spanning_forest.h"
#include "core/additive_spanner.h"
#include "core/config.h"
#include "core/kp12_sparsifier.h"
#include "core/multipass_spanner.h"
#include "core/two_pass_spanner.h"
#include "engine/processors.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "sketch/bank_group.h"
#include "sketch/distinct_elements.h"
#include "sketch/linear_kv_sketch.h"
#include "sketch/sparse_recovery.h"
#include "stream/dynamic_stream.h"

namespace kw {
namespace {

[[nodiscard]] DynamicStream test_stream(Vertex n, std::size_t m,
                                        std::size_t churn,
                                        std::uint64_t seed) {
  return DynamicStream::with_churn(erdos_renyi_gnm(n, m, seed), churn,
                                   seed + 1);
}

[[nodiscard]] std::vector<EdgeUpdate> stream_updates(
    const DynamicStream& stream) {
  std::vector<EdgeUpdate> updates;
  updates.reserve(stream.size());
  stream.replay([&updates](const EdgeUpdate& u) { updates.push_back(u); });
  return updates;
}

[[nodiscard]] std::vector<std::tuple<Vertex, Vertex, double>> edge_list(
    const std::vector<Edge>& edges) {
  std::vector<std::tuple<Vertex, Vertex, double>> out;
  for (const Edge& e : edges) {
    out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Round-trip into `fresh` (same-config, never-updated) and demand the
// reserialization be byte-identical: the strongest statement that no state
// was lost or invented.
template <typename T>
void expect_round_trip_identity(const T& original, T& fresh) {
  const std::string bytes = ser::save_to_bytes(original);
  ser::load_from_bytes(bytes, fresh);
  EXPECT_EQ(ser::save_to_bytes(fresh), bytes);
}

[[nodiscard]] Kp12Config small_kp12_config(std::uint64_t seed) {
  Kp12Config c;
  c.k = 2;
  c.seed = seed;
  c.j_copies = 2;
  c.z_samples = 2;
  c.t_levels = 3;
  return c;
}

// ---- envelope integrity ---------------------------------------------------

TEST(SerializeEnvelope, RejectsCorruption) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 12;
  config.seed = 7;
  SparseRecoverySketch sketch(config);
  for (std::uint64_t c = 0; c < 40; ++c) sketch.update(c * 17 % 4096, 1);
  const std::string bytes = ser::save_to_bytes(sketch);

  SparseRecoverySketch dst(config);
  // Truncation: cut inside the payload.
  EXPECT_THROW(ser::load_from_bytes(bytes.substr(0, bytes.size() / 2), dst),
               ser::SerializeError);
  // Truncation: cut inside the 20-byte header.
  EXPECT_THROW(ser::load_from_bytes(bytes.substr(0, 10), dst),
               ser::SerializeError);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0x01;
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError);
  }
  // Unsupported format version.
  {
    std::string bad = bytes;
    bad[4] = 99;
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError);
  }
  // Flipped payload bit -> CRC failure.
  {
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError);
  }
  // Intact bytes still load after all that.
  EXPECT_NO_THROW(ser::load_from_bytes(bytes, dst));
}

TEST(SerializeEnvelope, RejectsWrongType) {
  SparseRecoveryConfig config;
  config.max_coord = 1024;
  SparseRecoverySketch sketch(config);
  sketch.update(3, 1);
  const std::string bytes = ser::save_to_bytes(sketch);

  DistinctElementsConfig dconfig;
  dconfig.max_coord = 1024;
  DistinctElementsSketch other(dconfig);
  EXPECT_THROW(ser::load_from_bytes(bytes, other), ser::SerializeError);
}

TEST(SerializeEnvelope, RejectsGeometryMismatch) {
  SparseRecoveryConfig config;
  config.max_coord = 1024;
  config.seed = 5;
  SparseRecoverySketch sketch(config);
  sketch.update(3, 1);
  const std::string bytes = ser::save_to_bytes(sketch);

  SparseRecoveryConfig other = config;
  other.seed = 6;  // different sketching matrix: must refuse to mix
  SparseRecoverySketch dst(other);
  EXPECT_THROW(ser::load_from_bytes(bytes, dst), ser::SerializeError);
}

TEST(SerializeEnvelope, SparseAndDenseCellSections) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 16;
  config.budget = 8;
  config.rows = 4;
  config.seed = 9;

  // A couple of updates: nearly all cells zero -> sparse encoding, and the
  // payload is far smaller than the dense state.
  SparseRecoverySketch nearly_empty(config);
  nearly_empty.update(1, 1);
  ser::SerializeStats sparse_stats;
  const std::string small = ser::save_to_bytes(nearly_empty, &sparse_stats);
  EXPECT_GT(sparse_stats.cells_total, 0u);
  EXPECT_LT(sparse_stats.cells_nonzero * 2, sparse_stats.cells_total);
  bool saw_sparse = false;
  for (const auto& s : sparse_stats.sections) saw_sparse |= s.sparse;
  EXPECT_TRUE(saw_sparse);

  // Saturate the sketch: dense encoding takes over and the size approaches
  // cells * 32.
  SparseRecoverySketch full(config);
  for (std::uint64_t c = 0; c < (1 << 12); ++c) full.update(c, 1);
  ser::SerializeStats dense_stats;
  const std::string big = ser::save_to_bytes(full, &dense_stats);
  EXPECT_GT(big.size(), small.size());
  EXPECT_GT(dense_stats.cells_nonzero * 2, dense_stats.cells_total);
}

// ---- CRC-32 ---------------------------------------------------------------

// Bit-at-a-time reflected CRC-32 (polynomial 0xEDB88320), the definition
// the table-driven crc32() must reproduce.
[[nodiscard]] std::uint32_t crc32_reference(const unsigned char* data,
                                            std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

[[nodiscard]] std::vector<unsigned char> random_bytes(std::size_t len,
                                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(len);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(ser::crc32(reinterpret_cast<const unsigned char*>(check.data()),
                       check.size()),
            0xCBF43926u);
  EXPECT_EQ(ser::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReference) {
  // Every short length at every alignment: the 8-byte main loop, the
  // byte tail, and both together.
  const std::vector<unsigned char> small = random_bytes(64 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = small.data() + offset;
      ASSERT_EQ(ser::crc32(p, len), crc32_reference(p, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Large random buffers, whole and chained through the seed at uneven
  // split points.
  for (std::uint64_t seed = 2; seed < 5; ++seed) {
    const std::vector<unsigned char> big = random_bytes(1 << 20, seed);
    const std::uint32_t whole = crc32_reference(big.data(), big.size());
    EXPECT_EQ(ser::crc32(big.data(), big.size()), whole);
    const std::size_t split = 1000 * seed + 3;
    std::uint32_t chained = ser::crc32(big.data(), split);
    chained = ser::crc32(big.data() + split, big.size() - split, chained);
    EXPECT_EQ(chained, whole);
  }
}

// ---- round trips: sketches ------------------------------------------------

TEST(SerializeRoundTrip, SparseRecovery) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 14;
  config.budget = 12;
  config.rows = 4;
  config.seed = 21;
  SparseRecoverySketch a(config);
  for (std::uint64_t c = 0; c < 30; ++c) a.update((c * 37) % (1 << 14), 1);
  for (std::uint64_t c = 0; c < 10; ++c) a.update((c * 37) % (1 << 14), -1);
  SparseRecoverySketch b(config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, DistinctElements) {
  DistinctElementsConfig config;
  config.max_coord = 1 << 12;
  config.seed = 22;
  DistinctElementsSketch a(config);
  for (std::uint64_t c = 0; c < 200; ++c) a.update(c * 11 % 4096, 1);
  DistinctElementsSketch b(config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, LinearKv) {
  // A one-level kv table through the flat state layout the multipass
  // checkpoint carries: save -> load -> save is byte-identical, and a key
  // that cancelled to zero leaves no record behind.
  LinearKvConfig config;
  config.max_key = 1 << 16;
  config.max_payload_coord = 1 << 10;
  config.capacity = 16;
  config.seed = 23;
  KvTableBank a(config, /*levels=*/1);
  for (std::uint64_t k = 0; k < 24; ++k) {
    a.update(k * 997 % (1 << 16), 1, (k * 13) % (1 << 10), 1, /*jmax=*/0);
  }
  ser::Writer before;
  a.serialize_flat_state(before);
  a.update(7, 1, 5, 1, 0);
  a.update(7, -1, 5, -1, 0);
  ser::Writer saved;
  a.serialize_flat_state(saved);
  EXPECT_EQ(saved.buffer(), before.buffer());

  KvTableBank b(config, 1);
  ser::Reader r(saved.buffer().data(), saved.buffer().size());
  b.deserialize_flat_state(r);
  r.expect_end();
  ser::Writer resaved;
  b.serialize_flat_state(resaved);
  EXPECT_EQ(resaved.buffer(), saved.buffer());
}

TEST(SerializeRoundTrip, SketchBankAndBankGroup) {
  // One group (a single per-vertex L0 bank), then several.
  BankGroupConfig config;
  config.max_coord = 1 << 12;
  config.instances = 3;
  config.seeds = {24};
  BankGroup a(64, config);
  for (std::size_t v = 0; v < 64; ++v) a.update(0, v, (v * 7) % 4096, 1);
  BankGroup b(64, config);
  expect_round_trip_identity(a, b);

  BankGroupConfig gconfig;
  gconfig.max_coord = 1 << 12;
  gconfig.instances = 2;
  gconfig.seeds = {31, 32, 33};
  BankGroup ga(48, gconfig);
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t v = 0; v < 48; v += 3) ga.update(g, v, v * 5 % 4096, 1);
  }
  BankGroup gb(48, gconfig);
  expect_round_trip_identity(ga, gb);
}

TEST(SerializeRoundTrip, AgmSketch) {
  const DynamicStream stream = test_stream(40, 120, 40, 101);
  AgmConfig config;
  config.seed = 25;
  AgmGraphSketch a(40, config);
  stream.replay([&a](const EdgeUpdate& u) { a.update(u.u, u.v, u.delta); });
  AgmGraphSketch b(40, config);
  expect_round_trip_identity(a, b);
}

// ---- round trips: processors ---------------------------------------------

TEST(SerializeRoundTrip, SpanningForestMidStreamAndFinished) {
  const DynamicStream stream = test_stream(40, 140, 60, 102);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 26;

  SpanningForestProcessor mid(40, config);
  mid.absorb({updates.data(), updates.size() / 2});
  SpanningForestProcessor fresh(40, config);
  expect_round_trip_identity(mid, fresh);

  // The restored sketch finishes to the same forest as the original.
  mid.absorb({updates.data() + updates.size() / 2,
              updates.size() - updates.size() / 2});
  fresh.absorb({updates.data() + updates.size() / 2,
                updates.size() - updates.size() / 2});
  mid.finish();
  fresh.finish();
  EXPECT_EQ(edge_list(mid.take_result().edges),
            edge_list(fresh.take_result().edges));
}

TEST(SerializeRoundTrip, KConnectivityMidStream) {
  const DynamicStream stream = test_stream(36, 180, 60, 103);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 27;
  KConnectivitySketch a(36, 3, config);
  a.absorb({updates.data(), updates.size() / 2});
  KConnectivitySketch b(36, 3, config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, TwoPassSpannerBothPhases) {
  const DynamicStream stream = test_stream(32, 120, 40, 104);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 28;

  // Mid pass 1.
  TwoPassSpanner pass1(32, config);
  pass1.absorb({updates.data(), updates.size() / 2});
  TwoPassSpanner fresh1(32, config);
  expect_round_trip_identity(pass1, fresh1);

  // Mid pass 2 (cluster forest + table fleet state).
  TwoPassSpanner pass2(32, config);
  pass2.absorb({updates.data(), updates.size()});
  pass2.advance_pass();
  pass2.absorb({updates.data(), updates.size() / 3});
  TwoPassSpanner fresh2(32, config);
  expect_round_trip_identity(pass2, fresh2);
}

TEST(SerializeRoundTrip, Kp12BothPhases) {
  const DynamicStream stream = test_stream(32, 120, 40, 105);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  const Kp12Config config = small_kp12_config(29);

  Kp12Sparsifier pass1(32, config);
  pass1.absorb({updates.data(), updates.size() / 2});
  Kp12Sparsifier fresh1(32, config);
  expect_round_trip_identity(pass1, fresh1);

  Kp12Sparsifier pass2(32, config);
  pass2.absorb({updates.data(), updates.size()});
  pass2.advance_pass();
  pass2.absorb({updates.data(), updates.size() / 3});
  Kp12Sparsifier fresh2(32, config);
  expect_round_trip_identity(pass2, fresh2);
}

TEST(SerializeRoundTrip, Kp12NeverUpdated) {
  // Instances are built lazily on the first update; an untouched sparsifier
  // must round-trip as "uninitialized", not as an empty fleet.
  const Kp12Config config = small_kp12_config(30);
  Kp12Sparsifier a(32, config);
  Kp12Sparsifier b(32, config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, MultipassSpannerMidPhase) {
  const DynamicStream stream = test_stream(32, 120, 40, 106);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  MultipassConfig config;
  config.k = 3;
  config.seed = 31;

  // Mid phase 1.
  MultipassSpanner a(32, config);
  a.absorb({updates.data(), updates.size() / 2});
  MultipassSpanner fresh1(32, config);
  expect_round_trip_identity(a, fresh1);

  // Mid phase 2 (clustering state + fresh phase sketches).
  MultipassSpanner b(32, config);
  b.absorb({updates.data(), updates.size()});
  b.advance_pass();
  b.absorb({updates.data(), updates.size() / 3});
  MultipassSpanner fresh2(32, config);
  expect_round_trip_identity(b, fresh2);
}

TEST(SerializeRoundTrip, AdditiveSpannerMidStream) {
  const DynamicStream stream = test_stream(48, 200, 60, 107);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AdditiveConfig config;
  config.d = 4.0;
  config.seed = 32;
  AdditiveSpannerSketch a(48, config);
  a.absorb({updates.data(), updates.size() / 2});
  AdditiveSpannerSketch b(48, config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, DemuxProcessor) {
  const DynamicStream stream = test_stream(40, 140, 40, 108);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 33;

  SpanningForestProcessor lane0(40, config);
  KConnectivitySketch lane1(40, 2, config);
  DemuxProcessor a({&lane0, &lane1},
                   [](const EdgeUpdate& u) { return u.u % 2; });
  a.absorb({updates.data(), updates.size()});

  SpanningForestProcessor fresh0(40, config);
  KConnectivitySketch fresh1(40, 2, config);
  DemuxProcessor b({&fresh0, &fresh1},
                   [](const EdgeUpdate& u) { return u.u % 2; });
  expect_round_trip_identity(a, b);
}

TEST(Serialize, FinishedSpannerRefusesToSerialize) {
  const DynamicStream stream = test_stream(32, 100, 0, 109);
  TwoPassSpanner spanner(32, []() {
    TwoPassConfig c;
    c.k = 2;
    c.seed = 34;
    return c;
  }());
  StreamEngine::run_single(spanner, stream);
  EXPECT_THROW((void)ser::save_to_bytes(spanner), ser::SerializeError);
}

// ---- golden bytes ---------------------------------------------------------
//
// FNV-1a digests of whole envelopes whose payloads carry one-group L0 banks
// behind the 3-u64 bank header (max_coord, instances, seed).  Round trips
// only prove save(load(x)) == x; these pin the bytes themselves, so any
// change to the wire layout of these payloads fails here.  The digests were
// taken when these banks were still a dedicated wrapper type with its own
// serializer.

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SerializeGolden, AdditiveSpannerMidStream) {
  const DynamicStream stream = test_stream(48, 200, 60, 150);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AdditiveConfig config;
  config.d = 4.0;
  config.seed = 51;
  AdditiveSpannerSketch spanner(48, config);
  spanner.absorb({updates.data(), updates.size() / 2});
  const std::string bytes = ser::save_to_bytes(spanner);
  EXPECT_EQ(bytes.size(), 878414u);
  EXPECT_EQ(fnv1a(bytes), 0x8dddc8ca865e8dbeULL);
}

[[nodiscard]] MultipassConfig golden_multipass_config() {
  MultipassConfig config;
  config.k = 3;
  config.seed = 52;
  return config;
}

TEST(SerializeGolden, MultipassSpannerPhase1) {
  const DynamicStream stream = test_stream(32, 120, 40, 151);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  MultipassSpanner spanner(32, golden_multipass_config());
  spanner.absorb({updates.data(), updates.size() / 2});
  const std::string bytes = ser::save_to_bytes(spanner);
  EXPECT_EQ(bytes.size(), 392677u);
  EXPECT_EQ(fnv1a(bytes), 0xb625e2b4454c200eULL);
}

TEST(SerializeGolden, MultipassSpannerPhase2) {
  const DynamicStream stream = test_stream(32, 120, 40, 151);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  MultipassSpanner spanner(32, golden_multipass_config());
  spanner.absorb({updates.data(), updates.size()});
  spanner.advance_pass();
  spanner.absorb({updates.data(), updates.size() / 3});
  const std::string bytes = ser::save_to_bytes(spanner);
  EXPECT_EQ(bytes.size(), 219397u);
  EXPECT_EQ(fnv1a(bytes), 0xb08ee70c9c87454bULL);
}

// The two-pass spanner's payloads: the pass-1 page fleet, and the pass-2
// cluster forest plus its materialized KvTableBank level-diff rows.

[[nodiscard]] TwoPassConfig golden_two_pass_config() {
  TwoPassConfig config;
  config.k = 2;
  config.seed = 53;
  return config;
}

TEST(SerializeGolden, TwoPassSpannerPass1) {
  const DynamicStream stream = test_stream(32, 120, 40, 152);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  TwoPassSpanner spanner(32, golden_two_pass_config());
  spanner.absorb({updates.data(), updates.size() / 2});
  const std::string bytes = ser::save_to_bytes(spanner);
  EXPECT_EQ(bytes.size(), 6207u);
  EXPECT_EQ(fnv1a(bytes), 0x28fd2457bc41a43bULL);
}

TEST(SerializeGolden, TwoPassSpannerPass2) {
  const DynamicStream stream = test_stream(32, 120, 40, 152);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  TwoPassSpanner spanner(32, golden_two_pass_config());
  spanner.absorb({updates.data(), updates.size()});
  spanner.advance_pass();
  spanner.absorb({updates.data(), updates.size() / 3});
  ser::SerializeStats stats;
  const std::string bytes = ser::save_to_bytes(spanner, &stats);
  const auto banks = std::count_if(
      stats.sections.begin(), stats.sections.end(),
      [](const auto& s) { return s.label == "kv_bank.state"; });
  EXPECT_GT(banks, 0);
  EXPECT_EQ(bytes.size(), 791486u);
  EXPECT_EQ(fnv1a(bytes), 0xb4f4cca79480a718ULL);
}

// The engine-facing processors and the standalone sketch envelopes.  These
// digests were taken before the per-type save and load bodies were merged
// into one field list, so they pin that the merge left the bytes alone.

void expect_golden(const std::string& bytes, std::size_t size,
                   std::uint64_t digest) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(fnv1a(bytes), digest);
}

TEST(SerializeGolden, SpanningForestMidStreamAndFinished) {
  const DynamicStream stream = test_stream(40, 140, 60, 154);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 54;
  SpanningForestProcessor forest(40, config);
  forest.absorb({updates.data(), updates.size() / 2});
  expect_golden(ser::save_to_bytes(forest), 254803u, 0xe5714a54b13bd73fULL);
  forest.absorb({updates.data() + updates.size() / 2,
                 updates.size() - updates.size() / 2});
  forest.finish();  // the ForestResult stays held until take_result()
  expect_golden(ser::save_to_bytes(forest), 289320u, 0xa0b9ba6a2fb4005cULL);
}

TEST(SerializeGolden, KConnectivityFinished) {
  // A finished sketch's payload holds its forests and certificate graph.
  const DynamicStream stream = test_stream(36, 180, 60, 155);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 55;
  KConnectivitySketch sketch(36, 3, config);
  sketch.absorb({updates.data(), updates.size()});
  sketch.finish();
  expect_golden(ser::save_to_bytes(sketch), 805648u, 0x0528ab80b7f50b8aULL);
}

TEST(SerializeGolden, DemuxTwoLanes) {
  const DynamicStream stream = test_stream(40, 140, 40, 156);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 56;
  SpanningForestProcessor lane0(40, config);
  KConnectivitySketch lane1(40, 2, config);
  DemuxProcessor demux({&lane0, &lane1},
                       [](const EdgeUpdate& u) { return u.u % 2; });
  demux.absorb({updates.data(), updates.size()});
  ser::SerializeStats stats;
  expect_golden(ser::save_to_bytes(demux, &stats), 590794u,
                0x0052d026af3abb9dULL);
  // Each lane is one opaque section of the demux payload.
  std::vector<std::string> labels;
  for (const auto& s : stats.sections) labels.push_back(s.label);
  EXPECT_EQ(labels, (std::vector<std::string>{"demux.header", "demux.lane",
                                               "demux.lane"}));
  EXPECT_EQ(stats.cells_total, 0u);
}

TEST(SerializeGolden, SketchEnvelopes) {
  BankGroupConfig bconfig;
  bconfig.max_coord = 1 << 12;
  bconfig.instances = 2;
  bconfig.seeds = {57, 58};
  BankGroup bank(32, bconfig);
  for (std::size_t v = 0; v < 32; v += 2) {
    bank.update(v % 2, v, v * 5 % 4096, 1);
  }
  expect_golden(ser::save_to_bytes(bank), 2301u, 0xc89b1c756ba075c9ULL);

  SparseRecoveryConfig sconfig;
  sconfig.max_coord = 1 << 14;
  sconfig.budget = 12;
  sconfig.rows = 4;
  sconfig.seed = 59;
  SparseRecoverySketch sparse(sconfig);
  for (std::uint64_t c = 0; c < 30; ++c) sparse.update((c * 37) % (1 << 14), 1);
  expect_golden(ser::save_to_bytes(sparse), 3138u, 0x8fd8d00057a55f3bULL);

  DistinctElementsConfig dconfig;
  dconfig.max_coord = 1 << 12;
  dconfig.seed = 60;
  DistinctElementsSketch distinct(dconfig);
  for (std::uint64_t c = 0; c < 200; ++c) distinct.update(c * 11 % 4096, 1);
  expect_golden(ser::save_to_bytes(distinct), 35936u, 0x62a7de520f80f5c2ULL);

  const DynamicStream stream = test_stream(40, 120, 40, 157);
  AgmConfig aconfig;
  aconfig.seed = 61;
  AgmGraphSketch agm(40, aconfig);
  stream.replay([&agm](const EdgeUpdate& u) { agm.update(u.u, u.v, u.delta); });
  expect_golden(ser::save_to_bytes(agm), 273633u, 0x4158b22b3f528539ULL);
}

TEST(SerializeGolden, SparseAndDenseCellSections) {
  // Both cell section modes, each pinned with the section flag it reports.
  SparseRecoveryConfig config;
  config.max_coord = 1 << 16;
  config.budget = 8;
  config.rows = 4;
  config.seed = 62;
  SparseRecoverySketch nearly_empty(config);
  nearly_empty.update(1, 1);
  SparseRecoverySketch full(config);
  for (std::uint64_t c = 0; c < (1 << 12); ++c) full.update(c, 1);
  for (const bool sparse : {true, false}) {
    ser::SerializeStats stats;
    const std::string bytes =
        ser::save_to_bytes(sparse ? nearly_empty : full, &stats);
    ASSERT_EQ(stats.sections.size(), 2u);
    EXPECT_EQ(stats.sections[1].label, "sparse_recovery.cells");
    EXPECT_EQ(stats.sections[1].sparse, sparse);
    expect_golden(bytes, sparse ? 218u : 2114u,
                  sparse ? 0x3f3f9a7beea4b17eULL : 0x4840a90e09ac6f81ULL);
  }
}

// ---- the distributed merge protocol --------------------------------------

TEST(SerializeMerge, ForestShardsMatchSequential) {
  const Graph g = erdos_renyi_gnm(48, 220, 110);
  const DynamicStream stream = DynamicStream::with_churn(g, 150, 111);
  AgmConfig config;
  config.seed = 35;

  // Sequential reference.
  SpanningForestProcessor sequential(48, config);
  StreamEngine::run_single(sequential, stream);
  const ForestResult expect = sequential.take_result();

  // 4 shards sketch slices (churn interleaved across shards: an insert and
  // its delete routinely land on different machines), communicate bytes.
  SpanningForestProcessor coordinator(48, config);
  for (const DynamicStream& slice : stream.split(4)) {
    auto local = coordinator.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.finish();
  const ForestResult merged = coordinator.take_result();
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(edge_list(merged.edges), edge_list(expect.edges));
}

TEST(SerializeMerge, KConnectivityShardsMatchSequential) {
  const Graph g = erdos_renyi_gnm(40, 220, 112);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 113);
  AgmConfig config;
  config.seed = 36;

  KConnectivitySketch sequential(40, 3, config);
  StreamEngine::run_single(sequential, stream);
  const KConnectivityResult expect = sequential.take_result();

  KConnectivitySketch coordinator(40, 3, config);
  for (const DynamicStream& slice : stream.split(3)) {
    auto local = coordinator.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.finish();
  const KConnectivityResult merged = coordinator.take_result();
  EXPECT_EQ(edge_list(merged.certificate.edges()),
            edge_list(expect.certificate.edges()));
}

TEST(SerializeMerge, Kp12TwoRoundProtocolMatchesSequential) {
  const Graph g = erdos_renyi_gnm(32, 130, 114);
  const DynamicStream stream = DynamicStream::with_churn(g, 80, 115);
  const Kp12Config config = small_kp12_config(37);

  Kp12Sparsifier sequential(32, config);
  const Kp12Result expect = sequential.run(stream);

  const std::vector<DynamicStream> slices = stream.split(3);
  Kp12Sparsifier coordinator(32, config);
  // Round 1: pass-1 shards.
  for (const DynamicStream& slice : slices) {
    auto local = coordinator.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.advance_pass();
  // Broadcast the advanced state; round 2: pass-2 shards from it.
  const std::string advanced = ser::save_to_bytes(coordinator);
  for (const DynamicStream& slice : slices) {
    Kp12Sparsifier worker(32, config);
    ser::load_from_bytes(advanced, worker);
    auto local = worker.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.finish();
  Kp12Result merged = coordinator.take_result();
  EXPECT_EQ(edge_list(merged.sparsifier.edges()),
            edge_list(expect.sparsifier.edges()));
}

// ---- StreamEngine checkpoint/restore --------------------------------------

class CheckpointFile {
 public:
  explicit CheckpointFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~CheckpointFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove((path_ + ".prev").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Checkpoint, ResumeFromLastCheckpointMatchesUninterrupted) {
  const DynamicStream stream = test_stream(48, 260, 120, 116);
  AgmConfig config;
  config.seed = 38;

  // Uninterrupted reference.
  SpanningForestProcessor reference(48, config);
  StreamEngine::run_single(reference, stream);
  const ForestResult expect = reference.take_result();

  // Checkpointed run with a cadence that is NOT a divisor of the batch size
  // or the stream length: the last checkpoint lands mid-stream, mid-batch.
  const CheckpointFile ckpt("forest_resume.kwsk");
  StreamEngineOptions options;
  options.batch_size = 64;
  options.checkpoint_every_updates = 150;
  options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor victim(48, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
    // The run completed, but the file on disk is the LAST periodic
    // checkpoint -- exactly what a kill -9 after that write leaves behind.
  }

  // A new process: fresh processor, resume from the file, replay remainder.
  SpanningForestProcessor resumed(48, config);
  StreamEngine engine(options);
  engine.attach(resumed);
  const EngineRunStats stats = engine.resume(stream, ckpt.path());
  EXPECT_EQ(stats.passes, 1u);
  const ForestResult result = resumed.take_result();
  EXPECT_EQ(edge_list(result.edges), edge_list(expect.edges));
}

TEST(Checkpoint, ResumeMidSecondPassOfTwoPassRun) {
  const DynamicStream stream = test_stream(32, 120, 40, 117);
  const Kp12Config config = small_kp12_config(39);

  Kp12Sparsifier reference(32, config);
  const Kp12Result expect = reference.run(stream);

  const CheckpointFile ckpt("kp12_resume.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  // Cadence > one pass, < two passes: the surviving checkpoint sits inside
  // pass 2, so resume() must restore phase AND mid-pass offset.
  options.checkpoint_every_updates = stream.size() + stream.size() / 3;
  options.checkpoint_path = ckpt.path();
  {
    Kp12Sparsifier victim(32, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
  }

  Kp12Sparsifier resumed(32, config);
  StreamEngine engine(options);
  engine.attach(resumed);
  (void)engine.resume(stream, ckpt.path());
  Kp12Result result = resumed.take_result();
  EXPECT_EQ(edge_list(result.sparsifier.edges()),
            edge_list(expect.sparsifier.edges()));
}

TEST(Checkpoint, RejectsCorruptAndMismatchedFiles) {
  const DynamicStream stream = test_stream(32, 100, 0, 118);
  AgmConfig config;
  config.seed = 40;

  const CheckpointFile ckpt("corrupt.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  options.checkpoint_every_updates = 50;
  options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor victim(32, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
  }

  // Missing file.
  {
    SpanningForestProcessor p(32, config);
    StreamEngine engine(options);
    engine.attach(p);
    EXPECT_THROW((void)engine.resume(stream, ckpt.path() + ".nope"),
                 ser::SerializeError);
  }
  // Flipped byte in the latest AND the rotation fallback: CRC rejects both
  // before any state is parsed (the corrupt-latest-with-good-prev case --
  // fallback succeeds -- lives in test_crash_recovery.cc).
  {
    for (const std::string& path : {ckpt.path(), ckpt.path() + ".prev"}) {
      std::ifstream is(path, std::ios::binary);
      if (!is) continue;
      std::string bytes((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
      is.close();
      bytes[bytes.size() / 2] ^= 0x10;
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    SpanningForestProcessor p(32, config);
    StreamEngine engine(options);
    engine.attach(p);
    EXPECT_THROW((void)engine.resume(stream, ckpt.path()),
                 ser::SerializeError);
  }
}

TEST(Checkpoint, WrongProcessorSetRejected) {
  const DynamicStream stream = test_stream(32, 100, 0, 119);
  AgmConfig config;
  config.seed = 41;

  const CheckpointFile ckpt("wrong_set.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  options.checkpoint_every_updates = 50;
  options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor victim(32, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
  }

  // A different processor type cannot adopt the checkpoint.
  KConnectivitySketch other(32, 2, config);
  StreamEngine engine(options);
  engine.attach(other);
  EXPECT_THROW((void)engine.resume(stream, ckpt.path()), ser::SerializeError);
}

TEST(Checkpoint, OptionsValidated) {
  StreamEngineOptions no_path;
  no_path.checkpoint_every_updates = 100;
  EXPECT_THROW(StreamEngine{no_path}, std::invalid_argument);

  // Sharded checkpointing is legal (pass-boundary cuts); what a sharded
  // engine rejects is resuming from a MID-pass cut, which only a sequential
  // run can write.  Exercised end to end in test_crash_recovery.cc; here we
  // just pin that construction succeeds.
  StreamEngineOptions sharded;
  sharded.shards = 2;
  sharded.checkpoint_every_updates = 100;
  sharded.checkpoint_path = "x.kwsk";
  EXPECT_NO_THROW(StreamEngine{sharded});
}

TEST(Checkpoint, ShardedResumeRejectsMidPassCut) {
  // A sequential checkpointed run writes mid-pass cuts; a sharded engine
  // cannot restart inside a pass and must say so, not desync.
  const DynamicStream stream = test_stream(48, 260, 120, 133);
  AgmConfig config;
  config.seed = 77;
  const CheckpointFile ckpt("mid_pass_cut.kwsk");

  StreamEngineOptions seq_options;
  seq_options.batch_size = 64;
  seq_options.checkpoint_every_updates = 150;  // not a pass boundary
  seq_options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor forest(48, config);
    StreamEngine seq(seq_options);
    seq.attach(forest);
    (void)seq.run(stream);
  }

  StreamEngineOptions sharded_options;
  sharded_options.batch_size = 64;
  sharded_options.shards = 2;
  SpanningForestProcessor fresh(48, config);
  StreamEngine sharded(sharded_options);
  sharded.attach(fresh);
  EXPECT_THROW((void)sharded.resume(stream, ckpt.path()),
               ser::SerializeError);
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

// Pins the engine's checkpoint files themselves (envelope, header, nested
// processor sections): a TwoPassSpanner run whose last two checkpoints are
// both cuts inside pass 2, so the latest file and its rotation sibling hold
// materialized KvTableBanks.
TEST(CheckpointGolden, EngineFiles) {
  const DynamicStream stream = test_stream(32, 120, 40, 153);
  const CheckpointFile ckpt("golden_engine.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  // Cuts near 0.6, 1.2 and 1.8 passes (batch granularity).
  options.checkpoint_every_updates = stream.size() * 3 / 5;
  options.checkpoint_path = ckpt.path();
  {
    TwoPassSpanner spanner(32, golden_two_pass_config());
    StreamEngine engine(options);
    engine.attach(spanner);
    (void)engine.run(stream);
  }
  const std::string latest = file_bytes(ckpt.path());
  const std::string prev = file_bytes(ckpt.path() + ".prev");
  // Payload bytes 4..11 (file offset 24) hold the pass index: 1 = pass 2.
  for (const std::string* file : {&latest, &prev}) {
    ASSERT_GT(file->size(), 32u);
    EXPECT_EQ(static_cast<int>((*file)[24]), 1);
  }
  EXPECT_EQ(latest.size(), 1471270u);
  EXPECT_EQ(fnv1a(latest), 0x4ef199e8bc2ee9d6ULL);
  EXPECT_EQ(prev.size(), 595934u);
  EXPECT_EQ(fnv1a(prev), 0x1e8693eb3ceaf39eULL);
}


// ---- hostile length prefixes ---------------------------------------------
//
// A length prefix is checked against the bytes left before anything is
// sized from it.  Each count below is 2^64 / element_size + 1, so a check
// written as `count * size > remaining` would wrap to `size` and pass, and
// the container would then throw std::length_error -- which checkpoint
// recovery does not catch.  Every case must surface as SerializeError.

constexpr std::uint64_t wrapping_count(std::uint64_t element_bytes) {
  return (~std::uint64_t{0} / element_bytes) + 1;
}

// Offset of the section labelled `label` in w's buffer.  Valid when every
// byte before it was written inside some section.
[[nodiscard]] std::size_t section_offset(ser::Writer& w,
                                         const std::string& label) {
  std::size_t offset = 0;
  for (const auto& section : w.stats().sections) {
    if (section.label == label) return offset;
    offset += section.bytes;
  }
  ADD_FAILURE() << "no section " << label;
  return 0;
}

void patch_u64(std::vector<unsigned char>& bytes, std::size_t offset,
               std::uint64_t value) {
  ASSERT_LE(offset + 8, bytes.size());
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

template <typename T>
void expect_rejected(const std::vector<unsigned char>& bytes, T& dst) {
  ser::Reader r(bytes.data(), bytes.size());
  EXPECT_THROW(dst.deserialize(r), ser::SerializeError);
}

TEST(SerializeHostile, VectorLengthPrefixesCannotWrap) {
  for (const std::uint64_t element : {std::uint64_t{4}, std::uint64_t{8}}) {
    // The count, then 8 bytes: at least one element really follows.
    std::vector<unsigned char> bytes(16, 0);
    patch_u64(bytes, 0, wrapping_count(element));
    ser::Reader r(bytes.data(), bytes.size());
    ser::Loader loader(r);
    if (element == 4) {
      std::vector<std::uint32_t> v;
      EXPECT_THROW(loader.value(v), ser::SerializeError);
    } else {
      std::vector<std::uint64_t> v;
      EXPECT_THROW(loader.value(v), ser::SerializeError);
    }
  }
}

TEST(SerializeHostile, ForestEdgeListLengthCannotWrap) {
  const DynamicStream stream = test_stream(24, 60, 10, 140);
  AgmConfig config;
  config.seed = 41;
  SpanningForestProcessor forest(24, config);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  forest.absorb({updates.data(), updates.size()});
  forest.finish();
  ser::Writer w;
  forest.serialize(w);
  std::vector<unsigned char> bytes = w.buffer();
  // forest.result: finished flag, result flag, then the edge count.
  patch_u64(bytes, section_offset(w, "forest.result") + 2, wrapping_count(16));
  SpanningForestProcessor dst(24, config);
  expect_rejected(bytes, dst);
}

TEST(SerializeHostile, TwoPassSpannerLengthsCannotWrap) {
  const DynamicStream stream = test_stream(32, 120, 40, 141);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 42;
  TwoPassSpanner spanner(32, config);
  spanner.absorb({updates.data(), updates.size()});
  spanner.advance_pass();
  spanner.absorb({updates.data(), updates.size() / 3});
  ser::Writer w;
  spanner.serialize(w);
  const std::vector<unsigned char> clean = w.buffer();
  const std::size_t meta = section_offset(w, "two_pass.pass2_meta");
  {
    ser::Reader r(clean.data(), clean.size());
    TwoPassSpanner dst(32, config);
    ASSERT_NO_THROW(dst.deserialize(r));
  }
  const auto read_u64 = [&clean](std::size_t offset) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= std::uint64_t{clean[offset + i]} << (8 * i);
    }
    return v;
  };
  // pass2_meta: four diagnostics counters, the terminals-per-level size
  // vector, pass-1 touched bytes, then the augmented edge map.
  const std::size_t levels_at = meta + 4 * 8;
  const std::size_t map_at = levels_at + 8 + 8 * read_u64(levels_at) + 8;
  // cluster_forest: n, k, built flag, then per level n parents, n witness
  // edges and n terminal flags before the first member-list length.
  const std::size_t members_at =
      section_offset(w, "cluster_forest") + 4 + 4 + 1 + 32 * (4 + 16 + 1);
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {levels_at, wrapping_count(8)},
      {map_at, wrapping_count(16)},
      {members_at, wrapping_count(4)},
  };
  for (const auto& [offset, count] : cases) {
    std::vector<unsigned char> bytes = clean;
    patch_u64(bytes, offset, count);
    TwoPassSpanner dst(32, config);
    expect_rejected(bytes, dst);
  }
}

TEST(SerializeHostile, KvBankEntryCountIsBounded) {
  LinearKvConfig config;
  config.max_key = 1 << 10;
  config.max_payload_coord = 1 << 10;
  config.capacity = 64;  // 3 tables x 128 cells: slot ids below 384
  config.seed = 43;
  KvTableBank bank(config, 3);
  for (std::uint64_t k = 0; k < 6; ++k) bank.update(k * 31, 1, k, 1, k % 3);
  ser::Writer w;
  bank.serialize_state(w);
  const std::vector<unsigned char> clean = w.buffer();
  // Header: entry count, levels, cell stride.  Past the slot limit, under
  // it but past what the payload can hold (18 entries are stored), and a
  // count whose byte size wraps.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{300}, wrapping_count(8)}) {
    std::vector<unsigned char> bytes = clean;
    patch_u64(bytes, 0, count);
    KvTableBank dst(config, 3);
    ser::Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(dst.deserialize_state(r), ser::SerializeError)
        << "entry count " << count;
  }
  KvTableBank dst(config, 3);
  ser::Reader r(clean.data(), clean.size());
  EXPECT_NO_THROW(dst.deserialize_state(r));
}

TEST(SerializeHostile, MultipassTableCountIsBounded) {
  const DynamicStream stream = test_stream(32, 120, 40, 144);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  MultipassConfig config;
  config.k = 3;
  config.seed = 44;
  MultipassSpanner spanner(32, config);
  spanner.absorb({updates.data(), updates.size()});
  ser::Writer w;
  spanner.serialize(w);
  const std::vector<unsigned char> clean = w.buffer();
  // The per-vertex tables close the payload; the last one's entry count is
  // followed only by its payload cell count and its own entries.
  std::size_t last = 0;
  std::size_t offset = 0;
  for (const auto& section : w.stats().sections) {
    if (section.label == "kv_bank.flat_state") last = offset;
    offset += section.bytes;
  }
  ASSERT_GT(last, 0u);
  // 3 tables x 32 cells: slot ids below 96.  An entry is a slot id and 25
  // cells, 808 bytes, so 95 entries are more than the payload holds.
  ASSERT_LT((clean.size() - last - 16) / 808, 95u);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{95}, wrapping_count(8)}) {
    std::vector<unsigned char> bytes = clean;
    patch_u64(bytes, last, count);
    MultipassSpanner dst(32, config);
    expect_rejected(bytes, dst);
  }
  MultipassSpanner dst(32, config);
  ser::Reader r(clean.data(), clean.size());
  EXPECT_NO_THROW(dst.deserialize(r));
}

// A finished KConnectivitySketch stores its certificate graph as a vertex
// count, an edge count, then (u, v, weight) per edge.  The count must be the
// sketch's n and every edge must join two distinct vertices below it;
// otherwise Graph throws std::invalid_argument / std::out_of_range, or
// allocates 2^32 adjacency lists, and checkpoint recovery catches none of
// those.

[[nodiscard]] std::uint64_t read_u64(const std::vector<unsigned char>& bytes,
                                     std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= std::uint64_t{bytes[offset + i]} << (8 * i);
  }
  return v;
}

void patch_u32(std::vector<unsigned char>& bytes, std::size_t offset,
               std::uint32_t value) {
  ASSERT_LE(offset + 4, bytes.size());
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

struct CertificateBytes {
  std::vector<unsigned char> bytes;
  std::size_t graph_at = 0;  // offset of the certificate's vertex count
};

constexpr Vertex kCertN = 24;

[[nodiscard]] AgmConfig certificate_config() {
  AgmConfig config;
  config.seed = 44;
  return config;
}

[[nodiscard]] CertificateBytes finished_certificate() {
  const DynamicStream stream = test_stream(kCertN, 80, 20, 142);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  KConnectivitySketch sketch(kCertN, 2, certificate_config());
  sketch.absorb({updates.data(), updates.size()});
  sketch.finish();
  ser::Writer w;
  sketch.serialize(w);
  CertificateBytes out{w.buffer(), 0};
  // k_connectivity.result: finished and result flags, the forest count,
  // then each forest as a length-prefixed list of 16-byte edges.
  std::size_t at = section_offset(w, "k_connectivity.result") + 2;
  const std::uint64_t forests = read_u64(out.bytes, at);
  at += 8;
  for (std::uint64_t f = 0; f < forests; ++f) {
    at += 8 + 16 * read_u64(out.bytes, at);
  }
  out.graph_at = at;
  return out;
}

void expect_certificate_rejected(const std::vector<unsigned char>& bytes) {
  KConnectivitySketch dst(kCertN, 2, certificate_config());
  expect_rejected(bytes, dst);
}

TEST(SerializeHostile, CertificateVertexCountMustMatch) {
  const CertificateBytes clean = finished_certificate();
  {
    KConnectivitySketch dst(kCertN, 2, certificate_config());
    ser::Reader r(clean.bytes.data(), clean.bytes.size());
    ASSERT_NO_THROW(dst.deserialize(r));
  }
  for (const std::uint32_t n : {kCertN - 1, kCertN + 1, ~std::uint32_t{0}}) {
    std::vector<unsigned char> bytes = clean.bytes;
    patch_u32(bytes, clean.graph_at, n);
    expect_certificate_rejected(bytes);
  }
}

TEST(SerializeHostile, CertificateEndpointsOutOfRangeRejected) {
  const CertificateBytes clean = finished_certificate();
  ASSERT_GT(read_u64(clean.bytes, clean.graph_at + 4), 0u);
  const std::size_t edge_at = clean.graph_at + 4 + 8;
  for (const std::size_t offset : {edge_at, edge_at + 4}) {
    for (const std::uint32_t endpoint : {kCertN, ~std::uint32_t{0}}) {
      std::vector<unsigned char> bytes = clean.bytes;
      patch_u32(bytes, offset, endpoint);
      expect_certificate_rejected(bytes);
    }
  }
}

TEST(SerializeHostile, CertificateSelfLoopRejected) {
  const CertificateBytes clean = finished_certificate();
  ASSERT_GT(read_u64(clean.bytes, clean.graph_at + 4), 0u);
  const std::size_t edge_at = clean.graph_at + 4 + 8;
  std::vector<unsigned char> bytes = clean.bytes;
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[edge_at + 4 + i] = bytes[edge_at + i];  // v := u
  }
  expect_certificate_rejected(bytes);
}

}  // namespace
}  // namespace kw
