#include "core/multipass_spanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"

namespace kw {
namespace {

[[nodiscard]] MultipassConfig make_config(unsigned k, std::uint64_t seed) {
  MultipassConfig c;
  c.k = k;
  c.seed = seed;
  return c;
}

[[nodiscard]] bool subgraph_of(const Graph& h, const Graph& g) {
  for (const auto& e : h.edges()) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(Multipass, UsesExactlyKPasses) {
  const Graph g = erdos_renyi_gnm(80, 400, 1);
  for (const unsigned k : {2u, 3u, 4u}) {
    const DynamicStream stream = DynamicStream::from_graph(g, 2);
    const MultipassResult result =
        multipass_baswana_sen(stream, make_config(k, 3 + k));
    EXPECT_EQ(result.passes_used, k);
    EXPECT_EQ(stream.passes_used(), k);
  }
}

class MultipassSweep : public ::testing::TestWithParam<
                           std::tuple<std::string, unsigned>> {};

TEST_P(MultipassSweep, StretchBound2kMinus1) {
  const auto [family, k] = GetParam();
  const Graph g = make_family(family, 100, 600, 7);
  const DynamicStream stream = DynamicStream::from_graph(g, 11);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(k, 13));
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok) << family << " k=" << k;
  EXPECT_LE(report.max_stretch, 2.0 * k - 1.0 + 1e-9)
      << family << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndK, MultipassSweep,
    ::testing::Combine(::testing::Values("er", "ba", "regular"),
                       ::testing::Values(2u, 3u)));

TEST(Multipass, DeletionsDoNotLeak) {
  const Graph g = erdos_renyi_gnm(80, 500, 17);
  const DynamicStream stream = DynamicStream::with_churn(g, 400, 19);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(2, 23));
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 3.0 + 1e-9);
}

TEST(Multipass, CompressesDenseGraphs) {
  const Graph g = erdos_renyi_gnm(128, 4000, 29);
  const DynamicStream stream = DynamicStream::from_graph(g, 31);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(2, 37));
  EXPECT_LT(result.spanner.m(), g.m());
}

TEST(Multipass, K1KeepsNeighborhoods) {
  // k=1: a single final phase where every singleton cluster takes one edge
  // per neighboring cluster = the whole simple graph (stretch 1).
  const Graph g = erdos_renyi_gnm(40, 150, 41);
  const DynamicStream stream = DynamicStream::from_graph(g, 43);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(1, 47));
  EXPECT_EQ(result.spanner.m(), g.m());
}

TEST(Multipass, EmptyStream) {
  const DynamicStream stream(16);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(2, 53));
  EXPECT_EQ(result.spanner.m(), 0u);
}

TEST(Multipass, EndpointOutOfRangeThrows) {
  // The whole batch is validated before the first sketch write: a bad
  // endpoint anywhere in it throws and leaves the state untouched.
  MultipassSpanner spanner(32, make_config(2, 59));
  const std::vector<EdgeUpdate> bad = {{5, 40, +1}};
  EXPECT_THROW(spanner.absorb(bad), std::out_of_range);
  const std::vector<EdgeUpdate> late = {{1, 2, +1}, {3, 4, +1}, {32, 0, +1}};
  EXPECT_THROW(spanner.absorb(late), std::out_of_range);
  spanner.advance_pass();
  spanner.finish();
  EXPECT_EQ(spanner.take_result().spanner.m(), 0u);
}

// ---- golden outputs ---------------------------------------------------------
//
// Digests of finished results: FNV-1a over the sorted spanner edge list,
// plus the diagnostics.  They pin what the per-vertex tables decode, so a
// change to the table storage that alters any decoded edge, decode miss or
// space figure fails here.

[[nodiscard]] std::uint64_t edge_digest(const Graph& g) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (const auto& e : g.edges()) {
    edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(edges.begin(), edges.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [u, v] : edges) {
    for (const std::uint64_t x : {std::uint64_t{u}, std::uint64_t{v}}) {
      for (int b = 0; b < 8; ++b) {
        h ^= (x >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

struct GoldenResult {
  std::size_t edges;
  std::uint64_t digest;
  std::size_t unrecovered;
  std::size_t nominal_bytes;
  std::size_t passes_used;
};

void expect_golden(const MultipassResult& result, const GoldenResult& want) {
  EXPECT_EQ(result.spanner.m(), want.edges);
  EXPECT_EQ(edge_digest(result.spanner), want.digest);
  EXPECT_EQ(result.unrecovered, want.unrecovered);
  EXPECT_EQ(result.nominal_bytes, want.nominal_bytes);
  EXPECT_EQ(result.passes_used, want.passes_used);
}

TEST(MultipassGolden, ChurnedK2) {
  const Graph g = erdos_renyi_gnm(64, 400, 61);
  const DynamicStream stream = DynamicStream::with_churn(g, 300, 67);
  expect_golden(multipass_baswana_sen(stream, make_config(2, 71)),
                {310, 0x4035d9595aafcda4ULL, 0, 29712432, 2});
}

TEST(MultipassGolden, TightTablesK3) {
  // Under-provisioned tables: some decodes fail, so `unrecovered` is pinned
  // away from zero.
  const Graph g = erdos_renyi_gnm(100, 1500, 73);
  const DynamicStream stream = DynamicStream::with_churn(g, 500, 79);
  MultipassConfig config = make_config(3, 83);
  config.table_capacity_factor = 0.1;
  expect_golden(multipass_baswana_sen(stream, config),
                {548, 0x2ba5436845f70157ULL, 20, 6355272, 3});
}

TEST(MultipassGolden, ShardedK3) {
  const Graph g = erdos_renyi_gnm(80, 600, 89);
  const DynamicStream stream = DynamicStream::with_churn(g, 400, 97);
  MultipassSpanner spanner(80, make_config(3, 101));
  StreamEngine engine(StreamEngineOptions{64, /*shards=*/3});
  engine.attach(spanner);
  (void)engine.run(stream);
  expect_golden(spanner.take_result(),
                {337, 0x3a8a5e70a1a571caULL, 2, 32701512, 3});
}

}  // namespace
}  // namespace kw
