#include "core/additive_spanner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "serialize/serialize.h"

namespace kw {
namespace {

[[nodiscard]] AdditiveConfig make_config(double d, std::uint64_t seed) {
  AdditiveConfig c;
  c.d = d;
  c.seed = seed;
  return c;
}

[[nodiscard]] bool subgraph_of(const Graph& h, const Graph& g) {
  for (const auto& e : h.edges()) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(Additive, SinglePassOnly) {
  const Graph g = erdos_renyi_gnm(64, 400, 1);
  const DynamicStream stream = DynamicStream::from_graph(g, 2);
  AdditiveSpannerSketch sketch(64, make_config(4, 3));
  (void)sketch.run(stream);
  EXPECT_EQ(stream.passes_used(), 1u);
}

TEST(Additive, SpannerIsSubgraphAndConnectedOk) {
  const Graph g = erdos_renyi_gnm(128, 1500, 5);
  const DynamicStream stream = DynamicStream::from_graph(g, 7);
  AdditiveSpannerSketch sketch(128, make_config(6, 11));
  const AdditiveResult result = sketch.run(stream);
  EXPECT_TRUE(result.diagnostics.healthy());
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
}

TEST(Additive, DistortionBoundedByNOverD) {
  // Theorem 19: distortion O(n/d).  Constant 4 is generous for our knobs.
  const Vertex n = 128;
  const Graph g = erdos_renyi_gnm(n, 1200, 13);
  const DynamicStream stream = DynamicStream::from_graph(g, 17);
  const double d = 8.0;
  AdditiveSpannerSketch sketch(n, make_config(d, 19));
  const AdditiveResult result = sketch.run(stream);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(static_cast<double>(report.max_surplus),
            4.0 * static_cast<double>(n) / d);
}

TEST(Additive, DeletionsHandled) {
  const Graph g = erdos_renyi_gnm(96, 800, 23);
  const DynamicStream stream = DynamicStream::with_churn(g, 600, 29);
  AdditiveSpannerSketch sketch(96, make_config(6, 31));
  const AdditiveResult result = sketch.run(stream);
  EXPECT_TRUE(subgraph_of(result.spanner, g))
      << "phantom (deleted) edge leaked into the spanner";
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
}

TEST(Additive, SparseGraphFullyKept) {
  // When every degree is below the threshold, E_low = E and the spanner is
  // exact (distortion 0).
  const Graph g = path_graph(100);
  const DynamicStream stream = DynamicStream::from_graph(g, 37);
  AdditiveSpannerSketch sketch(100, make_config(8, 41));
  const AdditiveResult result = sketch.run(stream);
  EXPECT_EQ(result.spanner.m(), g.m());
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_EQ(report.max_surplus, 0u);
}

TEST(Additive, DenseGraphIsCompressed) {
  // K_n with small d: space ~n*d, spanner must drop most edges.
  const Graph g = complete_graph(96);
  const DynamicStream stream = DynamicStream::from_graph(g, 43);
  AdditiveConfig config = make_config(3, 47);
  config.threshold_factor = 0.5;
  AdditiveSpannerSketch sketch(96, config);
  const AdditiveResult result = sketch.run(stream);
  EXPECT_LT(result.spanner.m(), g.m() / 2);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  // Theorem 19 scale: O(n/d) = 32 here; cluster detours stay well inside.
  EXPECT_LE(static_cast<double>(report.max_surplus), 96.0 / 3.0);
}

TEST(Additive, SpaceGrowsWithD) {
  const Vertex n = 64;
  AdditiveSpannerSketch small(n, make_config(2, 53));
  AdditiveSpannerSketch large(n, make_config(16, 53));
  const DynamicStream stream =
      DynamicStream::from_graph(erdos_renyi_gnm(n, 200, 59), 61);
  const AdditiveResult rs = small.run(stream);
  const AdditiveResult rl = large.run(stream);
  EXPECT_LT(rs.nominal_bytes, rl.nominal_bytes);
}

// Distortion sweep over d (Theorem 3's tradeoff).
class AdditiveD : public ::testing::TestWithParam<double> {};

TEST_P(AdditiveD, TradeoffHolds) {
  const double d = GetParam();
  const Vertex n = 96;
  const Graph g = erdos_renyi_gnm(n, 900, 67);
  const DynamicStream stream = DynamicStream::from_graph(g, 71);
  AdditiveSpannerSketch sketch(n, make_config(d, 73));
  const AdditiveResult result = sketch.run(stream);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(static_cast<double>(report.max_surplus),
            std::max(4.0, 4.0 * static_cast<double>(n) / d));
}

INSTANTIATE_TEST_SUITE_P(DSweep, AdditiveD,
                         ::testing::Values(2.0, 4.0, 8.0, 16.0));

TEST(Additive, CenterFlagAccessible) {
  AdditiveSpannerSketch sketch(32, make_config(4, 79));
  std::size_t centers = 0;
  for (Vertex v = 0; v < 32; ++v) {
    if (sketch.is_center(v)) ++centers;
  }
  // Rate 2/d = 1/2: expect some but not all.
  EXPECT_GT(centers, 4u);
  EXPECT_LT(centers, 30u);
}

TEST(Additive, FinishTwiceThrows) {
  AdditiveSpannerSketch sketch(16, make_config(2, 83));
  sketch.update({0, 1, 1, 1.0});
  (void)sketch.finish();
  EXPECT_THROW((void)sketch.finish(), std::logic_error);
  EXPECT_THROW(sketch.update({0, 1, 1, 1.0}), std::logic_error);
}

// A batch whose last update is out of range is rejected whole: no earlier
// update of it may reach any sketch.
TEST(AdditiveSpanner, OutOfRangeBatchLeavesStateUntouched) {
  AdditiveSpannerSketch sketch(32, make_config(4, 84));
  const std::vector<EdgeUpdate> batch = {{1, 2, +1}, {3, 4, +1}, {5, 99, +1}};
  EXPECT_THROW(sketch.absorb(batch), std::out_of_range);
  const AdditiveSpannerSketch fresh(32, make_config(4, 84));
  EXPECT_TRUE(ser::save_to_bytes(sketch) == ser::save_to_bytes(fresh));
}

}  // namespace
}  // namespace kw
