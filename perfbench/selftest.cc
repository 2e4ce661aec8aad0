// Self-test of the benchmark's tracing harness (trace.h):
//
//   self_time        the self-time arithmetic on a synthetic span set;
//   wrapped_shardsN  a traced processor gives the same result as the bare
//                    one at 1 and 2 shards, and its spans account for
//                    every absorbed update (clones and merges included);
//   checkpoint       a checkpoint + resume() through the wrapper round-trips
//                    to the uninterrupted result, with serialize,
//                    checkpoint I/O and deserialize spans recorded.
//
// Usage: perfbench_selftest [workdir]   (checkpoints go to workdir, default
// the current directory).  Prints PASS/FAIL per case; exit code 0 iff all
// cases pass.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "agm/spanning_forest.h"
#include "core/two_pass_spanner.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "stream/dynamic_stream.h"
#include "trace.h"

namespace kw::perfbench {
namespace {

int failures = 0;

void report(bool ok, const std::string& name, const std::string& detail = {}) {
  std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", name.c_str(),
              detail.empty() ? "" : ": ", detail.c_str());
  if (!ok) ++failures;
}

Span make_span(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // Parent [0, 10] with overlapping children [1, 3] and [2, 5], a disjoint
  // child [7, 8], and a child [9, 12] overrunning the parent (clipped to
  // [9, 10]).  The grandchild [1.5, 2] and the unrelated root [4, 6] must
  // not count.  Covered: [1, 5] + [7, 8] + [9, 10] = 6, so self = 4.
  std::vector<Span> spans = {
      make_span("parent", 0, 10, -1), make_span("a", 1, 3, 0),
      make_span("b", 2, 5, 0),        make_span("c", 7, 8, 0),
      make_span("d", 9, 12, 0),       make_span("grandchild", 1.5, 2, 1),
      make_span("other", 4, 6, -1),
  };
  const double parent_self = self_time(spans, 0);
  const double a_self = self_time(spans, 1);   // 2 - 0.5
  const double leaf_self = self_time(spans, 3);  // no children
  report(std::fabs(parent_self - 4.0) < 1e-12 &&
             std::fabs(a_self - 1.5) < 1e-12 &&
             std::fabs(leaf_self - 1.0) < 1e-12,
         "self_time",
         "parent " + std::to_string(parent_self) + " a " +
             std::to_string(a_self) + " leaf " + std::to_string(leaf_self));
}

using EdgeKey = std::tuple<Vertex, Vertex, double>;

std::vector<EdgeKey> canonical(const std::vector<Edge>& edges) {
  std::vector<EdgeKey> out;
  for (const Edge& e : edges) {
    out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Traced {
  std::vector<EdgeKey> edges;
  std::uint64_t absorbed = 0;
  std::size_t clones = 0;
  std::size_t merges = 0;
  std::size_t worker_spans = 0;  // absorb spans off the caller thread
  std::size_t passes = 0;
};

// Runs a fresh processor built by `make` through the engine, optionally
// wrapped, and returns its canonical result plus span tallies.
template <class P, class Make, class Take>
Traced run_once(Make make, Take take, const DynamicStream& stream,
                std::size_t shards, bool wrapped) {
  Tracer tracer;
  P processor = make();
  TracedProcessor traced(processor, "layer", tracer);
  StreamEngine engine(StreamEngineOptions{/*batch_size=*/512, shards});
  engine.attach(wrapped ? static_cast<StreamProcessor&>(traced) : processor);
  ReplaySource replay(stream);
  TimingSource source(replay, wrapped ? &tracer : nullptr);
  (void)engine.run(source);
  Traced out;
  out.edges = take(processor);
  out.passes = source.passes();
  for (const Span& s : tracer.spans()) {
    if (s.name == "layer.absorb") {
      out.absorbed += s.count;
      if (s.thread != tracer.caller_thread()) ++out.worker_spans;
    }
    if (s.name == "layer.clone_empty") ++out.clones;
    if (s.name == "layer.merge") ++out.merges;
  }
  return out;
}

void test_wrapped_equals_bare(std::size_t shards) {
  const Vertex n = 128;
  const Graph g = erdos_renyi_gnm(n, 6 * n, 3);
  const DynamicStream stream = DynamicStream::with_churn(g, 4 * n, 4);

  AgmConfig agm;
  agm.seed = 5;
  auto make_forest = [&] { return SpanningForestProcessor(n, agm); };
  auto take_forest = [](SpanningForestProcessor& p) {
    return canonical(p.take_result().edges);
  };
  const Traced bare_forest = run_once<SpanningForestProcessor>(
      make_forest, take_forest, stream, shards, false);
  const Traced forest = run_once<SpanningForestProcessor>(
      make_forest, take_forest, stream, shards, true);

  TwoPassConfig tp;
  tp.k = 2;
  tp.seed = 6;
  auto make_spanner = [&] { return TwoPassSpanner(n, tp); };
  auto take_spanner = [](TwoPassSpanner& p) {
    return canonical(p.take_result().spanner.edges());
  };
  const Traced bare_spanner = run_once<TwoPassSpanner>(
      make_spanner, take_spanner, stream, shards, false);
  const Traced spanner = run_once<TwoPassSpanner>(make_spanner, take_spanner,
                                                  stream, shards, true);

  const bool sharded = shards > 1;
  const bool forest_ok =
      forest.edges == bare_forest.edges && !forest.edges.empty() &&
      forest.absorbed == stream.size() &&
      forest.clones == (sharded ? shards : 0) &&
      forest.merges == (sharded ? shards : 0) &&
      (forest.worker_spans > 0) == sharded && bare_forest.absorbed == 0;
  const bool spanner_ok =
      spanner.edges == bare_spanner.edges && !spanner.edges.empty() &&
      spanner.absorbed == 2 * stream.size() && spanner.passes == 2 &&
      spanner.clones == (sharded ? 2 * shards : 0) &&
      spanner.merges == (sharded ? 2 * shards : 0);
  report(forest_ok && spanner_ok, "wrapped_shards" + std::to_string(shards),
         "forest absorbed " + std::to_string(forest.absorbed) + "/" +
             std::to_string(stream.size()) + ", spanner absorbed " +
             std::to_string(spanner.absorbed) + "/" +
             std::to_string(2 * stream.size()));
}

void test_checkpoint_resume(const std::string& workdir) {
  const Vertex n = 96;
  const Graph g = erdos_renyi_gnm(n, 8 * n, 7);
  const DynamicStream stream = DynamicStream::with_churn(g, 2 * n, 8);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 9;
  const std::string path = workdir + "/selftest.kwsk";

  std::vector<EdgeKey> bare;
  {
    TwoPassSpanner p(n, config);
    StreamEngine engine(StreamEngineOptions{256, 1});
    engine.attach(p);
    (void)engine.run(stream);
    bare = canonical(p.take_result().spanner.edges());
  }

  Tracer run_tracer;
  std::vector<EdgeKey> uninterrupted;
  {
    TwoPassSpanner p(n, config);
    TracedProcessor traced(p, "layer", run_tracer);
    StreamEngineOptions options(256, 1);
    // Every half pass, at batch granularity: 3 checkpoints, the last one
    // 128 updates short of the end, so resume() also replays a tail.
    options.checkpoint_every_updates = stream.size() / 2;
    options.checkpoint_path = path;
    StreamEngine engine(options);
    engine.attach(traced);
    ReplaySource replay(stream);
    TimingSource source(replay, &run_tracer);
    (void)engine.run(source);
    run_tracer.settle();
    uninterrupted = canonical(p.take_result().spanner.edges());
  }

  Tracer resume_tracer;
  std::vector<EdgeKey> resumed;
  {
    TwoPassSpanner p(n, config);
    TracedProcessor traced(p, "layer", resume_tracer);
    StreamEngine engine(StreamEngineOptions{256, 1});
    engine.attach(traced);
    ReplaySource replay(stream);
    TimingSource source(replay, &resume_tracer);
    (void)engine.resume(source, path);
    resumed = canonical(p.take_result().spanner.edges());
  }
  std::error_code ec;
  for (const char* suffix : {"", ".prev", ".tmp"}) {
    std::filesystem::remove(path + suffix, ec);
  }

  std::size_t serialized = 0;
  std::uint64_t bytes = 0;
  std::size_t io_gaps = 0;
  for (const Span& s : run_tracer.spans()) {
    if (s.name == "layer.serialize") {
      ++serialized;
      bytes += s.count;
    }
    // Each checkpoint's file I/O nests inside the pass that wrote it.
    if (s.name == "serialize.checkpoint_io" && s.parent >= 0 &&
        run_tracer.spans()[static_cast<std::size_t>(s.parent)].name ==
            "stream.pass" &&
        s.end >= s.start) {
      ++io_gaps;
    }
  }
  std::size_t deserialized = 0;
  for (const Span& s : resume_tracer.spans()) {
    if (s.name == "layer.deserialize") ++deserialized;
  }
  report(resumed == uninterrupted && uninterrupted == bare && !bare.empty() &&
             serialized >= 2 && bytes > 0 && io_gaps == serialized &&
             deserialized == 1,
         "checkpoint",
         std::to_string(serialized) + " checkpoints, " +
             std::to_string(io_gaps) + " I/O gaps, " +
             std::to_string(deserialized) + " restores");
}

}  // namespace
}  // namespace kw::perfbench

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : ".";
  try {
    std::filesystem::create_directories(workdir);
    kw::perfbench::test_self_time();
    kw::perfbench::test_wrapped_equals_bare(1);
    kw::perfbench::test_wrapped_equals_bare(2);
    kw::perfbench::test_checkpoint_resume(workdir);
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    return 1;
  }
  return kw::perfbench::failures == 0 ? 0 : 1;
}
