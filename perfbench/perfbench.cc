// The repository benchmark: three closed-loop, self-checking workloads
// driven through the public StreamEngine / StreamSource / StreamProcessor
// interfaces (one caller thread; the engine pulls the next batch only once
// the previous one is absorbed or queued).
//
//   forest_sharded_churn       SpanningForestProcessor, n=8192, 8n edges +
//                              32n churn pairs, batch 4096, 2 shards.  The
//                              sharded driver and BankGroup scatter carry
//                              the run; decode is under 1% of it.
//   kp12_two_pass              Kp12Sparsifier (k=2, eps=0.5, J=5, Z=10),
//                              n=256, 8n edges + 8n churn pairs, 1 shard,
//                              2 ingest + 2 decode lanes.  A tiny stream
//                              into a ~2 GB fleet: kv decode in finish()
//                              and fused staging dominate.  Not listed in
//                              BENCHMARK.json: on a few percent of seeds the
//                              sparsifier isolates a vertex and the
//                              component check fails (workloads.json).
//   spanner_checkpoint_resume  TwoPassSpanner (k=2), n=512, 64n edges +
//                              16n churn pairs, 1 shard, a checkpoint every
//                              third of a pass, then resume() of a fresh
//                              spanner from the last checkpoint.  The
//                              serialize write and read paths dominate.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Inputs are generated from --seed only (ER gnm + DynamicStream::with_churn);
// the sketch seeds are fixed.  Each iteration builds the
// processor and engine, runs the stream and checks the output; iterations
// repeat until --seconds is used up and every metric is reported as the
// median over iterations.  With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 untraced and traced iterations
// alternate and it carries the per-layer metrics of the traced ones.  Any
// failed output check makes the exit code nonzero.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "agm/spanning_forest.h"
#include "core/kp12_sparsifier.h"
#include "core/two_pass_spanner.h"
#include "engine/stream_engine.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/spectral_compare.h"
#include "stream/dynamic_stream.h"
#include "trace.h"

namespace kw::perfbench {
namespace {

constexpr std::size_t kBatch = 4096;
// The sketches' own randomness is part of each workload's fixed
// configuration, as in the repository's benches; --seed varies the input
// graph and stream only.  At n=512 a k=2 spanner has only ~sqrt(n) level-1
// centres: with a sketch seed drawn per input seed, five seeds moved
// spanner_checkpoint_resume's peak RSS between 801 and 978 MiB and its
// job_s between 5.2 and 7.2 s (4-thread x86-64 VM).
constexpr std::uint64_t kSketchSeed = 13;
constexpr std::size_t kLanes = 2;  // ingest / decode lanes per workload

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;
}

[[nodiscard]] double elapsed(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

[[nodiscard]] double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[nodiscard]] bool is_tmpfs(const std::string& dir) {
  struct statfs fs {};
  constexpr long kTmpfsMagic = 0x01021994;
  return statfs(dir.c_str(), &fs) == 0 &&
         static_cast<long>(fs.f_type) == kTmpfsMagic;
}

using EdgeKey = std::tuple<Vertex, Vertex, double>;

[[nodiscard]] std::vector<EdgeKey> canonical(const std::vector<Edge>& edges) {
  std::vector<EdgeKey> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Output checks, counted into `attempted` / `failed`.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: output check failed: %s\n",
                   what.c_str());
    }
  }
  // `failures` out of `count` individual checks failed.
  void tally(std::uint64_t count, std::uint64_t failures,
             const std::string& what) {
    attempted_ += count;
    failed_ += failures;
    if (failures > 0) {
      std::fprintf(stderr, "perfbench: %llu of %llu checks failed: %s\n",
                   static_cast<unsigned long long>(failures),
                   static_cast<unsigned long long>(count), what.c_str());
    }
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// End-to-end figures of one untraced iteration.
struct EndToEnd {
  std::vector<double> setup_s;  // every set-up made in the iteration
  double job_s = 0.0;
  double ingest_updates_per_s = 0.0;
  double result_latency_s = 0.0;
  double recovery_s = 0.0;
};

// Per-layer figures of one traced iteration, by metric name.
using Layers = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_s", "s"},
    {"ingest_updates_per_s", "1/s"},
    {"result_latency_s", "s"},
    {"recovery_s", "s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"engine.self_s", "s"},
    {"engine.batches", "count"},
    {"engine.backpressure_waits", "count"},
    {"engine.clone_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.worker_busy_share", "ratio"},
    {"engine.shard_skew", "ratio"},
    {"agm.forest.absorb_s", "s"},
    {"agm.forest.updates_per_busy_s", "1/s"},
    {"agm.forest.nominal_bytes_per_vertex", "B"},
    {"agm.forest.finish_s", "s"},
    {"agm.forest.l0_failures", "count"},
    {"core.spanner.absorb_s", "s"},
    {"core.spanner.finish_s", "s"},
    {"core.spanner.finish_after_resume_s", "s"},
    {"core.spanner.kv_failures", "count"},
    {"core.spanner.touched_bytes_per_vertex", "B"},
    {"serialize.checkpoints", "count"},
    {"serialize.checkpoint_bytes", "B"},
    {"serialize.encode_s", "s"},
    {"serialize.checkpoint_io_s", "s"},
    {"serialize.checkpoint_mib_per_s", "MiB/s"},
    {"serialize.load_s", "s"},
    {"serialize.decode_s", "s"},
    {"stream.pass_s", "s"},
    {"stream.batches_served", "count"},
    {"rss.after_setup_mib", "MiB"},
    {"rss.after_pass_mib", "MiB"},
    {"rss.after_finish_mib", "MiB"},
    {"trace.overhead_ratio", "ratio"},
    {"decode_failures", "count"},
    {"output_error_ratio", "ratio"},
};

// Reported by kp12_two_pass only, after the shared list.  That workload is
// not in BENCHMARK.json: its output check fails on a few percent of seeds
// (perfbench/workloads.json), so it is kept runnable by hand to reproduce
// that.
constexpr MetricSpec kKp12Layer[] = {
    {"core.kp12.absorb_s", "s"},
    {"core.kp12.advance_pass_s", "s"},
    {"core.kp12.updates_per_busy_s", "1/s"},
    {"core.kp12.finish_s", "s"},
    {"core.kp12.kv_failures", "count"},
    {"core.kp12.nominal_bytes_per_vertex", "B"},
    {"sparsifier_eps", "ratio"},
};

[[nodiscard]] bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

// Attributes one traced engine.run() to layers.  `run_span` is the span
// the caller opened around run(); `layer` is the processor's module name.
void attribute_run(const Tracer& tracer, int run_span,
                   const std::string& layer, const EngineRunStats& stats,
                   Layers& out) {
  const std::vector<Span>& spans = tracer.spans();
  double engine_self = self_time(spans, static_cast<std::size_t>(run_span));
  double pass_s = 0.0;
  double absorb_s = 0.0;
  std::uint64_t absorbed = 0;
  std::map<std::size_t, std::pair<double, std::uint64_t>> per_thread;
  double encode_s = 0.0;
  double io_s = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = s.end - s.start;
    if (s.name == "stream.pass") {
      pass_s += d;
      engine_self += self_time(spans, i);
    } else if (ends_with(s.name, ".absorb")) {
      absorb_s += d;
      absorbed += s.count;
      per_thread[s.thread].first += d;
      per_thread[s.thread].second += s.count;
    } else if (ends_with(s.name, ".advance_pass")) {
      out[layer + ".advance_pass_s"] += d;
    } else if (ends_with(s.name, ".finish")) {
      out[layer + ".finish_s"] += d;
    } else if (ends_with(s.name, ".clone_empty")) {
      out["engine.clone_s"] += d;
    } else if (ends_with(s.name, ".merge")) {
      out["engine.merge_s"] += d;
    } else if (ends_with(s.name, ".serialize")) {
      encode_s += d;
      ++checkpoints;
      checkpoint_bytes += s.count;
    } else if (s.name == "serialize.checkpoint_io") {
      io_s += d;
    }
  }
  out["engine.self_s"] = engine_self;
  out["engine.batches"] = static_cast<double>(stats.batches);
  out["engine.backpressure_waits"] =
      static_cast<double>(stats.backpressure_waits);
  double busy = 0.0;
  std::uint64_t max_updates = 0;
  for (const auto& [thread, figures] : per_thread) {
    busy += figures.first;
    max_updates = std::max(max_updates, figures.second);
  }
  const double ingest_threads = static_cast<double>(per_thread.size());
  if (ingest_threads > 0 && pass_s > 0) {
    out["engine.worker_busy_share"] = busy / (ingest_threads * pass_s);
    out["engine.shard_skew"] = static_cast<double>(max_updates) /
                               (static_cast<double>(absorbed) / ingest_threads);
  }
  out[layer + ".absorb_s"] = absorb_s;
  if (absorb_s > 0) {
    out[layer + ".updates_per_busy_s"] =
        static_cast<double>(absorbed) / absorb_s;
  }
  out["serialize.checkpoints"] = static_cast<double>(checkpoints);
  out["serialize.checkpoint_bytes"] = static_cast<double>(checkpoint_bytes);
  out["serialize.encode_s"] = encode_s;
  out["serialize.checkpoint_io_s"] = io_s;
  if (encode_s + io_s > 0) {
    out["serialize.checkpoint_mib_per_s"] =
        static_cast<double>(checkpoint_bytes) / (1024.0 * 1024.0) /
        (encode_s + io_s);
  }
  out["stream.pass_s"] = pass_s;
}

// ---------------------------------------------------------------------------
// One engine run with the measurement plumbing every workload shares
// ---------------------------------------------------------------------------

struct RunOutcome {
  EngineRunStats stats;
  double job_s = 0.0;
  double ingest_updates_per_s = 0.0;
  double result_latency_s = 0.0;
  std::size_t passes = 0;
};

// Drives `engine` over `stream` (run() or, with a checkpoint path, resume())
// and measures it at the source.  With a tracer, the call is an
// "engine.run" / "engine.resume" span and the source stamps pass spans;
// `layers`, when given, receives the per-layer figures of the run.
RunOutcome drive(StreamEngine& engine, const DynamicStream& stream,
                 Tracer* tracer, Layers* layers, const std::string& layer,
                 const std::string& resume_from = {}) {
  ReplaySource replay(stream);
  TimingSource source(replay, tracer);
  RunOutcome out;
  int span = -1;
  if (tracer != nullptr) {
    span = tracer->open(resume_from.empty() ? "engine.run" : "engine.resume");
  }
  const Clock::time_point start = Clock::now();
  out.stats = resume_from.empty() ? engine.run(source)
                                  : engine.resume(source, resume_from);
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    tracer->settle();
    tracer->close(span);
  }
  out.job_s = elapsed(start, end);
  out.passes = source.passes();
  out.result_latency_s = elapsed(source.last_end(), end);
  if (source.pass_seconds() > 0) {
    out.ingest_updates_per_s = static_cast<double>(stream.size()) *
                               static_cast<double>(source.passes()) /
                               source.pass_seconds();
  }
  if (layers != nullptr) {
    attribute_run(*tracer, span, layer, out.stats, *layers);
    (*layers)["stream.batches_served"] =
        static_cast<double>(source.batches_served());
    (*layers)["rss.after_pass_mib"] = source.rss_after_pass_mib();
    (*layers)["rss.after_finish_mib"] = current_rss_mib();
  }
  return out;
}

// A processor, its wrapper when traced, and the engine driving it.
template <class P>
struct SetUp {
  std::unique_ptr<P> processor;
  std::unique_ptr<TracedProcessor> traced;
  std::unique_ptr<StreamEngine> engine;
  double seconds = 0.0;  // construction wall: processor + engine + attach
};

// The benchmark's set-up step, timed.  The wrapper is built outside the
// timed region so traced and untraced set-ups cost the same.
template <class P>
SetUp<P> set_up(const std::function<std::unique_ptr<P>()>& make,
                const StreamEngineOptions& options, const std::string& layer,
                Tracer* tracer) {
  SetUp<P> s;
  const Clock::time_point start = Clock::now();
  s.processor = make();
  s.engine = std::make_unique<StreamEngine>(options);
  if (tracer == nullptr) s.engine->attach(*s.processor);
  s.seconds = elapsed(start, Clock::now());
  if (tracer != nullptr) {
    s.traced = std::make_unique<TracedProcessor>(*s.processor, layer, *tracer);
    s.engine->attach(*s.traced);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Iteration {
  EndToEnd e2e;
  Layers layers;  // traced iterations only
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One full iteration; traced when `tracer` is non-null.
  virtual Iteration run(Tracer* tracer, Checks& checks) = 0;
  // One more untraced set-up, torn down unused; returns its wall time.
  virtual double setup_sample() const = 0;
  // Context-only metrics computed once per process in traced mode.
  virtual void quality(Layers& layers) { (void)layers; }
  // Per-layer metrics reported after the shared list.
  [[nodiscard]] virtual std::span<const MetricSpec> own_layers() const {
    return {};
  }
};

struct GeneratedInputs {
  DynamicStream stream{0};
  Graph final_graph{0};
};

[[nodiscard]] GeneratedInputs make_inputs(Vertex n, std::uint64_t edges,
                                          std::size_t churn_pairs,
                                          std::uint64_t seed) {
  GeneratedInputs in;
  const Graph g = erdos_renyi_gnm(n, edges, mix_seed(seed, 1));
  in.stream = DynamicStream::with_churn(g, churn_pairs, mix_seed(seed, 2));
  in.final_graph = in.stream.materialize();
  return in;
}

// ---- forest_sharded_churn -------------------------------------------------

class ForestShardedChurn final : public Workload {
 public:
  static constexpr Vertex kN = 8192;
  static constexpr const char* kLayer = "agm.forest";

  explicit ForestShardedChurn(std::uint64_t seed)
      : in_(make_inputs(kN, 8ULL * kN, 32ULL * kN, seed)),
        components_(component_count(in_.final_graph)) {
    config_.seed = kSketchSeed;
  }

  Iteration run(Tracer* tracer, Checks& checks) override {
    Iteration it;
    SetUp<SpanningForestProcessor> p = set_up(tracer);
    it.e2e.setup_s.push_back(p.seconds);
    Layers* layers = tracer != nullptr ? &it.layers : nullptr;
    if (layers != nullptr) it.layers["rss.after_setup_mib"] = current_rss_mib();

    const RunOutcome run = drive(*p.engine, in_.stream, tracer, layers, kLayer);
    it.e2e.job_s = run.job_s;
    it.e2e.ingest_updates_per_s = run.ingest_updates_per_s;
    it.e2e.result_latency_s = run.result_latency_s;
    // No checkpoint cut exists for a sharded one-pass run: a restart
    // rebuilds the processor and replays the whole stream.
    it.e2e.recovery_s = p.seconds + run.job_s;
    checks.expect(run.stats.updates_per_pass == in_.stream.size() &&
                      run.passes == 1,
                  "engine fed every update in one pass");

    const ProcessorHealth health = p.processor->health();
    if (layers != nullptr) {
      it.layers["agm.forest.nominal_bytes_per_vertex"] =
          static_cast<double>(p.processor->sketch().nominal_bytes()) / kN;
      it.layers["agm.forest.l0_failures"] =
          static_cast<double>(health.l0_failures);
      it.layers["decode_failures"] =
          static_cast<double>(run.stats.health.total_failures());
    }
    check_forest(p.processor->take_result(), checks);
    return it;
  }

  double setup_sample() const override { return set_up(nullptr).seconds; }

 private:
  SetUp<SpanningForestProcessor> set_up(Tracer* tracer) const {
    StreamEngineOptions options(kBatch, /*shards=*/2);
    options.decode_workers = kLanes;
    return perfbench::set_up<SpanningForestProcessor>(
        [this] {
          return std::make_unique<SpanningForestProcessor>(kN, config_);
        },
        options, kLayer, tracer);
  }

  void check_forest(const ForestResult& result, Checks& checks) {
    const Graph& g = in_.final_graph;
    bool subset = true;
    bool acyclic = true;
    UnionFind uf(kN);
    for (const Edge& e : result.edges) {
      if (e.u >= kN || e.v >= kN || !g.has_edge(e.u, e.v)) {
        subset = false;
        continue;
      }
      if (!uf.unite(e.u, e.v)) acyclic = false;
    }
    checks.expect(subset, "forest uses only edges of the final graph");
    checks.expect(acyclic, "forest is acyclic");
    checks.expect(subset && acyclic && uf.component_count() == components_,
                  "forest spans every component of the final graph");
    std::vector<EdgeKey> edges = canonical(result.edges);
    if (first_.empty()) {
      first_ = std::move(edges);
    } else {
      checks.expect(edges == first_, "forest identical across iterations");
    }
  }

  GeneratedInputs in_;
  std::size_t components_;
  AgmConfig config_;
  std::vector<EdgeKey> first_;
};

// ---- kp12_two_pass ------------------------------------------------------

class Kp12TwoPass final : public Workload {
 public:
  static constexpr Vertex kN = 256;
  static constexpr const char* kLayer = "core.kp12";

  explicit Kp12TwoPass(std::uint64_t seed)
      : in_(make_inputs(kN, 8ULL * kN, 8ULL * kN, seed)) {
    config_.k = 2;
    config_.epsilon = 0.5;
    config_.seed = kSketchSeed;
    config_.j_copies = 5;
    config_.z_samples = 10;
    config_.ingest_workers = kLanes;
    config_.decode_workers = kLanes;
  }

  Iteration run(Tracer* tracer, Checks& checks) override {
    Iteration it;
    SetUp<Kp12Sparsifier> p = set_up(tracer);
    it.e2e.setup_s.push_back(p.seconds);
    Layers* layers = tracer != nullptr ? &it.layers : nullptr;
    if (layers != nullptr) it.layers["rss.after_setup_mib"] = current_rss_mib();

    const RunOutcome run = drive(*p.engine, in_.stream, tracer, layers, kLayer);
    it.e2e.job_s = run.job_s;
    it.e2e.ingest_updates_per_s = run.ingest_updates_per_s;
    it.e2e.result_latency_s = run.result_latency_s;
    // No checkpoints are written: a restart replays both passes.
    it.e2e.recovery_s = p.seconds + run.job_s;
    checks.expect(run.stats.updates_per_pass == in_.stream.size() &&
                      run.passes == 2,
                  "engine fed every update in two passes");

    const ProcessorHealth health = p.processor->health();
    Kp12Result result = p.processor->take_result();
    if (layers != nullptr) {
      it.layers["core.kp12.kv_failures"] =
          static_cast<double>(health.kv_failures);
      it.layers["core.kp12.nominal_bytes_per_vertex"] =
          static_cast<double>(result.nominal_bytes) / kN;
      it.layers["decode_failures"] =
          static_cast<double>(run.stats.health.total_failures());
    }
    checks.expect(same_partition(in_.final_graph, result.sparsifier),
                  "sparsifier keeps the final graph's components");
    std::vector<EdgeKey> edges = canonical(result.sparsifier.edges());
    if (first_.empty()) {
      first_ = std::move(edges);
      sparsifier_ = std::move(result.sparsifier);
    } else {
      checks.expect(edges == first_, "sparsifier identical across iterations");
    }
    return it;
  }

  double setup_sample() const override { return set_up(nullptr).seconds; }

  [[nodiscard]] std::span<const MetricSpec> own_layers() const override {
    return kKp12Layer;
  }

  void quality(Layers& layers) override {
    if (sparsifier_.n() == 0) return;
    layers["sparsifier_eps"] =
        spectral_envelope(in_.final_graph, sparsifier_).epsilon();
  }

 private:
  SetUp<Kp12Sparsifier> set_up(Tracer* tracer) const {
    StreamEngineOptions options(kBatch, /*shards=*/1);
    options.decode_workers = kLanes;
    return perfbench::set_up<Kp12Sparsifier>(
        [this] { return std::make_unique<Kp12Sparsifier>(kN, config_); },
        options, kLayer, tracer);
  }

  GeneratedInputs in_;
  Kp12Config config_;
  std::vector<EdgeKey> first_;
  Graph sparsifier_{0};
};

// ---- spanner_checkpoint_resume ------------------------------------------

class SpannerCheckpointResume final : public Workload {
 public:
  static constexpr Vertex kN = 512;
  static constexpr const char* kLayer = "core.spanner";

  SpannerCheckpointResume(std::uint64_t seed, const std::string& workdir)
      : in_(make_inputs(kN, 64ULL * kN, 16ULL * kN, seed)),
        checkpoint_path_(workdir + "/spanner.kwsk") {
    config_.k = 2;
    config_.seed = kSketchSeed;
  }

  ~SpannerCheckpointResume() override { remove_checkpoints(); }

  Iteration run(Tracer* tracer, Checks& checks) override {
    Iteration it;
    Layers* layers = tracer != nullptr ? &it.layers : nullptr;
    remove_checkpoints();

    // Uninterrupted run, checkpointing every third of a pass: 6 checkpoints,
    // the last at the end of pass 2, so the resume below restores that
    // state and finishes.
    TwoPassResult uninterrupted;
    {
      SetUp<TwoPassSpanner> p = set_up(tracer, /*checkpointing=*/true);
      it.e2e.setup_s.push_back(p.seconds);
      if (layers != nullptr) {
        it.layers["rss.after_setup_mib"] = current_rss_mib();
      }

      const RunOutcome run =
          drive(*p.engine, in_.stream, tracer, layers, kLayer);
      it.e2e.job_s = run.job_s;
      it.e2e.ingest_updates_per_s = run.ingest_updates_per_s;
      it.e2e.result_latency_s = run.result_latency_s;
      checks.expect(run.stats.updates_per_pass == in_.stream.size() &&
                        run.passes == 2,
                    "engine fed every update in two passes");
      const ProcessorHealth health = p.processor->health();
      uninterrupted = p.processor->take_result();
      if (layers != nullptr) {
        it.layers["core.spanner.kv_failures"] =
            static_cast<double>(health.kv_failures);
        it.layers["core.spanner.touched_bytes_per_vertex"] =
            static_cast<double>(uninterrupted.touched_bytes) / kN;
        it.layers["decode_failures"] =
            static_cast<double>(run.stats.health.total_failures());
      }
    }

    // A fresh spanner resumes from the last checkpoint.
    TwoPassResult resumed;
    {
      Tracer resume_tracer;
      Tracer* rt = tracer != nullptr ? &resume_tracer : nullptr;
      SetUp<TwoPassSpanner> p = set_up(rt, /*checkpointing=*/false);
      it.e2e.setup_s.push_back(p.seconds);
      const RunOutcome run =
          drive(*p.engine, in_.stream, rt, nullptr, kLayer, checkpoint_path_);
      it.e2e.recovery_s = run.job_s;
      resumed = p.processor->take_result();
      if (layers != nullptr) attribute_resume(resume_tracer, it.layers);
    }
    remove_checkpoints();

    check_stretch(uninterrupted.spanner, checks);
    checks.expect(canonical(resumed.spanner.edges()) ==
                      canonical(uninterrupted.spanner.edges()),
                  "resumed spanner equals the uninterrupted one");
    std::vector<EdgeKey> edges = canonical(uninterrupted.spanner.edges());
    if (first_.empty()) {
      first_ = std::move(edges);
    } else {
      checks.expect(edges == first_, "spanner identical across iterations");
    }
    return it;
  }

  double setup_sample() const override {
    return set_up(nullptr, /*checkpointing=*/true).seconds;
  }

 private:
  // The resuming engine writes no checkpoints of its own.
  SetUp<TwoPassSpanner> set_up(Tracer* tracer, bool checkpointing) const {
    StreamEngineOptions options(kBatch, /*shards=*/1);
    options.decode_workers = kLanes;
    if (checkpointing) {
      options.checkpoint_every_updates = in_.stream.size() / 3;
      options.checkpoint_path = checkpoint_path_;
    }
    return perfbench::set_up<TwoPassSpanner>(
        [this] { return std::make_unique<TwoPassSpanner>(kN, config_); },
        options, kLayer, tracer);
  }

  static void attribute_resume(const Tracer& tracer, Layers& out) {
    const std::vector<Span>& spans = tracer.spans();
    double resume_start = -1.0;
    for (const Span& s : spans) {
      if (s.name == "engine.resume") resume_start = s.start;
    }
    bool first_decode = true;
    for (const Span& s : spans) {
      if (ends_with(s.name, ".deserialize")) {
        if (first_decode) out["serialize.load_s"] = s.start - resume_start;
        first_decode = false;
        out["serialize.decode_s"] += s.end - s.start;
      } else if (ends_with(s.name, ".finish")) {
        out["core.spanner.finish_after_resume_s"] += s.end - s.start;
      }
    }
  }

  // Every edge of the final graph has spanner distance <= 2^k.
  void check_stretch(const Graph& spanner, Checks& checks) const {
    const Graph& g = in_.final_graph;
    const std::uint32_t bound = 1U << config_.k;
    std::vector<std::uint32_t> dist(kN, UINT32_MAX);
    std::vector<Vertex> touched;
    std::uint64_t violations = 0;
    for (Vertex s = 0; s < kN; ++s) {
      // Depth-bounded BFS from s over the spanner.
      std::queue<Vertex> frontier;
      dist[s] = 0;
      touched.assign(1, s);
      frontier.push(s);
      while (!frontier.empty()) {
        const Vertex x = frontier.front();
        frontier.pop();
        if (dist[x] == bound) continue;
        for (const Neighbor& nb : spanner.neighbors(x)) {
          if (dist[nb.to] != UINT32_MAX) continue;
          dist[nb.to] = dist[x] + 1;
          touched.push_back(nb.to);
          frontier.push(nb.to);
        }
      }
      for (const Neighbor& nb : g.neighbors(s)) {
        if (nb.to > s && dist[nb.to] > bound) ++violations;
      }
      for (const Vertex x : touched) dist[x] = UINT32_MAX;
    }
    checks.tally(g.m(), violations, "spanner stretch <= 2^k on final edges");
  }

  void remove_checkpoints() const {
    std::error_code ec;
    for (const char* suffix : {"", ".prev", ".tmp"}) {
      std::filesystem::remove(checkpoint_path_ + suffix, ec);
    }
  }

  GeneratedInputs in_;
  std::string checkpoint_path_;
  TwoPassConfig config_;
  std::vector<EdgeKey> first_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<forest_sharded_churn|kp12_two_pass|spanner_checkpoint_resume> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') a.seconds = 0.0;
    } else if (key == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace < 0) usage("--trace must be 0 or 1");
  if (a.workdir.empty()) usage("--workdir is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "forest_sharded_churn") {
    return std::make_unique<ForestShardedChurn>(a.seed);
  }
  if (a.workload == "kp12_two_pass") {
    return std::make_unique<Kp12TwoPass>(a.seed);
  }
  if (a.workload == "spanner_checkpoint_resume") {
    return std::make_unique<SpannerCheckpointResume>(a.seed, a.workdir);
  }
  usage("unknown workload " + a.workload);
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

int run_main(const Args& a) {
  std::filesystem::create_directories(a.workdir);
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu seconds=%g trace=%d "
               "hardware_threads=%u workdir_tmpfs=%s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               a.seconds, a.trace, std::thread::hardware_concurrency(),
               is_tmpfs(a.workdir) ? "yes" : "no");

  std::unique_ptr<Workload> workload = make_workload(a);
  Checks checks;
  std::vector<EndToEnd> untraced;
  std::vector<Layers> traced;
  std::vector<double> traced_job_s;

  // One warm-up iteration first: the process's first pass through the
  // allocator and the page cache is slower than every later one, and its
  // output is still checked.  Measured iterations then repeat until the
  // next one would overrun --seconds.  Traced mode alternates untraced and
  // traced iterations (one of each at least), so trace.overhead_ratio
  // compares like with like.  After each untraced iteration, extra
  // set-ups (up to 32, or 0.25 s) sample setup_s further.
  (void)workload->run(nullptr, checks);
  const Clock::time_point start = Clock::now();
  const std::size_t min_iterations = a.trace == 1 ? 2 : 3;
  std::vector<double> setup;
  double longest = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double used = elapsed(start, Clock::now());
    if (i >= min_iterations && used + longest > a.seconds) break;
    const Clock::time_point t0 = Clock::now();
    const bool traced_iteration = a.trace == 1 && i % 2 == 1;
    EndToEnd e;
    if (traced_iteration) {
      Tracer tracer;
      Iteration it = workload->run(&tracer, checks);
      e = it.e2e;
      traced_job_s.push_back(e.job_s);
      traced.push_back(std::move(it.layers));
    } else {
      e = workload->run(nullptr, checks).e2e;
      untraced.push_back(e);
      setup.insert(setup.end(), e.setup_s.begin(), e.setup_s.end());
      double spent = 0.0;
      for (int k = 0; k < 32 && spent < 0.25; ++k) {
        setup.push_back(workload->setup_sample());
        spent += setup.back();
      }
    }
    const double took = elapsed(t0, Clock::now());
    std::fprintf(stderr,
                 "perfbench: iteration %zu (%s) %.3f s: job_s %.4f "
                 "result_latency_s %.4f recovery_s %.4f\n",
                 i, traced_iteration ? "traced" : "untraced", took, e.job_s,
                 e.result_latency_s, e.recovery_s);
    longest = std::max(longest, took);
  }

  std::vector<double> job;
  std::vector<double> ingest;
  std::vector<double> latency;
  std::vector<double> recovery;
  for (const EndToEnd& e : untraced) {
    job.push_back(e.job_s);
    ingest.push_back(e.ingest_updates_per_s);
    latency.push_back(e.result_latency_s);
    recovery.push_back(e.recovery_s);
  }
  std::fprintf(stderr,
               "perfbench: %zu untraced + %zu traced iterations, job_s "
               "median %.4f, %llu checks, %llu failed\n",
               untraced.size(), traced.size(), median(job),
               static_cast<unsigned long long>(checks.attempted()),
               static_cast<unsigned long long>(checks.failed()));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  bool first = true;
  if (a.trace == 0) {
    const double values[] = {median(setup),   median(job),
                             median(ingest),  median(latency),
                             median(recovery), peak_rss_mib()};
    for (std::size_t m = 0; m < std::size(kEndToEnd); ++m) {
      print_metric(first, kEndToEnd[m].name, values[m], kEndToEnd[m].unit);
    }
  } else {
    Layers once;
    workload->quality(once);
    once["output_error_ratio"] = static_cast<double>(checks.failed()) /
                                 static_cast<double>(checks.attempted());
    once["trace.overhead_ratio"] = median(traced_job_s) / median(job);
    std::vector<MetricSpec> reported(std::begin(kPerLayer),
                                     std::end(kPerLayer));
    const std::span<const MetricSpec> own = workload->own_layers();
    reported.insert(reported.end(), own.begin(), own.end());
    for (const MetricSpec& m : reported) {
      double value = 0.0;
      if (const auto it = once.find(m.name); it != once.end()) {
        value = it->second;
      } else {
        std::vector<double> samples;
        for (const Layers& layers : traced) {
          const auto found = layers.find(m.name);
          samples.push_back(found == layers.end() ? 0.0 : found->second);
        }
        value = median(samples);
      }
      print_metric(first, m.name, value, m.unit);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kw::perfbench

int main(int argc, char** argv) {
  const kw::perfbench::Args args = kw::perfbench::parse_args(argc, argv);
  try {
    return kw::perfbench::run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
