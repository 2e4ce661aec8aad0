/// Engine adapters that are not algorithms themselves:
///
///  - MaterializeProcessor: one pass that accumulates net multiplicities
///    into a Graph.  Mergeable (multiplicity counting is linear), so even
///    "materialize then run offline" shards cleanly.
///  - OfflineBaselineProcessor: MaterializeProcessor + an arbitrary offline
///    Graph -> Graph algorithm at finish() -- how the non-streaming
///    baselines (greedy / Baswana-Sen spanners, SS sparsifier, Aingworth)
///    join an engine run for side-by-side comparisons without bespoke
///    driver code.
///  - DemuxProcessor: classifies each update once and routes it to one of
///    several lanes.  The engine-level form of Remark 14's weight-class
///    split (one lane per geometric class) and any other update-local
///    substream partition: all lanes ride the same physical passes.
#ifndef KW_ENGINE_PROCESSORS_H
#define KW_ENGINE_PROCESSORS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "engine/stream_processor.h"
#include "graph/graph.h"

namespace kw {

class MaterializeProcessor : public StreamProcessor {
 public:
  explicit MaterializeProcessor(Vertex n) : n_(n) {}

  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }

  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;
  void finish() override;

  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Valid after finish(): the graph of positive net multiplicities.
  [[nodiscard]] const Graph& graph() const;

 private:
  Vertex n_;
  bool finished_ = false;
  // pair -> (net multiplicity, weight).  The model fixes an edge's weight
  // across all its updates (update.h), so any observed weight is the weight
  // and merging shards cannot disagree.
  std::map<std::pair<Vertex, Vertex>, std::pair<std::int64_t, double>> net_;
  Graph graph_{0};
};

class OfflineBaselineProcessor final : public MaterializeProcessor {
 public:
  using Algorithm = std::function<Graph(const Graph&)>;

  OfflineBaselineProcessor(Vertex n, Algorithm algorithm)
      : MaterializeProcessor(n), algorithm_(std::move(algorithm)) {}

  void finish() override;

  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;

  // Valid after finish(): the offline algorithm's output on graph().
  [[nodiscard]] const Graph& result() const;

 private:
  Algorithm algorithm_;
  bool ran_ = false;
  Graph result_{0};
};

// Ready-made baseline processors (declared here so engine users need not
// pull in the baseline headers themselves).
[[nodiscard]] std::unique_ptr<OfflineBaselineProcessor>
greedy_spanner_processor(Vertex n, unsigned k);
[[nodiscard]] std::unique_ptr<OfflineBaselineProcessor>
baswana_sen_processor(Vertex n, unsigned k, std::uint64_t seed);
[[nodiscard]] std::unique_ptr<OfflineBaselineProcessor>
aingworth_additive_processor(Vertex n, std::uint64_t seed);

class DemuxProcessor final : public StreamProcessor {
 public:
  // Lane index of an update; indices >= lanes.size() drop the update.
  using Selector = std::function<std::size_t(const EdgeUpdate&)>;

  // Non-owning: every lane must outlive this processor.  All lanes must
  // share n() and passes_required().
  DemuxProcessor(std::vector<StreamProcessor*> lanes, Selector selector);

  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return lanes_.front()->passes_required();
  }
  [[nodiscard]] Vertex n() const noexcept override {
    return lanes_.front()->n();
  }

  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;
  void finish() override;

  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Routing rides the lanes' preference: a demux is transparent to the
  // concurrent driver, so the lane processors' locality hint (lo-endpoint
  // for BankGroup-backed sketches) survives the indirection.
  [[nodiscard]] std::size_t shard_affinity(
      const EdgeUpdate& update, std::size_t shards) const noexcept override;

  // A demux is transparent to the engine's shared lane budget too: the pool
  // is forwarded to every lane (lanes finish one after another, so they
  // never contend for it).
  void use_worker_pool(std::shared_ptr<WorkerPool> pool,
                       std::size_t decode_lanes) override;

  // ---- serialization: fields() in src/serialize/processor_serialize.cc ---
  // A demux serializes as the ordered list of its lanes' payloads; every
  // lane must itself be serializable.  deserialize() restores lane state in
  // place (the lanes are not owned).
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;
  template <class V>
  void fields(V& v);

  // Sums the lanes' decode-failure accounting (engine/health.h):
  // failures_per_round gets one entry per lane (that lane's total), and the
  // demux is degraded iff any lane is.
  [[nodiscard]] ProcessorHealth health() const override;

 private:
  DemuxProcessor(std::vector<std::unique_ptr<StreamProcessor>> owned,
                 Selector selector);

  std::vector<StreamProcessor*> lanes_;
  std::vector<std::unique_ptr<StreamProcessor>> owned_;  // set on clones only
  Selector selector_;
  std::vector<std::vector<EdgeUpdate>> buffers_;  // one per lane, reused
};

}  // namespace kw

#endif  // KW_ENGINE_PROCESSORS_H
