// Spanning forest from AGM sketches (Theorem 10, [AGM12a]).
//
// Boruvka over supernodes: each round sums the member sketches of every
// active component (linearity), decodes one outgoing edge per component, and
// contracts.  O(log n) rounds suffice whp.  Components may start as given
// supernodes (the contraction the additive spanner needs), and explicit
// edges can be subtracted from the sketch first (E_low) -- both match how
// Algorithm 3 consumes this primitive.
#ifndef KW_AGM_SPANNING_FOREST_H
#define KW_AGM_SPANNING_FOREST_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agm/neighborhood_sketch.h"
#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "util/worker_pool.h"

namespace kw {

struct ForestResult {
  std::vector<Edge> edges;     // forest edges (endpoints in original ids)
  std::size_t rounds_used = 0;
  bool complete = true;  // false if rounds ran out while still merging
  // Decode failures (nonzero summed sketch the bank could not decode) per
  // Boruvka round, and their sum.  Redundancy can absorb failures: complete
  // may be true with nonzero counters when later rounds finished the merge.
  std::vector<std::size_t> decode_failures_per_round;
  std::size_t decode_failures = 0;
};

// Computes a spanning forest of the sketched graph.  `partition[v]` gives
// the initial supernode of v (identity partition for a plain forest); the
// result connects supernodes, never returning an edge internal to one.
[[nodiscard]] ForestResult agm_spanning_forest(
    const AgmGraphSketch& sketch, const std::vector<std::uint32_t>& partition);

// Convenience: identity partition.
[[nodiscard]] ForestResult agm_spanning_forest(const AgmGraphSketch& sketch);

// Core implementation over a fused BankGroup slice: Boruvka over the
// `rounds` groups starting at `group_first` (pair coordinates over the
// group's vertex count).  KConnectivitySketch peels each layer's forest
// from its slice of one shared group this way.
//
// When `pool` is non-null, each round's per-component accumulate + decode
// fans out over the pool (at most `decode_lanes` lanes; 0 = all).  Round
// structure stays sequential: components are listed before the scatter,
// every task reads only the round's frozen union-find snapshot and writes
// its own decode slot (per-lane accumulator stripes keep scratch disjoint),
// and the merge fold walks the slots in component order -- so the forest is
// bit-identical to the sequential decode at every lane count.
[[nodiscard]] ForestResult agm_spanning_forest(
    const BankGroup& group, std::size_t group_first, std::size_t rounds,
    const std::vector<std::uint32_t>& partition, WorkerPool* pool = nullptr,
    std::size_t decode_lanes = 0);

// Threaded convenience over a whole sketch.
[[nodiscard]] ForestResult agm_spanning_forest(
    const AgmGraphSketch& sketch, const std::vector<std::uint32_t>& partition,
    WorkerPool& pool, std::size_t decode_lanes);

// Push-based front-end (Theorem 10 as a StreamProcessor): one pass
// maintaining the AGM sketches, Boruvka-over-sketches at finish().
// clone_empty()/merge() shard ingestion by the linearity of the sketches
// (the distributed setting of Section 1, in-process).
class SpanningForestProcessor final : public StreamProcessor {
 public:
  SpanningForestProcessor(Vertex n, const AgmConfig& config);
  // Supernode start partition, as in agm_spanning_forest.
  SpanningForestProcessor(Vertex n, const AgmConfig& config,
                          std::vector<std::uint32_t> partition);

  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return sketch_.n(); }
  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;  // single-pass: always throws
  void finish() override;
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Valid once after finish().
  [[nodiscard]] ForestResult take_result();

  // Decode-failure accounting (engine/health.h); survives take_result().
  [[nodiscard]] ProcessorHealth health() const override;

  // Adopts the engine's shared pool: the finish()-time Boruvka decode fans
  // out across decode_lanes of it (bit-identical at every lane count).
  void use_worker_pool(std::shared_ptr<WorkerPool> pool,
                       std::size_t decode_lanes) override;

  // The underlying sketch (e.g. for nominal_bytes accounting).
  [[nodiscard]] const AgmGraphSketch& sketch() const noexcept {
    return sketch_;
  }

  // ---- serialization: fields() in src/serialize/processor_serialize.cc ---
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;
  template <class V>
  void fields(V& v);

 private:
  AgmConfig config_;
  AgmGraphSketch sketch_;
  std::vector<std::uint32_t> partition_;  // empty = identity
  bool finished_ = false;
  std::optional<ForestResult> result_;
  ProcessorHealth health_;  // filled at finish()
  // Engine-provided decode budget (use_worker_pool); empty = sequential.
  std::shared_ptr<WorkerPool> pool_;
  std::size_t decode_lanes_ = 0;
};

}  // namespace kw

#endif  // KW_AGM_SPANNING_FOREST_H
