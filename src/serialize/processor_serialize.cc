// Wire schemas of the engine-facing AGM processors and the demux:
// SpanningForestProcessor, KConnectivitySketch, DemuxProcessor.
//
// Single-pass processors serialize their sketch state plus an optional
// finished result (checkpoints always land mid-pass, but a saved finished
// forest/certificate costs little and makes save() total).  The demux
// serializes as the ordered, length-framed list of its lanes' payloads.
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "engine/processors.h"
#include "serialize/serialize.h"

namespace kw {

// ---- SpanningForestProcessor --------------------------------------------

template <class V>
void SpanningForestProcessor::fields(V& v) {
  v.section("forest.header", [&] {
    v.same(config_.rounds, "SpanningForest rounds");
    v.same(config_.sampler_instances, "SpanningForest sampler_instances");
    v.same(config_.seed, "SpanningForest seed");
    v.same(partition_, "SpanningForest partition");
  });
  v.section("forest.result", [&] {
    v.value(finished_);
    if (v.present(result_)) {
      v.value(result_->edges);
      v.value(result_->rounds_used);
      v.value(result_->complete);
    }
  });
  v.object(sketch_);
}

KW_SERIALIZE_TAGGED(SpanningForestProcessor, ser::kTagSpanningForest)

// ---- KConnectivitySketch ------------------------------------------------

template <class V>
void KConnectivitySketch::fields(V& v) {
  v.section("k_connectivity.header", [&] {
    v.same(n_, "KConnectivity n");
    v.same(k_, "KConnectivity k");
    v.same(config_.rounds, "KConnectivity rounds");
    v.same(config_.sampler_instances, "KConnectivity sampler_instances");
    v.same(config_.seed, "KConnectivity seed");
  });
  v.section("k_connectivity.result", [&] {
    v.value(finished_);
    if (v.present(result_)) {
      std::vector<std::vector<Edge>>& forests = result_->forests;
      std::uint64_t count = forests.size();
      v.value(count);
      v.check(count <= k_, "KConnectivity result holds more forests than "
                           "layers");
      forests.resize(count);
      for (std::vector<Edge>& forest : forests) v.value(forest);
      v.graph(result_->certificate, n_);
      v.value(result_->complete);
    }
  });
  v.object(group_);
}

KW_SERIALIZE_TAGGED(KConnectivitySketch, ser::kTagKConnectivity)

// ---- DemuxProcessor -----------------------------------------------------

template <class V>
void DemuxProcessor::fields(V& v) {
  v.section("demux.header", [&] {
    v.same(std::uint64_t{lanes_.size()}, "DemuxProcessor lane count");
  });
  // Lanes are restored in place (they are not owned).
  v.processors(lanes_, "demux.lane");
}

KW_SERIALIZE_TAGGED(DemuxProcessor, ser::kTagDemux)

}  // namespace kw
