// Wire schemas of the sketch layer: BankGroup, SparseRecoverySketch,
// DistinctElementsSketch, AgmGraphSketch.
//
// Each payload starts with the object's configuration/geometry, which the
// loader VALIDATES against the live (identically constructed) destination
// rather than loads -- hash coefficients and fingerprint power tables are
// rebuilt from seeds by the constructors and never serialized.
#include <vector>

#include "agm/neighborhood_sketch.h"
#include "serialize/serialize.h"
#include "sketch/bank_group.h"
#include "sketch/distinct_elements.h"
#include "sketch/sparse_recovery.h"

namespace kw {

// ---- BankGroup ----------------------------------------------------------

template <class V>
void BankGroup::fields(V& v) {
  v.section("bank_group.header", [&] {
    v.same(max_coord_, "BankGroup max_coord");
    v.same(instances_, "BankGroup instances");
    v.same(groups_, "BankGroup groups");
    v.same(vertices_, "BankGroup vertices");
    v.same(levels_, "BankGroup levels");
    v.same(seeds_, "BankGroup seeds");
  });
  v.cells(cells_, "bank_group.cells");
}

KW_SERIALIZE_TAGGED(BankGroup, ser::kTagBankGroup)

// ---- SparseRecoverySketch -----------------------------------------------

template <class V>
void SparseRecoverySketch::fields(V& v) {
  v.section("sparse_recovery.header", [&] {
    v.same(config_.max_coord, "SparseRecovery max_coord");
    v.same(config_.budget, "SparseRecovery budget");
    v.same(config_.rows, "SparseRecovery rows");
    v.same(config_.seed, "SparseRecovery seed");
    v.same(config_.full_pow_tables, "SparseRecovery full_pow_tables");
  });
  v.cells(cells_, "sparse_recovery.cells");
}

KW_SERIALIZE_TAGGED(SparseRecoverySketch, ser::kTagSparseRecovery)

// ---- DistinctElementsSketch ---------------------------------------------

template <class V>
void DistinctElementsSketch::fields(V& v) {
  v.section("distinct_elements.header", [&] {
    v.same(config_.max_coord, "DistinctElements max_coord");
    v.same(config_.epsilon, "DistinctElements epsilon");
    v.same(config_.repetitions, "DistinctElements repetitions");
    v.same(config_.seed, "DistinctElements seed");
  });
  v.section("distinct_elements.fingerprints", [&] {
    for (std::vector<std::uint64_t>& rep : fingerprints_) {
      v.same(std::uint64_t{rep.size()},
             "DistinctElements fingerprint run length");
      for (std::uint64_t& fp : rep) v.value(fp);
    }
  });
}

KW_SERIALIZE_TAGGED(DistinctElementsSketch, ser::kTagDistinctElements)

// ---- AgmGraphSketch -----------------------------------------------------

template <class V>
void AgmGraphSketch::fields(V& v) {
  v.section("agm.header", [&] {
    v.same(n_, "AgmGraphSketch n");
    v.same(config_.rounds, "AgmGraphSketch rounds");
    v.same(config_.sampler_instances, "AgmGraphSketch sampler_instances");
    v.same(config_.seed, "AgmGraphSketch seed");
  });
  v.object(group_);
}

KW_SERIALIZE_TAGGED(AgmGraphSketch, ser::kTagAgmSketch)

}  // namespace kw
