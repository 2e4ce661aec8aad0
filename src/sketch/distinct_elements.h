/// Linear distinct-elements ((1 +- eps) L0) estimation, Theorem 9 [KNW10]:
/// one pass, O(eps^-2 log n log(1/delta)) words, mergeable, deletion-proof.
///
/// Per level j, K fingerprint cells over the coordinates surviving rate-2^-j
/// subsampling; a cell is empty iff its fingerprint is zero (whp).  The
/// occupancy of the first level in the linear-counting sweet spot yields the
/// estimate; the median over `repetitions` independent copies drives the
/// failure probability down as log(1/delta), mirroring the theorem.  The
/// paper uses this sketch as the decodability guard for SKETCH_B (Section 2).
#ifndef KW_SKETCH_DISTINCT_ELEMENTS_H
#define KW_SKETCH_DISTINCT_ELEMENTS_H

#include <cstdint>
#include <vector>

#include "serialize/serialize_fwd.h"
#include "util/hashing.h"
#include "util/prime_field.h"

namespace kw {

struct DistinctElementsConfig {
  std::uint64_t max_coord = 1;
  double epsilon = 0.25;        // target relative accuracy
  std::size_t repetitions = 5;  // median of this many independent copies
  std::uint64_t seed = 1;
};

class DistinctElementsSketch {
 public:
  explicit DistinctElementsSketch(const DistinctElementsConfig& config);

  void update(std::uint64_t coord, std::int64_t delta);

  void merge(const DistinctElementsSketch& other, std::int64_t sign = 1);

  // Estimate of ||x||_0.  Exact 0 for the zero vector (whp).
  [[nodiscard]] double estimate() const;

  [[nodiscard]] std::size_t nominal_bytes() const noexcept;

  [[nodiscard]] const DistinctElementsConfig& config() const noexcept {
    return config_;
  }

  // ---- serialization: fields() in src/serialize/sketch_serialize.cc -----
  [[nodiscard]] std::uint32_t serial_tag() const noexcept;
  void serialize(ser::Writer& w) const;
  void deserialize(ser::Reader& r);
  template <class V>
  void fields(V& v);

 private:
  [[nodiscard]] double estimate_one(std::size_t rep) const;

  DistinctElementsConfig config_;
  std::size_t levels_;
  std::size_t cells_per_level_;  // K = ceil(4 / eps^2)
  HashFamily level_hashes_;      // subsampling, one per repetition
  HashFamily cell_hashes_;       // cell placement, one per repetition
  std::uint64_t fp_base_;        // shared fingerprint evaluation point
  // fingerprints[rep][level * K + cell]
  std::vector<std::vector<std::uint64_t>> fingerprints_;
};

}  // namespace kw

#endif  // KW_SKETCH_DISTINCT_ELEMENTS_H
