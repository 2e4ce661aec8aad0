/// Exact B-sparse recovery (the paper's SKETCH_B / DECODE pair, Theorem 8):
/// O(B log n)-word linear sketches of a dynamic vector from which any B-sparse
/// vector is recovered exactly, with overload detected rather than mis-decoded.
///
/// Construction: R independent rows, each hashing coordinates into 2B
/// one-sparse cells (util k-wise hashing).  DECODE is IBLT-style peeling:
/// repeatedly find a verified one-sparse cell, record its (coord, value) and
/// subtract it everywhere.  Success iff the residual is identically zero, so
/// overload (||x||_0 > B) is *detected*, matching the paper's "we always know
/// if a SKETCH_B(x) can be decoded" convention (Section 2).
///
/// The sketch is linear: update() applies (coord, +-delta), merge() adds or
/// subtracts whole sketches that share (budget, rows, seed).
///
/// The geometry/randomness is separable from the state: update_state() /
/// decode_state() operate on caller-owned cell arrays with this sketch's
/// hashes and fingerprint basis.  That is how the linear hash tables of
/// Section 3.2 embed a SKETCH_B as the *value* of each table cell.
#ifndef KW_SKETCH_SPARSE_RECOVERY_H
#define KW_SKETCH_SPARSE_RECOVERY_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "serialize/serialize_fwd.h"
#include "sketch/fingerprint.h"
#include "util/hashing.h"

namespace kw {

struct SparseRecoveryConfig {
  std::uint64_t max_coord = 1;  // coordinate space is [0, max_coord)
  std::size_t budget = 8;       // B: recover up to B nonzeros
  std::size_t rows = 4;         // independent hash rows
  std::uint64_t seed = 1;
  // Build the basis's radix walk tables (~28 KiB, ~2000 multiplies): worth
  // it only for geometries whose pow_pair_bytes sits on a batched hot path
  // (the two-pass spanner's pass-1 pages).  Mass-instantiated sketches --
  // per-entry payload geometries, per-vertex samplers -- keep the compact
  // basis; every pow falls back to the square tables, bit-identically.
  bool full_pow_tables = false;
};

class SparseRecoverySketch {
 public:
  explicit SparseRecoverySketch(const SparseRecoveryConfig& config);

  void update(std::uint64_t coord, std::int64_t delta);

  // this += sign * other.  Other must share the configuration.
  void merge(const SparseRecoverySketch& other, std::int64_t sign = 1);

  // Exact support recovery; nullopt if x is not decodable (too dense or a
  // fingerprint check failed).  Result is sorted by coordinate.
  [[nodiscard]] std::optional<std::vector<Recovered>> decode() const;

  [[nodiscard]] bool is_zero() const noexcept;

  [[nodiscard]] const SparseRecoveryConfig& config() const noexcept {
    return config_;
  }

  // Dense size of the sketch state in bytes (the space a streaming device
  // would allocate).
  [[nodiscard]] std::size_t nominal_bytes() const noexcept;

  // ---- geometry-only interface over external state -------------------
  // Number of cells a compatible external state array must have.
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return config_.rows * buckets_per_row_;
  }
  [[nodiscard]] std::size_t rows() const noexcept { return config_.rows; }
  [[nodiscard]] std::size_t buckets_per_row() const noexcept {
    return buckets_per_row_;
  }
  // Row hash for batched bucket computation (eval_many + the same Lemire
  // reduction bucket() applies); cell_index() is the scalar equivalent.
  [[nodiscard]] const KWiseHash& row_hash(std::size_t row) const {
    return row_hashes_[row];
  }
  // Flat cell index of (row, coord): row * buckets_per_row() + bucket.
  [[nodiscard]] std::size_t cell_index(std::size_t row,
                                       std::uint64_t coord) const;
  // Applies (coord, delta) to an external state array.
  void update_state(std::span<OneSparseCell> cells, std::uint64_t coord,
                    std::int64_t delta) const;
  // Decodes an external state array written via update_state (or linear
  // combinations thereof).
  [[nodiscard]] std::optional<std::vector<Recovered>> decode_state(
      std::span<const OneSparseCell> cells) const;

  [[nodiscard]] const FingerprintBasis& basis() const noexcept {
    return basis_;
  }

  // ---- serialization: fields() in src/serialize/sketch_serialize.cc -----
  [[nodiscard]] std::uint32_t serial_tag() const noexcept;
  void serialize(ser::Writer& w) const;
  void deserialize(ser::Reader& r);
  template <class V>
  void fields(V& v);

 private:
  SparseRecoveryConfig config_;
  std::size_t buckets_per_row_;
  FingerprintBasis basis_;
  HashFamily row_hashes_;
  std::vector<OneSparseCell> cells_;  // rows * buckets_per_row_
};

}  // namespace kw

#endif  // KW_SKETCH_SPARSE_RECOVERY_H
