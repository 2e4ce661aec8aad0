/// The cluster hierarchy and forest of Section 3.1 of Kapralov-Woodruff,
/// "Spanners and sparsifiers in dynamic streams" (PODC 2014).  The forest has
/// at most kn copies and O(n^{1+1/k}) witness edges overall (Lemma 12), and is
/// the shared skeleton of both the offline (OfflineKwSpanner) and the two-pass
/// streaming (TwoPassSpanner) constructions.
///
/// C_i (i = 0..k-1) samples each vertex independently with probability
/// n^{-i/k}; C_0 = V.  The forest F lives on vertex *copies* (v, i) for
/// v in C_i (paper footnote 2: the same vertex can appear at several levels),
/// each copy having at most one parent copy (w, i+1).  Every forest edge
/// carries a witness edge phi((u,w)) = (a,w) in E with a in T_u.  A copy with
/// no parent is terminal; every vertex's level-0 copy chain ends at its
/// "terminal parent", and the (deduplicated) vertex sets of terminal subtrees
/// cover V.
///
/// The construction is callback-driven so the offline algorithm (adjacency
/// scans) and the streaming algorithm (sketch decoding) share all structural
/// code -- they differ only in how "find an edge from T_u to C_{i+1}" is
/// answered.
#ifndef KW_CORE_CLUSTER_FOREST_H
#define KW_CORE_CLUSTER_FOREST_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "serialize/serialize_fwd.h"

namespace kw {

struct ClusterHierarchy {
  Vertex n = 0;
  unsigned k = 1;
  // in_level[i][v] != 0 iff v in C_i; level_members[i] lists C_i.
  std::vector<std::vector<char>> in_level;
  std::vector<std::vector<Vertex>> level_members;

  [[nodiscard]] static ClusterHierarchy sample(Vertex n, unsigned k,
                                               std::uint64_t seed);

  [[nodiscard]] bool contains(unsigned level, Vertex v) const {
    return in_level[level][v] != 0;
  }
};

struct CopyRef {
  Vertex v = kInvalidVertex;
  unsigned level = 0;

  [[nodiscard]] bool valid() const noexcept { return v != kInvalidVertex; }
  [[nodiscard]] bool operator==(const CopyRef& o) const noexcept {
    return v == o.v && level == o.level;
  }
};

// Result of the connector query for copy (u, i): a parent w in C_{i+1} and
// the witness edge (a, w), a in T_u, certifying the connection.
struct Connector {
  Vertex parent = kInvalidVertex;
  Edge witness;
};

class ClusterForest {
 public:
  // find_connector(u, i, members-of-T_(u,i)) -> Connector or nullopt if
  // N(T_u) cap C_{i+1} is (believed) empty.
  using ConnectorFn = std::function<std::optional<Connector>(
      Vertex u, unsigned level, const std::vector<Vertex>& members)>;

  explicit ClusterForest(const ClusterHierarchy& hierarchy);

  // Runs the first phase bottom-up (levels 0..k-2; level k-1 copies are
  // always terminal).
  void build(const ConnectorFn& find_connector);

  [[nodiscard]] const ClusterHierarchy& hierarchy() const noexcept {
    return hierarchy_;
  }

  [[nodiscard]] bool is_terminal(unsigned level, Vertex v) const {
    return terminal_[level][v] != 0;
  }
  [[nodiscard]] Vertex parent(unsigned level, Vertex v) const {
    return parent_[level][v];
  }
  [[nodiscard]] const Edge& witness(unsigned level, Vertex v) const {
    return witness_[level][v];
  }

  // Member vertices of T_(v,level), possibly with duplicates (copy overlap).
  [[nodiscard]] const std::vector<Vertex>& members(unsigned level,
                                                   Vertex v) const {
    return members_[level][v];
  }

  // All terminal copies, by increasing level.
  [[nodiscard]] std::vector<CopyRef> terminals() const;

  // Terminal parent of vertex a: the end of the chain from copy (a, 0).
  [[nodiscard]] CopyRef terminal_parent_of(Vertex a) const;

  // Deduplicated, sorted member set of a terminal copy.
  [[nodiscard]] std::vector<Vertex> terminal_members(const CopyRef& t) const;

  // Witness edges of all forest edges (phi(F)), deduplicated.
  [[nodiscard]] std::vector<Edge> witness_edges() const;

  // Diagnostics: number of copies / terminals at each level.
  [[nodiscard]] std::vector<std::size_t> terminals_per_level() const;

  // ---- serialization: fields() in src/serialize/spanner_serialize.cc ----
  // The hierarchy is sampled deterministically from (n, k, seed) by the
  // owner, so only the built structure is stored; deserialize() requires a
  // destination constructed from the identical hierarchy.
  void serialize(ser::Writer& w) const;
  void deserialize(ser::Reader& r);
  template <class V>
  void fields(V& v);

 private:
  ClusterHierarchy hierarchy_;  // by value: results outlive their builders
  std::vector<std::vector<Vertex>> parent_;       // [i][v]
  std::vector<std::vector<Edge>> witness_;        // [i][v]
  std::vector<std::vector<char>> terminal_;       // [i][v]
  std::vector<std::vector<std::vector<Vertex>>> members_;  // [i][v] -> list
  bool built_ = false;
};

}  // namespace kw

#endif  // KW_CORE_CLUSTER_FOREST_H
