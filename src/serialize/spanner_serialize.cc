// Wire schemas of the spanner layer: ClusterForest, KvTableBank state,
// TwoPassSpanner, Kp12Sparsifier, MultipassSpanner, AdditiveSpannerSketch.
//
// The two-pass payloads are phase-dependent: pass-1 state is the lazy page
// fleet of S^r_j(u) cells, pass-2 state is the built cluster forest plus
// the H^u_j table contents (every derived structure -- terminals, member
// CSR, Y_j caps, empty tables -- is recomputed from the forest by
// prepare_pass2_structures(), exactly as finish_pass1() does).  A finished
// instance's state lives in its result; serializing one throws.
#include <algorithm>
#include <functional>
#include <vector>

#include "core/additive_spanner.h"
#include "core/cluster_forest.h"
#include "core/kp12_sparsifier.h"
#include "core/multipass_spanner.h"
#include "core/two_pass_spanner.h"
#include "serialize/serialize.h"

namespace kw {

namespace {

// A one-group BankGroup behind a 3-u64 header (max_coord, instances,
// seed): the per-vertex L0 banks of AdditiveSpannerSketch and
// MultipassSpanner.
template <class V>
void single_bank(V& v, BankGroup& bank) {
  v.section("single_bank.header", [&] {
    v.same(bank.max_coord(), "L0 bank max_coord");
    v.same(std::uint64_t{bank.instances()}, "L0 bank instances");
    v.same(bank.seeds().at(0), "L0 bank seed");
  });
  v.object(bank);
}

}  // namespace

// ---- ClusterForest ------------------------------------------------------

template <class V>
void ClusterForest::fields(V& v) {
  const Vertex n = hierarchy_.n;
  v.section("cluster_forest", [&] {
    v.same(n, "ClusterForest n");
    v.same(hierarchy_.k, "ClusterForest k");
    v.value(built_);
    for (unsigned i = 0; i < hierarchy_.k; ++i) {
      for (Vertex& p : parent_[i]) {
        v.value(p);
        v.check(p == kInvalidVertex || p < n,
                "ClusterForest parent out of range");
      }
      for (Edge& e : witness_[i]) v.value(e);
      if (n > 0) v.bytes(terminal_[i].data(), n);
      for (std::vector<Vertex>& members : members_[i]) {
        v.value(members);
        for (const Vertex m : members) {
          v.check(m < n, "ClusterForest member out of range");
        }
      }
    }
  });
}

KW_SERIALIZE_FIELDS(ClusterForest)

// ---- KvTableBank --------------------------------------------------------

template <class V>
void KvTableBank::fields(V& v, bool flat) {
  if (flat && levels_ != 1) {
    throw ser::SerializeError("KvTableBank: flat state needs one level");
  }
  // Save side: the entries to write, by slot id, so save -> load -> save
  // is byte-identical regardless of update order.  The bank keeps blocks
  // that cancelled to zero; the flat layout lists nonzero slots only, as
  // an erase-at-zero map would.
  std::vector<std::uint32_t> order;
  if constexpr (!V::kLoading) {
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      const OneSparseCell* c = cells_of(entries_[i]);
      if (!flat || !std::all_of(c, c + cell_stride_,
                                std::mem_fn(&OneSparseCell::is_zero))) {
        order.push_back(i);
      }
    }
    std::ranges::sort(order, {},
                      [this](std::uint32_t i) { return entries_[i].slot_id; });
  }
  const std::uint64_t slot_limit = config().tables * cells_per_table_;
  v.section(flat ? "kv_bank.flat_state" : "kv_bank.state", [&] {
    // An entry is a slot id (and, multi-level, a row count) ahead of at
    // least one row of cell_stride_ cells.
    const std::uint64_t count =
        v.count(order.size(),
                (flat ? 8 : 16) + cell_stride_ * sizeof(OneSparseCell));
    if (flat) {
      v.same(cell_stride_ - 1, "KvTableBank payload cells");
    } else {
      v.same(levels_, "KvTableBank levels");
      v.same(cell_stride_, "KvTableBank cell stride");
    }
    v.check(count <= slot_limit, "KvTableBank entry count exceeds its slots");
    if constexpr (V::kLoading) {
      entries_.clear();
      ht_slot_.clear();
      ht_index_.clear();
      arena_.reset();
      entries_.reserve(count);
    }
    std::uint64_t prev_slot = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      Entry& e = V::kLoading ? entries_.emplace_back() : entries_[order[i]];
      v.value(e.slot_id);
      v.check(e.slot_id < slot_limit && (i == 0 || e.slot_id > prev_slot),
              "KvTableBank slot id out of order or out of range");
      prev_slot = e.slot_id;
      // Touched levels 0..jcap.  Rows are the in-memory LEVEL DIFFS (level
      // j's value is the suffix sum of rows >= j); loading gets the same
      // representation back, so merge / decode semantics round-trip.
      std::uint64_t rows = flat ? 1 : e.rows;
      if (!flat) v.value(rows);
      v.check(rows >= 1 && rows <= levels_,
              "KvTableBank touched level count invalid");
      if constexpr (V::kLoading) {
        e.rows = static_cast<std::uint32_t>(rows);
        e.cap = e.rows;  // exact-size block: a bulk load never regrows
        e.block = arena_.allocate(rows * cell_stride_);
      }
      v.rows({arena_.data(e.block), rows * cell_stride_});
    }
    // One rebuild at the final size (grow_table sizes off entries_.size()).
    if constexpr (V::kLoading) {
      if (!entries_.empty()) grow_table();
    }
  });
}

void KvTableBank::serialize_state(ser::Writer& w) const {
  ser::Saver(w).walk(*this, /*flat=*/false);
}
void KvTableBank::deserialize_state(ser::Reader& r) {
  ser::Loader(r).walk(*this, /*flat=*/false);
}
void KvTableBank::serialize_flat_state(ser::Writer& w) const {
  ser::Saver(w).walk(*this, /*flat=*/true);
}
void KvTableBank::deserialize_flat_state(ser::Reader& r) {
  ser::Loader(r).walk(*this, /*flat=*/true);
}

// ---- TwoPassSpanner -----------------------------------------------------

template <class V>
void TwoPassSpanner::fields(V& v) {
  if (!V::kLoading && phase_ != Phase::kPass1 && phase_ != Phase::kPass2) {
    throw ser::SerializeError(
        "TwoPassSpanner: only pass-1 or pass-2 state is serializable (a "
        "finished spanner's state lives in its result)");
  }
  std::uint32_t stored_phase = phase_ == Phase::kPass1 ? 1 : 2;
  v.section("two_pass.header", [&] {
    v.same(n_, "TwoPassSpanner n");
    v.same(config_.k, "TwoPassSpanner k");
    v.same(config_.seed, "TwoPassSpanner seed");
    v.same(config_.pass1_budget, "TwoPassSpanner budget");
    v.same(config_.pass1_rows, "TwoPassSpanner rows");
    v.same(config_.table_capacity_factor,
           "TwoPassSpanner table_capacity_factor");
    v.same(config_.kv_tables, "TwoPassSpanner kv_tables");
    v.same(config_.kv_load_factor, "TwoPassSpanner kv_load_factor");
    v.same(config_.table_payload_budget, "TwoPassSpanner payload_budget");
    v.same(config_.table_payload_rows, "TwoPassSpanner payload_rows");
    v.same(config_.y_half_octave, "TwoPassSpanner y_half_octave");
    v.same(config_.augmented, "TwoPassSpanner augmented");
    v.same(edge_levels_, "TwoPassSpanner edge_levels");
    v.same(vertex_levels_, "TwoPassSpanner vertex_levels");
    v.same(pass1_cell_count_, "TwoPassSpanner pass1_cell_count");
    v.value(stored_phase);
  });
  v.check(stored_phase == 1 || stored_phase == 2,
          "TwoPassSpanner: unknown stored phase");
  if constexpr (V::kLoading) {
    diagnostics_ = {};
    augmented_.clear();
    result_.reset();
    // Pass-1 pages are reloaded below (pass 1) or dropped (pass 2).
    for (Pass1Page& page : pass1_pages_) page = Pass1Page{};
    page_arena_.reset();
    touch_arena_.reset();
  }

  if (stored_phase == 1) {
    if constexpr (V::kLoading) {
      phase_ = Phase::kPass1;
      forest_.reset();
      terminals_.clear();
      terminal_of_vertex_.clear();
      tree_at_level_.clear();
      banks_.clear();
      pass1_touched_bytes_ = 0;
    }
    v.section("two_pass.pass1_meta", [&] {
      v.value(diagnostics_.pass1_sketches_touched);
      v.value(diagnostics_.pass1_scan_failures);
    });
    const std::size_t page_cells_count =
        static_cast<std::size_t>(n_) * pass1_cell_count_;
    for (Pass1Page& page : pass1_pages_) {
      bool materialized = page_live(page);
      v.value(materialized);
      if (!materialized) continue;
      if constexpr (V::kLoading) {
        page.touched = touch_arena_.allocate(n_);
        page.cells = page_arena_.allocate(page_cells_count);
      }
      // Arena blocks are contiguous and page-sized, so the wire stream is
      // identical to the historical per-page vectors.
      v.bytes(page_flags(page), n_);
      v.cells({page_cells(page), page_cells_count}, "two_pass.page");
    }
    return;
  }

  if constexpr (V::kLoading) forest_.emplace(geo_->hierarchy);
  v.object(*forest_);
  v.section("two_pass.pass2_meta", [&] {
    v.value(diagnostics_.pass1_sketches_touched);
    v.value(diagnostics_.pass1_scan_failures);
    v.value(diagnostics_.pass2_tables_undecodable);
    v.value(diagnostics_.pass2_neighbors_unrecovered);
    v.value(diagnostics_.terminals_per_level);
    v.value(pass1_touched_bytes_);
    v.edge_map(augmented_, n_);
    // Rebuild every pass-2 structure from the loaded forest (banks all
    // null); the loop below materializes exactly the banks the writer had.
    if constexpr (V::kLoading) prepare_pass2_structures();
    v.same(std::uint64_t{terminals_.size()}, "TwoPassSpanner terminals");
  });
  // Lazy bank fleet: a presence flag per terminal, state only for banks a
  // pass-2 update actually materialized.
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    bool present = banks_[t] != nullptr;
    v.value(present);
    if (present) bank_for(t).fields(v, /*flat=*/false);
  }
  if constexpr (V::kLoading) phase_ = Phase::kPass2;
}

KW_SERIALIZE_TAGGED(TwoPassSpanner, ser::kTagTwoPassSpanner)

// ---- Kp12Sparsifier -----------------------------------------------------

template <class V>
void Kp12Sparsifier::fields(V& v) {
  if (!V::kLoading && phase_ == Phase::kDone) {
    throw ser::SerializeError(
        "Kp12Sparsifier: a finished sparsifier's state lives in its result");
  }
  std::uint32_t stored_phase = phase_ == Phase::kPass1 ? 1 : 2;
  bool initialized = initialized_;
  v.section("kp12.header", [&] {
    v.same(n_, "Kp12Sparsifier n");
    v.same(config_.k, "Kp12Sparsifier k");
    v.same(config_.epsilon, "Kp12Sparsifier epsilon");
    v.same(config_.seed, "Kp12Sparsifier seed");
    v.same(config_.j_copies, "Kp12Sparsifier j_copies");
    v.same(config_.t_levels, "Kp12Sparsifier t_levels");
    v.same(config_.xi_threshold_fraction,
           "Kp12Sparsifier xi_threshold_fraction");
    v.same(config_.z_samples, "Kp12Sparsifier z_samples");
    v.same(t_levels_, "Kp12Sparsifier t ladder");
    v.same(h_levels_, "Kp12Sparsifier h ladder");
    v.value(stored_phase);
    v.value(initialized);
  });
  v.check(stored_phase == 1 || stored_phase == 2,
          "Kp12Sparsifier: unknown stored phase");
  if constexpr (V::kLoading) {
    result_.reset();
    if (initialized) {
      // Build the instance fleet without the pass-2 catch-up (each
      // instance's own payload restores its phase along with its state).
      phase_ = Phase::kPass1;
      ensure_instances();
    } else {
      oracles_.clear();
      samplers_.clear();
      initialized_ = false;
    }
    phase_ = stored_phase == 1 ? Phase::kPass1 : Phase::kPass2;
  }
  if (!initialized) return;
  for (auto& row : oracles_) {
    for (TwoPassSpanner& o : row) v.object(o);
  }
  for (auto& row : samplers_) {
    for (TwoPassSpanner& a : row) v.object(a);
  }
}

KW_SERIALIZE_TAGGED(Kp12Sparsifier, ser::kTagKp12)

// ---- MultipassSpanner ---------------------------------------------------

template <class V>
void MultipassSpanner::fields(V& v) {
  if (!V::kLoading && finished_) {
    throw ser::SerializeError(
        "MultipassSpanner: a finished spanner's state lives in its result");
  }
  v.section("multipass.header", [&] {
    v.same(n_, "MultipassSpanner n");
    v.same(config_.k, "MultipassSpanner k");
    v.same(config_.seed, "MultipassSpanner seed");
    v.same(config_.table_capacity_factor,
           "MultipassSpanner table_capacity_factor");
    v.same(config_.sampler_instances, "MultipassSpanner sampler_instances");
    v.value(phase_);
  });
  v.check(phase_ >= 1 && phase_ <= config_.k,
          "MultipassSpanner: stored phase outside [1, k]");
  if constexpr (V::kLoading) {
    finished_ = false;
    result_.reset();
    // Rebuild this phase's survivor set and fresh (zero) sketches with the
    // phase-derived seeds, then overwrite the sketch state below.
    begin_phase();
  }
  v.section("multipass.clustering", [&] {
    v.value(cluster_of_);
    v.check(cluster_of_.size() == n_, "MultipassSpanner clustering size");
    for (const Vertex c : cluster_of_) {
      v.check(c == kInvalidVertex || c < n_,
              "MultipassSpanner cluster center out of range");
    }
    v.edge_map(edges_, n_);
    v.value(nominal_bytes_);
    v.value(unrecovered_);
    v.value(passes_done_);
  });
  single_bank(v, to_sampled_);
  for (KvTableBank& table : per_cluster_) table.fields(v, /*flat=*/true);
}

KW_SERIALIZE_TAGGED(MultipassSpanner, ser::kTagMultipass)

// ---- AdditiveSpannerSketch ----------------------------------------------

template <class V>
void AdditiveSpannerSketch::fields(V& v) {
  if (!V::kLoading && finished_) {
    throw ser::SerializeError(
        "AdditiveSpannerSketch: a finished sketch's state lives in its "
        "result");
  }
  v.section("additive.header", [&] {
    v.same(n_, "AdditiveSpanner n");
    v.same(config_.d, "AdditiveSpanner d");
    v.same(config_.seed, "AdditiveSpanner seed");
    v.same(config_.threshold_factor, "AdditiveSpanner threshold_factor");
    v.same(config_.center_rate_factor, "AdditiveSpanner center_rate_factor");
    v.same(config_.budget_slack, "AdditiveSpanner budget_slack");
    v.same(config_.degree_epsilon, "AdditiveSpanner degree_epsilon");
    v.same(config_.degree_repetitions, "AdditiveSpanner degree_repetitions");
    v.same(config_.agm_rounds, "AdditiveSpanner agm_rounds");
    v.same(config_.agm_instances, "AdditiveSpanner agm_instances");
  });
  if constexpr (V::kLoading) {
    finished_ = false;
    result_.reset();
  }
  for (SparseRecoverySketch& s : neighborhood_) v.object(s);
  single_bank(v, center_bank_);
  for (DistinctElementsSketch& s : degree_) v.object(s);
  v.object(agm_);
}

KW_SERIALIZE_TAGGED(AdditiveSpannerSketch, ser::kTagAdditive)

}  // namespace kw
