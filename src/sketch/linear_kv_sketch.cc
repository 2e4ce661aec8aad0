#include "sketch/linear_kv_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "util/random.h"

namespace kw {

namespace {

[[nodiscard]] SparseRecoveryConfig payload_config(const LinearKvConfig& c) {
  SparseRecoveryConfig pc;
  pc.max_coord = c.max_payload_coord;
  pc.budget = c.payload_budget;
  pc.rows = c.payload_rows;
  pc.seed = derive_seed(c.seed, 0x52);
  return pc;
}

constexpr std::size_t kNoBlock = ~std::size_t{0};

// What the peeler needs to know of a table besides its cells.
struct PeelShape {
  std::size_t stride;  // cells per slot: key detector, then payload cells
  std::size_t tables;
  std::uint64_t max_key;
  const FingerprintBasis* key_basis;
};

// The queue peeler (IBLT decode) behind decode_levels.  `cells` is a flat
// working copy of one table, shape.stride cells per stored slot;
// block_of(slot_id) is a slot's block index, or kNoBlock if the table never
// stored it.  Every block is queued once.  A block whose key detector
// verifies one-sparse yields (key, count, payload); that entry is
// subtracted at each of the key's table slots (a slot outside the table
// gets an appended zero block first) and those blocks are queued again, so
// the whole peel is linear in the cell count.  Returns the entries sorted
// by key, or nullopt when a cell stays nonzero (the table was overloaded).
template <typename SlotOf, typename BlockOf>
std::optional<std::vector<KvEntry>> peel_table(
    std::vector<OneSparseCell>& cells, const PeelShape& shape,
    const SlotOf& slot_of, const BlockOf& block_of) {
  const std::size_t stride = shape.stride;
  const std::size_t stored = cells.size() / stride;
  std::vector<std::size_t> queue(stored);
  std::iota(queue.begin(), queue.end(), std::size_t{0});
  std::unordered_map<std::uint64_t, std::size_t> appended;
  std::vector<KvEntry> found;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const OneSparseCell* block = cells.data() + queue[head] * stride;
    Recovered rec;
    if (block[0].count == 0 ||
        classify_cell(block[0], shape.max_key, *shape.key_basis, &rec) !=
            CellState::kOneSparse) {
      continue;
    }
    // Each honest peel zeroes one nonzero key detector and revives none,
    // so a table peels at most `stored` times; only crafted state, whose
    // subtractions could cycle forever, gets past that.
    if (found.size() == stored) return std::nullopt;
    KvEntry entry;
    entry.key = rec.coord;
    entry.key_count = rec.value;
    entry.payload.assign(block + 1, block + stride);
    OneSparseCell key;
    key.add(rec.coord, rec.value, *shape.key_basis);
    for (std::size_t t = 0; t < shape.tables; ++t) {
      const std::uint64_t slot_id = slot_of(t, rec.coord);
      std::size_t b = block_of(slot_id);
      if (b == kNoBlock) {
        const auto [it, fresh] =
            appended.try_emplace(slot_id, cells.size() / stride);
        if (fresh) cells.resize(cells.size() + stride);
        b = it->second;
      }
      OneSparseCell* dst = cells.data() + b * stride;
      dst[0].merge(key, -1);
      for (std::size_t c = 1; c < stride; ++c) {
        dst[c].merge(entry.payload[c - 1], -1);
      }
      queue.push_back(b);
    }
    found.push_back(std::move(entry));
  }
  // Residual check: every cell (key AND payload) must have peeled to zero.
  if (!std::all_of(cells.begin(), cells.end(),
                   [](const OneSparseCell& c) { return c.is_zero(); })) {
    return std::nullopt;
  }
  std::sort(found.begin(), found.end(),
            [](const KvEntry& a, const KvEntry& b) { return a.key < b.key; });
  // Defensive fold of duplicates (possible only under fingerprint collision).
  std::vector<KvEntry> out;
  for (auto& e : found) {
    if (!out.empty() && out.back().key == e.key) {
      out.back().key_count += e.key_count;
      for (std::size_t i = 0; i < out.back().payload.size(); ++i) {
        out.back().payload[i].merge(e.payload[i], 1);
      }
    } else {
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace

// ---- KvBankGeometry -----------------------------------------------------

KvBankGeometry::KvBankGeometry(std::vector<LinearKvConfig> configs,
                               bool stage_scatter)
    : configs_(std::move(configs)),
      cell_stride_(0),
      payload_rows_(0),
      tables_(configs_.empty() ? 0 : configs_.front().tables),
      max_key_(configs_.empty() ? 0 : configs_.front().max_key),
      // Full radix tables: ONE basis serves the whole fleet, so the
      // per-basis table cost the compact per-terminal bases were dodging
      // amortizes over every bank and every update.
      key_basis_(configs_.empty()
                     ? 0
                     : derive_seed(configs_.front().seed, 0x51),
                 /*full_tables=*/true),
      payload_geometry_([&] {
        if (configs_.empty()) {
          throw std::invalid_argument("bank geometry needs >= 1 config");
        }
        SparseRecoveryConfig pc = payload_config(configs_.front());
        pc.full_pow_tables = true;
        return pc;
      }()),
      table_hashes_(configs_.front().tables, /*independence=*/4,
                    derive_seed(configs_.front().seed, 0x53)) {
  const LinearKvConfig& lead = configs_.front();
  if (lead.tables == 0) throw std::invalid_argument("tables must be > 0");
  for (const LinearKvConfig& c : configs_) {
    if (c.seed != lead.seed || c.max_key != lead.max_key ||
        c.max_payload_coord != lead.max_payload_coord ||
        c.tables != lead.tables || c.payload_budget != lead.payload_budget ||
        c.payload_rows != lead.payload_rows) {
      throw std::invalid_argument(
          "bank geometry classes may differ only in capacity");
    }
    if (c.load_factor <= 0.0 || c.load_factor > 1.0) {
      throw std::invalid_argument("load_factor must be in (0,1]");
    }
    cells_per_table_.push_back(std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(static_cast<double>(c.capacity) /
                                              c.load_factor))));
  }
  cell_stride_ = 1 + payload_geometry_.cell_count();
  payload_rows_ = payload_geometry_.rows();
  key_bytes_ = std::max<std::size_t>(
      1, (std::bit_width(std::max<std::uint64_t>(lead.max_key, 1)) + 7) / 8);
  payload_bytes_ = std::max<std::size_t>(
      1, (std::bit_width(
              std::max<std::uint64_t>(lead.max_payload_coord, 1)) +
          7) /
             8);
  if (!stage_scatter) return;
  // Staged scatter operands, one sweep per kind over the key / payload
  // coordinate spaces.  Everything here is a pure function of the shared
  // randomness, so a fleet of banks -- and every batch fed to them --
  // reads the same tables.
  key_terms_.resize(2 * max_key_);
  for (std::uint64_t v = 0; v < max_key_; ++v) {
    key_basis_.pow_pair_bytes(v + 1, key_bytes_, &key_terms_[2 * v],
                              &key_terms_[2 * v + 1]);
  }
  const std::uint64_t max_coord = lead.max_payload_coord;
  pay_terms_.resize(2 * max_coord);
  pay_cells_.resize(max_coord * payload_rows_);
  for (std::uint64_t v = 0; v < max_coord; ++v) {
    payload_geometry_.basis().pow_pair_bytes(
        v + 1, payload_bytes_, &pay_terms_[2 * v], &pay_terms_[2 * v + 1]);
    for (std::size_t row = 0; row < payload_rows_; ++row) {
      pay_cells_[v * payload_rows_ + row] =
          static_cast<std::uint32_t>(payload_geometry_.cell_index(row, v));
    }
  }
  buckets_.resize(configs_.size() * max_key_ * tables_);
  for (std::size_t cls = 0; cls < configs_.size(); ++cls) {
    const std::size_t cells = cells_per_table_[cls];
    for (std::uint64_t v = 0; v < max_key_; ++v) {
      std::uint32_t* out = buckets_.data() + (cls * max_key_ + v) * tables_;
      for (std::size_t t = 0; t < tables_; ++t) {
        out[t] = static_cast<std::uint32_t>(table_hashes_[t].bucket(v, cells));
      }
    }
  }
}

// ---- KvTableBank --------------------------------------------------------

KvTableBank::KvTableBank(const LinearKvConfig& config, std::size_t levels)
    : KvTableBank(KvBankGeometry::make({config}), 0, levels) {}

KvTableBank::KvTableBank(std::shared_ptr<const KvBankGeometry> geometry,
                         std::size_t cls, std::size_t levels)
    : geo_(std::move(geometry)), cls_(cls), levels_(levels) {
  if (geo_ == nullptr || cls_ >= geo_->classes()) {
    throw std::invalid_argument("bank needs a geometry covering its class");
  }
  if (levels == 0) throw std::invalid_argument("bank needs levels >= 1");
  cells_per_table_ = geo_->cells_per_table(cls_);
  cell_stride_ = geo_->cell_stride();
}

std::uint64_t KvTableBank::slot(std::size_t table, std::uint64_t key) const {
  return table * cells_per_table_ +
         geo_->table_hashes()[table].bucket(key, cells_per_table_);
}

void KvTableBank::grow_table() {
  // Sized off the live entry count (not a doubling chain) so one rebuild
  // after a bulk load -- deserialize_state fills entries_ first -- lands at
  // the right size directly.
  const std::size_t size = std::max<std::size_t>(
      16, std::bit_ceil((entries_.size() + 1) * 2));
  ht_slot_.assign(size, kEmptySlot);
  ht_index_.assign(size, 0);
  const int shift = 64 - std::countr_zero(size);
  const std::size_t mask = size - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t pos = static_cast<std::size_t>(
        (entries_[i].slot_id * 0x9e3779b97f4a7c15ULL) >> shift);
    while (ht_slot_[pos] != kEmptySlot) pos = (pos + 1) & mask;
    ht_slot_[pos] = entries_[i].slot_id;
    ht_index_[pos] = static_cast<std::uint32_t>(i);
  }
}

KvTableBank::Entry& KvTableBank::entry_at(std::uint64_t slot_id) {
  if (ht_slot_.empty() || (entries_.size() + 1) * 2 > ht_slot_.size()) {
    grow_table();
  }
  const int shift = 64 - std::countr_zero(ht_slot_.size());
  const std::size_t mask = ht_slot_.size() - 1;
  std::size_t pos =
      static_cast<std::size_t>((slot_id * 0x9e3779b97f4a7c15ULL) >> shift);
  while (ht_slot_[pos] != kEmptySlot && ht_slot_[pos] != slot_id) {
    pos = (pos + 1) & mask;
  }
  if (ht_slot_[pos] == slot_id) return entries_[ht_index_[pos]];
  ht_slot_[pos] = slot_id;
  ht_index_[pos] = static_cast<std::uint32_t>(entries_.size());
  Entry e;
  e.slot_id = slot_id;
  entries_.push_back(std::move(e));
  return entries_.back();
}

void KvTableBank::ensure_rows(Entry& entry, std::uint32_t rows) {
  if (entry.rows >= rows) return;
  if (rows > entry.cap) {
    const std::uint32_t cap =
        std::max(std::bit_ceil(rows), entry.cap * 2);
    const CellArena::Handle grown =
        arena_.allocate(std::size_t{cap} * cell_stride_);
    if (entry.rows != 0) {
      const std::size_t old_cells = std::size_t{entry.rows} * cell_stride_;
      const OneSparseCell* src = arena_.data(entry.block);
      std::copy(src, src + old_cells, arena_.data(grown));
    }
    if (entry.cap != 0) {
      arena_.free(entry.block, std::size_t{entry.cap} * cell_stride_);
    }
    entry.block = grown;
    entry.cap = cap;
  }
  // rows..cap-1 is still zero (see Entry::cap), so deepening is free.
  entry.rows = rows;
}

const KvTableBank::Entry* KvTableBank::find_entry(
    std::uint64_t slot_id) const {
  if (ht_slot_.empty()) return nullptr;
  const int shift = 64 - std::countr_zero(ht_slot_.size());
  const std::size_t mask = ht_slot_.size() - 1;
  std::size_t pos =
      static_cast<std::size_t>((slot_id * 0x9e3779b97f4a7c15ULL) >> shift);
  while (ht_slot_[pos] != kEmptySlot) {
    if (ht_slot_[pos] == slot_id) return &entries_[ht_index_[pos]];
    pos = (pos + 1) & mask;
  }
  return nullptr;
}

void KvTableBank::update(std::uint64_t key, std::int64_t key_delta,
                         std::uint64_t payload_coord,
                         std::int64_t payload_delta, std::size_t jmax) {
  const KvBankGeometry& g = *geo_;
  const LinearKvConfig& config = g.config(cls_);
  if (key >= config.max_key) {
    throw std::out_of_range("kv bank key out of range");
  }
  if (jmax >= levels_) {
    throw std::out_of_range("kv bank level out of range");
  }
  if (key_delta == 0 && payload_delta == 0) return;
  // Stage once for the whole table fan-out: key term pair, payload term
  // pair, payload row buckets (read from the geometry's staged tables when
  // it carries them -- same values either way).
  std::uint64_t kt1 = 0;
  std::uint64_t kt2 = 0;
  const bool staged = g.staged();
  if (key_delta != 0) {
    if (staged) {
      const std::uint64_t* kt = g.key_term(key);
      kt1 = kt[0];
      kt2 = kt[1];
    } else {
      g.key_basis().pow_pair_bytes(key + 1, g.key_bytes(), &kt1, &kt2);
    }
    const std::uint64_t df = field_from_signed(key_delta);
    if (df != 1) {
      kt1 = field_mul(df, kt1);
      kt2 = field_mul(df, kt2);
    }
  }
  std::uint64_t pt1 = 0;
  std::uint64_t pt2 = 0;
  constexpr std::size_t kMaxStagedPayloadRows = 8;
  std::uint32_t pcell_buf[kMaxStagedPayloadRows] = {};
  const std::uint32_t* pcell = pcell_buf;
  const std::size_t payload_rows = g.payload_rows();
  const bool staged_rows = staged || payload_rows <= kMaxStagedPayloadRows;
  if (payload_delta != 0) {
    if (payload_coord >= config.max_payload_coord) {
      throw std::out_of_range("sparse recovery coordinate out of range");
    }
    if (staged) {
      const std::uint64_t* pt = g.pay_term(payload_coord);
      pt1 = pt[0];
      pt2 = pt[1];
      pcell = g.pay_cells(payload_coord);
    } else {
      g.payload_geometry().basis().pow_pair_bytes(
          payload_coord + 1, g.payload_bytes(), &pt1, &pt2);
      if (staged_rows) {
        for (std::size_t row = 0; row < payload_rows; ++row) {
          pcell_buf[row] = static_cast<std::uint32_t>(
              g.payload_geometry().cell_index(row, payload_coord));
        }
      }
    }
    const std::uint64_t df = field_from_signed(payload_delta);
    if (df != 1) {
      pt1 = field_mul(df, pt1);
      pt2 = field_mul(df, pt2);
    }
  }
  // Diff representation: the whole level prefix 0..jmax is recorded by one
  // cell-row write at jmax (levels materialize as suffix sums).
  const std::uint32_t want_rows = static_cast<std::uint32_t>(jmax + 1);
  for (std::size_t t = 0; t < config.tables; ++t) {
    Entry& entry = entry_at(slot(t, key));
    ensure_rows(entry, want_rows);
    OneSparseCell* cells = arena_.data(entry.block) + jmax * cell_stride_;
    if (key_delta != 0) {
      cells[0].add_term(key, key_delta, kt1, kt2);
    }
    if (payload_delta != 0) {
      if (staged_rows) {
        for (std::size_t row = 0; row < payload_rows; ++row) {
          cells[1 + pcell[row]].add_term(payload_coord, payload_delta, pt1,
                                         pt2);
        }
      } else {
        for (std::size_t row = 0; row < payload_rows; ++row) {
          cells[1 + g.payload_geometry().cell_index(row, payload_coord)]
              .add_term(payload_coord, payload_delta, pt1, pt2);
        }
      }
    }
  }
}

void KvTableBank::update_staged(std::uint64_t key, std::int64_t key_delta,
                                std::uint64_t payload_coord,
                                std::int64_t payload_delta, std::size_t jmax,
                                std::uint64_t kt1, std::uint64_t kt2,
                                std::uint64_t pt1, std::uint64_t pt2) {
  if (key_delta == 0 && payload_delta == 0) return;
  const KvBankGeometry& g = *geo_;
  const std::uint32_t* buckets = g.buckets(cls_, key);
  const std::uint32_t* pcell = g.pay_cells(payload_coord);
  const std::size_t payload_rows = g.payload_rows();
  const std::size_t tables = g.config(cls_).tables;
  const std::uint32_t want_rows = static_cast<std::uint32_t>(jmax + 1);
  for (std::size_t t = 0; t < tables; ++t) {
    Entry& entry = entry_at(t * cells_per_table_ + buckets[t]);
    ensure_rows(entry, want_rows);
    OneSparseCell* cells = arena_.data(entry.block) + jmax * cell_stride_;
    if (key_delta != 0) {
      cells[0].add_term(key, key_delta, kt1, kt2);
    }
    if (payload_delta != 0) {
      for (std::size_t row = 0; row < payload_rows; ++row) {
        cells[1 + pcell[row]].add_term(payload_coord, payload_delta, pt1, pt2);
      }
    }
  }
}

void KvTableBank::merge(const KvTableBank& other, std::int64_t sign) {
  if (other.config().seed != config().seed ||
      other.config().max_key != config().max_key ||
      other.cells_per_table_ != cells_per_table_ ||
      other.config().tables != config().tables || other.levels_ != levels_) {
    throw std::invalid_argument("merging incompatible kv banks");
  }
  for (const Entry& theirs : other.entries_) {
    Entry& mine = entry_at(theirs.slot_id);
    ensure_rows(mine, theirs.rows);
    const std::size_t count = std::size_t{theirs.rows} * cell_stride_;
    const OneSparseCell* src = other.arena_.data(theirs.block);
    OneSparseCell* dst = arena_.data(mine.block);
    for (std::size_t c = 0; c < count; ++c) dst[c].merge(src[c], sign);
  }
}

bool KvTableBank::is_zero() const noexcept {
  for (const Entry& e : entries_) {
    const OneSparseCell* cells = cells_of(e);
    const std::size_t count = std::size_t{e.rows} * cell_stride_;
    for (std::size_t c = 0; c < count; ++c) {
      if (!cells[c].is_zero()) return false;
    }
  }
  return true;
}

std::size_t KvTableBank::decode_levels(const LevelVisitor& visit) const {
  // The blocks store level DIFFS, so walking deepest-first each level's
  // values are running suffix sums with that level's rows folded in.  With
  // entries ordered by depth, the entries reaching level j (rows > j) are a
  // prefix of `order` that grows as j falls; sums and the peeler's working
  // copy hold that prefix only (block p <-> entry order[p]), so the walk
  // costs one pass over the stored rows plus one peel per level.  An entry
  // outside the prefix is zero at the level, which is what the peeler
  // assumes of a slot it cannot find.
  std::vector<std::uint32_t> order(entries_.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return entries_[a].rows > entries_[b].rows;
                   });
  std::vector<std::uint32_t> block_of_entry(entries_.size());
  for (std::uint32_t p = 0; p < order.size(); ++p) {
    block_of_entry[order[p]] = p;
  }
  std::size_t reach = 0;
  const PeelShape shape{cell_stride_, config().tables, config().max_key,
                        &geo_->key_basis()};
  const auto slot_of = [this](std::size_t t, std::uint64_t key) {
    return slot(t, key);
  };
  const auto block_of = [&](std::uint64_t slot_id) {
    const Entry* e = find_entry(slot_id);
    if (e == nullptr) return kNoBlock;
    const std::size_t p = block_of_entry[e - entries_.data()];
    return p < reach ? p : kNoBlock;
  };
  std::vector<OneSparseCell> sums;
  std::vector<OneSparseCell> work;
  std::size_t live_levels = 0;  // live (slot, level) cells, as touched_bytes
  for (std::size_t j = levels_; j-- > 0;) {
    while (reach < order.size() && entries_[order[reach]].rows > j) ++reach;
    sums.resize(reach * cell_stride_);  // newly reached entries start at 0
    for (std::size_t p = 0; p < reach; ++p) {
      const OneSparseCell* row =
          cells_of(entries_[order[p]]) + j * cell_stride_;
      OneSparseCell* sum = sums.data() + p * cell_stride_;
      bool live = false;
      for (std::size_t c = 0; c < cell_stride_; ++c) {
        sum[c].merge(row[c], 1);
        live = live || !sum[c].is_zero();
      }
      if (live) ++live_levels;
    }
    work = sums;
    visit(j, peel_table(work, shape, slot_of, block_of));
  }
  return live_levels * cell_stride_ * sizeof(OneSparseCell) +
         sizeof(LinearKvConfig);
}

std::optional<std::vector<Recovered>> KvTableBank::decode_payload(
    const KvEntry& entry) const {
  return geo_->payload_geometry().decode_state(entry.payload);
}

std::size_t KvTableBank::nominal_bytes(const LinearKvConfig& config,
                                       std::size_t levels) noexcept {
  // The same closed form for every consumer (two-pass, KP12, multipass),
  // so the space-claim numbers stay comparable across baselines.
  const std::size_t cells_per_table = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::ceil(
             static_cast<double>(config.capacity) / config.load_factor)));
  const std::size_t payload_cells =
      config.payload_rows * 2 * std::max<std::size_t>(config.payload_budget, 1);
  const std::size_t cell_bytes = sizeof(OneSparseCell) * (1 + payload_cells);
  return levels *
         (config.tables * cells_per_table * cell_bytes +
          sizeof(LinearKvConfig));
}

std::size_t KvTableBank::touched_bytes() const noexcept {
  // Count LIVE (slot, level) cells only, matching the historical per-level
  // erase-at-zero maps: a level whose state cancelled to zero costs nothing,
  // so per-update churn and an aggregated batch report the same footprint.
  // Liveness is a property of the MATERIALIZED level (the suffix sum of the
  // stored diff rows), so the walk runs deepest-first, folding rows into a
  // running accumulator and testing that.
  std::size_t live_levels = 0;
  std::vector<OneSparseCell> acc(cell_stride_);
  for (const Entry& e : entries_) {
    const std::size_t jcap = e.rows;
    std::fill(acc.begin(), acc.end(), OneSparseCell{});
    for (std::size_t j = jcap; j-- > 0;) {
      const OneSparseCell* cells = cells_of(e) + j * cell_stride_;
      bool live = false;
      for (std::size_t c = 0; c < cell_stride_; ++c) {
        acc[c].merge(cells[c], 1);
        live = live || !acc[c].is_zero();
      }
      if (live) ++live_levels;
    }
  }
  return live_levels * cell_stride_ * sizeof(OneSparseCell) +
         sizeof(LinearKvConfig);
}

}  // namespace kw
