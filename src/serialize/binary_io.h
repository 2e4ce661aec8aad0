// Little-endian binary writer/reader for the sketch serialization format,
// and the schema visitor that drives them.
//
// Writer appends fixed-width little-endian fields to an in-memory buffer
// (the envelope layer frames + CRCs the buffer afterwards) and tracks
// per-section byte counts in a SerializeStats.  Reader parses a fully
// materialized, CRC-verified payload with bounds checking on every access:
// corrupt or truncated input raises SerializeError, never undefined
// behavior.
#ifndef KW_SERIALIZE_BINARY_IO_H
#define KW_SERIALIZE_BINARY_IO_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sketch/fingerprint.h"

namespace kw {

class StreamProcessor;

namespace ser {

// Every malformed-input condition (bad magic, version, CRC, truncation,
// geometry mismatch) raises this, with a message naming what went wrong.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error("serialize: " + what) {}
};

// Byte counts per named section of one serialized payload, so the sparse
// cell encoding's compression is observable.
struct SerializeStats {
  struct Section {
    std::string label;
    std::size_t bytes = 0;
    bool sparse = false;  // true when the section used sparse cell encoding
  };
  std::vector<Section> sections;
  std::size_t cells_total = 0;     // cells covered by cell sections
  std::size_t cells_nonzero = 0;   // of which non-zero (actually written)
  std::size_t payload_bytes = 0;   // bytes inside the envelope
  std::size_t total_bytes = 0;     // payload + envelope framing
};

// The wire type of an arithmetic field: u8 (bool and bytes), u32, u64, or
// f64 -- by width, so size_t fields travel as u64.
template <class T>
using WireOf = std::conditional_t<
    std::is_floating_point_v<T>, double,
    std::conditional_t<sizeof(T) == 1, std::uint8_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>>>;

class Writer {
 public:
  // One wire field (std::uint8_t, std::uint32_t, std::uint64_t or double).
  template <class T>
  void put(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::endian::native == std::endian::little) {
      bytes(&v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<unsigned char>(v >> (8 * i)));
      }
    }
  }

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  // A u64 whose value is known only after later fields are written (a
  // nested section's length): u64_slot() writes a placeholder and returns
  // its offset, patch_u64() fills it in.
  [[nodiscard]] std::size_t u64_slot() {
    const std::size_t offset = buf_.size();
    put(std::uint64_t{0});
    return offset;
  }
  void patch_u64(std::size_t offset, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
      buf_[offset + i] = static_cast<unsigned char>(v >> (8 * i));
    }
  }

  // Section accounting: everything written between begin_section() and
  // end_section() is charged to one SerializeStats row.
  void begin_section(std::string label) {
    section_label_ = std::move(label);
    section_start_ = buf_.size();
    section_sparse_ = false;
  }
  void mark_section_sparse() { section_sparse_ = true; }
  void end_section() {
    stats_.sections.push_back(
        {section_label_, buf_.size() - section_start_, section_sparse_});
  }

  // Empties the buffer and the stats but keeps the allocation.
  void clear() {
    buf_.clear();
    stats_ = {};
  }

  [[nodiscard]] const std::vector<unsigned char>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] SerializeStats& stats() noexcept { return stats_; }
  [[nodiscard]] const SerializeStats& stats() const noexcept { return stats_; }

 private:
  std::vector<unsigned char> buf_;
  SerializeStats stats_;
  std::string section_label_;
  std::size_t section_start_ = 0;
  bool section_sparse_ = false;
};

class Reader {
 public:
  Reader(const unsigned char* data, std::size_t len)
      : data_(data), len_(len) {}

  // One wire field, as Writer::put wrote it.
  template <class T>
  [[nodiscard]] T get() {
    if constexpr (std::is_floating_point_v<T>) {
      return std::bit_cast<T>(get<std::uint64_t>());
    } else {
      need(sizeof(T));
      T v = 0;
      if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, data_ + pos_, sizeof(T));
      } else {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
          v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
        }
      }
      pos_ += sizeof(T);
      return v;
    }
  }

  void bytes(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }

  // Slices the next `len` bytes off as an independent sub-reader (used by
  // nested per-processor sections of a checkpoint / demux payload).
  [[nodiscard]] Reader sub(std::size_t len) {
    need(len);
    Reader r(data_ + pos_, len);
    pos_ += len;
    return r;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }

  // Payload parsers call this last: trailing garbage is corruption too.
  void expect_end() const {
    if (pos_ != len_) {
      throw SerializeError("payload has " + std::to_string(len_ - pos_) +
                           " trailing bytes");
    }
  }

 private:
  void need(std::size_t len) const {
    if (len > len_ - pos_) {
      throw SerializeError("payload truncated (need " + std::to_string(len) +
                           " bytes, have " + std::to_string(len_ - pos_) +
                           ")");
    }
  }

  const unsigned char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// CRC-32 (reflected 0xEDB88320 polynomial, the zlib/PNG variant) over a
// byte range; the envelope stores it over header + payload.
[[nodiscard]] std::uint32_t crc32(const unsigned char* data, std::size_t len,
                                  std::uint32_t seed = 0);

// ---- the schema visitor ---------------------------------------------------
//
// Every serialized type lists its payload once, in wire order, in a member
// `template <class V> void fields(V& v)`.  Saver walks it writing each
// field; Loader walks it reading each field back and holds every load-side
// check.  fields() branches on V::kLoading only for steps the load side
// alone takes: resets, rebuilding derived structure, arena allocation.
//
// Primitives, each one body for both directions:
//   value(x)            an arithmetic field at its WireOf width, an edge
//                       (u32 u, u32 v, f64 weight), or a vector of either
//                       (count, then the elements)
//   same(live, name)    a configuration/geometry field: written on save,
//                       compared with the live value on load (doubles
//                       bitwise, vectors element-wise)
//   count(n, k)         a u64 element count that must leave k payload bytes
//                       per element -- the one length bound
//   edge_map(m, n), graph(g, n)   edges, all endpoints below n on load
//   present(opt)        a u8 flag: does the optional hold a value
//   bytes(p, len), rows(cells)    raw bytes; raw 32-byte cells
//   cells(cells, label) a sparse-or-dense cell section (serialize.h)
//   object(x)           a nested type's serialize() / deserialize()
//   processors(ps, label)  the (u32 tag, u64 length, payload) processor
//                       list; a label makes each item one opaque stats row
//   section(label, fn)  charges fn's bytes to one SerializeStats row
//   check(ok, what)     load only: SerializeError(what) unless ok
template <bool Loading>
class Visitor {
 public:
  static constexpr bool kLoading = Loading;
  using Stream = std::conditional_t<Loading, Reader, Writer>;

  explicit Visitor(Stream& s) : s_(&s) {}

  // fields() takes the object mutable for loading; saving only reads.
  template <class T, class... Args>
  void walk(const T& obj, Args... args) {
    const_cast<T&>(obj).fields(*this, args...);
  }

  template <class T>
  void value(T& x) {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (kLoading) {
      x = static_cast<T>(s_->template get<WireOf<T>>());
    } else {
      s_->put(static_cast<WireOf<T>>(x));
    }
  }

  template <class T>
  void same(const T& live, const char* name) {
    T stored = live;
    value(stored);
    bool equal = stored == live;
    if constexpr (std::is_floating_point_v<T>) {
      // Doubles are configuration constants, never computed: bitwise.
      equal = std::memcmp(&stored, &live, sizeof(T)) == 0;
    }
    if (kLoading && !equal) {
      std::string detail;
      if constexpr (std::is_arithmetic_v<T>) {
        detail = " (stored " + std::to_string(stored) + ", live " +
                 std::to_string(live) + ")";
      }
      throw SerializeError(std::string("stored ") + name +
                           " does not match the destination object" + detail);
    }
  }

  std::uint64_t count(std::uint64_t n, std::size_t min_bytes) {
    value(n);
    if constexpr (kLoading) {
      // Divide, never multiply: n * min_bytes can wrap past the check.
      if (n > s_->remaining() / min_bytes) {
        throw SerializeError("length prefix " + std::to_string(n) +
                             " exceeds the remaining payload");
      }
    }
    return n;
  }

  void value(Edge& e) {
    value(e.u);
    value(e.v);
    value(e.weight);
  }

  template <class T>
  void value(std::vector<T>& xs) {
    // sizeof(T) is the wire size of every element type.
    static_assert(sizeof(Edge) == 4 + 4 + 8);
    const std::uint64_t n = count(xs.size(), sizeof(T));
    if constexpr (kLoading) xs.resize(n);
    for (T& x : xs) value(x);
  }

  void edge_map(std::map<std::pair<Vertex, Vertex>, double>& edges,
                Vertex n) {
    std::vector<Edge> list;
    for (const auto& [key, weight] : edges) {
      list.push_back({key.first, key.second, weight});
    }
    value(list);  // on load, overwrites every listed edge
    if constexpr (kLoading) {
      edges.clear();
      for (const Edge& e : list) {
        check(e.u < n && e.v < n, "edge map endpoint out of range");
        edges.emplace(std::make_pair(e.u, e.v), e.weight);
      }
    }
  }

  void graph(Graph& g, Vertex n) {
    same(n, "graph vertex count");
    std::vector<Edge> list;
    if constexpr (!kLoading) list = g.edges();
    value(list);
    if constexpr (kLoading) {
      g = Graph(n);
      for (const Edge& e : list) {
        check(e.u < n && e.v < n && e.u != e.v,
              "graph edge is a self-loop or leaves the vertex range");
        g.add_edge(e.u, e.v, e.weight);
      }
    }
  }

  template <class T>
  bool present(std::optional<T>& opt) {
    bool has = opt.has_value();
    value(has);
    if (kLoading && !has) opt.reset();
    if (kLoading && has) opt.emplace();
    return has;
  }

  void bytes(void* data, std::size_t len) { s_->bytes(data, len); }

  void cells(std::span<OneSparseCell> cells, const char* label);

  void rows(std::span<OneSparseCell> cells) {
    if constexpr (std::endian::native == std::endian::little) {
      s_->bytes(cells.data(), cells.size_bytes());
    } else {
      for (OneSparseCell& c : cells) {
        value(c.count);
        value(c.coord_sum);
        value(c.fp1);
        value(c.fp2);
      }
    }
  }

  template <class T>
  void object(T& x) {
    if constexpr (kLoading) {
      x.deserialize(*s_);
    } else {
      x.serialize(*s_);
    }
  }

  void processors(std::span<StreamProcessor* const> ps, const char* label);

  template <class F>
  void section(const char* label, F&& body) {
    if constexpr (!kLoading) s_->begin_section(label);
    body();
    if constexpr (!kLoading) s_->end_section();
  }

  void check(bool ok, const char* what) {
    if (kLoading && !ok) throw SerializeError(what);
  }

 private:
  Stream* s_;
};

using Saver = Visitor<false>;
using Loader = Visitor<true>;

// cells() and processors() are defined once, in serialize.cc.
extern template class Visitor<false>;
extern template class Visitor<true>;

}  // namespace ser
}  // namespace kw

#endif  // KW_SERIALIZE_BINARY_IO_H
