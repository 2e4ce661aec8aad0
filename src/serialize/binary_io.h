// Little-endian binary writer/reader for the sketch serialization format.
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
#include <stdexcept>
#include <string>
#include <vector>

namespace kw::ser {

// Every malformed-input condition (bad magic, version, CRC, truncation,
// geometry mismatch) raises this, with a message naming what went wrong.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error("serialize: " + what) {}
};

// Byte counts per named section of one serialized payload, so the sparse
// cell encoding's compression is observable (satellite requirement).
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

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  // A u64 whose value is known only after later fields are written (a
  // nested section's length): u64_slot() writes a placeholder and returns
  // its offset, patch_u64() fills it in.
  [[nodiscard]] std::size_t u64_slot() {
    const std::size_t offset = buf_.size();
    u64(0);
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

 private:
  template <typename T>
  void put(T v) {
    unsigned char raw[sizeof(T)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(raw, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        raw[i] = static_cast<unsigned char>(v >> (8 * i));
      }
    }
    buf_.insert(buf_.end(), raw, raw + sizeof(T));
  }

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

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(get<std::uint64_t>());
  }
  [[nodiscard]] double f64() {
    return std::bit_cast<double>(get<std::uint64_t>());
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

  template <typename T>
  [[nodiscard]] T get() {
    need(sizeof(T));
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_ + pos_, sizeof(T));
    } else {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        acc |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
      }
      v = static_cast<T>(acc);
    }
    pos_ += sizeof(T);
    return v;
  }

  const unsigned char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// CRC-32 (reflected 0xEDB88320 polynomial, the zlib/PNG variant) over a
// byte range; the envelope stores it over header + payload.
[[nodiscard]] std::uint32_t crc32(const unsigned char* data, std::size_t len,
                                  std::uint32_t seed = 0);

}  // namespace kw::ser

#endif  // KW_SERIALIZE_BINARY_IO_H
