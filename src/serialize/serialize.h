/// Versioned binary serialization for sketches and stream processors.
///
/// On-disk envelope (all fields little-endian):
///
///   offset  size  field
///   0       4     magic 'KWSK' (0x4B53574B as LE u32 from bytes K W S K)
///   4       4     format version (currently 2)
///   8       4     type tag (fourcc of the serialized type, e.g. 'BKGR')
///   12      8     payload length in bytes
///   20      len   payload (type-specific: the type's fields() list)
///   20+len  4     CRC-32 of bytes [0, 20+len)  (zlib polynomial)
///
/// The payload is CRC-verified BEFORE any parsing -- in place for bytes
/// already in memory, after one read for a stream -- and every Reader
/// access is bounds-checked, so corrupt input raises SerializeError instead
/// of undefined behavior.  Each type states its payload layout once, in a
/// `fields()` member that the Saver and Loader visitors (binary_io.h) walk
/// in both directions.
///
/// Payloads store only what cannot be re-derived: configuration + seeds +
/// geometry (written for validation against the live object) and the
/// sketch's linear state.  Hash coefficients, fingerprint power tables, and
/// other seed-derived structure are rebuilt by the normal constructors --
/// load() therefore requires a destination object constructed with the SAME
/// configuration as the saved one, and throws if the stored geometry
/// disagrees.
#ifndef KW_SERIALIZE_SERIALIZE_H
#define KW_SERIALIZE_SERIALIZE_H

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serialize/binary_io.h"

namespace kw {

class StreamProcessor;

namespace ser {

constexpr std::uint32_t kMagic = 0x4B53574Bu;  // 'KWSK' little-endian
// v2: KvTableBank blocks became level diffs and the pass-2 bank seed chain
// went per-capacity-class (shared fleet geometry); v1 spanner checkpoints
// would decode silently wrong, so the version gate rejects them.
constexpr std::uint32_t kFormatVersion = 2;

[[nodiscard]] constexpr std::uint32_t fourcc(char a, char b, char c,
                                             char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

// Type tags.  A tag names a payload layout; bumping a layout means a new
// format version, not a new tag.
constexpr std::uint32_t kTagBankGroup = fourcc('B', 'K', 'G', 'R');
constexpr std::uint32_t kTagSparseRecovery = fourcc('S', 'P', 'R', 'S');
constexpr std::uint32_t kTagDistinctElements = fourcc('D', 'S', 'T', 'E');
constexpr std::uint32_t kTagAgmSketch = fourcc('A', 'G', 'M', 'S');
constexpr std::uint32_t kTagTwoPassSpanner = fourcc('T', 'P', 'S', 'P');
constexpr std::uint32_t kTagSpanningForest = fourcc('S', 'P', 'F', 'P');
constexpr std::uint32_t kTagKConnectivity = fourcc('K', 'C', 'O', 'N');
constexpr std::uint32_t kTagKp12 = fourcc('K', 'P', '1', '2');
constexpr std::uint32_t kTagMultipass = fourcc('M', 'P', 'S', 'P');
constexpr std::uint32_t kTagAdditive = fourcc('A', 'D', 'S', 'P');
constexpr std::uint32_t kTagDemux = fourcc('D', 'E', 'M', 'X');
constexpr std::uint32_t kTagCheckpoint = fourcc('C', 'K', 'P', 'T');

[[nodiscard]] std::string tag_name(std::uint32_t tag);

// Defines Type::serialize() and Type::deserialize() as the two walks of
// Type::fields(), next to the fields() definition; the tagged form also
// defines serial_tag(), the tag of Type's envelope.
#define KW_SERIALIZE_FIELDS(Type)                   \
  void Type::serialize(ser::Writer& w) const {      \
    ser::Saver(w).walk(*this);                      \
  }                                                 \
  void Type::deserialize(ser::Reader& r) { ser::Loader(r).walk(*this); }
#define KW_SERIALIZE_TAGGED(Type, tag)                                 \
  std::uint32_t Type::serial_tag() const noexcept { return (tag); }    \
  KW_SERIALIZE_FIELDS(Type)

// ---- cell sections ------------------------------------------------------
//
// The unit of sketch state is the 32-byte OneSparseCell.  A cell section
// (the visitors' cells()) stores a fixed-geometry run of cells either
// densely (raw cells) or sparsely (count + per-cell u32 index + cell),
// picking sparse exactly when fewer than half the cells are non-zero.
// Layout:
//
//   u64  total cell count   (validated against the destination geometry)
//   u8   mode: 0 = dense, 1 = sparse
//   mode 0: total * 32 raw cell bytes (the visitors' rows())
//   mode 1: u64 nonzero count; per nonzero cell: u32 index + 32 cell bytes
//
// Sections longer than 2^32 cells always use dense mode (indices are u32).

namespace detail {

// The 20-byte header and the CRC-32 trailer around one payload: the only
// writer of the header layout (save(), save_to_bytes() and the engine's
// checkpoint writer).  Fault site serialize.write.enospc fires here.
struct EnvelopeFrame {
  std::array<unsigned char, 20> header;
  std::array<unsigned char, 4> trailer;
};
[[nodiscard]] EnvelopeFrame frame_envelope(
    std::uint32_t tag, std::span<const unsigned char> payload);

// Frames w's payload to `os`, or into a returned string.  `stats`, when
// non-null, receives w's section accounting plus the envelope sizes.
void write_envelope(std::ostream& os, std::uint32_t tag, const Writer& w,
                    SerializeStats* stats);
[[nodiscard]] std::string envelope_bytes(std::uint32_t tag, const Writer& w,
                                         SerializeStats* stats);

// Checks magic, version, tag, declared length and CRC of one in-memory
// envelope and returns a Reader over its payload, in place; bytes after the
// trailer are ignored.  Fault site serialize.read.bitflip fires here.
[[nodiscard]] Reader open_envelope(std::span<const unsigned char> bytes,
                                   std::uint32_t expected_tag);
// Reads one envelope from `is` into `storage` -- one allocation sized by
// the header, after its length is checked against the bytes the stream has
// left -- and opens it.
[[nodiscard]] Reader read_envelope(std::istream& is,
                                   std::uint32_t expected_tag,
                                   std::vector<unsigned char>& storage);

template <class T>
void load_payload(Reader r, T& obj) {
  obj.deserialize(r);
  r.expect_end();
}

}  // namespace detail

// ---- entry points -------------------------------------------------------
//
// T is any type with serialize(), deserialize() and serial_tag() -- a
// sketch, or a stream processor, possibly held by base reference.

template <class T>
[[nodiscard]] std::uint32_t tag_of(const T& obj) {
  if (obj.serial_tag() == 0) {
    throw SerializeError("this StreamProcessor type is not serializable");
  }
  return obj.serial_tag();
}

// Serializes `obj` (framed + CRC'd) to `os`.  `stats`, when non-null,
// receives the per-section byte accounting.
template <class T>
void save(std::ostream& os, const T& obj, SerializeStats* stats = nullptr) {
  Writer w;
  obj.serialize(w);
  detail::write_envelope(os, tag_of(obj), w, stats);
}

// Loads state saved by save() into `obj`, which must have been constructed
// with the same configuration (seeds, geometry) as the saved object.
template <class T>
void load(std::istream& is, T& obj) {
  std::vector<unsigned char> storage;
  detail::load_payload(detail::read_envelope(is, tag_of(obj), storage), obj);
}

template <class T>
[[nodiscard]] std::string save_to_bytes(const T& obj,
                                        SerializeStats* stats = nullptr) {
  Writer w;
  obj.serialize(w);
  return detail::envelope_bytes(tag_of(obj), w, stats);
}

template <class T>
void load_from_bytes(std::string_view bytes, T& obj) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  detail::load_payload(
      detail::open_envelope({data, bytes.size()}, tag_of(obj)), obj);
}

// ---- distributed merge --------------------------------------------------
//
// Coordinator side of the k-machine protocol: deserializes one shard's
// state into a fresh clone_empty() of `target` and folds it in via the
// merge() contract.  Exact by sketch linearity.
void merge_from_stream(std::istream& is, StreamProcessor& target);
void merge_from_bytes(std::string_view bytes, StreamProcessor& target);

}  // namespace ser
}  // namespace kw

#endif  // KW_SERIALIZE_SERIALIZE_H
