#include "serialize/serialize.h"

#include <algorithm>
#include <limits>

#include "engine/stream_processor.h"
#include "util/fault_injection.h"

namespace kw::ser {

std::string tag_name(std::uint32_t tag) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    s.push_back((c >= 32 && c < 127) ? c : '?');
  }
  return s;
}

// ---- visitor primitives ------------------------------------------------

// OneSparseCell's wire image is exactly its memory image on little-endian
// hosts: four 8-byte words, no padding.
static_assert(sizeof(OneSparseCell) == 32,
              "OneSparseCell wire format assumes 4 packed 8-byte words");

template <bool Loading>
void Visitor<Loading>::cells(std::span<OneSparseCell> cells,
                             const char* label) {
  section(label, [&] {
    same(std::uint64_t{cells.size()}, "cell section length");
    std::uint64_t nonzero = 0;
    if constexpr (!kLoading) {
      for (const OneSparseCell& c : cells) nonzero += c.is_zero() ? 0 : 1;
      s_->stats().cells_total += cells.size();
      s_->stats().cells_nonzero += nonzero;
    }
    // Sparse encoding pays 36 bytes per non-zero cell vs 32 dense, and its
    // indices are u32: use it only below 50% occupancy and within u32 range.
    std::uint8_t mode =
        nonzero * 2 < cells.size() &&
        cells.size() <= std::numeric_limits<std::uint32_t>::max();
    value(mode);
    check(mode <= 1, "unknown cell section mode");
    if (mode == 0) {
      rows(cells);
      return;
    }
    if constexpr (kLoading) {
      std::fill(cells.begin(), cells.end(), OneSparseCell{});
    } else {
      s_->mark_section_sparse();
    }
    value(nonzero);
    check(nonzero <= cells.size(),
          "cell section claims more non-zero cells than its total");
    std::size_t next = 0;  // save: where the scan for non-zero cells resumes
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < nonzero; ++i) {
      std::uint32_t index = 0;
      if constexpr (!kLoading) {
        while (cells[next].is_zero()) ++next;
        index = static_cast<std::uint32_t>(next++);
      }
      value(index);
      check(index < cells.size() && (i == 0 || index > prev),
            "cell section index out of order or out of range");
      prev = index;
      rows(cells.subspan(index, 1));
    }
  });
}

template <bool Loading>
void Visitor<Loading>::processors(std::span<StreamProcessor* const> ps,
                                  const char* label) {
  for (StreamProcessor* p : ps) {
    // A labelled item is one opaque stats row: its own sections and cell
    // counts stay out of the enclosing payload's accounting.
    SerializeStats outer;
    if constexpr (!kLoading) {
      if (label != nullptr) outer = std::exchange(s_->stats(), {});
    }
    std::uint32_t tag = kLoading ? 0 : tag_of(*p);
    value(tag);
    if (tag != p->serial_tag()) {
      throw SerializeError("processor type mismatch: payload holds '" +
                           tag_name(tag) + "', destination is '" +
                           tag_name(p->serial_tag()) + "'");
    }
    // Length-framed, so a corrupt item cannot bleed into its successors.
    if constexpr (kLoading) {
      Reader sub = s_->sub(s_->template get<std::uint64_t>());
      p->deserialize(sub);
      sub.expect_end();
    } else {
      const std::size_t length_slot = s_->u64_slot();
      p->serialize(*s_);
      s_->patch_u64(length_slot, s_->buffer().size() - length_slot - 8);
      if (label != nullptr) {
        s_->stats() = std::move(outer);
        // The item began with its u32 tag, just before the length slot.
        s_->stats().sections.push_back(
            {label, s_->buffer().size() - (length_slot - 4), false});
      }
    }
  }
}

template class Visitor<false>;
template class Visitor<true>;

// ---- envelope -----------------------------------------------------------

namespace detail {

namespace {

constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kTrailerBytes = 4;

template <class T>
void store_le(unsigned char* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

// Checks magic, version and tag; returns the declared payload length.
[[nodiscard]] std::uint64_t check_header(const unsigned char* header,
                                         std::uint32_t expected_tag) {
  Reader h(header, kHeaderBytes);
  if (h.get<std::uint32_t>() != kMagic) {
    throw SerializeError("bad magic (not a KWSK sketch file)");
  }
  const auto version = h.get<std::uint32_t>();
  if (version != kFormatVersion) {
    throw SerializeError("unsupported format version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kFormatVersion) + ")");
  }
  const auto tag = h.get<std::uint32_t>();
  if (tag != expected_tag) {
    throw SerializeError("type tag mismatch: file holds '" + tag_name(tag) +
                         "', expected '" + tag_name(expected_tag) + "'");
  }
  return h.get<std::uint64_t>();
}

// Hands header, payload and trailer to `put` in order.  Fault site
// serialize.write.short: half the envelope lands, then the sink gives out.
template <class Put>
void emit_envelope(std::uint32_t tag, const Writer& w, SerializeStats* stats,
                   Put&& put) {
  const std::vector<unsigned char>& payload = w.buffer();
  const EnvelopeFrame frame = frame_envelope(tag, payload);
  if (fault::fire(fault::site::kSerializeWriteShort)) {
    put(frame.header.data(), frame.header.size());
    put(payload.data(), payload.size() / 2);
    throw SerializeError("write to output stream failed (injected short "
                         "write)");
  }
  put(frame.header.data(), frame.header.size());
  put(payload.data(), payload.size());
  put(frame.trailer.data(), frame.trailer.size());
  if (stats != nullptr) {
    *stats = w.stats();
    stats->payload_bytes = payload.size();
    stats->total_bytes = kHeaderBytes + payload.size() + kTrailerBytes;
  }
}

}  // namespace

EnvelopeFrame frame_envelope(std::uint32_t tag,
                             std::span<const unsigned char> payload) {
  if (fault::fire(fault::site::kSerializeWriteEnospc)) {
    throw SerializeError("injected ENOSPC: no space left on device");
  }
  EnvelopeFrame frame;
  store_le(frame.header.data(), kMagic);
  store_le(frame.header.data() + 4, kFormatVersion);
  store_le(frame.header.data() + 8, tag);
  store_le(frame.header.data() + 12, std::uint64_t{payload.size()});
  std::uint32_t crc = crc32(frame.header.data(), frame.header.size());
  store_le(frame.trailer.data(), crc32(payload.data(), payload.size(), crc));
  return frame;
}

void write_envelope(std::ostream& os, std::uint32_t tag, const Writer& w,
                    SerializeStats* stats) {
  // On failure whatever landed stays in the stream; readers reject it.
  emit_envelope(tag, w, stats,
                [&os](const unsigned char* data, std::size_t len) {
                  os.write(reinterpret_cast<const char*>(data),
                           static_cast<std::streamsize>(len));
                });
  if (!os) throw SerializeError("write to output stream failed");
}

std::string envelope_bytes(std::uint32_t tag, const Writer& w,
                           SerializeStats* stats) {
  std::string out;
  out.reserve(kHeaderBytes + w.buffer().size() + kTrailerBytes);
  emit_envelope(tag, w, stats,
                [&out](const unsigned char* data, std::size_t len) {
                  out.append(reinterpret_cast<const char*>(data), len);
                });
  return out;
}

Reader open_envelope(std::span<const unsigned char> bytes,
                     std::uint32_t expected_tag) {
  if (bytes.size() < kHeaderBytes) {
    throw SerializeError("truncated input: envelope header incomplete");
  }
  const std::uint64_t len = check_header(bytes.data(), expected_tag);
  if (len > bytes.size() - kHeaderBytes) {
    throw SerializeError("truncated input: payload shorter than its "
                         "declared length");
  }
  if (bytes.size() - kHeaderBytes - len < kTrailerBytes) {
    throw SerializeError("truncated input: CRC trailer missing");
  }
  const std::span<const unsigned char> payload =
      bytes.subspan(kHeaderBytes, len);
  std::uint32_t crc = crc32(bytes.data(), kHeaderBytes);
  if (fault::fire(fault::site::kSerializeReadBitflip) && !payload.empty()) {
    // Deterministic single-bit corruption of the payload as read, at a
    // position that walks the payload across triggers.  A single flipped
    // byte is a burst of <= 8 bits, so CRC-32 detects it with certainty --
    // the check below MUST throw.
    const std::uint64_t t = fault::triggers(fault::site::kSerializeReadBitflip);
    const std::size_t at = (t * 8191) % payload.size();
    const unsigned char flipped = payload[at] ^ 0x04;
    crc = crc32(payload.data(), at, crc);
    crc = crc32(&flipped, 1, crc);
    crc = crc32(payload.data() + at + 1, payload.size() - at - 1, crc);
  } else {
    crc = crc32(payload.data(), payload.size(), crc);
  }
  if (crc != Reader(payload.data() + len, kTrailerBytes).get<std::uint32_t>()) {
    throw SerializeError("CRC mismatch: file is corrupt");
  }
  return Reader(payload.data(), payload.size());
}

Reader read_envelope(std::istream& is, std::uint32_t expected_tag,
                     std::vector<unsigned char>& storage) {
  unsigned char header[kHeaderBytes];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    throw SerializeError("truncated input: envelope header incomplete");
  }
  // A wrong file is rejected before anything is sized from its length.
  const std::uint64_t len = check_header(header, expected_tag);
  const auto truncated = [] {
    return SerializeError("truncated input: envelope shorter than its "
                          "declared length");
  };
  // The rest of the envelope; a length that wraps this sum reads short and
  // fails open_envelope's length check.
  const std::uint64_t rest = len + kTrailerBytes;
  // A stream that can report its bytes left bounds the declared length by
  // them before anything is allocated, then takes one exact-size read.
  // Otherwise the read goes in bounded chunks, so a corrupt length cannot
  // trigger one giant allocation.
  std::uint64_t chunk = 1 << 20;
  std::streambuf& buf = *is.rdbuf();
  const std::streampos here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
  const std::streampos end =
      here == std::streampos(-1)
          ? here
          : buf.pubseekoff(0, std::ios::end, std::ios::in);
  if (end != std::streampos(-1)) {
    buf.pubseekpos(here, std::ios::in);
    if (rest > static_cast<std::uint64_t>(end - here)) throw truncated();
    chunk = rest;
  }
  storage.assign(header, header + kHeaderBytes);
  for (std::uint64_t got = 0; got < rest;) {
    const std::uint64_t want = std::min(chunk, rest - got);
    storage.resize(kHeaderBytes + got + want);
    is.read(reinterpret_cast<char*>(storage.data() + kHeaderBytes + got),
            static_cast<std::streamsize>(want));
    if (is.gcount() != static_cast<std::streamsize>(want)) throw truncated();
    got += want;
  }
  return open_envelope(storage, expected_tag);
}

}  // namespace detail

// ---- distributed merge --------------------------------------------------

namespace {

// Loads one shard's payload into a fresh clone_empty() of `target` and
// folds it in via the merge() contract.
void merge_payload(Reader r, StreamProcessor& target) {
  std::unique_ptr<StreamProcessor> shard = target.clone_empty();
  if (shard == nullptr) {
    throw SerializeError(
        "merge: target cannot clone_empty() at its current pass");
  }
  detail::load_payload(r, *shard);
  target.merge(std::move(*shard));
}

}  // namespace

void merge_from_stream(std::istream& is, StreamProcessor& target) {
  std::vector<unsigned char> storage;
  merge_payload(detail::read_envelope(is, tag_of(target), storage), target);
}

void merge_from_bytes(std::string_view bytes, StreamProcessor& target) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  merge_payload(detail::open_envelope({data, bytes.size()}, tag_of(target)),
                target);
}

}  // namespace kw::ser
