// Seeded mutation engine shared by the loader fuzzers (test_snapshot_fuzz,
// test_wire_fuzz, test_trace_archive_fuzz, test_array_artifact_fuzz). A seed byte string is described
// as a list of sealed spans: each span is a checksummed payload
// [payload_begin, payload_end) followed by its u64 FNV-1a checksum, with the
// length fields found around it (raw, outside the checksum) and inside it
// (sealed). mutate() derives one mutant per call from a fixed-seed Rng: byte
// flips, truncations and length-field splices, where mutations inside a
// payload are "resealed" (the checksum recomputed) so they reach the parsers
// behind the checksum. A format without checksums describes its seed as
// unsealed spans (checksummed == false): the same mutations apply inside the
// payload and the reseal is skipped. Each fuzzer supplies its own splice
// values, the boundaries its format cares about.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace emts::test_support {

/// A length or count field: byte offset and width (at most 8, little-endian).
struct Field {
  std::size_t offset = 0;
  std::size_t width = 0;
};

inline std::uint64_t read_le(const std::string& bytes, const Field& field) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + field.offset, field.width);
  return value;
}

inline void write_le(std::string& bytes, const Field& field, std::uint64_t value) {
  std::memcpy(bytes.data() + field.offset, &value, field.width);
}

/// One checksummed unit of a seed (an EMFS device record, an EMWF frame), or
/// an unsealed one (the EMTA file, an EMAA header or sensor).
struct SealedSpan {
  std::size_t payload_begin = 0;
  std::size_t payload_end = 0;       // the u64 checksum follows
  std::vector<Field> raw_fields;     // outside the payload: splice as is
  std::vector<Field> sealed_fields;  // inside it: splice, then reseal
  bool checksummed = true;           // false: no checksum follows, never reseal
};

/// Recomputes the span's checksum over its (mutated) payload; a no-op for
/// an unsealed span.
inline void reseal(std::string& bytes, const SealedSpan& span) {
  if (!span.checksummed) return;
  const std::uint64_t sum =
      util::fnv1a64(bytes.data() + span.payload_begin, span.payload_end - span.payload_begin);
  std::memcpy(bytes.data() + span.payload_end, &sum, 8);
}

/// XORs one to four random bytes in [begin, end) with a nonzero mask.
inline void flip_bytes(Rng& rng, std::string& bytes, std::size_t begin, std::size_t end) {
  const std::uint32_t flips = 1 + rng.uniform_below(4);
  for (std::uint32_t f = 0; f < flips; ++f) {
    const std::size_t at = begin + rng.uniform_below(static_cast<std::uint32_t>(end - begin));
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_below(255)));
  }
}

/// Picks the value a splice writes into a field of `width` bytes that holds
/// `current`.
using SpliceValue = std::uint64_t (*)(Rng& rng, std::uint64_t current, std::size_t width);

/// One mutant of `seed`: picks a span, then one of five mutations, and names
/// it in `label`.
inline std::string mutate(Rng& rng, const std::string& seed,
                          const std::vector<SealedSpan>& spans, SpliceValue splice_value,
                          std::string& label) {
  std::string bytes = seed;
  const SealedSpan& span = spans[rng.uniform_below(static_cast<std::uint32_t>(spans.size()))];
  const auto splice = [&](const std::vector<Field>& fields) {
    const Field field = fields[rng.uniform_below(static_cast<std::uint32_t>(fields.size()))];
    write_le(bytes, field, splice_value(rng, read_le(bytes, field), field.width));
  };
  switch (rng.uniform_below(5)) {
    case 0:
      label = "raw byte flips";
      flip_bytes(rng, bytes, 0, bytes.size());
      break;
    case 1:
      label = "truncation";
      bytes.resize(rng.uniform_below(static_cast<std::uint32_t>(bytes.size())));
      break;
    case 2:
      label = "raw length splice";
      splice(span.raw_fields);
      break;
    case 3:
      label = "resealed byte flips";
      flip_bytes(rng, bytes, span.payload_begin, span.payload_end);
      reseal(bytes, span);
      break;
    default:
      label = "resealed length splice";
      splice(span.sealed_fields);
      reseal(bytes, span);
      break;
  }
  return bytes;
}

}  // namespace emts::test_support
