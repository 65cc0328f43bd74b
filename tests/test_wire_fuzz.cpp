// Seeded mutation test for the EMWF stream decoder, the parser every byte a
// daemon client sends goes through. A valid multi-frame stream — a HELLO,
// then interleaved trace frames for three devices — is mutated by a
// fixed-seed Rng with a fixed budget of byte flips, truncations and
// length-field splices, through the shared engine in fuzz_mutator.hpp. Mutations inside a frame are also applied
// "resealed" (the payload checksum recomputed), so they get past the
// checksum into the payload parsers. Each mutant is fed to a FrameDecoder in
// random-sized chunks, draining next() after every feed, exactly as the
// daemon's read loop does. A mutant must either be refused with
// precondition_error from feed() or next(), or every frame it yields must
// re-encode to the very bytes it was decoded from.
#include "io/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

#include "fuzz_mutator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::io::wire {
namespace {

using test_support::Field;
using test_support::mutate;
using test_support::SealedSpan;

constexpr std::size_t kMutants = 10000;
constexpr std::uint64_t kSeed = 0x454d5746;  // "EMWF"

/// The seed stream and its frames: each frame's payload size is a raw
/// field, its token or id length and sample count are sealed ones.
struct Seed {
  std::string bytes;
  std::vector<SealedSpan> frames;
};

Seed seed_stream() {
  Seed seed;
  const auto add_span = [&seed](std::size_t begin, std::vector<Field> sealed) {
    SealedSpan span;
    span.payload_begin = begin + 12;
    span.payload_end = seed.bytes.size() - 8;
    span.raw_fields.push_back({begin + 8, 4});
    for (Field& field : sealed) field.offset += span.payload_begin;
    span.sealed_fields = std::move(sealed);
    seed.frames.push_back(std::move(span));
  };

  const std::string token = "fleet-secret";
  std::size_t begin = seed.bytes.size();
  encode_hello_frame(token, seed.bytes);
  add_span(begin, {{0, 4}});  // token length

  const std::vector<std::string> ids = {"chip-00", "chip-01", "sensor-array/s002"};
  const std::vector<double> rates = {384e6, 384e6, 1e9};
  Rng rng{7};
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t d = 0; d < ids.size(); ++d) {
      core::Trace trace(16 + 8 * d + round);
      for (double& sample : trace) sample = rng.gaussian(0.0, 1.0);
      begin = seed.bytes.size();
      encode_trace_frame(ids[d], rates[d], trace.data(), trace.size(), seed.bytes);
      const std::size_t count_at = 4 + ids[d].size() + 8;
      add_span(begin, {{0, 4}, {count_at, 4}});  // id length, sample count
    }
  }
  return seed;
}

/// Splice values for the u32 length fields: boundaries of the field's own
/// value and of the decoder's token and payload limits.
std::uint64_t splice_value(Rng& rng, std::uint64_t field, std::size_t /*width*/) {
  const auto current = static_cast<std::uint32_t>(field);
  const std::uint32_t candidates[] = {0,
                                      1,
                                      2,
                                      current - 1,
                                      current + 1,
                                      2 * current,
                                      8,
                                      kMaxAuthTokenBytes,
                                      kMaxAuthTokenBytes + 1,
                                      kMaxFramePayload,
                                      kMaxFramePayload + 1,
                                      0x80000000u,
                                      0xffffffffu,
                                      rng.next_u32()};
  return candidates[rng.uniform_below(sizeof candidates / sizeof candidates[0])];
}

enum class Outcome { kRefused, kDecoded };

/// Feeds `bytes` in random-sized chunks, draining next() after each feed.
/// Every decoded frame is re-encoded and compared against the bytes it
/// came from; `frames` counts them.
Outcome decode_in_chunks(Rng& rng, const std::string& bytes, std::size_t& frames) {
  FrameDecoder decoder;
  std::size_t fed = 0;
  std::size_t consumed = 0;
  frames = 0;
  try {
    while (fed < bytes.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(bytes.size() - fed, 1 + rng.uniform_below(256));
      decoder.feed(bytes.data() + fed, chunk);
      fed += chunk;
      Frame frame;
      while (decoder.next(frame)) {
        // The encoder must take back whatever the decoder let through; a
        // refusal here is a decoder gap, not a refused mutant.
        std::string again;
        try {
          if (frame.kind == FrameKind::kHello) {
            encode_hello_frame(frame.auth_token, again);
          } else {
            encode_trace_frame(frame.trace, again);
          }
        } catch (const std::exception& error) {
          ADD_FAILURE() << "frame " << frames << " decoded but cannot re-encode: "
                        << error.what();
          return Outcome::kDecoded;
        }
        EXPECT_EQ(again, bytes.substr(consumed, again.size()))
            << "frame " << frames << " does not re-encode to its own bytes";
        consumed += again.size();
        ++frames;
      }
    }
  } catch (const precondition_error&) {
    return Outcome::kRefused;
  }
  EXPECT_EQ(consumed + decoder.buffered(), bytes.size());
  return Outcome::kDecoded;
}

TEST(WireFuzz, EveryMutantIsRefusedOrDecodesToItsOwnBytes) {
  const Seed seed = seed_stream();
  Rng rng{kSeed};

  // The unmutated stream is the control: every frame decodes, whatever the
  // chunking.
  std::size_t frames = 0;
  ASSERT_EQ(decode_in_chunks(rng, seed.bytes, frames), Outcome::kDecoded);
  ASSERT_EQ(frames, seed.frames.size());

  std::size_t refused = 0;
  std::size_t decoded = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::string label;
    const std::string bytes = mutate(rng, seed.bytes, seed.frames, splice_value, label);
    SCOPED_TRACE("mutant " + std::to_string(m) + " (" + label + ")");
    try {
      if (decode_in_chunks(rng, bytes, frames) == Outcome::kRefused) {
        ++refused;
      } else {
        ++decoded;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped " << typeid(error).name() << ": " << error.what();
    }
  }
  // Neither outcome may be vacuous: the budget must reach both the refusal
  // gates and streams that still decode (truncations, flips in samples).
  EXPECT_GT(refused, kMutants / 4);
  EXPECT_GT(decoded, kMutants / 10);
}

}  // namespace
}  // namespace emts::io::wire
