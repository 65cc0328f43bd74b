// Seeded mutation test for the two EMTA readers: load_trace_archive, which
// copies every sample into a TraceSet, and MappedTraceArchive, which maps the
// file and reads samples in place. A valid archive is mutated by a
// fixed-seed Rng with a fixed budget of byte flips, truncations and
// header-field splices, through the shared engine in fuzz_mutator.hpp. EMTA
// carries no checksum, so the whole file after the magic is one unsealed
// span: its shape fields (trace count, trace length) and its scalar fields
// (version, sample-rate bits) are the span's two splice pools. Every mutant
// goes to both readers, and they must agree: either both refuse it with
// precondition_error, or both accept it with the same shape, sample rate and
// sample bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/trace.hpp"
#include "fuzz_mutator.hpp"
#include "io/mmap_archive.hpp"
#include "io/trace_archive.hpp"
#include "scratch_dir.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::io {
namespace {

using test_support::Field;
using test_support::mutate;
using test_support::SealedSpan;

constexpr std::size_t kMutants = 4000;
constexpr std::uint64_t kSeed = 0x454d5441;  // "EMTA"

core::TraceSet seed_set() {
  Rng rng{11};
  core::TraceSet set;
  set.sample_rate = 384e6;
  for (std::size_t t = 0; t < 4; ++t) {
    core::Trace trace(24);
    for (double& sample : trace) sample = rng.gaussian(0.0, 1.0);
    set.add(std::move(trace));
  }
  return set;
}

/// Splice values for the u32 version and the u64 count, length and
/// sample-rate fields: boundaries of the field's own value, of the readers'
/// 2^32 size limit, products that wrap u64, and the bit patterns of 0.0,
/// +inf and NaN.
std::uint64_t splice_value(Rng& rng, std::uint64_t current, std::size_t /*width*/) {
  const std::uint64_t candidates[] = {0,
                                      1,
                                      2,
                                      current - 1,
                                      current + 1,
                                      2 * current,
                                      current / 2,
                                      (1ull << 32) - 1,
                                      1ull << 32,
                                      1ull << 31,
                                      1ull << 61,
                                      0x7ff0000000000000ull,
                                      0x7ff8000000000000ull,
                                      ~0ull,
                                      rng.next_u64()};
  return candidates[rng.uniform_below(sizeof candidates / sizeof candidates[0])];
}

/// What a reader made of one file: nullopt when it refused it with
/// precondition_error.
std::optional<core::TraceSet> via_loader(const std::string& path) {
  try {
    return load_trace_archive(path);
  } catch (const precondition_error&) {
    return std::nullopt;
  }
}

std::optional<core::TraceSet> via_mapping(const std::string& path) {
  try {
    const MappedTraceArchive archive{path};
    core::TraceSet set;
    set.sample_rate = archive.sample_rate();
    for (std::size_t t = 0; t < archive.size(); ++t) set.add(archive.trace_copy(t));
    return set;
  } catch (const precondition_error&) {
    return std::nullopt;
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Both readers on `path`; returns whether they accepted it. Disagreements
/// are test failures.
bool readers_agree(const std::string& path) {
  const std::optional<core::TraceSet> loaded = via_loader(path);
  const std::optional<core::TraceSet> mapped = via_mapping(path);
  EXPECT_EQ(loaded.has_value(), mapped.has_value())
      << "load_trace_archive " << (loaded ? "accepted" : "refused")
      << " what MappedTraceArchive " << (mapped ? "accepted" : "refused");
  if (!loaded || !mapped) return false;
  EXPECT_TRUE(same_bits(loaded->sample_rate, mapped->sample_rate));
  EXPECT_EQ(loaded->size(), mapped->size());
  EXPECT_EQ(loaded->trace_length(), mapped->trace_length());
  if (loaded->size() == mapped->size() && loaded->trace_length() == mapped->trace_length()) {
    for (std::size_t t = 0; t < loaded->size(); ++t) {
      EXPECT_EQ(std::memcmp(loaded->traces[t].data(), mapped->traces[t].data(),
                            loaded->trace_length() * sizeof(double)),
                0)
          << "trace " << t << " differs between the readers";
    }
  }
  return true;
}

TEST(TraceArchiveFuzz, BothReadersRefuseOrAcceptEveryMutantAlike) {
  test_support::ScratchDir scratch;
  const std::string path = scratch.path("mutant.emta");
  const core::TraceSet set = seed_set();
  save_trace_archive(path, set);
  std::string seed;
  {
    std::ifstream in{path, std::ios::binary};
    seed.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  }
  // Header: magic, u32 version, u64 count, u64 length, f64 rate (32 bytes).
  ASSERT_EQ(seed.size(), 32 + set.size() * set.trace_length() * sizeof(double));
  SealedSpan file;
  file.payload_begin = 4;
  file.payload_end = seed.size();
  file.raw_fields = {{8, 8}, {16, 8}};
  file.sealed_fields = {{4, 4}, {24, 8}};
  file.checksummed = false;
  const std::vector<SealedSpan> spans = {file};

  // The unmutated archive is the control: both readers take it.
  ASSERT_TRUE(readers_agree(path));

  Rng rng{kSeed};
  std::size_t refused = 0;
  std::size_t accepted = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::string label;
    const std::string bytes = mutate(rng, seed, spans, splice_value, label);
    SCOPED_TRACE("mutant " + std::to_string(m) + " (" + label + ")");
    // Remove, then write: rewriting a file in place makes ext4 flush it on
    // close, which would cost tens of milliseconds per mutant.
    std::filesystem::remove(path);
    {
      std::ofstream out{path, std::ios::binary};
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      if (readers_agree(path)) {
        ++accepted;
      } else {
        ++refused;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped " << typeid(error).name() << ": " << error.what();
    }
  }
  // Neither outcome may be vacuous: the budget must reach both the refusal
  // gates and archives that still load (flipped samples, adjacent rates).
  EXPECT_GT(refused, kMutants / 4);
  EXPECT_GT(accepted, kMutants / 10);
}

}  // namespace
}  // namespace emts::io
