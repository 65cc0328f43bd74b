// Seeded mutation test for the EMTA reader (load_trace_archive, a copy out of
// MappedTraceArchive). A valid archive is mutated by a fixed-seed Rng with a
// fixed budget of byte flips, truncations and header-field splices, through
// the shared engine in fuzz_mutator.hpp. EMTA carries no checksum, so the
// whole file after the magic is one unsealed span: its shape fields (trace
// count, trace length) and its scalar fields (version, sample-rate bits) are
// the span's two splice pools. Every mutant is judged against an oracle
// written here from the format alone (docs/FORMATS.md): the loader must
// refuse with precondition_error exactly the files the oracle refuses, and
// an accepted file must load with the header's shape and rate and with
// sample bits equal to the file's bytes.
#include <gtest/gtest.h>

#include <cmath>
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
/// sample-rate fields: boundaries of the field's own value, of the reader's
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

/// Whether an EMTA v1 reader must accept `bytes`, decided from the raw
/// header and the file size: the magic, version 1, trace count and length
/// both non-zero and below 2^32, a finite positive sample rate, and
/// count x length x 8 payload bytes after the 32-byte header, exactly.
bool oracle_accepts(const std::string& bytes) {
  constexpr std::size_t kHeader = 32;
  if (bytes.size() < kHeader || bytes.compare(0, 4, "EMTA") != 0) return false;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  std::uint64_t length = 0;
  double rate = 0.0;
  std::memcpy(&version, bytes.data() + 4, sizeof version);
  std::memcpy(&count, bytes.data() + 8, sizeof count);
  std::memcpy(&length, bytes.data() + 16, sizeof length);
  std::memcpy(&rate, bytes.data() + 24, sizeof rate);
  if (version != 1 || count == 0 || length == 0) return false;
  if (count >= (1ull << 32) || length >= (1ull << 32)) return false;
  if (!std::isfinite(rate) || rate <= 0.0) return false;
  // Both factors are below 2^32, so their product cannot wrap; the byte
  // count is compared as a sample count so nothing is multiplied by 8.
  const std::size_t payload = bytes.size() - kHeader;
  return payload % sizeof(double) == 0 && count * length == payload / sizeof(double);
}

/// The loader on `path` (holding `bytes`) against the oracle; returns whether
/// the loader accepted. Disagreements are test failures.
bool loader_matches_oracle(const std::string& path, const std::string& bytes) {
  const bool expect = oracle_accepts(bytes);
  std::optional<core::TraceSet> loaded;
  try {
    loaded = load_trace_archive(path);
  } catch (const precondition_error&) {
  }
  EXPECT_EQ(loaded.has_value(), expect)
      << "load_trace_archive " << (loaded ? "accepted" : "refused") << " what the oracle "
      << (expect ? "accepts" : "refuses");
  if (!loaded || !expect) return loaded.has_value();
  std::uint64_t count = 0;
  std::uint64_t length = 0;
  std::memcpy(&count, bytes.data() + 8, sizeof count);
  std::memcpy(&length, bytes.data() + 16, sizeof length);
  EXPECT_EQ(std::memcmp(&loaded->sample_rate, bytes.data() + 24, sizeof(double)), 0);
  EXPECT_EQ(loaded->size(), count);
  EXPECT_EQ(loaded->trace_length(), length);
  if (loaded->size() == count && loaded->trace_length() == length) {
    const std::size_t trace_bytes = loaded->trace_length() * sizeof(double);
    for (std::size_t t = 0; t < loaded->size(); ++t) {
      EXPECT_EQ(std::memcmp(loaded->traces[t].data(), bytes.data() + 32 + t * trace_bytes,
                            trace_bytes),
                0)
          << "trace " << t << " differs from the file's bytes";
    }
  }
  return true;
}

TEST(TraceArchiveFuzz, LoaderMatchesHeaderOracleOnEveryMutant) {
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

  // The unmutated archive is the control: the oracle and the loader take it.
  ASSERT_TRUE(loader_matches_oracle(path, seed));

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
      if (loader_matches_oracle(path, bytes)) {
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
