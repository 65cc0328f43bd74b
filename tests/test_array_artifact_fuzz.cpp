// Seeded mutation test for the EMAA array-calibration loader and the EMCA
// loader it embeds. A small saved ArrayCalibration (a 2x2 grid, short
// golden means, one fitted detector stack per coil) is mutated by a
// fixed-seed Rng with a fixed budget of byte flips, truncations and field
// splices, through the shared engine in fuzz_mutator.hpp. EMAA carries no
// checksum, so the seed is described as unsealed spans: the header (grid
// shape and sensor count, then the scalar grid fields, version and rate),
// and one span per sensor (its golden-mean length, baseline residual, and
// the embedded EMCA's header fields, name lengths and payload sizes). Every
// mutant must either be refused with precondition_error or load.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "array/artifact.hpp"
#include "core/evaluator.hpp"
#include "fuzz_mutator.hpp"
#include "io/calibration.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::array {
namespace {

using test_support::Field;
using test_support::mutate;
using test_support::read_le;
using test_support::SealedSpan;

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 256;
constexpr std::size_t kMeanLen = 16;
constexpr std::size_t kMutants = 2000;
constexpr std::uint64_t kSeed = 0x454d4141;  // "EMAA"
constexpr std::size_t kHeaderBytes = 48;

ArrayCalibration seed_calibration() {
  Rng rng{7};
  core::TraceSet golden;
  golden.sample_rate = kFs;
  for (std::size_t t = 0; t < 12; ++t) {
    core::Trace trace(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      trace[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
                 rng.gaussian(0.0, 0.08);
    }
    golden.add(std::move(trace));
  }
  const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(golden);

  ArrayCalibration calibration;
  calibration.grid.nx = 2;
  calibration.grid.ny = 2;
  calibration.sample_rate = kFs;
  for (std::size_t s = 0; s < 4; ++s) {
    core::Trace mean(kMeanLen);
    for (double& v : mean) v = rng.gaussian(0.0, 1.0);
    const double residual = 0.5 + 0.25 * static_cast<double>(s);
    calibration.sensors.push_back(SensorCalibration{evaluator, std::move(mean), residual});
  }
  return calibration;
}

/// Splice values: boundaries of the field's own value, of the loaders' caps
/// (the 4096-coil axis, 64 detectors, 2^26-element vectors, 2^32), and the
/// bit patterns of 0.0, +inf and NaN.
std::uint64_t splice_value(Rng& rng, std::uint64_t current, std::size_t /*width*/) {
  const std::uint64_t candidates[] = {0,
                                      1,
                                      2,
                                      current - 1,
                                      current + 1,
                                      2 * current,
                                      current / 2,
                                      64,
                                      65,
                                      4096,
                                      4097,
                                      1ull << 26,
                                      (1ull << 32) - 1,
                                      1ull << 32,
                                      0x7ff0000000000000ull,
                                      0x7ff8000000000000ull,
                                      ~0ull,
                                      rng.next_u64()};
  return candidates[rng.uniform_below(sizeof candidates / sizeof candidates[0])];
}

/// The EMAA header and one span per sensor, located by walking the seed's
/// bytes with the layout in docs/FORMATS.md.
std::vector<SealedSpan> describe(const std::string& seed, std::size_t sensors) {
  SealedSpan header;
  header.payload_begin = 4;
  header.payload_end = kHeaderBytes;
  header.raw_fields = {{8, 4}, {12, 4}, {44, 4}};                    // nx, ny, sensor count
  header.sealed_fields = {{4, 4}, {16, 8}, {24, 4}, {28, 8}, {36, 8}};  // version .. rate
  header.checksummed = false;
  std::vector<SealedSpan> spans = {header};

  std::size_t at = kHeaderBytes;
  for (std::size_t s = 0; s < sensors; ++s) {
    SealedSpan sensor;
    sensor.checksummed = false;
    sensor.payload_begin = at;
    sensor.raw_fields.push_back({at, 8});  // golden-mean length
    at += 8 + read_le(seed, {at, 8}) * sizeof(double);
    sensor.sealed_fields.push_back({at, 8});  // baseline residual
    at += 8;
    // Embedded EMCA: magic, u32 version, f64 rate, f64 alarm fraction, u32
    // detector count, then per detector a u32-length name and a u64 payload
    // size ahead of the payload.
    const std::size_t emca = at;
    sensor.sealed_fields.insert(sensor.sealed_fields.end(),
                                {{emca + 4, 4}, {emca + 8, 8}, {emca + 16, 8}});
    sensor.raw_fields.push_back({emca + 24, 4});
    const std::uint64_t detectors = read_le(seed, {emca + 24, 4});
    at = emca + 28;
    for (std::uint64_t d = 0; d < detectors; ++d) {
      sensor.raw_fields.push_back({at, 4});
      at += 4 + read_le(seed, {at, 4});
      sensor.raw_fields.push_back({at, 8});
      at += 8 + read_le(seed, {at, 8});
    }
    sensor.payload_end = at;
    spans.push_back(sensor);
  }
  EMTS_REQUIRE(at == seed.size(), "seed layout walk disagrees with the artifact size");
  return spans;
}

TEST(ArrayArtifactFuzz, EveryMutantIsRefusedOrLoads) {
  const ArrayCalibration calibration = seed_calibration();
  std::ostringstream out{std::ios::binary};
  save_array_calibration(out, calibration);
  const std::string seed = out.str();
  const std::vector<SealedSpan> spans = describe(seed, calibration.sensor_count());

  // The unmutated artifact is the control: it loads with every sensor.
  {
    std::istringstream in{seed, std::ios::binary};
    ASSERT_EQ(load_array_calibration(in).sensor_count(), 4u);
  }

  Rng rng{kSeed};
  std::size_t refused = 0;
  std::size_t loaded = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::string label;
    const std::string bytes = mutate(rng, seed, spans, splice_value, label);
    SCOPED_TRACE("mutant " + std::to_string(m) + " (" + label + ")");
    std::istringstream in{bytes, std::ios::binary};
    try {
      load_array_calibration(in);
      ++loaded;
    } catch (const precondition_error&) {
      ++refused;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped " << typeid(error).name() << ": " << error.what();
    }
  }
  // Neither outcome may be vacuous: the budget must reach the refusal gates
  // and artifacts that still load (flipped means, residuals, fitted doubles).
  EXPECT_GT(refused, kMutants / 4);
  EXPECT_GT(loaded, kMutants / 20);
}

}  // namespace
}  // namespace emts::array
