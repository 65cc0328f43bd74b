// Seeded mutation test for the EMFS fleet-snapshot loader and the restore
// gates behind it. A valid container holds three kinds of device record: a
// monitor part-way through a spectral window, a monitor still
// self-calibrating, and a monitor whose stack has no spectral stage. A
// fixed-seed Rng derives a fixed budget of mutants from it through the
// shared engine in fuzz_mutator.hpp: byte flips, truncations and
// length-field splices. Mutations inside a record are also applied
// "resealed" (the record checksum recomputed), so they get past the checksum
// into the EMCA and monitor-state parsers and on to
// RuntimeMonitor::restore_state. Every mutant must either be refused with
// precondition_error by load_fleet_snapshot or by the restore, or load,
// restore and take 16 more pushes per device without a fault.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "fuzz_mutator.hpp"
#include "io/snapshot.hpp"
#include "scratch_dir.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::io {
namespace {

using test_support::Field;
using test_support::mutate;
using test_support::read_le;
using test_support::SealedSpan;

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 1024;
constexpr std::size_t kMutants = 1000;
constexpr std::size_t kPushesAfterRestore = 16;
constexpr std::uint64_t kSeed = 0x454d4653;  // "EMFS"

core::TraceSet golden_set(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t t = 0; t < n; ++t) {
    core::Trace trace(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      trace[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
                 rng.gaussian(0.0, 0.08);
    }
    set.add(std::move(trace));
  }
  return set;
}

core::RuntimeMonitor::Options monitor_options() {
  core::RuntimeMonitor::Options options;
  options.calibration_traces = 8;
  options.alarm_debounce = 3;
  options.spectral_window = 8;
  options.event_log_capacity = 32;
  return options;
}

/// Options a restore takes from an image's mirrors, as FleetMonitor does.
core::RuntimeMonitor::Options options_of(const core::MonitorStateImage& image) {
  core::RuntimeMonitor::Options options = monitor_options();
  options.calibration_traces = static_cast<std::size_t>(image.calibration_traces);
  options.alarm_debounce = static_cast<std::size_t>(image.alarm_debounce);
  options.spectral_window = static_cast<std::size_t>(image.spectral_window);
  options.event_log_capacity = static_cast<std::size_t>(image.event_log_capacity);
  return options;
}

FleetSnapshot seed_snapshot() {
  const core::TraceSet golden = golden_set(30, 1);
  const auto spectral = core::TrustEvaluator::calibrate(golden);
  core::TrustEvaluator::Options euclidean_only;
  euclidean_only.detectors = {"euclidean"};
  const auto no_spectral = core::TrustEvaluator::calibrate(golden, euclidean_only);

  FleetSnapshot snapshot;
  snapshot.shards = 2;
  snapshot.queue_capacity = 16;
  core::RuntimeMonitor mid_window{kFs, spectral, monitor_options()};
  mid_window.push_batch(golden_set(3, 2));
  EMTS_REQUIRE(mid_window.export_state().window_count == 3, "seed: not mid-window");
  snapshot.devices.push_back({"a-mid-window", spectral, mid_window.export_state()});

  // The record still carries an evaluator (every EMFS record does); the
  // calibrating image itself is restored onto a self-calibrating monitor.
  core::RuntimeMonitor calibrating{kFs, monitor_options()};
  calibrating.push_batch(golden_set(5, 3));
  snapshot.devices.push_back({"b-calibrating", spectral, calibrating.export_state()});

  core::RuntimeMonitor plain{kFs, no_spectral, monitor_options()};
  plain.push_batch(golden_set(5, 4));
  snapshot.devices.push_back({"c-no-spectral", no_spectral, plain.export_state()});
  return snapshot;
}

std::string serialize_state(const core::MonitorStateImage& image) {
  std::ostringstream out{std::ios::binary};
  write_monitor_state(out, image);
  return out.str();
}

/// Locates the monitor-state fields a splice targets by serializing the
/// image once as is and once with that field changed: the first differing
/// byte is the field's (little-endian) start.
std::vector<Field> locate_state_fields(const core::MonitorStateImage& image) {
  const std::string base = serialize_state(image);
  const auto locate = [&](auto mutate, std::size_t width) {
    core::MonitorStateImage changed = image;
    mutate(changed);
    const std::string other = serialize_state(changed);
    std::size_t at = 0;
    while (at < base.size() && at < other.size() && base[at] == other[at]) ++at;
    EMTS_REQUIRE(at < base.size(), "fuzz: field not located");
    return Field{at, width};
  };
  return {
      locate([](auto& im) { im.calibration_traces ^= 1; }, 8),
      locate([](auto& im) { im.alarm_debounce ^= 1; }, 8),
      locate([](auto& im) { im.spectral_window ^= 1; }, 8),
      locate([](auto& im) { im.event_log_capacity ^= 1; }, 8),
      locate([](auto& im) { im.state = core::MonitorState::kAlarm; }, 1),
      locate([](auto& im) { im.expected_length ^= 1; }, 8),
      locate([](auto& im) { im.calibration.push_back(core::Trace(1)); }, 4),
      locate([](auto& im) { im.window_count ^= 1; }, 8),
      locate([](auto& im) { im.spectral_sum.push_back(0.0); }, 8),
      locate([](auto& im) { im.events.push_back({}); }, 4),
  };
}

/// The seed container's device records: each one's checksummed payload, its
/// id length, payload size and the container's device count as raw fields,
/// and its EMCA size and monitor-state fields as sealed ones.
std::vector<SealedSpan> locate_records(const std::string& bytes,
                                       const FleetSnapshot& snapshot) {
  std::vector<SealedSpan> records;
  std::size_t at = 21;  // magic, version, shards, queue capacity, policy, device count
  for (const FleetSnapshot::Device& device : snapshot.devices) {
    SealedSpan record;
    record.raw_fields.push_back({at, 4});  // device id length
    at += 4 + device.device_id.size();
    record.raw_fields.push_back({at, 8});  // payload size
    record.raw_fields.push_back({17, 4});  // device count
    record.payload_begin = at + 8;
    record.payload_end =
        record.payload_begin + static_cast<std::size_t>(read_le(bytes, {at, 8}));
    const std::uint64_t emca_size = read_le(bytes, {record.payload_begin, 8});
    record.sealed_fields.push_back({record.payload_begin, 8});
    const std::size_t state_begin = record.payload_begin + 8 + static_cast<std::size_t>(emca_size);
    for (Field field : locate_state_fields(device.monitor)) {
      field.offset += state_begin;
      record.sealed_fields.push_back(field);
    }
    records.push_back(std::move(record));
    at = records.back().payload_end + 8;
  }
  EMTS_REQUIRE(at == bytes.size(), "fuzz: record walk did not end at the container's end");
  return records;
}

/// Splice values: boundaries of the field's own value and of the window and
/// spectrum shapes, plus widths' extremes.
std::uint64_t splice_value(Rng& rng, std::uint64_t current, std::size_t width) {
  const std::uint64_t mask = width >= 8 ? ~0ull : (1ull << (8 * width)) - 1;
  const std::uint64_t candidates[] = {
      0, 1, 2, 3, current - 1, current + 1, 2 * current, 7, 8, 9,
      kLen / 2, kLen / 2 + 1, kLen / 2 + 2, kLen - 1, kLen, kLen + 1,
      1ull << 20, (1ull << 20) + 1, 1ull << 31, 1ull << 32, 1ull << 40, 1ull << 62,
      ~0ull, rng.next_u64()};
  return candidates[rng.uniform_below(sizeof candidates / sizeof candidates[0])] & mask;
}

enum class Outcome { kRefused, kRestored };

/// Loads the container at `path` and restores every record — monitoring ones
/// through a FleetMonitor, calibrating ones onto standalone self-calibrating
/// monitors. A precondition_error from either step is a refusal. A restored
/// container then takes kPushesAfterRestore captures per device, all of
/// which must be processed without a fault. `stage` names the step in flight
/// for a failure message.
Outcome load_restore_and_push(const std::string& path, const core::TraceSet& more,
                              const char*& stage) {
  stage = "load";
  FleetSnapshot loaded;
  try {
    loaded = load_fleet_snapshot(path);
  } catch (const precondition_error&) {
    return Outcome::kRefused;
  }

  stage = "restore";
  fleet::FleetOptions options;
  options.shards = 2;
  options.monitor = monitor_options();
  fleet::FleetMonitor fleet{options};
  FleetSnapshot monitoring;
  std::vector<core::RuntimeMonitor> calibrating;
  try {
    for (const FleetSnapshot::Device& device : loaded.devices) {
      if (device.monitor.state == core::MonitorState::kCalibrating) {
        calibrating.emplace_back(kFs, options_of(device.monitor));
        calibrating.back().restore_state(device.monitor);
      } else {
        monitoring.devices.push_back(device);
      }
    }
    fleet.restore(monitoring);
  } catch (const precondition_error&) {
    return Outcome::kRefused;
  }

  stage = "push";
  for (core::RuntimeMonitor& monitor : calibrating) monitor.push_batch(more);
  for (const FleetSnapshot::Device& device : monitoring.devices) {
    for (const core::Trace& trace : more.traces) {
      fleet.submit(device.device_id, core::Trace{trace});
    }
  }
  fleet.flush();
  const fleet::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, monitoring.devices.size() * more.size());
  for (const fleet::ShardStats& shard : stats.shards) EXPECT_EQ(shard.worker_faults, 0u);
  return Outcome::kRestored;
}

TEST(SnapshotFuzz, EveryMutantIsRefusedOrRestoresAndKeepsStreaming) {
  test_support::ScratchDir scratch;
  const std::string path = scratch.path("mutant.emfs");
  const FleetSnapshot snapshot = seed_snapshot();
  save_fleet_snapshot(path, snapshot);
  std::string seed;
  {
    std::ifstream in{path, std::ios::binary};
    seed.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  }
  const std::vector<SealedSpan> records = locate_records(seed, snapshot);
  const core::TraceSet more = golden_set(kPushesAfterRestore, 5);
  const char* stage = "";

  // The unmutated container is the control: it must load, restore and stream.
  ASSERT_EQ(load_restore_and_push(path, more, stage), Outcome::kRestored);

  Rng rng{kSeed};
  std::size_t refused = 0;
  std::size_t restored = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::string label;
    const std::string bytes = mutate(rng, seed, records, splice_value, label);
    SCOPED_TRACE("mutant " + std::to_string(m) + " (" + label + ")");
    // Remove, then write: ext4 flushes a file truncated and rewritten in
    // place on close, which would cost tens of milliseconds per mutant.
    std::filesystem::remove(path);
    {
      std::ofstream out{path, std::ios::binary};
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      if (load_restore_and_push(path, more, stage) == Outcome::kRestored) {
        ++restored;
      } else {
        ++refused;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped " << typeid(error).name() << " during " << stage << ": "
                    << error.what();
    }
  }
  // Neither outcome may be vacuous: the budget must reach both the refusal
  // gates and the restore-and-stream path.
  EXPECT_GT(refused, kMutants / 4);
  EXPECT_GT(restored, kMutants / 10);
}

}  // namespace
}  // namespace emts::io
