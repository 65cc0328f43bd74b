// array_localize: a 4x4 array::SensorGrid over the chip. Bundles are captured
// in batches on a CaptureEngine (3 workers + the calling thread = 4 threads),
// pushed through one ArrayMonitor, and after each armed burst the Localizer
// names the module hosting the Trojan. The only workload in which the sim
// physics and the array layer do the work.
#include <array>
#include <memory>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "workloads.hpp"

namespace emsbench {

namespace array = emts::array;

namespace {

constexpr std::size_t kGoldenBundles = 16;  // golden bundles before each burst
constexpr std::size_t kBurstBundles = 48;   // armed bundles per Trojan burst
constexpr std::size_t kCalibrationWindows = 64;
constexpr std::size_t kTrojans = std::size(trojan::kAllTrojanKinds);

struct ArrayWorld {
  explicit ArrayWorld(std::uint64_t seed)
      : chip{chip_config(seed)}, grid{chip.floorplan(), array::GridSpec{}}, capture{grid} {}

  sim::Chip chip;
  array::SensorGrid grid;
  array::ArrayCapture capture;
  array::ArrayCalibration calibration;
};

bool same_bundle(const array::Bundle& a, const array::BundleSet& set, std::size_t w) {
  if (a.sensor_count() != set.sensor_count()) return false;
  for (std::size_t s = 0; s < a.sensor_count(); ++s) {
    if (a.traces[s] != set.per_sensor[s].traces[w]) return false;
  }
  return true;
}

}  // namespace

Result run_array_localize(const Args& args, SpanRecorder& spans) {
  Result result;
  const sim::CaptureEngine setup_engine{sim::EngineOptions{kSetupEngineThreads, 1}};
  const sim::CaptureEngine engine{sim::EngineOptions{kEngineThreads, 1}};

  // Set-up: grid geometry and per-coil calibration, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<ArrayWorld> world;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    world.reset();
    world = std::make_unique<ArrayWorld>(args.seed);
    array::ArrayCalibrationOptions options;
    options.windows = kCalibrationWindows;
    world->calibration = array::calibrate_array(world->capture, setup_engine, world->chip, options);
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  result.set("setup_s", median(setup_s), "s");

  sim::Chip& chip = world->chip;
  array::ArrayMonitor monitor{world->grid, world->calibration};
  const array::Localizer localizer{world->grid};
  const std::size_t sensors = world->grid.sensor_count();

  const std::uint32_t batch_span = spans.intern("array.capture_batch");
  const std::uint32_t push_span = spans.intern("array.push_bundle");
  const std::uint32_t localize_span = spans.intern("array.localize");
  const std::uint32_t sim_span = spans.intern("sim.capture");

  std::vector<double> latency_us, traced_us, capture_per_bundle_us;
  std::array<std::uint64_t, kTrojans> bursts{}, latched{}, localized{};
  std::uint64_t false_alarms = 0, bundles = 0;
  std::uint64_t index = 100'000;  // trace indices past the calibration campaign
  bool determinism_checked = false;

  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t traced_from =
      args.trace ? start + static_cast<std::int64_t>(args.seconds * 0.5e9) : end + 1;
  std::int64_t stop = start;

  // Captures a batch, pushes every bundle; returns when done or out of time.
  auto run_batch = [&](std::size_t count) {
    const bool tracing = now_ns() >= traced_from;
    std::int64_t t0 = now_ns();
    const array::BundleSet batch = world->capture.capture_batch(engine, chip, count, index);
    std::int64_t t1 = now_ns();
    const std::uint64_t first_op = bundles;
    if (tracing) {
      spans.add(batch_span, first_op, t0, t1);
      capture_per_bundle_us.push_back(ns_to_us(t1 - t0) / static_cast<double>(count));
      // One single-window capture through the chip itself: the sim layer's
      // per-trace cost under the same armed state.
      t0 = now_ns();
      const sim::Acquisition acquisition = chip.capture(true, index);
      spans.add(sim_span, first_op, t0, now_ns());
      if (acquisition.onchip_v.empty()) result.fail("empty chip capture");
    }
    if (!determinism_checked) {
      // Batches are slot-ordered and bit-identical to the serial capture.
      determinism_checked = true;
      if (!same_bundle(world->capture.capture_bundle(chip, index), batch, 0) ||
          !same_bundle(world->capture.capture_bundle(chip, index + count - 1), batch, count - 1)) {
        result.fail("capture_batch differs from the serial capture_bundle");
      }
    }
    index += count;
    for (std::size_t w = 0; w < count; ++w) {
      const array::Bundle bundle = batch.bundle(w);
      t0 = now_ns();
      monitor.push_bundle(bundle);
      t1 = now_ns();
      (tracing ? traced_us : latency_us).push_back(ns_to_us(t1 - t0));
      if (tracing) spans.add(push_span, bundles, t0, t1);
      ++bundles;
    }
  };

  while (now_ns() < end) {
    for (std::size_t t = 0; t < kTrojans && now_ns() < end; ++t) {
      run_batch(kGoldenBundles);
      if (monitor.any_alarm()) {
        ++false_alarms;
        monitor.acknowledge_alarms();
      }
      monitor.reset_anomaly_window();

      const trojan::TrojanKind kind = trojan::kAllTrojanKinds[t];
      chip.arm(kind);
      run_batch(kBurstBundles);
      chip.disarm_all();
      ++bursts[t];
      if (monitor.any_alarm()) ++latched[t];
      const bool tracing = now_ns() >= traced_from;
      const std::int64_t t0 = now_ns();
      const array::LocalizationReport report = localizer.localize(monitor.anomaly_energy());
      if (tracing) spans.add(localize_span, bundles - 1, t0, now_ns());
      if (report.localized && report.module_name == sim::trojan_host_module(kind)) ++localized[t];
      monitor.acknowledge_alarms();
    }
    stop = now_ns();
  }

  std::size_t trojans_latched = 0, trojans_localized = 0;
  for (std::size_t t = 0; t < kTrojans; ++t) {
    if (bursts[t] > 0 && latched[t] == bursts[t]) ++trojans_latched;
    if (bursts[t] > 0 && localized[t] == bursts[t]) ++trojans_localized;
    result.set("bursts_localized." + trojan_name(trojan::kAllTrojanKinds[t]),
               static_cast<double>(localized[t]), "count");
  }
  if (false_alarms != 0) {
    result.fail("golden segments latched " + std::to_string(false_alarms) + " alarms");
  }
  result.attempted = bundles;
  result.failed = result.correct ? 0 : bundles;

  const double elapsed_s = ns_to_s(stop - start);
  result.set("bundles_per_s", static_cast<double>(bundles) / elapsed_s, "1/s");
  result.set("traces_per_s", static_cast<double>(bundles * sensors) / elapsed_s, "1/s");
  summarize_latency(result, "latency", latency_us);
  result.set("trojans_latched", static_cast<double>(trojans_latched), "count");
  result.set("trojans_localized", static_cast<double>(trojans_localized), "count");
  result.set("false_alarms", static_cast<double>(false_alarms), "count");
  result.set("bursts_per_trojan", static_cast<double>(bursts.front()), "count");

  std::uint64_t passes = 0, windowed = 0, alarms = 0;
  for (std::size_t s = 0; s < sensors; ++s) {
    const core::MonitorStats& stats = monitor.session(s).stats();
    passes += stats.spectral_passes;
    windowed += stats.windowed_anomalies;
    alarms += stats.alarms_latched;
  }
  result.set("core.monitor.spectral_passes", static_cast<double>(passes), "count");
  result.set("core.monitor.windowed_anomalies", static_cast<double>(windowed), "count");
  result.set("core.monitor.alarms_latched", static_cast<double>(alarms), "count");

  if (args.trace) {
    layer_from_spans(result, spans, "sim.capture", "sim.capture_us");
    layer_from_spans(result, spans, "array.push_bundle", "array.push_bundle_us");
    layer_from_spans(result, spans, "array.localize", "array.localize_us");
    result.set("array.capture_bundle_us", median(capture_per_bundle_us), "us");
    const double push_p50 = median(traced_us);
    result.set("tracing_overhead_us", push_p50 - median(latency_us), "us");
    // A bundle's end-to-end cost: its share of the batch capture plus its push.
    const double per_bundle_us = elapsed_s * 1e6 / static_cast<double>(bundles);
    result.set("unattributed_share",
               unattributed_share(per_bundle_us, median(capture_per_bundle_us) + push_p50), "share");
  }

  result.describe_str("grid", std::to_string(world->grid.nx()) + "x" + std::to_string(world->grid.ny()));
  result.describe_num("sensors", static_cast<double>(sensors));
  result.describe_num("trace_samples", static_cast<double>(chip.samples_per_trace()));
  result.describe_num("engine_threads", static_cast<double>(engine.thread_count()));
  result.describe_num("engine_threads_setup", kSetupEngineThreads);
  result.describe_num("golden_bundles_per_segment", kGoldenBundles);
  result.describe_num("burst_bundles", kBurstBundles);
  result.describe_num("calibration_windows", kCalibrationWindows);
  result.describe_str("loop", "closed: capture a batch, push it, localize after each burst");
  return result;
}

}  // namespace emsbench
