// Performance microbenchmarks (google-benchmark): the computational cost of
// each pipeline stage — FFT, PCA fit, coupling solve, capture synthesis,
// per-trace scoring — so a deployment can budget its analysis module.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/euclidean.hpp"
#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "core/spectral.hpp"
#include "fleet/fleet.hpp"
#include "io/calibration.hpp"
#include "dsp/fft.hpp"
#include "em/mutual.hpp"
#include "layout/power_grid.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "stats/pca.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

using namespace emts;

namespace {

sim::Chip& shared_chip() {
  static sim::Chip chip{sim::make_default_config()};
  return chip;
}

core::TraceSet shared_golden() {
  return sim::CaptureEngine::shared().capture_batch(shared_chip(),
                                                    sim::Pickup::kOnChipSensor, 48, 0);
}

// The transform each monitored push runs: an N-sample capture rides one
// planned N/2-point complex FFT (the real-split path of
// SpectrumAnalyzer::stream_push). The argument is the capture length N.
void BM_FftForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::FftPlan plan{n / 2};
  Rng rng{1};
  std::vector<dsp::cplx> data(n / 2);
  for (auto& x : data) x = dsp::cplx{rng.gaussian(), rng.gaussian()};
  std::vector<dsp::cplx> work(n / 2);
  for (auto _ : state) {
    work = data;
    plan.forward(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftForward)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_PcaFit(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng{2};
  linalg::Matrix data{rows, 256};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 256; ++c) data(r, c) = rng.gaussian();
  }
  for (auto _ : state) {
    auto model = stats::PcaModel::fit(data, 8);
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_PcaFit)->Arg(32)->Arg(64)->Arg(128);

void BM_CouplingSolve(benchmark::State& state) {
  const layout::DieSpec die{};
  const auto fp = layout::reference_floorplan(die);
  const auto loops = layout::supply_loops(fp, layout::PadRing::for_die(die));
  const auto coil = em::make_onchip_spiral(die, em::OnChipSpiralSpec{});
  for (auto _ : state) {
    const auto m = em::couplings(loops, coil);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_CouplingSolve);

void BM_ChipCapture(benchmark::State& state) {
  sim::Chip& chip = shared_chip();
  std::uint64_t index = 1000000;
  for (auto _ : state) {
    const auto acq = chip.capture(true, index++);
    benchmark::DoNotOptimize(acq.onchip_v.data());
  }
}
BENCHMARK(BM_ChipCapture);

// Acquisition throughput, serial vs. parallel: items_per_second is
// traces/sec, so BENCH_*.json tracks the CaptureEngine speedup directly.
// Arg = worker threads (1 = the serial inline path).
void BM_CaptureBatch(benchmark::State& state) {
  sim::EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  sim::CaptureEngine engine{options};
  const sim::Chip& chip = shared_chip();
  constexpr std::size_t kBatch = 16;
  std::uint64_t index = 2000000;
  for (auto _ : state) {
    const auto set =
        engine.capture_batch(chip, sim::Pickup::kOnChipSensor, kBatch, index);
    index += kBatch;
    benchmark::DoNotOptimize(set.traces.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_CaptureBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Both pickups of the same windows in one pass (the Fig. 6 campaign shape).
void BM_CapturePairBatch(benchmark::State& state) {
  sim::EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  sim::CaptureEngine engine{options};
  const sim::Chip& chip = shared_chip();
  constexpr std::size_t kBatch = 16;
  std::uint64_t index = 3000000;
  for (auto _ : state) {
    const auto pair = engine.capture_pair_batch(chip, kBatch, index);
    index += kBatch;
    benchmark::DoNotOptimize(pair.onchip.traces.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_CapturePairBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DetectorCalibrate(benchmark::State& state) {
  const auto golden = shared_golden();
  for (auto _ : state) {
    auto det = core::EuclideanDetector::calibrate(golden);
    benchmark::DoNotOptimize(&det);
  }
}
BENCHMARK(BM_DetectorCalibrate);

void BM_DetectorScore(benchmark::State& state) {
  const auto golden = shared_golden();
  const auto det = core::EuclideanDetector::calibrate(golden);
  const auto trace = shared_chip().capture(true, 777).onchip_v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.score(trace));
  }
}
BENCHMARK(BM_DetectorScore);

// Cold-start comparison: what a deployment pays to reach kMonitoring.
// Calibrating from golden captures fits PCA + spectra from scratch;
// loading an EMCA artifact is pure deserialization.
void BM_ColdStartCalibrate(benchmark::State& state) {
  const auto golden = shared_golden();
  for (auto _ : state) {
    auto evaluator = core::TrustEvaluator::calibrate(golden);
    benchmark::DoNotOptimize(&evaluator);
  }
}
BENCHMARK(BM_ColdStartCalibrate)->Unit(benchmark::kMillisecond);

void BM_CalibrateAndSave(benchmark::State& state) {
  const auto golden = shared_golden();
  const auto path =
      (std::filesystem::temp_directory_path() / "emts_bench_model.emca").string();
  for (auto _ : state) {
    const auto evaluator = core::TrustEvaluator::calibrate(golden);
    io::save_calibration(path, evaluator);
    benchmark::DoNotOptimize(&evaluator);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_CalibrateAndSave)->Unit(benchmark::kMillisecond);

void BM_ColdStartLoadArtifact(benchmark::State& state) {
  const auto path =
      (std::filesystem::temp_directory_path() / "emts_bench_model.emca").string();
  io::save_calibration(path, core::TrustEvaluator::calibrate(shared_golden()));
  for (auto _ : state) {
    auto evaluator = io::load_calibration(path);
    benchmark::DoNotOptimize(&evaluator);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_ColdStartLoadArtifact)->Unit(benchmark::kMillisecond);

void BM_SpectralAnalyze(benchmark::State& state) {
  const auto golden = shared_golden();
  const auto det = core::SpectralDetector::calibrate(golden);
  const auto trace = shared_chip().capture(true, 778).onchip_v;
  for (auto _ : state) {
    const auto report = det.analyze(trace);
    benchmark::DoNotOptimize(&report);
  }
}
BENCHMARK(BM_SpectralAnalyze);

// ---------------------------------------------------------------------------
// Streaming monitor hot path: RuntimeMonitor per-push and batched.
// ---------------------------------------------------------------------------

constexpr std::size_t kMonitorWindow = 64;

const core::TrustEvaluator& shared_evaluator() {
  static const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(shared_golden());
  return evaluator;
}

const core::TraceSet& shared_stream() {
  static const core::TraceSet stream = sim::CaptureEngine::shared().capture_batch(
      shared_chip(), sim::Pickup::kOnChipSensor, 4 * kMonitorWindow, 5000000);
  return stream;
}

core::RuntimeMonitor::Options monitor_options() {
  core::RuntimeMonitor::Options options;
  options.spectral_window = kMonitorWindow;
  return options;
}

void BM_MonitorStreamPush(benchmark::State& state) {
  const auto& stream = shared_stream();
  core::RuntimeMonitor monitor{shared_chip().sample_rate(), shared_evaluator(),
                               monitor_options()};
  // Warm-up outside the measured region: size every scratch, slot and plan.
  for (const auto& trace : stream.traces) monitor.push(trace);
  for (auto _ : state) {
    for (const auto& trace : stream.traces) monitor.push(trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MonitorStreamPush)->Unit(benchmark::kMillisecond);

void BM_MonitorStreamBatch(benchmark::State& state) {
  const auto& stream = shared_stream();
  core::RuntimeMonitor monitor{shared_chip().sample_rate(), shared_evaluator(),
                               monitor_options()};
  monitor.push_batch(stream);  // warm-up
  for (auto _ : state) {
    monitor.push_batch(stream);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MonitorStreamBatch)->Unit(benchmark::kMillisecond);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Fleet monitor: shard scaling and queue saturation.
// ---------------------------------------------------------------------------

std::vector<std::string> fleet_device_ids(std::size_t devices) {
  std::vector<std::string> ids;
  ids.reserve(devices);
  for (std::size_t d = 0; d < devices; ++d) ids.push_back("chip-" + std::to_string(d));
  return ids;
}

fleet::FleetOptions fleet_options(std::size_t shards, fleet::BackpressurePolicy policy,
                                  std::size_t queue_capacity) {
  fleet::FleetOptions options;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  options.backpressure = policy;
  options.monitor.spectral_window = kMonitorWindow;
  return options;
}

/// One producer feeding a device fleet round-robin, as a shared capture
/// front-end would. Scoring dominates (a submit is a 32 KiB copy plus a
/// queue push; a push through the detector stack is ~100x that), so
/// traces/sec tracks how many shard workers the machine keeps busy.
double fleet_rate(std::size_t shards, std::size_t devices, std::size_t per_device) {
  const auto& stream = shared_stream();
  fleet::FleetMonitor monitor{
      fleet_options(shards, fleet::BackpressurePolicy::kBlock, 64)};
  const std::vector<std::string> ids = fleet_device_ids(devices);
  for (const std::string& id : ids) {
    monitor.add_device(id, core::TrustEvaluator{shared_evaluator()});
  }
  // Warm-up round: size every session's scratches and plans.
  for (const std::string& id : ids) {
    monitor.submit(id, core::Trace{stream.traces[0]});
  }
  monitor.flush();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < per_device; ++t) {
    const core::Trace& trace = stream.traces[t % stream.size()];
    for (const std::string& id : ids) monitor.submit(id, core::Trace{trace});
  }
  monitor.flush();
  const double elapsed = seconds_since(t0);
  return static_cast<double>(devices) * static_cast<double>(per_device) / elapsed;
}

void BM_FleetSubmit(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto devices = static_cast<std::size_t>(state.range(1));
  const auto& stream = shared_stream();
  fleet::FleetMonitor monitor{
      fleet_options(shards, fleet::BackpressurePolicy::kBlock, 64)};
  const std::vector<std::string> ids = fleet_device_ids(devices);
  for (const std::string& id : ids) {
    monitor.add_device(id, core::TrustEvaluator{shared_evaluator()});
  }
  constexpr std::size_t kRound = 8;
  std::size_t t = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < kRound; ++r) {
      const core::Trace& trace = stream.traces[t++ % stream.size()];
      for (const std::string& id : ids) monitor.submit(id, core::Trace{trace});
    }
    monitor.flush();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRound * devices));
}
BENCHMARK(BM_FleetSubmit)
    ->ArgNames({"shards", "devices"})
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({4, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

struct FleetSaturationResult {
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rejected = 0;
  std::size_t queue_high_water = 0;
  double wall_seconds = 0.0;
};

/// Slams one shard with a burst far beyond its queue capacity: the producer
/// outruns the scorer by ~100x, so the queue saturates immediately and the
/// policy decides what gives — the producer (BLOCK), completeness
/// (DROP_OLDEST) or admission (REJECT).
FleetSaturationResult fleet_saturation(fleet::BackpressurePolicy policy, std::size_t burst) {
  const auto& stream = shared_stream();
  constexpr std::size_t kQueue = 8;
  fleet::FleetMonitor monitor{fleet_options(1, policy, kQueue)};
  monitor.add_device("chip-0", core::TrustEvaluator{shared_evaluator()});
  monitor.submit("chip-0", core::Trace{stream.traces[0]});  // warm-up
  monitor.flush();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < burst; ++t) {
    monitor.submit("chip-0", core::Trace{stream.traces[t % stream.size()]});
  }
  monitor.flush();
  const double elapsed = seconds_since(t0);

  const fleet::FleetStats stats = monitor.stats();
  FleetSaturationResult result;
  result.submitted = stats.shards[0].submitted;
  result.processed = stats.shards[0].processed;
  result.dropped = stats.shards[0].dropped_oldest;
  result.rejected = stats.shards[0].rejected_full;
  result.queue_high_water = stats.shards[0].queue_high_water;
  result.wall_seconds = elapsed;
  return result;
}

/// Fleet measurements serialized to BENCH_fleet.json: traces/sec against
/// shard count at 1/4/16/64 devices, the 1->4 shard speedup at 16 devices,
/// and the per-policy queue-saturation accounting. Shard scaling needs
/// hardware parallelism — on a single-core host every curve is flat, so the
/// file records hardware_threads alongside the rates.
void write_fleet_bench_json(const char* path) {
  const std::size_t shard_counts[] = {1, 2, 4};
  const std::size_t device_counts[] = {1, 4, 16, 64};

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::ofstream out{path};
  // hardware_threads leads (BENCH_daemon.json convention): every rate below
  // is meaningless without it, and rows flag oversubscription explicitly.
  out << "{\n"
      << "  \"hardware_threads\": " << hardware_threads << ",\n"
      << "  \"trace_samples\": " << shared_stream().trace_length() << ",\n"
      << "  \"queue_capacity\": 64,\n"
      << "  \"scaling\": [\n";
  double rate_1_shard_16_dev = 0.0;
  double rate_4_shards_16_dev = 0.0;
  bool first = true;
  for (const std::size_t devices : device_counts) {
    // Every device streams exactly one spectral window, so each row carries
    // the same per-trace work mix and rates compare across device counts.
    const std::size_t per_device = kMonitorWindow;
    for (const std::size_t shards : shard_counts) {
      const double rate = fleet_rate(shards, devices, per_device);
      const bool oversubscribed = hardware_threads > 0 && shards > hardware_threads;
      if (oversubscribed) {
        std::fprintf(stderr,
                     "warning: %zu shards exceed %u hardware threads — fleet rate is"
                     " a contention measurement, not a capacity\n",
                     shards, hardware_threads);
      }
      if (devices == 16 && shards == 1) rate_1_shard_16_dev = rate;
      if (devices == 16 && shards == 4) rate_4_shards_16_dev = rate;
      if (!first) out << ",\n";
      first = false;
      out << "    {\"shards\": " << shards << ", \"devices\": " << devices
          << ", \"traces_per_sec\": " << rate
          << ", \"oversubscribed\": " << (oversubscribed ? "true" : "false") << "}";
    }
  }
  const double speedup = rate_4_shards_16_dev / rate_1_shard_16_dev;
  out << "\n  ],\n"
      << "  \"speedup_1_to_4_shards_at_16_devices\": " << speedup << ",\n"
      << "  \"saturation\": [\n";

  const fleet::BackpressurePolicy policies[] = {fleet::BackpressurePolicy::kBlock,
                                                fleet::BackpressurePolicy::kDropOldest,
                                                fleet::BackpressurePolicy::kReject};
  constexpr std::size_t kBurst = 256;
  for (std::size_t p = 0; p < 3; ++p) {
    const FleetSaturationResult r = fleet_saturation(policies[p], kBurst);
    out << "    {\"policy\": \"" << fleet::backpressure_label(policies[p]) << "\""
        << ", \"burst\": " << kBurst << ", \"queue_capacity\": 8"
        << ", \"submitted\": " << r.submitted << ", \"processed\": " << r.processed
        << ", \"dropped_oldest\": " << r.dropped << ", \"rejected\": " << r.rejected
        << ", \"queue_high_water\": " << r.queue_high_water
        << ", \"wall_seconds\": " << r.wall_seconds << "}" << (p + 1 < 3 ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("fleet: 1->4 shards at 16 devices %.2fx (%u hardware threads) -> %s\n",
              speedup, std::thread::hardware_concurrency(), path);
}

/// One streamed-monitor measurement: rate, steady-state allocations, and the
/// monitor's own push/spectral latency histograms.
struct MonitorRunResult {
  double traces_per_sec = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t allocated_bytes = 0;
  double push_p50_ns = 0.0;
  double push_p99_ns = 0.0;
  std::uint64_t push_max_ns = 0;
  double spectral_p50_ns = 0.0;
  double spectral_p99_ns = 0.0;
};

MonitorRunResult run_streamed_monitor(int repeats) {
  const auto& stream = shared_stream();
  core::RuntimeMonitor monitor{shared_chip().sample_rate(), shared_evaluator(),
                               monitor_options()};
  for (const auto& trace : stream.traces) monitor.push(trace);  // warm-up
  const auto alloc0 = util::alloc::thread_counts();
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) monitor.push_batch(stream);
  const double elapsed = seconds_since(t0);
  const auto alloc1 = util::alloc::thread_counts();

  MonitorRunResult result;
  result.traces_per_sec = static_cast<double>(repeats) *
                          static_cast<double>(stream.size()) / elapsed;
  result.allocations = alloc1.allocations - alloc0.allocations;
  result.allocated_bytes = alloc1.bytes - alloc0.bytes;
  result.push_p50_ns = monitor.stats().push_latency.p50_ns();
  result.push_p99_ns = monitor.stats().push_latency.p99_ns();
  result.push_max_ns = monitor.stats().push_latency.max_ns();
  result.spectral_p50_ns = monitor.stats().spectral_latency.p50_ns();
  result.spectral_p99_ns = monitor.stats().spectral_latency.p99_ns();
  return result;
}

void write_monitor_run_json(std::ofstream& out, const MonitorRunResult& r) {
  out << "    \"traces_per_sec\": " << r.traces_per_sec << ",\n"
      << "    \"allocations\": " << r.allocations << ",\n"
      << "    \"allocated_bytes\": " << r.allocated_bytes << ",\n"
      << "    \"push_p50_ns\": " << r.push_p50_ns << ",\n"
      << "    \"push_p99_ns\": " << r.push_p99_ns << ",\n"
      << "    \"push_max_ns\": " << r.push_max_ns << ",\n"
      << "    \"push_p99_over_p50\": "
      << (r.push_p50_ns > 0.0 ? r.push_p99_ns / r.push_p50_ns : 0.0) << ",\n"
      << "    \"spectral_p50_ns\": " << r.spectral_p50_ns << ",\n"
      << "    \"spectral_p99_ns\": " << r.spectral_p99_ns << "\n";
}

/// Streamed-monitor measurement serialized to BENCH_monitor.json: traces/sec
/// on a 64-trace window, steady-state allocation counts, and the monitor's
/// own p50/p99 push latency with the tail ratio tracked directly as
/// push_p99_over_p50 (CI asserts it stays within ~10x).
void write_monitor_bench_json(const char* path) {
  const auto& stream = shared_stream();
  constexpr int kRepeats = 4;
  const MonitorRunResult streamed = run_streamed_monitor(kRepeats);

  std::ofstream out{path};
  out << "{\n"
      << "  \"window_traces\": " << kMonitorWindow << ",\n"
      << "  \"trace_samples\": " << stream.trace_length() << ",\n"
      << "  \"measured_pushes\": " << kRepeats * stream.size() << ",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"alloc_counting_active\": "
      << (util::alloc::counting_active() ? "true" : "false") << ",\n"
      << "  \"streamed\": {\n";
  write_monitor_run_json(out, streamed);
  out << "  }\n"
      << "}\n";
  std::printf("monitor hot path: streamed %.0f traces/s, push p99/p50 %.2f -> %s\n",
              streamed.traces_per_sec,
              streamed.push_p50_ns > 0.0 ? streamed.push_p99_ns / streamed.push_p50_ns : 0.0,
              path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_monitor_bench_json("BENCH_monitor.json");
  write_fleet_bench_json("BENCH_fleet.json");
  return 0;
}
