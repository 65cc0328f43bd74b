// The runtime spectral path, layer by layer: the analyzer's streaming
// mean-spectrum mode (one real-split FFT per push plus a running per-bin
// sum), the detector's stream_observe/stream_finish pair, and the monitor's
// windowed reports checked against the offline SpectralDetector::analyze()
// reference on simulated golden and Trojan-armed streams — plus snapshot
// restore cut mid-window and the allocation-free steady state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "core/spectral.hpp"
#include "dsp/spectrum.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "spectrum_reference.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n, double amplitude) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(2.0 * units::pi * freq * static_cast<double>(i) / fs);
  }
  return out;
}

std::vector<double> noisy_tone(emts::Rng& rng, double freq, double fs, std::size_t n) {
  auto sig = tone(freq, fs, n, 1.0);
  for (double& v : sig) v += rng.gaussian(0.0, 0.5);
  return sig;
}

// The real-split transform computes the same spectrum through a half-size
// FFT, so it matches the full-size reference to floating-point rounding (a
// few ULPs per bin), not bitwise. The mean of one pushed trace is its
// spectrum exactly (0 + a, times 1).
TEST(SpectrumStream, TransformMatchesAmplitudeSpectrumToRounding) {
  emts::Rng rng{901};
  for (std::size_t n : {64u, 512u, 1000u}) {  // 1000: exercises zero-padding
    std::vector<double> sig(n);
    for (double& v : sig) v = rng.gaussian();
    const Spectrum copied = test_support::reference_spectrum(sig, 1000.0);

    SpectrumAnalyzer analyzer;
    analyzer.ensure_stream(n, 1000.0);
    analyzer.stream_push(sig);
    const std::vector<double>& amp = analyzer.stream_mean().amplitude;

    ASSERT_EQ(amp.size(), copied.size()) << "length " << n;
    const double peak = test_support::peak_amplitude(copied);
    for (std::size_t k = 0; k < copied.size(); ++k) {
      EXPECT_NEAR(amp[k], copied.amplitude[k], 1e-12 * peak) << "n " << n << " bin " << k;
    }
  }
}

TEST(SpectrumStream, PushedMeanMatchesMeanSpectrumToRounding) {
  emts::Rng rng{902};
  std::vector<std::vector<double>> signals;
  for (int t = 0; t < 7; ++t) signals.push_back(noisy_tone(rng, 125.0, 1000.0, 512));
  const Spectrum copied = test_support::reference_mean_spectrum(signals, 1000.0);

  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(512, 1000.0);
  for (const auto& sig : signals) analyzer.stream_push(sig);
  EXPECT_EQ(analyzer.stream_count(), signals.size());
  const Spectrum& streamed = analyzer.stream_mean();

  ASSERT_EQ(streamed.size(), copied.size());
  const double peak = test_support::peak_amplitude(copied);
  for (std::size_t k = 0; k < copied.size(); ++k) {
    EXPECT_NEAR(streamed.amplitude[k], copied.amplitude[k], 1e-12 * peak) << "bin " << k;
  }
}

// The snapshot-restore rule: re-pushing a cut window's signals in arrival
// order into a fresh analyzer rebuilds the running sum bit-exactly, even when
// the exporter reached that window through earlier tumbling windows, so the
// continued stream cannot tell it was interrupted.
TEST(SpectrumStream, RestoreContinuesBitIdentically) {
  emts::Rng rng{904};
  std::vector<std::vector<double>> signals;
  for (int t = 0; t < 6; ++t) signals.push_back(noisy_tone(rng, 125.0, 1000.0, 256));

  // The exporter closes an earlier window first (reset), then cuts 3 pushes
  // into the current one.
  SpectrumAnalyzer exporter;
  exporter.ensure_stream(256, 1000.0);
  exporter.stream_push(noisy_tone(rng, 250.0, 1000.0, 256));
  exporter.stream_reset();
  for (std::size_t t = 0; t < 3; ++t) exporter.stream_push(signals[t]);

  SpectrumAnalyzer restored;
  restored.ensure_stream(256, 1000.0);
  for (std::size_t t = 0; t < 3; ++t) restored.stream_push(signals[t]);
  EXPECT_EQ(restored.stream_sum(), exporter.stream_sum());  // bitwise at the cut

  for (std::size_t t = 3; t < signals.size(); ++t) {
    exporter.stream_push(signals[t]);
    restored.stream_push(signals[t]);
  }
  EXPECT_EQ(restored.stream_count(), exporter.stream_count());
  EXPECT_EQ(restored.stream_sum(), exporter.stream_sum());  // bitwise after
}

TEST(SpectrumStream, RejectsMidStreamShapeChange) {
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(128, 1000.0);
  analyzer.stream_push(tone(125.0, 1000.0, 128, 1.0));
  // Resizing a non-empty accumulator would silently corrupt the mean.
  EXPECT_THROW(analyzer.ensure_stream(256, 1000.0), emts::precondition_error);
  // Same shape is always fine mid-stream.
  analyzer.ensure_stream(128, 1000.0);
  EXPECT_EQ(analyzer.stream_count(), 1u);
  // A trace of another length is refused rather than zero-padded.
  EXPECT_THROW(analyzer.stream_push(tone(125.0, 1000.0, 64, 1.0)), emts::precondition_error);
}

}  // namespace
}  // namespace emts::dsp

namespace emts::core {
namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;

Trace golden_trace(emts::Rng& rng) {
  Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

Trace infected_trace(emts::Rng& rng) {
  Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

RuntimeMonitor::Options small_options() {
  RuntimeMonitor::Options opt;
  opt.calibration_traces = 16;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

void expect_reports_equivalent(const SpectralReport& runtime,
                               const SpectralReport& reference, const char* context) {
  ASSERT_EQ(runtime.anomalies.size(), reference.anomalies.size()) << context;
  for (std::size_t a = 0; a < reference.anomalies.size(); ++a) {
    const SpectralAnomaly& lhs = runtime.anomalies[a];
    const SpectralAnomaly& rhs = reference.anomalies[a];
    EXPECT_EQ(lhs.kind, rhs.kind) << context << " anomaly " << a;
    EXPECT_EQ(lhs.frequency_hz, rhs.frequency_hz) << context << " anomaly " << a;
    EXPECT_EQ(lhs.ratio, rhs.ratio) << context << " anomaly " << a;
  }
}

// ---------- RuntimeMonitor windowed reports vs the offline reference ----------

// Every windowed report of the runtime path (per-push transforms summed into
// a running mean) must equal SpectralDetector::analyze() over the same window
// as a TraceSet: the same anomaly kinds, bins and ratios, bitwise. The golden
// spectrum itself is the analyzer's streamed mean over the calibration set,
// bitwise, because calibration runs the same accumulator. One monitor sees
// simulated golden, T1-armed and A2-armed segments; A2 is the paper's Fig. 4
// case, whose windows carry spectral anomalies. Segment lengths are not
// multiples of the window, so windows straddle segments, and the T1 alarm is
// acknowledged mid-window, which clears a partial window.
TEST(RuntimeMonitorIncremental, WindowedReportsMatchOfflineAnalyze) {
  constexpr std::size_t kWindow = 8;
  sim::Chip chip{sim::make_default_config()};
  const sim::CaptureEngine& engine = sim::CaptureEngine::shared();
  const TraceSet golden = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 48, 10000);
  const TrustEvaluator evaluator = TrustEvaluator::calibrate(golden);
  const SpectralDetector& offline = evaluator.spectral();

  dsp::SpectrumAnalyzer analyzer{offline.options().spectrum};
  analyzer.ensure_stream(golden.traces.front().size(), golden.sample_rate);
  for (const Trace& trace : golden.traces) analyzer.stream_push(trace);
  EXPECT_EQ(offline.golden_spectrum().amplitude, analyzer.stream_mean().amplitude);
  EXPECT_EQ(offline.golden_spectrum().frequency, analyzer.stream_mean().frequency);

  RuntimeMonitor::Options options;
  options.spectral_window = kWindow;
  RuntimeMonitor monitor{chip.sample_rate(), evaluator, options};

  struct Segment {
    std::optional<trojan::TrojanKind> armed;
    std::size_t length;
  };
  const Segment segments[] = {{std::nullopt, 20},
                              {trojan::TrojanKind::kT1AmLeak, 22},
                              {trojan::TrojanKind::kA2Analog, 26},
                              {std::nullopt, 20}};
  TraceSet window;  // mirrors the monitor's window
  window.sample_rate = chip.sample_rate();
  std::uint64_t first_index = 20000;
  std::size_t compared = 0;
  std::size_t a2_anomalous = 0;
  std::size_t cleared_by_acknowledge = 0;
  for (const Segment& segment : segments) {
    const char* label = segment.armed ? trojan::kind_label(*segment.armed) : "golden";
    if (monitor.state() == MonitorState::kAlarm) {
      monitor.acknowledge_alarm();
      cleared_by_acknowledge += window.size();
      window.traces.clear();
    }
    chip.disarm_all();
    if (segment.armed) chip.arm(*segment.armed);
    const TraceSet stream =
        engine.capture_batch(chip, sim::Pickup::kOnChipSensor, segment.length, first_index);
    first_index += segment.length;

    for (const Trace& trace : stream.traces) {
      const std::uint64_t passes = monitor.stats().spectral_passes;
      monitor.push(trace);
      window.add(trace);
      if (monitor.stats().spectral_passes == passes) continue;
      ASSERT_EQ(window.size(), kWindow) << label;
      const SpectralReport reference = offline.analyze(window);
      ASSERT_TRUE(monitor.last_spectral().has_value()) << label;
      expect_reports_equivalent(*monitor.last_spectral(), reference, label);
      ++compared;
      if (segment.armed == trojan::TrojanKind::kA2Analog && reference.anomalous()) {
        ++a2_anomalous;
      }
      window.traces.clear();
    }
  }
  EXPECT_GT(cleared_by_acknowledge, 0u) << "the T1 alarm must clear a partial window";
  EXPECT_GE(compared, 9u);
  EXPECT_GT(a2_anomalous, 0u) << "A2 windows must exercise anomaly-carrying reports";
}

// Export mid-window (a partially accumulated spectral sum in flight), restore
// into a fresh monitor, and finish the stream in both worlds: the accumulator
// that restore reinstates from the image's sum continues bit-identically to
// the uninterrupted one.
TEST(RuntimeMonitorIncremental, SnapshotRestoreMidWindowContinuesBitIdentically) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 940));
  RuntimeMonitor reference{kFs, evaluator, small_options()};
  RuntimeMonitor exporter{kFs, evaluator, small_options()};

  TraceSet stream = make_set(10, false, 941);
  for (auto& t : make_set(9, true, 942).traces) stream.add(std::move(t));
  for (auto& t : make_set(10, false, 943).traces) stream.add(std::move(t));

  for (const auto& trace : stream.traces) {
    reference.push(trace);
    if (reference.state() == MonitorState::kAlarm) reference.acknowledge_alarm();
  }

  // Cut at trace 15: the alarm latched (and was acknowledged, clearing the
  // window) at trace 12, so the cut lands two traces into a fresh window —
  // a partially accumulated spectral sum is in flight.
  const std::size_t cut = 15;
  for (std::size_t i = 0; i < cut; ++i) {
    exporter.push(stream.traces[i]);
    if (exporter.state() == MonitorState::kAlarm) exporter.acknowledge_alarm();
  }
  const MonitorStateImage image = exporter.export_state();
  ASSERT_GT(image.window_count, 0u);
  ASSERT_LT(image.window_count, 8u);  // genuinely mid-window

  RuntimeMonitor restored{kFs, evaluator, small_options()};
  restored.restore_state(image);
  for (std::size_t i = cut; i < stream.size(); ++i) {
    restored.push(stream.traces[i]);
    if (restored.state() == MonitorState::kAlarm) restored.acknowledge_alarm();
  }

  EXPECT_EQ(restored.state(), reference.state());
  EXPECT_EQ(restored.last_score(), reference.last_score());  // bitwise
  EXPECT_EQ(restored.stats().spectral_passes, reference.stats().spectral_passes);
  EXPECT_EQ(restored.stats().windowed_anomalies, reference.stats().windowed_anomalies);
  EXPECT_EQ(restored.stats().alarms_latched, reference.stats().alarms_latched);
  ASSERT_EQ(restored.last_spectral().has_value(), reference.last_spectral().has_value());
  if (restored.last_spectral().has_value()) {
    const auto& lhs = restored.last_spectral()->anomalies;
    const auto& rhs = reference.last_spectral()->anomalies;
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t a = 0; a < rhs.size(); ++a) {
      EXPECT_EQ(lhs[a].ratio, rhs[a].ratio) << "anomaly " << a;  // bitwise
    }
  }
}

// The incremental path inherits the zero-allocation contract: after warm-up,
// a push (FFT + accumulate) allocates nothing, across window boundaries.
TEST(RuntimeMonitorIncremental, SteadyStatePushStaysAllocationFree) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 960));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  const TraceSet stream = make_set(16, false, 961);

  for (int round = 0; round < 2; ++round) {
    for (const auto& trace : stream.traces) monitor.push(trace);
  }

  const auto before = util::alloc::thread_counts();
  for (const auto& trace : stream.traces) monitor.push(trace);
  const auto after = util::alloc::thread_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "incremental push allocated " << (after.bytes - before.bytes) << " bytes";
}

}  // namespace
}  // namespace emts::core
