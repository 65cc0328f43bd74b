// monitor_stream: one pre-fitted RuntimeMonitor with default options, fed
// 4096-sample on-chip captures on one thread. The traffic is golden except
// for one armed burst per Trojan in every cycle; acknowledge_alarm() re-arms
// the monitor after each burst. Isolates the core and dsp layers.
#include <array>

#include "util/alloc_counter.hpp"
#include "workloads.hpp"

namespace emsbench {

StageProbe::StageProbe(const core::TrustEvaluator& evaluator, double sample_rate,
                       std::size_t samples, SpanRecorder& spans)
    : euclidean_{evaluator.euclidean()},
      sample_rate_{sample_rate},
      spans_{spans},
      plan_{emts::dsp::next_power_of_two(samples) / 2},
      fft_buffer_(emts::dsp::next_power_of_two(samples) / 2),
      features_span_{spans.intern("core.preprocess.features")},
      score_span_{spans.intern("core.euclidean.score")},
      analyze_span_{spans.intern("dsp.spectrum.analyze")},
      fft_span_{spans.intern("dsp.fft_plan.forward")} {}

void StageProbe::report(Result& result, const SpanRecorder& spans) {
  layer_from_spans(result, spans, "core.monitor.push", "core.monitor.push_us", true);
  layer_from_spans(result, spans, "core.preprocess.features", "core.preprocess.features_us");
  layer_from_spans(result, spans, "core.euclidean.score", "core.euclidean.score_us");
  layer_from_spans(result, spans, "dsp.spectrum.analyze", "dsp.spectrum.analyze_us");
  layer_from_spans(result, spans, "dsp.fft_plan.forward", "dsp.fft_plan.forward_us");
}

void StageProbe::probe(const core::Trace& trace, std::uint64_t op, std::int32_t parent) {
  std::int64_t t0 = now_ns();
  euclidean_.preprocessor().features_into(trace, work_, aux_, aux2_, features_);
  std::int64_t t1 = now_ns();
  spans_.add(features_span_, op, t0, t1, parent);
  sink_ += features_.empty() ? 0.0 : features_.front();

  t0 = now_ns();
  sink_ += euclidean_.score_buffered(trace, scratch_);
  t1 = now_ns();
  spans_.add(score_span_, op, t0, t1, parent);

  t0 = now_ns();
  sink_ += analyzer_.analyze(trace, sample_rate_).amplitude.back();
  t1 = now_ns();
  spans_.add(analyze_span_, op, t0, t1, parent);

  // The real-split transform packs even samples into the real lane and odd
  // samples into the imaginary lane of a half-size complex FFT.
  for (std::size_t k = 0; k < fft_buffer_.size(); ++k) {
    const std::size_t even = 2 * k;
    fft_buffer_[k] = {even < trace.size() ? trace[even] : 0.0,
                      even + 1 < trace.size() ? trace[even + 1] : 0.0};
  }
  t0 = now_ns();
  plan_.forward(fft_buffer_);
  t1 = now_ns();
  spans_.add(fft_span_, op, t0, t1, parent);
  sink_ += fft_buffer_.front().real();
}

namespace {

constexpr std::size_t kGoldenSegment = 200;  // golden pushes before each burst
constexpr std::size_t kWarmupPushes = 512;   // untimed, but replayed
constexpr std::size_t kTrojans = std::size(trojan::kAllTrojanKinds);

/// The deterministic push schedule and the operator actions it implies.
/// Cycle = for each Trojan: kGoldenSegment golden captures, then its burst.
/// After a golden segment a latched alarm is a false alarm; after a burst it
/// is a detection. Either way the operator acknowledges it.
class StreamDriver {
 public:
  explicit StreamDriver(const World& world) : world_{world} {}

  const core::Trace& trace(std::uint64_t n) const {
    const Slot s = slot(n);
    return s.armed ? world_.armed[s.trojan][s.offset] : world_.golden[n % world_.golden.size()];
  }

  /// Operator step after push n.
  void after_push(std::uint64_t n, core::RuntimeMonitor& monitor) {
    const Slot s = slot(n);
    const std::size_t burst = world_.armed.front().size();
    if (!s.armed && s.offset == kGoldenSegment - 1) {
      if (monitor.state() == core::MonitorState::kAlarm) {
        ++false_alarms;
        monitor.acknowledge_alarm();
      }
    } else if (s.armed && s.offset == burst - 1) {
      ++bursts[s.trojan];
      if (monitor.state() == core::MonitorState::kAlarm) {
        ++latched[s.trojan];
        monitor.acknowledge_alarm();
      }
    }
  }

  /// Trojans whose every completed burst latched the alarm.
  std::size_t trojans_latched() const {
    std::size_t count = 0;
    for (std::size_t t = 0; t < kTrojans; ++t) {
      if (bursts[t] > 0 && latched[t] == bursts[t]) ++count;
    }
    return count;
  }

  std::array<std::uint64_t, kTrojans> bursts{};
  std::array<std::uint64_t, kTrojans> latched{};
  std::uint64_t false_alarms = 0;

 private:
  struct Slot {
    bool armed = false;
    std::size_t trojan = 0;
    std::size_t offset = 0;  // within the golden segment or the burst
  };

  Slot slot(std::uint64_t n) const {
    const std::size_t burst = world_.armed.front().size();
    const std::uint64_t phase = kGoldenSegment + burst;
    const std::uint64_t r = n % (phase * kTrojans);
    const auto t = static_cast<std::size_t>(r / phase);
    const auto q = static_cast<std::size_t>(r % phase);
    return q < kGoldenSegment ? Slot{false, t, q} : Slot{true, t, q - kGoldenSegment};
  }

  const World& world_;
};

}  // namespace

Result run_monitor_stream(const Args& args, SpanRecorder& spans) {
  Result result;
  WorldSpec spec;

  // Set-up: captures and calibration, repeated; the last world is used.
  std::vector<double> setup_s;
  std::optional<World> world;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    world.reset();
    {
      const sim::CaptureEngine engine{sim::EngineOptions{kSetupEngineThreads, 4}};
      world.emplace(build_world(args.seed, spec, engine));
    }
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  result.set("setup_s", median(setup_s), "s");

  core::RuntimeMonitor monitor{world->sample_rate, world->evaluator};
  StreamDriver driver{*world};
  std::uint64_t n = 0;
  for (; n < kWarmupPushes; ++n) {
    monitor.push(driver.trace(n));
    driver.after_push(n, monitor);
  }

  // Timed stream. With --trace 1 the first half runs untraced and the second
  // traced, so the difference is the tracing overhead.
  std::optional<StageProbe> probe;
  if (args.trace) probe.emplace(world->evaluator, world->sample_rate, world->trace_samples, spans);
  const std::uint32_t push_span = spans.intern("core.monitor.push");
  std::vector<double> untraced_us, traced_us, allocs;
  untraced_us.reserve(static_cast<std::size_t>(args.seconds * 20000));
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t traced_from =
      args.trace ? start + static_cast<std::int64_t>(args.seconds * 0.5e9) : end;
  const std::uint64_t first_timed = n;
  bool tracing = false;
  for (;; ++n) {
    const core::Trace& trace = driver.trace(n);
    if (tracing) {
      const auto before = emts::util::alloc::thread_counts().allocations;
      const std::int64_t t0 = now_ns();
      monitor.push(trace);
      const std::int64_t t1 = now_ns();
      allocs.push_back(
          static_cast<double>(emts::util::alloc::thread_counts().allocations - before));
      const std::int32_t parent = spans.add(push_span, n, t0, t1);
      traced_us.push_back(ns_to_us(t1 - t0));
      if (n % kProbeEvery == 0) probe->probe(trace, n, parent);
      driver.after_push(n, monitor);
      if (t1 >= end) break;
    } else {
      const std::int64_t t0 = now_ns();
      monitor.push(trace);
      const std::int64_t t1 = now_ns();
      untraced_us.push_back(ns_to_us(t1 - t0));
      driver.after_push(n, monitor);
      if (t1 >= end) break;
      tracing = t1 >= traced_from;
    }
  }
  const std::int64_t stop = now_ns();
  const std::uint64_t pushes = n + 1;
  const std::uint64_t timed = pushes - first_timed;
  result.attempted = pushes;
  result.set("traces_per_s", static_cast<double>(timed) / ns_to_s(stop - start), "1/s");
  summarize_latency(result, "latency", untraced_us);

  // Correctness gate: a standalone monitor replaying the same captures with
  // the same operator actions ends in the same state with the same counters.
  core::RuntimeMonitor replay{world->sample_rate, world->evaluator};
  StreamDriver replay_driver{*world};
  for (std::uint64_t i = 0; i < pushes; ++i) {
    replay.push(replay_driver.trace(i));
    replay_driver.after_push(i, replay);
  }
  if (!(fingerprint(monitor) == fingerprint(replay))) {
    result.fail("monitor diverged from its replay: " + describe(fingerprint(monitor)) +
                " vs " + describe(fingerprint(replay)));
  }
  if (replay_driver.false_alarms != driver.false_alarms ||
      replay_driver.latched != driver.latched) {
    result.fail("operator actions diverged from the replay");
  }
  if (driver.false_alarms != 0) {
    result.fail("golden segments latched " + std::to_string(driver.false_alarms) + " alarms");
  }
  if (!result.correct) result.failed = result.attempted;

  result.set("trojans_latched", static_cast<double>(driver.trojans_latched()), "count");
  result.set("false_alarms", static_cast<double>(driver.false_alarms), "count");
  for (std::size_t t = 0; t < kTrojans; ++t) {
    result.set("bursts_latched." + trojan_name(trojan::kAllTrojanKinds[t]),
                static_cast<double>(driver.latched[t]), "count");
  }
  result.set("bursts_per_trojan", static_cast<double>(driver.bursts.front()), "count");

  const core::MonitorStats& stats = monitor.stats();
  result.set("core.monitor.spectral_passes", static_cast<double>(stats.spectral_passes), "count");
  result.set("core.monitor.windowed_anomalies", static_cast<double>(stats.windowed_anomalies),
              "count");
  result.set("core.monitor.alarms_latched", static_cast<double>(stats.alarms_latched), "count");

  if (args.trace) {
    StageProbe::report(result, spans);
    result.set("core.monitor.allocs_per_push", mean(allocs), "count");
    const double push_p50 = median(traced_us);
    result.set("tracing_overhead_us", push_p50 - median(untraced_us), "us");
    // The stages a push runs: the Euclidean score (preprocessing included)
    // and the half-size FFT of its real-split spectrum. dsp.spectrum.analyze
    // is the offline full-size path, timed for comparison only.
    result.set("unattributed_share",
               unattributed_share(push_p50, result.metrics["core.euclidean.score_us"].value +
                                                result.metrics["dsp.fft_plan.forward_us"].value),
               "share");
  }
  result.describe_num("trace_samples", static_cast<double>(world->trace_samples));
  result.describe_num("golden_segment", kGoldenSegment);
  result.describe_num("burst", static_cast<double>(spec.burst));
  result.describe_num("monitor_threads", 1);
  result.describe_num("engine_threads_setup", kSetupEngineThreads);
  result.describe_str("loop", "closed, one push after another");
  return result;
}

}  // namespace emsbench
