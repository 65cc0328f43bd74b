#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "scratch_dir.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::fleet {
namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;

core::Trace golden_trace(emts::Rng& rng) {
  core::Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

core::Trace infected_trace(emts::Rng& rng) {
  core::Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

// A2-style capture: only a fast tone, which the preprocessor's 16-sample
// mean pooling cancels, so only the windowed spectral stage sees it.
core::Trace a2_trace(emts::Rng& rng) {
  core::Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

core::TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

// One shared calibration for the whole suite — the fleet deployment shape
// (calibrate once, monitor many) and much cheaper than refitting per test.
const core::TrustEvaluator& fitted() {
  static const core::TrustEvaluator evaluator =
      core::TrustEvaluator::calibrate(make_set(30, false, 1));
  return evaluator;
}

core::RuntimeMonitor::Options small_options() {
  core::RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

// ---------- routing ----------

TEST(DeviceHash, MatchesKnownFnv1aVectors) {
  EXPECT_EQ(device_hash(""), 14695981039346656037ull);
  EXPECT_EQ(device_hash("a"), 0xaf63dc4c8601ec8cull);  // published FNV-1a("a")
  EXPECT_EQ(device_hash("chip-00"), device_hash("chip-00"));
  EXPECT_NE(device_hash("chip-00"), device_hash("chip-01"));
}

TEST(FleetMonitor, ShardRoutingIsHashModuloShards) {
  FleetOptions opt;
  opt.shards = 4;
  FleetMonitor fleet{opt};
  EXPECT_EQ(fleet.shard_count(), 4u);
  for (const char* id : {"chip-00", "chip-07", "sensor/ne", "x"}) {
    EXPECT_EQ(fleet.shard_of(id), device_hash(id) % 4u);
  }
}

TEST(FleetMonitor, DeviceRegistry) {
  FleetOptions opt;
  opt.shards = 2;
  FleetMonitor fleet{opt};
  fleet.add_device("chip-01", fitted());
  fleet.add_device("chip-00", fitted());
  EXPECT_TRUE(fleet.has_device("chip-00"));
  EXPECT_FALSE(fleet.has_device("chip-99"));
  EXPECT_EQ(fleet.device_count(), 2u);
  const std::vector<std::string> ids = fleet.device_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "chip-00");  // sorted, not insertion order
  EXPECT_EQ(ids[1], "chip-01");
}

TEST(BackpressureLabels, AreDistinct) {
  EXPECT_STREQ(backpressure_label(BackpressurePolicy::kBlock), "BLOCK");
  EXPECT_STREQ(backpressure_label(BackpressurePolicy::kDropOldest), "DROP_OLDEST");
  EXPECT_STREQ(backpressure_label(BackpressurePolicy::kReject), "REJECT");
}

// ---------- the acceptance criterion: fleet == standalone, bit for bit ----

void expect_per_device_results_match_standalone(BackpressurePolicy policy,
                                                std::size_t queue_capacity) {
  SCOPED_TRACE(backpressure_label(policy));
  const core::RuntimeMonitor::Options mon = small_options();
  FleetOptions opt;
  opt.shards = 4;
  opt.queue_capacity = queue_capacity;
  opt.backpressure = policy;
  opt.monitor = mon;
  FleetMonitor fleet{opt};

  const std::vector<std::string> ids = {"chip-00", "chip-01", "chip-02", "chip-03",
                                        "chip-04"};
  std::vector<core::RuntimeMonitor> standalone;
  standalone.reserve(ids.size());
  for (const std::string& id : ids) {
    fleet.add_device(id, core::TrustEvaluator{fitted()});
    standalone.emplace_back(kFs, core::TrustEvaluator{fitted()}, mon);
  }

  // Unique stream per device; the last device turns infected halfway.
  constexpr std::size_t kPerDevice = 24;
  std::vector<std::vector<core::Trace>> streams(ids.size());
  for (std::size_t d = 0; d < ids.size(); ++d) {
    emts::Rng rng{100 + d};
    for (std::size_t t = 0; t < kPerDevice; ++t) {
      const bool infected = d == ids.size() - 1 && t >= kPerDevice / 2;
      streams[d].push_back(infected ? infected_trace(rng) : golden_trace(rng));
    }
  }

  // Interleave submissions round-robin across devices — the fleet must
  // untangle them back into per-device order.
  for (std::size_t t = 0; t < kPerDevice; ++t) {
    for (std::size_t d = 0; d < ids.size(); ++d) {
      EXPECT_EQ(fleet.submit(ids[d], core::Trace{streams[d][t]}), SubmitResult::kAccepted);
    }
  }
  fleet.flush();

  for (std::size_t d = 0; d < ids.size(); ++d) {
    for (const core::Trace& trace : streams[d]) standalone[d].push(trace);
  }

  const FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.sessions.size(), ids.size());
  EXPECT_EQ(stats.traces_submitted, kPerDevice * ids.size());
  EXPECT_EQ(stats.traces_processed, kPerDevice * ids.size());
  EXPECT_EQ(stats.devices, ids.size());
  EXPECT_EQ(stats.devices_alarm, 1u);
  EXPECT_EQ(stats.devices_monitoring, ids.size() - 1);

  for (std::size_t d = 0; d < ids.size(); ++d) {
    const SessionStats& session = stats.sessions[d];  // sorted == ids order here
    ASSERT_EQ(session.device_id, ids[d]);
    EXPECT_EQ(session.shard, fleet.shard_of(ids[d]));
    EXPECT_EQ(session.state, standalone[d].state());

    // Exact EQ on purpose: the fleet routes the same doubles through the
    // same monitor code on one thread per device, so scores must be
    // bit-identical, not approximately equal.
    ASSERT_EQ(session.last_score.has_value(), standalone[d].last_score().has_value());
    if (session.last_score.has_value()) {
      EXPECT_EQ(*session.last_score, *standalone[d].last_score());
    }

    const core::MonitorStats& expect = standalone[d].stats();
    EXPECT_EQ(session.monitor.traces_ingested, expect.traces_ingested);
    EXPECT_EQ(session.monitor.traces_rejected, expect.traces_rejected);
    EXPECT_EQ(session.monitor.scored_captures, expect.scored_captures);
    EXPECT_EQ(session.monitor.per_trace_anomalies, expect.per_trace_anomalies);
    EXPECT_EQ(session.monitor.spectral_passes, expect.spectral_passes);
    EXPECT_EQ(session.monitor.windowed_anomalies, expect.windowed_anomalies);
    EXPECT_EQ(session.monitor.alarms_latched, expect.alarms_latched);
  }

  // Event streams match too: same kinds, same trace indices, same payloads.
  std::vector<FleetEvent> fleet_events = fleet.drain_events();
  for (std::size_t d = 0; d < ids.size(); ++d) {
    std::vector<core::MonitorEvent> expect = standalone[d].drain_events();
    std::vector<core::MonitorEvent> got;
    for (const FleetEvent& event : fleet_events) {
      if (event.device_id == ids[d]) got.push_back(event.event);
    }
    ASSERT_EQ(got.size(), expect.size()) << ids[d];
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].kind, expect[i].kind);
      EXPECT_EQ(got[i].trace_index, expect[i].trace_index);
      EXPECT_EQ(got[i].value, expect[i].value);
    }
  }
}

TEST(FleetMonitor, PerDeviceResultsMatchStandaloneBitIdentically) {
  // kBlock applies flow control through queues smaller than the traffic.
  // The lossy policies get queues that hold all 120 traces, so neither
  // sheds one; all three must then match standalone monitors bit for bit.
  expect_per_device_results_match_standalone(BackpressurePolicy::kBlock, 8);
  expect_per_device_results_match_standalone(BackpressurePolicy::kDropOldest, 128);
  expect_per_device_results_match_standalone(BackpressurePolicy::kReject, 128);
}

// A spectral-only Trojan latches through the windowed run (two consecutive
// anomalous windows) on a fleet-hosted session exactly as on a standalone
// monitor.
TEST(FleetMonitor, SpectralOnlyDeviceLatchesLikeStandalone) {
  const core::RuntimeMonitor::Options mon = small_options();
  FleetOptions opt;
  opt.shards = 2;
  opt.monitor = mon;
  FleetMonitor fleet{opt};
  fleet.add_device("chip-a2", core::TrustEvaluator{fitted()});
  core::RuntimeMonitor standalone{kFs, core::TrustEvaluator{fitted()}, mon};

  emts::Rng rng{300};
  for (std::size_t t = 0; t < 3 * mon.spectral_window; ++t) {
    core::Trace trace = t < mon.spectral_window ? golden_trace(rng) : a2_trace(rng);
    standalone.push(trace);
    EXPECT_EQ(fleet.submit("chip-a2", std::move(trace)), SubmitResult::kAccepted);
  }
  fleet.flush();
  ASSERT_EQ(standalone.state(), core::MonitorState::kAlarm);

  const FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.sessions.size(), 1u);
  const SessionStats& session = stats.sessions[0];
  EXPECT_EQ(stats.devices_alarm, 1u);
  EXPECT_EQ(session.state, core::MonitorState::kAlarm);
  EXPECT_EQ(session.last_score, standalone.last_score());
  const core::MonitorStats& expect = standalone.stats();
  EXPECT_EQ(session.monitor.per_trace_anomalies, 0u);
  EXPECT_EQ(session.monitor.per_trace_anomalies, expect.per_trace_anomalies);
  EXPECT_EQ(session.monitor.spectral_passes, expect.spectral_passes);
  EXPECT_EQ(session.monitor.windowed_anomalies, expect.windowed_anomalies);
  EXPECT_EQ(session.monitor.alarms_latched, 1u);

  const std::vector<core::MonitorEvent> want = standalone.drain_events();
  const std::vector<FleetEvent> got = fleet.drain_events();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].event.kind, want[i].kind);
    EXPECT_EQ(got[i].event.trace_index, want[i].trace_index);
    EXPECT_EQ(got[i].event.value, want[i].value);
  }
  // The second anomalous window's closing push latches.
  EXPECT_EQ(want.back().kind, core::MonitorEventKind::kAlarmLatched);
  EXPECT_EQ(want.back().trace_index, 3 * mon.spectral_window);
}

// ---------- backpressure (deterministic via pause()) ----------

TEST(FleetMonitor, RejectPolicyRefusesWhenSaturated) {
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 4;
  opt.backpressure = BackpressurePolicy::kReject;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  emts::Rng rng{7};
  std::vector<core::Trace> traces;
  for (std::size_t i = 0; i < 7; ++i) traces.push_back(golden_trace(rng));

  fleet.pause();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.submit("dev", core::Trace{traces[i]}), SubmitResult::kAccepted);
  }
  for (std::size_t i = 4; i < 7; ++i) {
    EXPECT_EQ(fleet.submit("dev", core::Trace{traces[i]}), SubmitResult::kRejected);
  }

  const FleetStats saturated = fleet.stats();
  EXPECT_EQ(saturated.shards[0].queue_depth, 4u);
  EXPECT_EQ(saturated.shards[0].queue_high_water, 4u);
  EXPECT_EQ(saturated.shards[0].submitted, 4u);
  EXPECT_EQ(saturated.shards[0].rejected_full, 3u);
  EXPECT_EQ(saturated.backpressure_rejected, 3u);

  fleet.resume();
  fleet.flush();
  const FleetStats drained = fleet.stats();
  EXPECT_EQ(drained.traces_processed, 4u);
  EXPECT_EQ(drained.shards[0].queue_depth, 0u);
  EXPECT_EQ(drained.sessions[0].monitor.traces_ingested, 4u);
}

TEST(FleetMonitor, DropOldestPolicyEvictsButStaysBounded) {
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 4;
  opt.backpressure = BackpressurePolicy::kDropOldest;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  const core::TraceSet traces = make_set(7, false, 8);
  fleet.pause();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.submit("dev", core::Trace{traces.traces[i]}), SubmitResult::kAccepted);
  }
  for (std::size_t i = 4; i < 7; ++i) {
    EXPECT_EQ(fleet.submit("dev", core::Trace{traces.traces[i]}),
              SubmitResult::kReplacedOldest);
  }

  const FleetStats saturated = fleet.stats();
  EXPECT_EQ(saturated.shards[0].queue_depth, 4u);  // bounded despite 7 submits
  EXPECT_EQ(saturated.shards[0].submitted, 7u);
  EXPECT_EQ(saturated.shards[0].dropped_oldest, 3u);
  EXPECT_EQ(saturated.backpressure_dropped, 3u);

  fleet.resume();
  fleet.flush();
  const FleetStats drained = fleet.stats();
  EXPECT_EQ(drained.traces_processed, 4u);  // only the survivors were scored
  EXPECT_EQ(drained.sessions[0].monitor.traces_ingested, 4u);

  // The survivors are the four newest traces, still in order: a standalone
  // monitor fed only those must agree bit for bit.
  core::RuntimeMonitor standalone{kFs, core::TrustEvaluator{fitted()}, small_options()};
  for (std::size_t i = 3; i < 7; ++i) standalone.push(traces.traces[i]);
  EXPECT_EQ(drained.sessions[0].monitor.scored_captures, 4u);
  ASSERT_TRUE(drained.sessions[0].last_score.has_value());
  EXPECT_EQ(*drained.sessions[0].last_score, *standalone.last_score());
}

TEST(FleetMonitor, BlockPolicyAppliesFlowControl) {
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 2;
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  emts::Rng rng{9};
  fleet.pause();
  EXPECT_EQ(fleet.submit("dev", golden_trace(rng)), SubmitResult::kAccepted);
  EXPECT_EQ(fleet.submit("dev", golden_trace(rng)), SubmitResult::kAccepted);

  std::atomic<int> result{-1};
  std::thread producer([&] {
    result.store(static_cast<int>(fleet.submit("dev", golden_trace(rng))),
                 std::memory_order_release);
  });
  // The producer found the queue full and is parked; `blocked` flips exactly
  // when it commits to waiting.
  while (fleet.stats().shards[0].blocked == 0) std::this_thread::yield();
  EXPECT_EQ(result.load(std::memory_order_acquire), -1);

  fleet.resume();
  producer.join();
  EXPECT_EQ(result.load(), static_cast<int>(SubmitResult::kAccepted));

  fleet.flush();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, 3u);
  EXPECT_EQ(stats.shards[0].blocked, 1u);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  EXPECT_EQ(stats.backpressure_rejected, 0u);
}

// ---------- fault injection ----------

TEST(FleetMonitor, MalformedCapturesAreRejectedAndDeviceTagged) {
  FleetOptions opt;
  opt.shards = 2;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("good", core::TrustEvaluator{fitted()});
  fleet.add_device("bad", core::TrustEvaluator{fitted()});

  emts::Rng rng{11};
  for (std::size_t i = 0; i < 4; ++i) fleet.submit("good", golden_trace(rng));

  fleet.submit("bad", golden_trace(rng));  // pins the stream shape
  core::Trace truncated(kLen / 2, 0.25);
  fleet.submit("bad", std::move(truncated));
  core::Trace poisoned = golden_trace(rng);
  poisoned[5] = std::numeric_limits<double>::quiet_NaN();
  fleet.submit("bad", std::move(poisoned));
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_rejected_invalid, 2u);
  ASSERT_EQ(stats.sessions.size(), 2u);
  const SessionStats& bad = stats.sessions[0];   // "bad" < "good"
  const SessionStats& good = stats.sessions[1];
  ASSERT_EQ(bad.device_id, "bad");
  EXPECT_EQ(bad.monitor.traces_ingested, 3u);
  EXPECT_EQ(bad.monitor.traces_rejected, 2u);
  EXPECT_EQ(bad.monitor.scored_captures, 1u);
  EXPECT_EQ(good.monitor.traces_rejected, 0u);
  EXPECT_EQ(good.monitor.scored_captures, 4u);

  bool saw_shape = false;
  bool saw_non_finite = false;
  for (const FleetEvent& event : fleet.drain_events()) {
    if (event.event.kind == core::MonitorEventKind::kTraceRejectedShape) {
      EXPECT_EQ(event.device_id, "bad");
      EXPECT_EQ(event.event.value, static_cast<double>(kLen / 2));
      saw_shape = true;
    }
    if (event.event.kind == core::MonitorEventKind::kTraceRejectedNonFinite) {
      EXPECT_EQ(event.device_id, "bad");
      EXPECT_EQ(event.event.value, 5.0);
      saw_non_finite = true;
    }
  }
  EXPECT_TRUE(saw_shape);
  EXPECT_TRUE(saw_non_finite);
}

// ---------- alarm lifecycle ----------

TEST(FleetMonitor, AcknowledgeAlarmRearmsOneDevice) {
  FleetOptions opt;
  opt.shards = 1;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("dev", core::TrustEvaluator{fitted()});

  emts::Rng rng{12};
  for (std::size_t i = 0; i < 8; ++i) fleet.submit("dev", infected_trace(rng));
  fleet.flush();
  EXPECT_EQ(fleet.device_state("dev"), core::MonitorState::kAlarm);
  EXPECT_EQ(fleet.stats().devices_alarm, 1u);

  fleet.acknowledge_alarm("dev");
  EXPECT_EQ(fleet.device_state("dev"), core::MonitorState::kMonitoring);
  EXPECT_EQ(fleet.stats().devices_alarm, 0u);
  EXPECT_THROW(fleet.acknowledge_alarm("dev"), emts::precondition_error);
}

// ---------- preconditions ----------

TEST(FleetMonitor, PreconditionsThrow) {
  {
    FleetOptions opt;
    opt.shards = 0;
    EXPECT_THROW(FleetMonitor{opt}, emts::precondition_error);
  }
  {
    FleetOptions opt;
    opt.queue_capacity = 0;
    EXPECT_THROW(FleetMonitor{opt}, emts::precondition_error);
  }

  FleetMonitor fleet{FleetOptions{}};
  EXPECT_THROW(fleet.add_device("", core::TrustEvaluator{fitted()}),
               emts::precondition_error);
  fleet.add_device("dev", core::TrustEvaluator{fitted()});
  EXPECT_THROW(fleet.add_device("dev", core::TrustEvaluator{fitted()}),
               emts::precondition_error);

  emts::Rng rng{13};
  EXPECT_THROW(fleet.submit("ghost", golden_trace(rng)), emts::precondition_error);
  EXPECT_THROW(fleet.submit("dev", core::Trace{}), emts::precondition_error);
  EXPECT_THROW(fleet.device_state("ghost"), emts::precondition_error);
  EXPECT_THROW(fleet.acknowledge_alarm("ghost"), emts::precondition_error);
}

// ---------- concurrency (the TSan target) ----------

TEST(FleetMonitor, ConcurrentProducersAndObserversAreSafe) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kDevicesPerProducer = 2;
  constexpr std::size_t kTracesPerDevice = 20;

  FleetOptions opt;
  opt.shards = 4;
  opt.queue_capacity = 4;  // small on purpose: exercise the kBlock wait path
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};

  std::vector<std::string> ids;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t d = 0; d < kDevicesPerProducer; ++d) {
      ids.push_back("chip-" + std::to_string(p) + "-" + std::to_string(d));
      fleet.add_device(ids.back(), core::TrustEvaluator{fitted()});
    }
  }

  std::atomic<bool> done{false};
  std::thread observer([&] {
    // Live observability must not perturb or race the hot path.
    std::vector<FleetEvent> sink;
    while (!done.load(std::memory_order_acquire)) {
      const FleetStats stats = fleet.stats();
      EXPECT_LE(stats.traces_processed, stats.traces_submitted);
      fleet.drain_events(sink);
      fleet.device_state(ids.front());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // One producer per device group keeps per-device submission ordered.
      emts::Rng rng{200 + p};
      for (std::size_t t = 0; t < kTracesPerDevice; ++t) {
        for (std::size_t d = 0; d < kDevicesPerProducer; ++d) {
          fleet.submit(ids[p * kDevicesPerProducer + d], golden_trace(rng));
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  fleet.flush();
  done.store(true, std::memory_order_release);
  observer.join();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_submitted, kProducers * kDevicesPerProducer * kTracesPerDevice);
  EXPECT_EQ(stats.traces_processed, stats.traces_submitted);
  ASSERT_EQ(stats.sessions.size(), ids.size());
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.monitor.traces_ingested, kTracesPerDevice);
    EXPECT_EQ(session.monitor.traces_rejected, 0u);
  }
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.worker_faults, 0u);
    EXPECT_LE(shard.queue_high_water, opt.queue_capacity);
  }
}

// ---------- wire-frame ingest (the daemon entry point) ----------

TEST(FleetMonitor, SubmitFrameRoutesLikeSubmit) {
  FleetOptions opt;
  opt.shards = 2;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("chip-00", fitted());
  emts::Rng rng{40};

  io::wire::TraceFrame frame;
  frame.device_id = "chip-00";
  frame.sample_rate = kFs;
  frame.trace = golden_trace(rng);
  EXPECT_EQ(fleet.submit_frame(std::move(frame)), SubmitResult::kAccepted);
  fleet.flush();
  const FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].monitor.scored_captures, 1u);
}

TEST(FleetMonitor, SubmitFrameRefusesUnknownDeviceAndRateMismatch) {
  FleetOptions opt;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("chip-00", fitted());
  emts::Rng rng{41};

  io::wire::TraceFrame ghost;
  ghost.device_id = "ghost";
  ghost.sample_rate = kFs;
  ghost.trace = golden_trace(rng);
  EXPECT_THROW(fleet.submit_frame(std::move(ghost)), emts::precondition_error);

  io::wire::TraceFrame wrong_rate;
  wrong_rate.device_id = "chip-00";
  wrong_rate.sample_rate = kFs * 2;
  wrong_rate.trace = golden_trace(rng);
  EXPECT_THROW(fleet.submit_frame(std::move(wrong_rate)), emts::precondition_error);

  io::wire::TraceFrame empty;
  empty.device_id = "chip-00";
  empty.sample_rate = kFs;
  EXPECT_THROW(fleet.submit_frame(std::move(empty)), emts::precondition_error);

  // A refused frame must not have perturbed the session.
  fleet.flush();
  EXPECT_EQ(fleet.stats().traces_submitted, 0u);
}

// ---------- pause/resume/flush racing blocking producers (tsan target) ----

TEST(FleetMonitor, PauseResumeFlushRaceWithBlockingProducers) {
  // Control-plane operations (pause, resume, flush — the snapshot quiesce
  // machinery) race four kBlock producers hammering tiny queues. The
  // invariant: no trace is ever lost and the accounting stays exact, no
  // matter how the quiesce interleaves with blocked submitters.
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;  // small: producers block constantly
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 48;
  for (std::size_t p = 0; p < kProducers; ++p) {
    fleet.add_device("chip-" + std::to_string(p), fitted());
  }

  std::atomic<bool> stop_control{false};
  std::thread control{[&] {
    while (!stop_control.load()) {
      fleet.pause();
      std::this_thread::yield();
      fleet.resume();
      // flush() only after resume: a paused worker never drains, and the
      // barrier would deadlock against our own blocked producers.
      fleet.flush();
    }
  }};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&fleet, p] {
      emts::Rng rng{100 + p};
      const std::string id = "chip-" + std::to_string(p);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        fleet.submit(id, golden_trace(rng));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop_control = true;
  control.join();
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.traces_processed, kProducers * kPerProducer);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  EXPECT_EQ(stats.backpressure_rejected, 0u);
  ASSERT_EQ(stats.sessions.size(), kProducers);
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.monitor.scored_captures, kPerProducer);
    EXPECT_EQ(session.monitor.traces_rejected, 0u);
  }
  std::uint64_t shard_processed = 0;
  for (const ShardStats& shard : stats.shards) shard_processed += shard.processed;
  EXPECT_EQ(shard_processed, kProducers * kPerProducer);
}

TEST(FleetMonitor, SnapshotRacesBlockingProducers) {
  // snapshot() = flush + pause + copy + resume while kBlock producers keep
  // submitting: every producer lands wholly before or after the cut, and the
  // fleet keeps running afterwards.
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("chip-0", fitted());
  fleet.add_device("chip-1", fitted());

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&fleet, p] {
      emts::Rng rng{200 + p};
      const std::string id = "chip-" + std::to_string(p);
      for (std::size_t i = 0; i < 32; ++i) fleet.submit(id, golden_trace(rng));
    });
  }
  std::vector<io::FleetSnapshot> cuts;
  for (int s = 0; s < 3; ++s) cuts.push_back(fleet.snapshot());
  for (std::thread& t : producers) t.join();
  fleet.flush();

  for (const io::FleetSnapshot& cut : cuts) {
    ASSERT_EQ(cut.devices.size(), 2u);
    // Each snapshot is a consistent cut: whatever it saw had been fully
    // scored (ingested == scored, nothing half-processed).
    for (const io::FleetSnapshot::Device& device : cut.devices) {
      EXPECT_EQ(device.monitor.stats.traces_ingested,
                device.monitor.stats.scored_captures);
      EXPECT_LE(device.monitor.stats.scored_captures, 32u);
    }
  }
  EXPECT_EQ(fleet.stats().traces_processed, 64u);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(FleetMonitor, IncrementalCutsRacingDrainsAndAcksStayByteExact) {
  // Dirty marks are set by drain_events/acknowledge_alarm on a control
  // thread while a producer streams and the main thread cuts incrementally,
  // as a daemon with a live control plane would. Every mark is taken under
  // the session's exec lock, so once traffic stops the last incremental
  // file must equal a full rewrite.
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("golden", fitted());
  fleet.add_device("idle", fitted());
  fleet.add_device("infected", fitted());

  std::atomic<bool> streaming{true};
  std::thread producer{[&] {
    const core::TraceSet golden = make_set(24, false, 40);
    const core::TraceSet infected = make_set(24, true, 41);
    for (std::size_t t = 0; t < golden.size(); ++t) {
      fleet.submit("golden", core::Trace{golden.traces[t]});
      fleet.submit("infected", core::Trace{infected.traces[t]});
    }
    streaming = false;
  }};
  std::thread control{[&] {
    while (streaming) {
      fleet.drain_events();
      try {
        fleet.acknowledge_alarm("infected");
      } catch (const emts::precondition_error&) {
        // Not latched right now; the next anomaly run latches it again.
      }
    }
  }};

  test_support::ScratchDir scratch;
  const std::string path = scratch.path("fleet.emfs");
  io::FleetSnapshotRecordCache cache;
  io::SnapshotSaveStats stats;
  std::uint64_t reused = 0;
  for (int cut = 0; cut < 6; ++cut) {
    const SnapshotMode mode =
        cache.records.empty() ? SnapshotMode::kFull : SnapshotMode::kIncremental;
    io::save_fleet_snapshot(path, fleet.snapshot(mode), cache, &stats);
    reused += stats.records_reused;
  }
  producer.join();
  control.join();
  fleet.flush();
  io::save_fleet_snapshot(path, fleet.snapshot(SnapshotMode::kIncremental), cache, &stats);
  reused += stats.records_reused;
  EXPECT_GE(reused, 6u);  // the idle device never moves

  const std::string full_path = scratch.path("full.emfs");
  io::save_fleet_snapshot(full_path, fleet.snapshot(SnapshotMode::kFull));
  EXPECT_EQ(read_file(path), read_file(full_path));
}

TEST(FleetMonitor, FlushOnIdleFleetReturnsImmediately) {
  FleetMonitor fleet{FleetOptions{}};
  fleet.flush();
  fleet.pause();
  fleet.resume();
  fleet.flush();
  EXPECT_EQ(fleet.stats().traces_submitted, 0u);
}

// ---------- producers vs flush on the lock-free queue (tsan target) ----------

// Hammers the lock-free ring from four producers while the main thread
// runs the whole control plane (flush/pause/resume/stats/drain) against it.
// Under TSan this exercises the ring's acquire/release publication chain and
// the park/wake fences; the exact totals prove nothing was lost, duplicated,
// or scored out of order.
TEST(FleetMonitor, ProducersVsFlushStressOnLockFreeQueue) {
  const core::RuntimeMonitor::Options mon = small_options();
  FleetOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4;  // tiny on purpose: constant kBlock contention
  opt.backpressure = BackpressurePolicy::kBlock;
  opt.monitor = mon;
  FleetMonitor fleet{opt};

  static constexpr std::size_t kProducers = 4;
  static constexpr std::size_t kChunks = 6;
  static constexpr std::size_t kChunk = 8;
  for (std::size_t p = 0; p < kProducers; ++p) {
    fleet.add_device("chip-" + std::to_string(p), core::TrustEvaluator{fitted()});
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&fleet, p] {
      const std::string id = "chip-" + std::to_string(p);
      for (std::size_t c = 0; c < kChunks; ++c) {
        const core::TraceSet chunk = make_set(kChunk, false, 700 + p * 100 + c);
        for (const core::Trace& trace : chunk.traces) {
          EXPECT_EQ(fleet.submit(id, core::Trace{trace}), SubmitResult::kAccepted);
        }
      }
    });
  }

  for (int round = 0; round < 10; ++round) {
    fleet.flush();
    fleet.pause();
    (void)fleet.stats();
    fleet.resume();
    std::vector<FleetEvent> events;
    fleet.drain_events(events);
  }
  for (std::thread& t : producers) t.join();
  fleet.flush();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_submitted, kProducers * kChunks * kChunk);
  EXPECT_EQ(stats.traces_processed, kProducers * kChunks * kChunk);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  EXPECT_EQ(stats.backpressure_rejected, 0u);
  for (const SessionStats& session : stats.sessions) {
    EXPECT_EQ(session.monitor.traces_ingested, kChunks * kChunk);
  }
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.worker_faults, 0u);
    EXPECT_LE(shard.queue_high_water, opt.queue_capacity);
  }
}

// ---------- worker pinning ----------

TEST(FleetMonitor, PinnedWorkersProcessNormally) {
  FleetOptions opt;
  opt.shards = 2;
  opt.pin_workers = true;  // best-effort affinity; must never change results
  opt.monitor = small_options();
  FleetMonitor fleet{opt};
  fleet.add_device("chip-00", core::TrustEvaluator{fitted()});

  const core::TraceSet batch = make_set(6, false, 80);
  for (const core::Trace& trace : batch.traces) {
    EXPECT_EQ(fleet.submit("chip-00", core::Trace{trace}), SubmitResult::kAccepted);
  }
  fleet.flush();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.traces_processed, 6u);
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].monitor.scored_captures, 6u);
}

}  // namespace
}  // namespace emts::fleet
