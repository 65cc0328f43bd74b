// Multicore fleet-scaling rig: a load generator that drives FleetMonitor
// from producer threads with per-trace submit() and sweeps shards x devices
// x backpressure policy x producers, measuring sustained scored-traces/sec
// per configuration. Every row is the median of kRepeats runs, reported
// with the min and max. Every row records whether the run was
// oversubscribed (producers + shard workers > hardware threads); an
// oversubscribed row measures contention, not capacity, and the JSON says
// so (hardware_threads is the first key for exactly that reason, matching
// BENCH_daemon.json). The sweep includes rows that fit the machine
// (producers + shards <= hardware threads) whenever it has 2 or more.
//
// The rig also re-proves the fleet's core guarantee: a bit-identity pass
// feeds each device's stream from its own producer thread through a small
// kBlock queue and compares per-device results (last score, counters,
// state) against standalone RuntimeMonitors. The process exits non-zero on
// any mismatch, so a recorded BENCH_fleet_scale.json implies the exact-EQ
// guarantee held on that machine.
//
// Usage: perf_fleet_scale [out.json] [--smoke]
//   --smoke: one small configuration (CI). The CI step reads the emitted
//   JSON and asserts the bit-identity pass and a nonzero rate per row.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace emts;

namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kRepeats = 5;  // odd, so the median is one run

core::Trace golden_trace(Rng& rng) {
  core::Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

core::TraceSet make_set(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  core::TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) set.add(golden_trace(rng));
  return set;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string device_id(std::size_t d) { return "chip-" + std::to_string(d); }

struct Row {
  std::size_t shards = 0;
  std::size_t devices = 0;
  const char* policy = "BLOCK";
  std::size_t producers = 0;
  double traces_per_sec = 0.0;  // median over kRepeats runs
  double traces_per_sec_min = 0.0;
  double traces_per_sec_max = 0.0;
  std::uint64_t processed = 0;  // in the median run
  bool oversubscribed = false;
  bool pinned = false;
};

/// One measured configuration: `producers` threads partition the devices
/// and each submits `stream` to every device it owns, trace-major and
/// device-minor (interleaved arrival across its devices, the shape a shared
/// capture front-end produces).
Row run_row(const core::TrustEvaluator& evaluator, const core::TraceSet& stream,
            std::size_t shards, std::size_t devices, std::size_t producers,
            fleet::BackpressurePolicy policy, unsigned hardware_threads) {
  Row row;
  row.shards = shards;
  row.devices = devices;
  row.policy = fleet::backpressure_label(policy);
  row.producers = producers;
  row.pinned = hardware_threads > 1 && shards <= hardware_threads;
  row.oversubscribed = hardware_threads > 0 && producers + shards > hardware_threads;

  std::vector<std::string> ids;
  for (std::size_t d = 0; d < devices; ++d) ids.push_back(device_id(d));

  struct Run {
    double rate = 0.0;
    std::uint64_t processed = 0;
  };
  std::vector<Run> runs;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    fleet::FleetOptions options;
    options.shards = shards;
    options.queue_capacity = kQueueCapacity;
    options.backpressure = policy;
    options.pin_workers = row.pinned;
    fleet::FleetMonitor fleet{options};
    for (const std::string& id : ids) fleet.add_device(id, evaluator);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (const core::Trace& trace : stream.traces) {
          for (std::size_t d = p; d < devices; d += producers) {
            (void)fleet.submit(ids[d], core::Trace{trace});
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    fleet.flush();
    const double elapsed = seconds_since(t0);

    // Scored traces per second: under REJECT/DROP_OLDEST the queue sheds
    // load, so the processed count (not the offered count) is the honest
    // numerator.
    const std::uint64_t processed = fleet.stats().traces_processed;
    runs.push_back({static_cast<double>(processed) / elapsed, processed});
  }
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.rate < b.rate; });
  row.traces_per_sec = runs[runs.size() / 2].rate;
  row.processed = runs[runs.size() / 2].processed;
  row.traces_per_sec_min = runs.front().rate;
  row.traces_per_sec_max = runs.back().rate;
  return row;
}

/// Bit-identity pass: one producer thread per device streams it per trace
/// through a 4-slot kBlock queue (constant flow control), and every device
/// must end with the exact results a standalone RuntimeMonitor produces.
/// Returns false (and prints the offender) on any mismatch.
bool verify_bit_identity(const core::TrustEvaluator& evaluator) {
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kPerDevice = 24;

  fleet::FleetOptions options;
  options.shards = 2;
  options.queue_capacity = 4;
  options.backpressure = fleet::BackpressurePolicy::kBlock;
  fleet::FleetMonitor fleet{options};

  std::vector<core::RuntimeMonitor> standalone;
  std::vector<core::TraceSet> streams;
  for (std::size_t d = 0; d < kDevices; ++d) {
    fleet.add_device(device_id(d), evaluator);
    standalone.emplace_back(kFs, core::TrustEvaluator{evaluator},
                            core::RuntimeMonitor::Options{});
    streams.push_back(make_set(kPerDevice, 500 + d));
  }

  std::vector<std::thread> producers;
  for (std::size_t d = 0; d < kDevices; ++d) {
    producers.emplace_back([&, d] {
      for (const core::Trace& trace : streams[d].traces) {
        (void)fleet.submit(device_id(d), core::Trace{trace});
      }
    });
  }
  for (std::thread& t : producers) t.join();
  fleet.flush();
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (const core::Trace& trace : streams[d].traces) standalone[d].push(trace);
  }

  const fleet::FleetStats stats = fleet.stats();
  for (std::size_t d = 0; d < kDevices; ++d) {
    const fleet::SessionStats& session = stats.sessions[d];
    const core::MonitorStats& expect = standalone[d].stats();
    const bool score_ok =
        session.last_score.has_value() == standalone[d].last_score().has_value() &&
        (!session.last_score.has_value() ||
         *session.last_score == *standalone[d].last_score());  // exact EQ
    if (!score_ok || session.state != standalone[d].state() ||
        session.monitor.scored_captures != expect.scored_captures ||
        session.monitor.per_trace_anomalies != expect.per_trace_anomalies ||
        session.monitor.alarms_latched != expect.alarms_latched) {
      std::fprintf(stderr, "BIT-IDENTITY MISMATCH on %s\n", session.device_id.c_str());
      return false;
    }
  }
  return true;
}

double find_rate(const std::vector<Row>& rows, std::size_t shards, std::size_t devices,
                 std::size_t producers) {
  for (const Row& row : rows) {
    if (row.shards == shards && row.devices == devices && row.producers == producers &&
        std::strcmp(row.policy, "BLOCK") == 0) {
      return row.traces_per_sec;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fleet_scale.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("perf_fleet_scale: %u hardware threads%s\n", hardware_threads,
              smoke ? " (smoke)" : "");
  const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(make_set(30, 1));

  const bool bit_identical = verify_bit_identity(evaluator);
  std::printf("  bit-identity vs standalone monitors: %s\n",
              bit_identical ? "PASS" : "FAIL");

  const core::TraceSet stream = make_set(smoke ? 48 : 512, 42);
  std::vector<Row> rows;
  const auto sweep = [&](std::size_t shards, std::size_t devices, std::size_t producers,
                         fleet::BackpressurePolicy policy) {
    const Row row =
        run_row(evaluator, stream, shards, devices, producers, policy, hardware_threads);
    std::printf("  shards %zu devices %2zu producers %zu %-11s: %7.0f traces/s"
                " [%.0f, %.0f]%s\n",
                row.shards, row.devices, row.producers, row.policy, row.traces_per_sec,
                row.traces_per_sec_min, row.traces_per_sec_max,
                row.oversubscribed ? " (oversubscribed)" : "");
    if (row.oversubscribed) {
      std::fprintf(stderr,
                   "warning: %zu producers + %zu shards exceed %u hardware threads —"
                   " this row measures contention, not capacity\n",
                   row.producers, row.shards, hardware_threads);
    }
    rows.push_back(row);
  };

  if (smoke) {
    sweep(2, 8, 4, fleet::BackpressurePolicy::kBlock);
  } else {
    // The scaling story under BLOCK: four producers against 1, 2, 4 shards.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t devices : {std::size_t{4}, std::size_t{16}}) {
        sweep(shards, devices, 4, fleet::BackpressurePolicy::kBlock);
      }
    }
    // Rows that fit the machine: producers + shards <= hardware threads.
    if (hardware_threads >= 2) {
      sweep(1, 16, 1, fleet::BackpressurePolicy::kBlock);
      for (std::size_t shards = 1; shards < std::min<std::size_t>(hardware_threads, 5);
           ++shards) {
        const std::size_t producers = std::min<std::size_t>(hardware_threads - shards, 4);
        if (shards == 1 && producers == 1) continue;  // already swept
        sweep(shards, 16, producers, fleet::BackpressurePolicy::kBlock);
      }
    }
    // Policy behavior at the largest configuration.
    for (const fleet::BackpressurePolicy policy :
         {fleet::BackpressurePolicy::kDropOldest, fleet::BackpressurePolicy::kReject}) {
      sweep(4, 16, 4, policy);
    }
  }

  // 1 -> 4 shard speedup at 16 devices and four producers (0 in smoke mode).
  const double one_shard = find_rate(rows, 1, 16, 4);
  const double speedup = one_shard > 0.0 ? find_rate(rows, 4, 16, 4) / one_shard : 0.0;
  if (!smoke) {
    std::printf("  1->4 shard speedup at 16 devices (BLOCK, 4 producers): %.2fx\n", speedup);
  }

  std::ofstream out{out_path};
  out << "{\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"trace_samples\": " << kLen << ",\n";
  out << "  \"traces_per_device\": " << stream.size() << ",\n";
  out << "  \"queue_capacity\": " << kQueueCapacity << ",\n";
  out << "  \"repetitions\": " << kRepeats << ",\n";
  out << "  \"bit_identical_to_standalone\": " << (bit_identical ? "true" : "false")
      << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"shards\": " << row.shards << ", \"devices\": " << row.devices
        << ", \"policy\": \"" << row.policy << "\", \"producers\": " << row.producers
        << ", \"traces_per_sec\": " << row.traces_per_sec
        << ", \"traces_per_sec_min\": " << row.traces_per_sec_min
        << ", \"traces_per_sec_max\": " << row.traces_per_sec_max
        << ", \"processed\": " << row.processed
        << ", \"oversubscribed\": " << (row.oversubscribed ? "true" : "false")
        << ", \"pinned\": " << (row.pinned ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedup_1_to_4_shards_at_16_devices_block\": " << speedup << "\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return bit_identical ? 0 : 1;
}
