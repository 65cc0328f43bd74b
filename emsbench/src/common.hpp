// Shared plumbing of the EMSentry benchmark: command line, clocks, raw-sample
// percentiles, the in-memory span recorder of traced runs, the workload world
// every workload builds (chip, fitted evaluator, capture pools) and the
// result record main.cpp prints. Everything here is benchmark code; the library is only
// called through its public headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "core/trace.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "trojan/trojan.hpp"

namespace emsbench {

namespace core = emts::core;
namespace sim = emts::sim;
namespace trojan = emts::trojan;

/// Threads a workload may run at once, the calling thread included.
inline constexpr std::size_t kMaxThreads = 4;
/// Capture-engine workers while array_localize runs: the calling thread only
/// waits for a batch.
inline constexpr std::size_t kEngineThreads = kMaxThreads - 1;
/// Set-up captures run inline on the calling thread: a parallel set-up
/// tracked host load about twice as strongly as the single-threaded work.
inline constexpr std::size_t kSetupEngineThreads = 1;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";   // spans and snapshots land here
  std::string git_rev = "unknown";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]
/// [--git-rev R]`; throws std::runtime_error on anything else.
Args parse_args(int argc, char** argv);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank quantile of raw samples (q in [0, 1]); sorts a copy. 0 when
/// there are no samples.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);  // 0 when empty

/// Highest of p50, p90, p99, p99.9, p99.99 that leaves at least ten samples
/// beyond it (0 when even p50 does not).
double supported_percentile(std::size_t samples);

/// Peak resident set size of this process, MiB (VmHWM).
double peak_rss_mb();

/// Filesystem type name of the directory `path` lives on ("ext4", "tmpfs",
/// "overlay", ... or the hex magic).
std::string filesystem_type(const std::string& path);

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into each layer, kept in memory and
// written out once the run ends. A span carries the identifier of the frame,
// push or bundle it belongs to, so every layer's share of one operation can
// be joined back together.

struct Span {
  std::uint32_t name = 0;  // index into the recorder's name table
  std::uint64_t op = 0;    // per-frame / per-push / per-bundle identifier
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_{enabled} {}

  /// Stable id of a span name (registered on first use).
  std::uint32_t intern(const std::string& name);

  /// Records a finished span; returns its index (-1 when disabled).
  std::int32_t add(std::uint32_t name, std::uint64_t op, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1);

  /// Durations (µs) of every span with this name.
  std::vector<double> durations_us(const std::string& name) const;

  /// Writes every span as one CSV line: name,op,start_ns,end_ns,parent.
  void write_csv(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs. A world is what every workload's set-up builds from the seed: a
// chip, an evaluator fitted on golden captures, a pool of golden runtime
// captures and one burst of armed captures per Trojan. Captures are pure in
// (seed, trace index, armed Trojan), so the same seed gives the same inputs.

struct WorldSpec {
  std::size_t golden_pool = 256;
  std::size_t burst = 32;            // armed captures per Trojan
  std::size_t calibration = 64;
  std::size_t slice = 0;             // 0 = whole capture, else first N samples
};

struct World {
  double sample_rate = 0.0;
  std::size_t trace_samples = 0;
  core::TrustEvaluator evaluator;
  std::vector<core::Trace> golden;                 // runtime golden pool
  std::vector<std::vector<core::Trace>> armed;     // [trojan][burst index]
};

/// The chip configuration of a seed (its noise realizations and die).
sim::ChipConfig chip_config(std::uint64_t seed);

World build_world(std::uint64_t seed, const WorldSpec& spec, const sim::CaptureEngine& engine);

/// Lifetime counters of a monitor that the correctness gate compares.
struct MonitorFingerprint {
  core::MonitorState state{};
  std::optional<double> last_score;
  std::uint64_t traces_ingested = 0;
  std::uint64_t traces_rejected = 0;
  std::uint64_t scored_captures = 0;
  std::uint64_t per_trace_anomalies = 0;
  std::uint64_t spectral_passes = 0;
  std::uint64_t windowed_anomalies = 0;
  std::uint64_t alarms_latched = 0;
  std::uint64_t alarms_acknowledged = 0;

  bool operator==(const MonitorFingerprint&) const = default;
};

MonitorFingerprint fingerprint(core::MonitorState state, const std::optional<double>& last_score,
                               const core::MonitorStats& stats);
MonitorFingerprint fingerprint(const core::RuntimeMonitor& monitor);
std::string describe(const MonitorFingerprint& f);

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;       // why `correct` is false
  // Every figure the run produced; run.py keeps the ones BENCHMARK.json names.
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> header;  // self-description, as JSON values

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void describe_num(const std::string& key, double value);
  void describe_str(const std::string& key, const std::string& value);
};

/// Samples per window of the reported p99 (see summarize_latency).
inline constexpr std::size_t kLatencyWindowSamples = 2000;

/// Latency summary from raw samples in arrival order (µs), into `result`
/// under `prefix`: p50 of the whole run; p99 as the median of the p99s of
/// consecutive kLatencyWindowSamples-sample windows; beside them the worst
/// window's p99, the whole-run p99, the sample count, and the highest
/// percentile the count supports (ten samples beyond it) with its value.
void summarize_latency(Result& result, const std::string& prefix, std::vector<double> samples_us);

/// Per-layer summaries of one span name: `<metric>` = median µs (and
/// `<metric>_p99` when `with_p99`).
void layer_from_spans(Result& result, const SpanRecorder& spans, const std::string& span,
                      const std::string& metric, bool with_p99 = false);

std::string trojan_name(trojan::TrojanKind kind);

}  // namespace emsbench
