#include "common.hpp"

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace emsbench {

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::runtime_error(std::string{"missing value for "} + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = value(i);
    } else if (flag == "--seed") {
      args.seed = std::stoull(value(i));
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value(i));
    } else if (flag == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value(i);
    } else if (flag == "--git-rev") {
      args.git_rev = value(i);
    } else {
      throw std::runtime_error("unknown argument " + flag);
    }
  }
  if (args.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(args.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
  return args;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : std::accumulate(samples.begin(), samples.end(), 0.0) /
                               static_cast<double>(samples.size());
}

double supported_percentile(std::size_t samples) {
  const double n = static_cast<double>(samples);
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields{line.substr(6)};
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x858458f6UL: return "ramfs";
    case 0x794c7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x01021997UL: return "v9fs";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

// ---------------------------------------------------------------------------

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::int32_t SpanRecorder::add(std::uint32_t name, std::uint64_t op, std::int64_t start_ns,
                               std::int64_t end_ns, std::int32_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op, start_ns, end_ns, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::durations_us(const std::string& name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == it->second) out.push_back(ns_to_us(span.end_ns - span.start_ns));
  }
  return out;
}

void SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out{path};
  out << "name,op,start_ns,end_ns,parent\n";
  for (const Span& span : spans_) {
    out << names_[span.name] << ',' << span.op << ',' << span.start_ns << ',' << span.end_ns
        << ',' << span.parent << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// ---------------------------------------------------------------------------

sim::ChipConfig chip_config(std::uint64_t seed) {
  sim::ChipConfig config = sim::make_default_config();
  config.seed = emts::mix64(0xe75b3e4c0ffeeULL ^ seed);
  return config;
}

namespace {

core::Trace slice_of(core::Trace trace, std::size_t slice) {
  if (slice != 0 && slice < trace.size()) trace.resize(slice);
  return trace;
}

std::vector<core::Trace> capture_pool(const sim::CaptureEngine& engine, const sim::Chip& chip,
                                      std::size_t count, std::uint64_t first,
                                      std::size_t slice) {
  core::TraceSet set =
      engine.capture_batch(chip, sim::Pickup::kOnChipSensor, count, first);
  std::vector<core::Trace> out;
  out.reserve(count);
  for (core::Trace& trace : set.traces) out.push_back(slice_of(std::move(trace), slice));
  return out;
}

}  // namespace

World build_world(std::uint64_t seed, const WorldSpec& spec, const sim::CaptureEngine& engine) {
  sim::Chip chip{chip_config(seed)};

  core::TraceSet calibration;
  calibration.sample_rate = chip.sample_rate();
  calibration.add_all(capture_pool(engine, chip, spec.calibration, 0, spec.slice));

  World world{chip.sample_rate(), 0, core::TrustEvaluator::calibrate(calibration), {}, {}};
  world.golden = capture_pool(engine, chip, spec.golden_pool, 1'000'000, spec.slice);
  world.trace_samples = world.golden.front().size();
  for (const trojan::TrojanKind kind : trojan::kAllTrojanKinds) {
    chip.arm(kind);
    world.armed.push_back(capture_pool(engine, chip, spec.burst, 2'000'000, spec.slice));
    chip.disarm_all();
  }
  return world;
}

MonitorFingerprint fingerprint(core::MonitorState state, const std::optional<double>& last_score,
                               const core::MonitorStats& stats) {
  MonitorFingerprint f;
  f.state = state;
  f.last_score = last_score;
  f.traces_ingested = stats.traces_ingested;
  f.traces_rejected = stats.traces_rejected;
  f.scored_captures = stats.scored_captures;
  f.per_trace_anomalies = stats.per_trace_anomalies;
  f.spectral_passes = stats.spectral_passes;
  f.windowed_anomalies = stats.windowed_anomalies;
  f.alarms_latched = stats.alarms_latched;
  f.alarms_acknowledged = stats.alarms_acknowledged;
  return f;
}

MonitorFingerprint fingerprint(const core::RuntimeMonitor& monitor) {
  return fingerprint(monitor.state(), monitor.last_score(), monitor.stats());
}

std::string describe(const MonitorFingerprint& f) {
  char text[384];
  std::snprintf(text, sizeof text,
                "state=%s last_score=%.17g ingested=%llu rejected=%llu scored=%llu "
                "anomalies=%llu passes=%llu windowed=%llu latched=%llu acked=%llu",
                core::monitor_state_label(f.state), f.last_score.value_or(-1.0),
                static_cast<unsigned long long>(f.traces_ingested),
                static_cast<unsigned long long>(f.traces_rejected),
                static_cast<unsigned long long>(f.scored_captures),
                static_cast<unsigned long long>(f.per_trace_anomalies),
                static_cast<unsigned long long>(f.spectral_passes),
                static_cast<unsigned long long>(f.windowed_anomalies),
                static_cast<unsigned long long>(f.alarms_latched),
                static_cast<unsigned long long>(f.alarms_acknowledged));
  return text;
}

// ---------------------------------------------------------------------------

void Result::describe_num(const std::string& key, double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.10g", value);
  header[key] = text;
}

void Result::describe_str(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  header[key] = quoted + "\"";
}

void summarize_latency(Result& result, const std::string& prefix, std::vector<double> samples_us) {
  // The reported p99 is the median over consecutive windows of
  // kLatencyWindowSamples samples of each window's p99 (twenty samples lie
  // beyond it): a scheduler stall on a shared host moves the windows it
  // lands in, not the figure. The whole-run p99 is reported beside it.
  const std::size_t n = samples_us.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kLatencyWindowSamples);
  std::vector<double> window_p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples_us.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto last = samples_us.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    window_p99.push_back(quantile(std::vector<double>(first, last), 0.99));
  }
  const double top = supported_percentile(n);
  std::sort(samples_us.begin(), samples_us.end());
  result.set(prefix + "_p50_us", quantile(samples_us, 0.5), "us");
  result.set(prefix + "_p99_us", median(window_p99), "us");
  result.set(prefix + "_p99_windows", static_cast<double>(windows), "count");
  result.set(prefix + "_p99_worst_window_us",
             window_p99.empty() ? 0.0 : *std::max_element(window_p99.begin(), window_p99.end()),
             "us");
  result.set(prefix + "_p99_whole_run_us", quantile(samples_us, 0.99), "us");
  result.set(prefix + "_samples", static_cast<double>(n), "count");
  result.set(prefix + "_top_percentile", top, "percentile");
  result.set(prefix + "_top_percentile_us", top > 0.0 ? quantile(samples_us, top / 100.0) : 0.0,
             "us");
  result.set(prefix + "_max_us", samples_us.empty() ? 0.0 : samples_us.back(), "us");
}

void layer_from_spans(Result& result, const SpanRecorder& spans, const std::string& span,
                      const std::string& metric, bool with_p99) {
  const std::vector<double> d = spans.durations_us(span);
  if (d.empty()) return;
  if (with_p99) {
    result.set(metric + "_p50", quantile(d, 0.5), "us");
    result.set(metric + "_p99", quantile(d, 0.99), "us");
  } else {
    result.set(metric, median(d), "us");
  }
  result.set(metric + ".samples", static_cast<double>(d.size()), "count");
}

std::string trojan_name(trojan::TrojanKind kind) { return trojan::kind_label(kind); }

}  // namespace emsbench
