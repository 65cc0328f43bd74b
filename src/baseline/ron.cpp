#include "baseline/ron.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::baseline {

RonNetwork::RonNetwork(const RonSpec& spec, const layout::DieSpec& die) : spec_{spec} {
  EMTS_REQUIRE(spec.rows >= 1 && spec.cols >= 1, "RON needs at least one oscillator");
  EMTS_REQUIRE(spec.nominal_hz > 0.0 && spec.window_s > 0.0, "RON rates must be positive");
  EMTS_REQUIRE(spec.kernel_radius > 0.0, "kernel radius must be positive");
  for (std::size_t r = 0; r < spec.rows; ++r) {
    for (std::size_t c = 0; c < spec.cols; ++c) {
      positions_.push_back(layout::Vec3{
          die.core_width * (static_cast<double>(c) + 0.5) / static_cast<double>(spec.cols),
          die.core_height * (static_cast<double>(r) + 0.5) / static_cast<double>(spec.rows),
          die.cell_z});
    }
  }
}

RonReading RonNetwork::measure(sim::Chip& chip, bool encrypting, std::uint64_t trace_index,
                               Rng& rng) const {
  // Average current per module over the window — an RO integrates over many
  // thousands of cycles, so only the mean load matters (this is exactly why
  // RON misses burst- and tone-shaped signatures).
  const auto currents = chip.module_transients(encrypting, trace_index);
  const auto& modules = chip.floorplan().modules();
  EMTS_ASSERT(currents.size() == modules.size());

  std::vector<double> mean_current(currents.size(), 0.0);
  for (std::size_t m = 0; m < currents.size(); ++m) {
    double acc = 0.0;
    for (double v : currents[m].samples()) acc += v;
    mean_current[m] = acc / static_cast<double>(currents[m].samples().size());
  }

  RonReading reading;
  reading.reserve(positions_.size());
  for (const auto& pos : positions_) {
    // IR droop: module currents weighted by a 1/(1 + (d/r0)^2) kernel.
    double local_load = 0.0;
    for (std::size_t m = 0; m < modules.size(); ++m) {
      const double dx = modules[m].region.cx() - pos.x;
      const double dy = modules[m].region.cy() - pos.y;
      const double d2 = dx * dx + dy * dy;
      const double r0 = spec_.kernel_radius;
      local_load += mean_current[m] / (1.0 + d2 / (r0 * r0));
    }
    const double freq = spec_.nominal_hz - spec_.droop_hz_per_amp * local_load;
    const double cycles = freq * spec_.window_s + rng.gaussian(0.0, spec_.jitter_cycles);
    reading.push_back(std::floor(cycles));  // counter quantization
  }
  return reading;
}

RonDetector::RonDetector(std::vector<RonReading> golden, double sigma_threshold)
    : sigma_threshold_{sigma_threshold} {
  EMTS_REQUIRE(golden.size() >= 3, "RON calibration needs >= 3 readings");
  EMTS_REQUIRE(sigma_threshold > 0.0, "sigma threshold must be positive");
  const std::size_t n = golden.front().size();
  for (const RonReading& r : golden) {
    EMTS_REQUIRE(r.size() == n, "ragged RON readings");
  }

  mean_.assign(n, 0.0);
  stddev_.assign(n, 0.0);
  for (std::size_t o = 0; o < n; ++o) {
    std::vector<double> samples;
    samples.reserve(golden.size());
    for (const RonReading& r : golden) samples.push_back(r[o]);
    mean_[o] = stats::mean(samples);
    // Quantized counters can be constant across golden readings; floor the
    // std at one count so z-scores stay finite.
    stddev_[o] = std::max(stats::stddev(samples), 1.0);
  }
}

double RonDetector::max_z(const RonReading& reading) const {
  EMTS_REQUIRE(reading.size() == mean_.size(), "RON reading size mismatch");
  double best = 0.0;
  for (std::size_t o = 0; o < reading.size(); ++o) {
    best = std::max(best, std::abs(reading[o] - mean_[o]) / stddev_[o]);
  }
  return best;
}

bool RonDetector::is_anomalous(const RonReading& reading) const {
  return max_z(reading) > sigma_threshold_;
}

RonTraceDetector::RonTraceDetector(const Options& options, std::vector<double> mean,
                                   std::vector<double> stddev)
    : options_{options}, mean_{std::move(mean)}, stddev_{std::move(stddev)} {}

std::vector<double> RonTraceDetector::feature(const core::Trace& trace) const {
  core::Preprocessor::Options pre;
  pre.remove_mean = false;  // mean level IS the RON observable
  pre.smooth_window = 1;
  pre.normalize_rms = false;
  pre.decimation = options_.decimation;
  return core::Preprocessor{pre}.features(trace);
}

RonTraceDetector RonTraceDetector::calibrate(const core::TraceSet& golden) {
  return calibrate(golden, Options{});
}

RonTraceDetector RonTraceDetector::calibrate(const core::TraceSet& golden,
                                             const Options& options) {
  EMTS_REQUIRE(golden.size() >= 3, "RON calibration needs >= 3 traces");
  EMTS_REQUIRE(options.decimation >= 1, "RON decimation must be >= 1");
  EMTS_REQUIRE(options.sigma_threshold > 0.0, "sigma threshold must be positive");

  RonTraceDetector fitted{options, {}, {}};
  std::vector<std::vector<double>> features;
  features.reserve(golden.size());
  for (const core::Trace& trace : golden.traces) {
    features.push_back(fitted.feature(trace));
    EMTS_REQUIRE(features.back().size() == features.front().size(), "ragged golden traces");
  }

  const std::size_t n = features.front().size();
  fitted.mean_.assign(n, 0.0);
  fitted.stddev_.assign(n, 0.0);
  std::vector<double> samples(features.size());
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t t = 0; t < features.size(); ++t) samples[t] = features[t][o];
    fitted.mean_[o] = stats::mean(samples);
    // EM features are continuous (no counter quantization), but golden sets
    // can still be degenerate per coordinate; floor keeps z finite.
    fitted.stddev_[o] = std::max(stats::stddev(samples), 1e-12);
  }
  return fitted;
}

double RonTraceDetector::score_buffered(const core::Trace& trace,
                                        core::ScoreScratch& /*scratch*/) const {
  const std::vector<double> f = feature(trace);
  EMTS_REQUIRE(f.size() == mean_.size(), "trace length differs from RON calibration");
  double best = 0.0;
  for (std::size_t o = 0; o < f.size(); ++o) {
    best = std::max(best, std::abs(f[o] - mean_[o]) / stddev_[o]);
  }
  return best;
}

std::string RonTraceDetector::describe() const {
  std::ostringstream out;
  out << "ron: z-test over " << mean_.size() << " mean-pooled features (decimation "
      << options_.decimation << "), gate " << options_.sigma_threshold << " sigma";
  return out.str();
}

void RonTraceDetector::save(std::ostream& out) const {
  util::write_u64(out, options_.decimation);
  util::write_f64(out, options_.sigma_threshold);
  util::write_f64_vec(out, mean_);
  util::write_f64_vec(out, stddev_);
}

RonTraceDetector RonTraceDetector::load(std::istream& in) {
  Options options;
  options.decimation = static_cast<std::size_t>(util::read_u64(in));
  options.sigma_threshold = util::read_f64(in);
  EMTS_REQUIRE(options.decimation >= 1 && options.decimation < (1u << 20),
               "ron artifact: bad decimation");
  EMTS_REQUIRE(std::isfinite(options.sigma_threshold) && options.sigma_threshold > 0.0,
               "ron artifact: bad sigma threshold");
  std::vector<double> mean = util::read_f64_vec(in);
  std::vector<double> stddev = util::read_f64_vec(in);
  EMTS_REQUIRE(!mean.empty(), "ron artifact: empty model");
  EMTS_REQUIRE(mean.size() == stddev.size(), "ron artifact: mean/stddev size mismatch");
  for (double s : stddev) {
    EMTS_REQUIRE(std::isfinite(s) && s > 0.0, "ron artifact: non-positive stddev");
  }
  return RonTraceDetector{options, std::move(mean), std::move(stddev)};
}

void register_ron_detector() {
  core::DetectorRegistry::instance().add(
      "ron",
      [](const core::TraceSet& golden) {
        return std::make_shared<const RonTraceDetector>(RonTraceDetector::calibrate(golden));
      },
      [](std::istream& in) {
        return std::make_shared<const RonTraceDetector>(RonTraceDetector::load(in));
      });
}

}  // namespace emts::baseline
