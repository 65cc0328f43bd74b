#include "array/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace emts::array {

ArrayMonitor::ArrayMonitor(const SensorGrid& grid, const ArrayCalibration& calibration)
    : grid_{grid} {
  EMTS_REQUIRE(calibration.sensor_count() == grid.sensor_count(),
               "ArrayMonitor: calibration sensor count does not match the grid");
  EMTS_REQUIRE(calibration.sample_rate > 0.0, "ArrayMonitor: calibration has no sample rate");
  sessions_.reserve(calibration.sensor_count());
  golden_means_.reserve(calibration.sensor_count());
  baselines_.reserve(calibration.sensor_count());
  for (const SensorCalibration& sensor : calibration.sensors) {
    sessions_.emplace_back(calibration.sample_rate, sensor.evaluator);
    golden_means_.push_back(sensor.golden_mean);
    baselines_.push_back(sensor.baseline_residual);
  }
  residual_sums_.assign(sessions_.size(), 0.0);
}

core::MonitorState ArrayMonitor::push_bundle(const Bundle& bundle) {
  EMTS_REQUIRE(bundle.sensor_count() == sessions_.size(),
               "ArrayMonitor: bundle sensor count does not match the grid");
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    sessions_[s].push(bundle.traces[s]);
    residual_sums_[s] += residual_energy(bundle.traces[s], golden_means_[s]);
  }
  ++bundles_seen_;
  return any_alarm() ? core::MonitorState::kAlarm : core::MonitorState::kMonitoring;
}

core::MonitorState ArrayMonitor::push_bundles(const BundleSet& bundles) {
  core::MonitorState state =
      any_alarm() ? core::MonitorState::kAlarm : core::MonitorState::kMonitoring;
  for (std::size_t w = 0; w < bundles.windows(); ++w) state = push_bundle(bundles.bundle(w));
  return state;
}

bool ArrayMonitor::any_alarm() const {
  return std::any_of(sessions_.begin(), sessions_.end(), [](const core::RuntimeMonitor& m) {
    return m.state() == core::MonitorState::kAlarm;
  });
}

std::vector<core::MonitorState> ArrayMonitor::states() const {
  std::vector<core::MonitorState> states;
  states.reserve(sessions_.size());
  for (const core::RuntimeMonitor& m : sessions_) states.push_back(m.state());
  return states;
}

const core::RuntimeMonitor& ArrayMonitor::session(std::size_t sensor) const {
  EMTS_ASSERT(sensor < sessions_.size());
  return sessions_[sensor];
}

core::RuntimeMonitor& ArrayMonitor::session(std::size_t sensor) {
  EMTS_ASSERT(sensor < sessions_.size());
  return sessions_[sensor];
}

std::vector<double> ArrayMonitor::anomaly_energy() const {
  std::vector<double> anomaly(sessions_.size(), 0.0);
  if (bundles_seen_ == 0) return anomaly;
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const double mean_residual = residual_sums_[s] / static_cast<double>(bundles_seen_);
    anomaly[s] = std::sqrt(std::max(0.0, mean_residual - baselines_[s]));
  }
  return anomaly;
}

void ArrayMonitor::reset_anomaly_window() {
  std::fill(residual_sums_.begin(), residual_sums_.end(), 0.0);
  bundles_seen_ = 0;
}

void ArrayMonitor::acknowledge_alarms() {
  for (core::RuntimeMonitor& m : sessions_) {
    if (m.state() == core::MonitorState::kAlarm) m.acknowledge_alarm();
  }
  reset_anomaly_window();
}

}  // namespace emts::array
