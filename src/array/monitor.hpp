// Array runtime monitor: one pre-fitted RuntimeMonitor session per coil, all
// fed from the same bundle stream (the array analogue of Fig. 1's deployment
// loop). Detection stays per sensor — any session's alarm is the array's
// alarm — while the monitor additionally accumulates each coil's residual
// energy above its golden baseline into the anomaly-energy vector the
// Localizer matches against the sensitivity matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "core/monitor.hpp"

namespace emts::array {

class ArrayMonitor {
 public:
  /// Builds one pre-fitted session per coil from the calibration (which must
  /// match the grid's sensor count). Sessions run the default monitor
  /// options and cold-start monitoring from the fitted artifacts.
  ArrayMonitor(const SensorGrid& grid, const ArrayCalibration& calibration);

  const SensorGrid& grid() const { return grid_; }
  std::size_t sensor_count() const { return sessions_.size(); }
  std::size_t bundles_seen() const { return bundles_seen_; }

  /// Feeds one bundle: trace s goes to session s, in order, and each coil's
  /// residual energy against its golden mean joins the anomaly accumulator.
  /// Returns kAlarm if any session is alarmed, else kMonitoring.
  core::MonitorState push_bundle(const Bundle& bundle);

  /// Feeds a whole batch bundle-by-bundle (window order preserved).
  core::MonitorState push_bundles(const BundleSet& bundles);

  /// Any session latched in alarm (each session latches A2's spectral
  /// signature itself; see core/monitor.hpp).
  bool any_alarm() const;

  /// Per-sensor session states, grid row-major.
  std::vector<core::MonitorState> states() const;

  const core::RuntimeMonitor& session(std::size_t sensor) const;
  core::RuntimeMonitor& session(std::size_t sensor);

  /// The localization observable: per sensor, sqrt(max(0, mean residual
  /// energy over the pushed bundles - golden baseline)) — linear in the
  /// Trojan's coupling into that coil (see array/calibration.hpp). Zero
  /// everywhere on a golden stream up to noise.
  std::vector<double> anomaly_energy() const;

  /// Clears the residual accumulators so the next localization window starts
  /// clean. Session state and alarm latches are untouched.
  void reset_anomaly_window();

  /// Operator action after the paper's "further investigations": clears
  /// every latched session alarm and resets the localization window.
  void acknowledge_alarms();

 private:
  const SensorGrid& grid_;
  std::vector<core::RuntimeMonitor> sessions_;
  std::vector<core::Trace> golden_means_;
  std::vector<double> baselines_;
  std::vector<double> residual_sums_;
  std::size_t bundles_seen_ = 0;
};

}  // namespace emts::array
