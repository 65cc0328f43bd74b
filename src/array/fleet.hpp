// Fleet hosting for sensor arrays — the traffic multiplier: one logical
// array device becomes N per-sensor FleetMonitor sessions, each keyed by a
// suffixed device id. Per-sensor ordering is free: each coil's stream keys
// its own session, and FleetMonitor guarantees per-device FIFO, so a
// fleet-hosted array scores bit-identically to a standalone ArrayMonitor fed
// the same bundles.
#pragma once

#include <cstddef>
#include <string>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "core/monitor.hpp"
#include "fleet/fleet.hpp"

namespace emts::array {

/// Session key of one coil under a logical array device:
/// "<device_id>/s<index>" with the index zero-padded to three digits, so
/// sorted session listings (FleetStats, device_ids()) follow grid row-major
/// order for arrays up to 1000 coils.
std::string sensor_device_id(const std::string& device_id, std::size_t sensor);

/// Registers one pre-fitted session per coil (sensor_device_id keys). The
/// overload without options uses the fleet's default monitor options.
void add_array_device(fleet::FleetMonitor& fleet, const std::string& device_id,
                      const ArrayCalibration& calibration);
void add_array_device(fleet::FleetMonitor& fleet, const std::string& device_id,
                      const ArrayCalibration& calibration,
                      const core::RuntimeMonitor::Options& monitor_options);

/// Routes one bundle to its device's per-sensor sessions, trace s to session
/// s. Callers needing per-sensor ordering submit a device's bundles from one
/// thread, exactly like FleetMonitor::submit.
void submit_bundle(fleet::FleetMonitor& fleet, const std::string& device_id,
                   const Bundle& bundle);

/// Every window of a BundleSet, in window order, as submit_bundle would route
/// them one bundle at a time.
void submit_bundles(fleet::FleetMonitor& fleet, const std::string& device_id,
                    const BundleSet& bundles);

}  // namespace emts::array
