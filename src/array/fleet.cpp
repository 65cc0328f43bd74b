#include "array/fleet.hpp"

#include "util/assert.hpp"

namespace emts::array {

std::string sensor_device_id(const std::string& device_id, std::size_t sensor) {
  EMTS_REQUIRE(!device_id.empty(), "sensor_device_id: empty device id");
  std::string id = device_id + "/s";
  char digits[24];
  std::size_t len = 0;
  std::size_t value = sensor;
  do {
    digits[len++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (std::size_t pad = len; pad < 3; ++pad) id += '0';
  while (len > 0) id += digits[--len];
  return id;
}

void add_array_device(fleet::FleetMonitor& fleet, const std::string& device_id,
                      const ArrayCalibration& calibration) {
  for (std::size_t s = 0; s < calibration.sensor_count(); ++s) {
    fleet.add_device(sensor_device_id(device_id, s), calibration.sensors[s].evaluator);
  }
}

void add_array_device(fleet::FleetMonitor& fleet, const std::string& device_id,
                      const ArrayCalibration& calibration,
                      const core::RuntimeMonitor::Options& monitor_options) {
  for (std::size_t s = 0; s < calibration.sensor_count(); ++s) {
    fleet.add_device(sensor_device_id(device_id, s), calibration.sensors[s].evaluator,
                     monitor_options);
  }
}

void submit_bundle(fleet::FleetMonitor& fleet, const std::string& device_id,
                   const Bundle& bundle) {
  for (std::size_t s = 0; s < bundle.sensor_count(); ++s) {
    fleet.submit(sensor_device_id(device_id, s), bundle.traces[s]);
  }
}

void submit_bundles(fleet::FleetMonitor& fleet, const std::string& device_id,
                    const BundleSet& bundles) {
  for (std::size_t w = 0; w < bundles.windows(); ++w) {
    for (std::size_t s = 0; s < bundles.sensor_count(); ++s) {
      fleet.submit(sensor_device_id(device_id, s), bundles.per_sensor[s].traces[w]);
    }
  }
}

}  // namespace emts::array
