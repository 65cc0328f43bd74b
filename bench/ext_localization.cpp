// Extension bench: Trojan localization accuracy over the on-die sensor array
// (array/localizer.hpp). For each digital Trojan and the A2 cell, a 4x4 coil
// grid streams captures into an ArrayMonitor; the per-coil anomaly energy is
// matched against every module's coupling template, and the bench reports
// which module wins and the score margin over the runner-up. Builds on the
// paper's "location awareness" advantage of the EM side channel (Sec. III-A).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "bench_util.hpp"
#include "io/table.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"

using namespace emts;

int main() {
  std::printf("=== Extension: Trojan localization over a 4x4 on-die sensor array ===\n\n");

  sim::Chip chip{sim::make_default_config()};
  array::GridSpec spec;
  spec.nx = 4;
  spec.ny = 4;
  const array::SensorGrid grid{chip.floorplan(), spec};
  const array::ArrayCapture capture{grid};
  const auto& engine = sim::CaptureEngine::shared();
  const array::ArrayCalibration calibration = array::calibrate_array(capture, engine, chip);
  const array::Localizer localizer{grid};

  io::Table table{{"trojan", "matched module", "correct", "score margin", "cell (um, um)",
                   "alarmed"}};
  bench::ShapeChecks checks;
  int correct_count = 0;
  for (trojan::TrojanKind kind : trojan::kAllTrojanKinds) {
    chip.arm(kind);
    const array::BundleSet bundles = capture.capture_batch(engine, chip, 48, 10000);
    chip.disarm_all();

    array::ArrayMonitor monitor{grid, calibration};
    monitor.push_bundles(bundles);
    const array::LocalizationReport report = localizer.localize(monitor.anomaly_energy());

    const bool correct = report.localized && report.module_name == sim::trojan_host_module(kind);
    correct_count += correct;
    std::vector<double> ranked = report.module_scores;
    std::sort(ranked.begin(), ranked.end(), std::greater<>{});
    const double margin = ranked.size() >= 2 && ranked[1] > 0.0 ? ranked[0] / ranked[1] : 0.0;
    char cell[48];
    std::snprintf(cell, sizeof cell, "(%.0f, %.0f)", 1e6 * report.cell.x, 1e6 * report.cell.y);
    table.add_row({trojan::kind_label(kind), report.localized ? report.module_name : "-",
                   correct ? "yes" : "no", io::Table::num(margin, 3), cell,
                   monitor.any_alarm() ? "yes" : "no"});
  }
  std::printf("%s\n", table.render().c_str());

  checks.expect(correct_count >= 4, "at least 4 of 5 Trojans localized to their own module");
  return checks.exit_code();
}
