// Reproduces Fig. 4: A2 Trojan detection in the frequency domain. The paper
// plots the sensor spectrum with the A2-style Trojan in its triggering state
// (red) against the clean circuit (blue): the clock spot, its second
// harmonic, and a new "Trojan Activation Peak" between them.
//
// Output: the spectrum series around the clock (so it can be re-plotted),
// and the detector's verdict.
#include <cstdio>

#include "bench_util.hpp"
#include "core/spectral.hpp"
#include "dsp/spectrum.hpp"
#include "io/table.hpp"

using namespace emts;

int main() {
  std::printf("=== Fig. 4: A2 Trojan detection in the frequency domain ===\n\n");

  sim::Chip chip{sim::make_default_config()};
  const auto golden = bench::capture_set(chip, sim::Pickup::kOnChipSensor, 16, 0);
  chip.arm(trojan::TrojanKind::kA2Analog);
  const auto triggering = bench::capture_set(chip, sim::Pickup::kOnChipSensor, 16, 1000);
  chip.disarm_all();

  // The golden mean spectrum is the detector's calibrated reference; the A2
  // mean runs through the same streaming analyzer.
  const auto detector = core::SpectralDetector::calibrate(golden);
  const dsp::Spectrum& spec_golden = detector.golden_spectrum();
  dsp::SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(triggering.traces.front().size(), triggering.sample_rate);
  for (const auto& trace : triggering.traces) analyzer.stream_push(trace);
  const dsp::Spectrum& spec_a2 = analyzer.stream_mean();

  // Series: 30..110 MHz in 3 MHz steps, plus the exact spot frequencies.
  std::printf("spectrum series (re-plot of Fig. 4; amplitudes in volts):\n\n");
  io::Table table{{"freq MHz", "golden (blue)", "A2 triggering (red)", "note"}};
  for (double f : {30e6, 36e6, 42e6, 48e6, 54e6, 60e6, 66e6, 72e6, 78e6, 84e6, 90e6, 96e6,
                   102e6, 108e6}) {
    const std::size_t k = spec_golden.bin_of(f);
    std::string note;
    if (f == 48e6) note = "clock";
    if (f == 96e6) note = "2nd harmonic";
    if (f == 72e6) note = "<- Trojan activation peak";
    table.add_row({io::Table::num(f / 1e6, 4), io::Table::num(spec_golden.amplitude[k], 3),
                   io::Table::num(spec_a2.amplitude[k], 3), note});
  }
  std::printf("%s\n", table.render().c_str());

  const auto report = detector.analyze(triggering);
  std::printf("spectral detector verdict: %zu anomalies\n", report.anomalies.size());
  for (const auto& a : report.anomalies) {
    std::printf("  %s at %.3f MHz, amplitude %.3e vs golden %.3e (ratio %.1f)\n",
                a.kind == core::SpectralAnomalyKind::kNewSpot ? "new spot" : "amplified spot",
                a.frequency_hz / 1e6, a.suspect_amplitude, a.golden_amplitude, a.ratio);
  }
  std::printf("\n");

  const std::size_t clock_bin = spec_golden.bin_of(48e6);
  const std::size_t harm_bin = spec_golden.bin_of(96e6);
  const std::size_t peak_bin = spec_golden.bin_of(72e6);

  bench::ShapeChecks checks;
  checks.expect(spec_golden.amplitude[clock_bin] > 10.0 * spec_golden.amplitude[peak_bin],
                "golden spectrum concentrates at the clock, quiet at 72 MHz");
  checks.expect(spec_a2.amplitude[peak_bin] > 5.0 * spec_golden.amplitude[peak_bin],
                "A2 triggering adds a strong peak between clock and 2nd harmonic");
  checks.expect(spec_a2.amplitude[clock_bin] < 1.3 * spec_golden.amplitude[clock_bin],
                "the clock spot itself is unchanged (trigger, not payload, radiates)");
  checks.expect(report.anomalous(), "spectral detector flags the triggering state");
  bool peak_between = false;
  for (const auto& a : report.anomalies) {
    peak_between |= (a.frequency_hz > 48e6 && a.frequency_hz < 96e6);
  }
  checks.expect(peak_between, "reported anomaly lies between the clock spots (Fig. 4)");
  (void)harm_bin;
  return checks.exit_code();
}
