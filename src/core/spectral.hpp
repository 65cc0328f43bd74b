// Frequency-domain Trojan detector (paper Sec. III-E and IV-D):
//
//   "the circuits ... will generate specific EM spectrum, which will
//    concentrate around the operating frequency ... accompanying certain
//    harmonic frequency. When the A2-style Trojans are being triggered, the
//    fast flipping signals will result in extra frequency spots or increased
//    amplitude in the spectrum."
//
// Calibration records the golden mean spectrum and its significant spots.
// Analysis of suspect traces reports two anomaly kinds, exactly the paper's
// T = g / T != g case split:
//   kNewSpot        — a peak at a frequency with no golden spot;
//   kAmplifiedSpot  — a known spot whose magnitude grew beyond tolerance.
// Both obey one growth rule: the suspect amplitude must exceed
// amplification_ratio x the golden amplitude (for a new spot, the golden
// spectrum at its bin, floored at the golden noise floor). A peak that only
// matches what calibration already saw there (a local-max flicker at the
// detection gate) is not a spot.
//
// Registered in the DetectorRegistry as "spectral". As a Detector it is
// *windowed*: its natural grain is a whole capture window (mean spectrum),
// so evaluate_set() analyzes the set at once; a per-trace score is the
// strongest anomaly ratio of that single trace (0 when clean) against a
// threshold of 0.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/trace.hpp"
#include "dsp/spectrum.hpp"

namespace emts::core {

enum class SpectralAnomalyKind { kNewSpot, kAmplifiedSpot };

struct SpectralAnomaly {
  SpectralAnomalyKind kind;
  double frequency_hz = 0.0;
  double golden_amplitude = 0.0;
  double suspect_amplitude = 0.0;

  /// Amplification factor (suspect / max(golden, floor)).
  double ratio = 0.0;
};

struct SpectralReport {
  std::vector<SpectralAnomaly> anomalies;  // strongest first
  bool anomalous() const { return !anomalies.empty(); }
};

class SpectralDetector : public Detector {
 public:
  struct Options {
    dsp::SpectrumOptions spectrum{};
    // A golden spot = local max above noise_floor_factor x median amplitude.
    double noise_floor_factor = 6.0;
    // New spots must also clear this factor over the golden noise floor.
    double new_spot_factor = 6.0;
    // Known spots flag as amplified beyond this ratio; new spots must also
    // exceed it over the golden amplitude at their bin.
    double amplification_ratio = 1.6;
    // Frequency tolerance (in bins) when matching suspect peaks to golden
    // spots.
    std::size_t match_bins = 2;
  };

  /// Fits the golden reference spectrum: the SpectrumAnalyzer streamed mean
  /// over the golden traces. Requires >= 1 trace.
  static SpectralDetector calibrate(const TraceSet& golden, const Options& options);
  static SpectralDetector calibrate(const TraceSet& golden);  // default options

  std::string name() const override { return "spectral"; }
  std::string describe() const override;
  bool windowed() const override { return true; }

  /// Strongest anomaly ratio of one trace; 0 when the trace is clean, so any
  /// positive score against the 0 threshold means "anomalous". The spectral
  /// pass keeps its own SpectralScratch; `scratch` is unused.
  double score_buffered(const Trace& trace, ScoreScratch& scratch) const override;
  double threshold() const override { return 0.0; }

  /// Whole-window verdict from one mean-spectrum analysis.
  DetectorReport evaluate_set(const TraceSet& suspect, double alarm_fraction) const override;

  /// Analyzes a set of suspect traces (averaged spectrum): stream_observe()
  /// over the set, then stream_finish().
  SpectralReport analyze(const TraceSet& suspect) const;

  /// Analyzes one trace.
  SpectralReport analyze(const Trace& trace) const;

  /// Caller-owned working state for the allocation-free analysis path: the
  /// cached spectrum analyzer plus every scratch buffer one spectral pass
  /// needs. Create via make_scratch(); one scratch serves one stream.
  struct SpectralScratch {
    explicit SpectralScratch(const dsp::SpectrumOptions& options) : analyzer{options} {}

    dsp::SpectrumAnalyzer analyzer;
    std::vector<dsp::SpectralPeak> peaks;
    std::vector<double> floor_scratch;  // amplitude copy for the median
    SpectralReport report;
  };

  /// Scratch wired to this detector's spectrum options.
  SpectralScratch make_scratch() const { return SpectralScratch{options_.spectrum}; }

  /// Runtime path, step 1 — call once per monitored capture: transforms the
  /// trace (one half-size real-split FFT) and adds its amplitude spectrum
  /// into the scratch analyzer's running sum. Zero heap allocations once the
  /// scratch is warm. `sample_rate` must match calibration.
  void stream_observe(const Trace& trace, double sample_rate, SpectralScratch& scratch) const;

  /// Runtime path, step 2 — call at the window boundary: classifies the
  /// running mean spectrum (an O(bins) pass) against the golden spots. The
  /// accumulator must hold exactly the window's `window_count` traces, the
  /// caller's own fill count, as a cross-check. analyze() over the same
  /// traces as a TraceSet is exactly this pair, so its report is bitwise
  /// equal; the returned reference stays valid until the next call with
  /// this scratch.
  const SpectralReport& stream_finish(std::size_t window_count, double sample_rate,
                                      SpectralScratch& scratch) const;

  /// Folds a typed spectral report into the generic stage form.
  DetectorReport to_stage(const SpectralReport& report) const;

  /// Serializes the golden spectrum, spots, noise floor and options; load()
  /// restores a detector whose analyze() reports are bit-identical.
  void save(std::ostream& out) const override;
  static SpectralDetector load(std::istream& in);

  const dsp::Spectrum& golden_spectrum() const { return golden_; }
  const std::vector<dsp::SpectralPeak>& golden_spots() const { return golden_spots_; }
  double golden_noise_floor() const { return noise_floor_; }
  double sample_rate() const { return sample_rate_; }
  const Options& options() const { return options_; }

 private:
  SpectralDetector(const Options& options, dsp::Spectrum golden, double sample_rate);

  /// Classifies suspect peaks against the golden spots into `report`
  /// (cleared first), sorted strongest-ratio first.
  void match_peaks(const std::vector<dsp::SpectralPeak>& peaks, SpectralReport& report) const;

  Options options_;
  dsp::Spectrum golden_;
  std::vector<dsp::SpectralPeak> golden_spots_;
  double noise_floor_ = 0.0;
  double sample_rate_ = 0.0;
};

}  // namespace emts::core
