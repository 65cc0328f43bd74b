// Test-only reference for the one-sided amplitude spectrum, built the long
// way: detrend, window, zero-pad to the next power of two N, run one
// full-size N-point FftPlan, then double the interior bins and divide by the
// window's coherent gain. SpectrumAnalyzer reaches the same bins through an
// N/2-point real-split transform; the two agree to floating-point rounding.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/window.hpp"

namespace emts::test_support {

inline dsp::Spectrum reference_spectrum(const std::vector<double>& signal, double sample_rate,
                                        const dsp::SpectrumOptions& options = {}) {
  double mean = 0.0;
  if (options.remove_mean) {
    for (double v : signal) mean += v;
    mean /= static_cast<double>(signal.size());
  }
  const std::vector<double> window = dsp::make_window(options.window, signal.size());
  const double gain = dsp::coherent_gain(window);

  const std::size_t n = dsp::next_power_of_two(signal.size());
  std::vector<dsp::cplx> data(n, dsp::cplx{0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i) {
    data[i] = dsp::cplx{(signal[i] - mean) * window[i], 0.0};
  }
  dsp::FftPlan{n}.forward(data);

  const std::size_t bins = n / 2 + 1;
  dsp::Spectrum out;
  out.frequency.resize(bins);
  out.amplitude.resize(bins);
  for (std::size_t k = 0; k < bins; ++k) {
    out.frequency[k] = sample_rate * static_cast<double>(k) / static_cast<double>(n);
    const bool interior = (k != 0) && (k != n / 2);
    out.amplitude[k] = (interior ? 2.0 : 1.0) * std::abs(data[k]) / gain;
  }
  return out;
}

/// Per-bin mean of reference_spectrum over equal-length signals.
inline dsp::Spectrum reference_mean_spectrum(const std::vector<std::vector<double>>& signals,
                                             double sample_rate,
                                             const dsp::SpectrumOptions& options = {}) {
  dsp::Spectrum mean = reference_spectrum(signals.front(), sample_rate, options);
  for (std::size_t s = 1; s < signals.size(); ++s) {
    const dsp::Spectrum next = reference_spectrum(signals[s], sample_rate, options);
    for (std::size_t k = 0; k < mean.size(); ++k) mean.amplitude[k] += next.amplitude[k];
  }
  for (double& a : mean.amplitude) a /= static_cast<double>(signals.size());
  return mean;
}

/// Largest amplitude in a spectrum: the scale the 1e-12 comparison bounds use.
inline double peak_amplitude(const dsp::Spectrum& spectrum) {
  double peak = 0.0;
  for (double a : spectrum.amplitude) peak = std::max(peak, a);
  return peak;
}

}  // namespace emts::test_support
