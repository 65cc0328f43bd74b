#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/units.hpp"

namespace emts::dsp {

std::size_t Spectrum::bin_of(double f) const {
  EMTS_REQUIRE(!frequency.empty(), "bin_of on an empty spectrum");
  EMTS_REQUIRE(std::isfinite(f), "bin_of: frequency must be finite");
  if (f <= frequency.front()) return 0;
  if (f >= frequency.back()) return frequency.size() - 1;
  const double width = bin_width();
  const auto idx = static_cast<std::size_t>(std::llround(f / width));
  return std::min(idx, frequency.size() - 1);
}

double Spectrum::bin_width() const {
  EMTS_REQUIRE(frequency.size() >= 2, "bin_width requires >= 2 bins");
  return frequency[1] - frequency[0];
}

std::vector<SpectralPeak> find_peaks(const Spectrum& spectrum, double min_amplitude,
                                     std::size_t max_peaks) {
  std::vector<SpectralPeak> peaks;
  find_peaks_into(spectrum, min_amplitude, peaks, max_peaks);
  return peaks;
}

void find_peaks_into(const Spectrum& spectrum, double min_amplitude,
                     std::vector<SpectralPeak>& peaks, std::size_t max_peaks) {
  peaks.clear();
  const auto& amp = spectrum.amplitude;
  for (std::size_t k = 1; k + 1 < amp.size(); ++k) {
    if (amp[k] >= min_amplitude && amp[k] > amp[k - 1] && amp[k] >= amp[k + 1]) {
      peaks.push_back({k, spectrum.frequency[k], amp[k]});
    }
  }
  if (peaks.size() > max_peaks) {
    // Truncation must drop the *weakest* peaks, wherever they sit on the
    // frequency axis: a Trojan carrier high in the band would otherwise be
    // the first casualty. Select by amplitude (ties broken by bin so the
    // result is deterministic), then restore bin order for the survivors.
    std::sort(peaks.begin(), peaks.end(), [](const SpectralPeak& a, const SpectralPeak& b) {
      if (a.amplitude != b.amplitude) return a.amplitude > b.amplitude;
      return a.bin < b.bin;
    });
    peaks.resize(max_peaks);
    std::sort(peaks.begin(), peaks.end(),
              [](const SpectralPeak& a, const SpectralPeak& b) { return a.bin < b.bin; });
  }
}

SpectrumAnalyzer::SpectrumAnalyzer(const SpectrumOptions& options) : options_{options} {}

void SpectrumAnalyzer::prepare(std::size_t n, double sample_rate) {
  EMTS_REQUIRE(n > 0, "SpectrumAnalyzer requires a non-empty signal");
  EMTS_REQUIRE(sample_rate > 0.0, "sample_rate must be positive");
  if (n == signal_length_ && sample_rate == sample_rate_) return;

  ++warmups_;
  signal_length_ = n;
  sample_rate_ = sample_rate;
  window_ = make_window(options_.window, n);
  gain_ = coherent_gain(window_);

  padded_ = next_power_of_two(n);
  const std::size_t half = std::max<std::size_t>(padded_ / 2, 1);
  if (plan_.size() != half) plan_ = FftPlan{half};
  data_.resize(half);
  twiddles_.resize(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    const double angle = -2.0 * units::pi * static_cast<double>(k) / static_cast<double>(padded_);
    twiddles_[k] = cplx{std::cos(angle), std::sin(angle)};
  }

  const std::size_t bins = padded_ / 2 + 1;
  out_.frequency.resize(bins);
  out_.amplitude.resize(bins);
  amp_.resize(bins);
  for (std::size_t k = 0; k < bins; ++k) {
    out_.frequency[k] = sample_rate * static_cast<double>(k) / static_cast<double>(padded_);
  }
}

void SpectrumAnalyzer::transform(const std::vector<double>& signal) {
  const std::size_t n = signal.size();
  double mean = 0.0;
  if (options_.remove_mean) {
    for (double v : signal) mean += v;
    mean /= static_cast<double>(n);
  }
  // Detrended, windowed sample i; zero in the padding past the signal.
  const auto sample = [&](std::size_t i) {
    return i < n ? (signal[i] - mean) * window_[i] : 0.0;
  };

  if (padded_ < 2) {
    // One sample, one bin: the transform is the sample itself.
    amp_[0] = std::abs(sample(0)) / gain_;
    return;
  }
  // Real-split: even samples ride the real lane, odd samples the imaginary
  // lane of one N/2 complex FFT. Conjugate symmetry untangles the two real
  // half-streams E (even) and O (odd), and the classic decimation-in-time
  // recombination X[k] = E[k] + e^{-2πik/N}·O[k] yields the length-N real
  // transform for k = 0..N/2.
  const std::size_t half = padded_ / 2;
  for (std::size_t i = 0; i < half; ++i) data_[i] = cplx{sample(2 * i), sample(2 * i + 1)};
  plan_.forward(data_);

  for (std::size_t k = 0; k <= half; ++k) {
    const std::size_t kk = k == half ? 0 : k;      // k = half wraps to bin 0
    const std::size_t mm = k == 0 ? 0 : half - k;  // mirror bin; k=0 -> 0
    const double zr = data_[kk].real();
    const double zi = data_[kk].imag();
    const double mr = data_[mm].real();
    const double mi = -data_[mm].imag();       // conj(Z[half-k])
    const double er = 0.5 * (zr + mr);         // E[k] = (Z[k] + conj(Z[m])) / 2
    const double ei = 0.5 * (zi + mi);
    const double odd_r = 0.5 * (zi - mi);      // O[k] = -i (Z[k] - conj(Z[m])) / 2
    const double odd_i = -0.5 * (zr - mr);
    const double tr = twiddles_[k].real();
    const double ti = twiddles_[k].imag();
    const double xr = er + tr * odd_r - ti * odd_i;
    const double xi = ei + tr * odd_i + ti * odd_r;
    const double mag = std::abs(cplx{xr, xi});
    const bool interior = (k != 0) && (k != half);
    amp_[k] = (interior ? 2.0 : 1.0) * mag / gain_;
  }
}

const Spectrum& SpectrumAnalyzer::analyze(const std::vector<double>& signal,
                                          double sample_rate) {
  prepare(signal.size(), sample_rate);
  transform(signal);
  out_.amplitude.assign(amp_.begin(), amp_.end());
  return out_;
}

void SpectrumAnalyzer::ensure_stream(std::size_t trace_length, double sample_rate) {
  prepare(trace_length, sample_rate);
  if (stream_sum_.size() != amp_.size()) {
    EMTS_REQUIRE(stream_count_ == 0,
                 "SpectrumAnalyzer::ensure_stream: accumulator shape change mid-stream");
    stream_sum_.assign(amp_.size(), 0.0);
  }
}

void SpectrumAnalyzer::stream_push(const std::vector<double>& signal) {
  EMTS_REQUIRE(signal.size() == signal_length_ && stream_sum_.size() == amp_.size(),
               "SpectrumAnalyzer::stream_push: trace length differs from ensure_stream()");
  transform(signal);
  for (std::size_t k = 0; k < stream_sum_.size(); ++k) stream_sum_[k] += amp_[k];
  ++stream_count_;
}

void SpectrumAnalyzer::stream_reset() {
  std::fill(stream_sum_.begin(), stream_sum_.end(), 0.0);
  stream_count_ = 0;
}

void SpectrumAnalyzer::stream_restore(const std::vector<double>& sum, std::size_t count) {
  EMTS_REQUIRE(stream_count_ == 0,
               "SpectrumAnalyzer::stream_restore: accumulator is not empty");
  EMTS_REQUIRE(!stream_sum_.empty() && sum.size() == stream_sum_.size(),
               "SpectrumAnalyzer::stream_restore: bin count differs from ensure_stream()");
  EMTS_REQUIRE(count > 0, "SpectrumAnalyzer::stream_restore: count must be positive");
  for (const double v : sum) {
    EMTS_REQUIRE(std::isfinite(v) && v >= 0.0,
                 "SpectrumAnalyzer::stream_restore: sum entries must be finite and >= 0");
  }
  std::copy(sum.begin(), sum.end(), stream_sum_.begin());
  stream_count_ = count;
}

const Spectrum& SpectrumAnalyzer::stream_mean() {
  EMTS_REQUIRE(stream_count_ > 0, "SpectrumAnalyzer::stream_mean on an empty accumulator");
  EMTS_REQUIRE(stream_sum_.size() == out_.amplitude.size(),
               "SpectrumAnalyzer::stream_mean before ensure_stream()");
  const double inv = 1.0 / static_cast<double>(stream_count_);
  for (std::size_t k = 0; k < stream_sum_.size(); ++k) out_.amplitude[k] = stream_sum_[k] * inv;
  return out_;
}

void save_spectrum(std::ostream& out, const Spectrum& spectrum) {
  EMTS_REQUIRE(spectrum.frequency.size() == spectrum.amplitude.size(),
               "save_spectrum: ragged spectrum");
  util::write_f64_vec(out, spectrum.frequency);
  util::write_f64_vec(out, spectrum.amplitude);
}

Spectrum load_spectrum(std::istream& in) {
  Spectrum spectrum;
  spectrum.frequency = util::read_f64_vec(in);
  spectrum.amplitude = util::read_f64_vec(in);
  EMTS_REQUIRE(spectrum.frequency.size() == spectrum.amplitude.size(),
               "load_spectrum: ragged spectrum");
  EMTS_REQUIRE(!spectrum.amplitude.empty(), "load_spectrum: empty spectrum");
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    EMTS_REQUIRE(std::isfinite(spectrum.frequency[k]), "load_spectrum: non-finite frequency");
    // Amplitudes are magnitudes; a NaN bin would poison every ratio built on it.
    EMTS_REQUIRE(std::isfinite(spectrum.amplitude[k]) && spectrum.amplitude[k] >= 0.0,
                 "load_spectrum: amplitudes must be finite and >= 0");
  }
  return spectrum;
}

}  // namespace emts::dsp
