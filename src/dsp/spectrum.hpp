// Amplitude spectra and peak finding. This is the frequency-domain view the
// paper uses for A2-style Trojan detection (Sec. III-E, Fig. 4, Fig. 6 i-l):
// the circuit concentrates energy at its clock and harmonics; fast-toggling
// Trojan triggers add new spots or raise existing ones.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace emts::dsp {

/// One-sided amplitude spectrum of a real signal.
struct Spectrum {
  std::vector<double> frequency;  // Hz, bin centers, size n/2+1
  std::vector<double> amplitude;  // window-corrected amplitude per bin

  std::size_t size() const { return amplitude.size(); }

  /// Index of the bin whose center is nearest to f (clamped to range).
  std::size_t bin_of(double f) const;

  /// Resolution in Hz between adjacent bins.
  double bin_width() const;
};

struct SpectrumOptions {
  WindowKind window = WindowKind::kHann;
  bool remove_mean = true;  // suppress the DC bin so it never masks tones
};

/// Computes the one-sided amplitude spectrum. `sample_rate` in Hz.
/// The signal is zero-padded to a power of two.
Spectrum amplitude_spectrum(const std::vector<double>& signal, double sample_rate,
                            const SpectrumOptions& options = {});

/// Averaged amplitude spectrum over several traces of equal length.
Spectrum mean_spectrum(const std::vector<std::vector<double>>& signals, double sample_rate,
                       const SpectrumOptions& options = {});

/// A local maximum in a spectrum.
struct SpectralPeak {
  std::size_t bin = 0;
  double frequency = 0.0;
  double amplitude = 0.0;
};

/// Local maxima above `min_amplitude`, bin-ordered, at most `max_peaks`.
/// A bin qualifies when it exceeds both neighbours. When more than
/// `max_peaks` bins qualify, the *strongest* peaks are kept (selection by
/// amplitude, not by bin position — a Trojan carrier high in the band must
/// survive truncation) and the survivors are returned in bin order.
std::vector<SpectralPeak> find_peaks(const Spectrum& spectrum, double min_amplitude,
                                     std::size_t max_peaks = 32);

/// find_peaks writing into a caller-owned vector (cleared first): identical
/// results, zero allocations once the vector's capacity is warm.
void find_peaks_into(const Spectrum& spectrum, double min_amplitude,
                     std::vector<SpectralPeak>& peaks, std::size_t max_peaks = 32);

/// Reusable spectral pass: caches the window coefficients, the FFT plans and
/// every working buffer for one trace length, so repeated analyze() /
/// stream_push() calls on equally sized signals perform zero heap
/// allocations after the first (warm-up) pass. analyze() is bit-identical to
/// amplitude_spectrum with the same options.
///
/// The streaming mean-spectrum mode runs one half-size real-split FFT per
/// push and adds the amplitudes into a running per-bin sum; stream_mean()
/// divides the sum by the live count, so a window boundary costs one O(bins)
/// pass instead of W FFTs. Per-push amplitudes match amplitude_spectrum to
/// floating-point rounding (a few ULPs per bin), which the tolerance-based
/// anomaly classification absorbs. The running sum and count are the whole
/// accumulator state: stream_restore() reinstates a saved pair bit-exactly
/// (this is how a snapshot restore recovers a partial window).
class SpectrumAnalyzer {
 public:
  explicit SpectrumAnalyzer(const SpectrumOptions& options = {});

  const SpectrumOptions& options() const { return options_; }

  /// One-shot spectrum of a single signal; the returned reference stays
  /// valid until the next analyze()/stream_mean() call.
  const Spectrum& analyze(const std::vector<double>& signal, double sample_rate);

  /// Prepares the streaming caches for a trace length / sample rate.
  /// Resizing the accumulator is only legal while it is empty
  /// (stream_count() == 0) — shape changes mid-stream are a caller bug.
  void ensure_stream(std::size_t trace_length, double sample_rate);
  /// Transforms one signal and adds its amplitudes into the running sum.
  void stream_push(const std::vector<double>& signal);
  /// Zeroes the running sum and count.
  void stream_reset();
  /// Reinstates a saved running sum and count onto an empty accumulator
  /// already sized by ensure_stream(). Refuses a sum whose bin count differs
  /// from the accumulator's, a zero count, and any non-finite or negative
  /// entry (amplitudes are magnitudes); nothing changes on refusal.
  void stream_restore(const std::vector<double>& sum, std::size_t count);
  /// Mean of the accumulated spectra; valid until the next analyze()/
  /// stream_mean() call. Requires stream_count() > 0.
  const Spectrum& stream_mean();

  const std::vector<double>& stream_sum() const { return stream_sum_; }
  std::size_t stream_count() const { return stream_count_; }

  /// Number of times the caches had to be (re)built — a new trace length or
  /// sample rate. Stays constant across passes once the analyzer is warm.
  std::size_t warmups() const { return warmups_; }

 private:
  void prepare(std::size_t n, double sample_rate);
  /// Detrend + window one signal into work_ (same arithmetic order as
  /// amplitude_spectrum).
  void preprocess(const std::vector<double>& signal);
  /// Full-size FFT of the preprocessed work_ into amp_.
  void transform_into_amp();
  /// Real-split half-size FFT of the preprocessed work_ into amp_ (even
  /// samples in the real lane, odd in the imaginary lane of an N/2 complex
  /// transform, untangled with precomputed twiddles).
  void transform_realsplit_into_amp();

  SpectrumOptions options_;
  std::size_t signal_length_ = 0;
  double sample_rate_ = 0.0;
  std::vector<double> window_;     // coefficients for signal_length_
  double gain_ = 0.0;              // coherent gain of window_
  std::optional<FftPlan> plan_;    // plan for the padded length
  std::vector<double> work_;       // detrended + windowed signal
  std::vector<cplx> data_;         // FFT working buffer (padded)
  std::vector<double> amp_;        // per-trace amplitude scratch
  Spectrum out_;                   // analyze()/stream_mean() result buffer
  std::size_t warmups_ = 0;
  std::optional<FftPlan> plan_half_;  // N/2 plan for the real-split transform
  std::vector<cplx> data_half_;       // half-size FFT working buffer
  std::vector<cplx> stream_tw_;       // untangle twiddles e^{-2πik/N}, half+1
  std::vector<double> stream_sum_;    // running per-bin amplitude sum
  std::size_t stream_count_ = 0;      // traces in the running sum
};

/// Binary round-trip of a reference spectrum (the spectral detector's golden
/// model in an EMCA calibration artifact). load_spectrum restores the bins
/// bit-identically and throws precondition_error on truncation or mismatch.
void save_spectrum(std::ostream& out, const Spectrum& spectrum);
Spectrum load_spectrum(std::istream& in);

}  // namespace emts::dsp
