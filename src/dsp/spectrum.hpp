// Amplitude spectra and peak finding. This is the frequency-domain view the
// paper uses for A2-style Trojan detection (Sec. III-E, Fig. 4, Fig. 6 i-l):
// the circuit concentrates energy at its clock and harmonics; fast-toggling
// Trojan triggers add new spots or raise existing ones.
#pragma once

#include <cstddef>
#include <iosfwd>
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

/// EMSentry's one amplitude-spectrum transform. A signal of length n is
/// detrended (options.remove_mean), windowed, zero-padded to N, the next power
/// of two, and transformed by one N/2-point real-split FFT: even samples in
/// the real lane, odd samples in the imaginary lane, untangled with cached
/// twiddles into bins 0..N/2. Interior bins are doubled and every bin is
/// divided by the window's coherent gain, so a bin-centred tone of amplitude A
/// reads A. The window, plan, twiddles and buffers are cached per trace length
/// and sample rate, so repeated passes of one shape perform zero heap
/// allocations after the first.
///
/// analyze() returns one signal's spectrum. The streaming mode adds each
/// pushed signal's spectrum into a running per-bin sum, and stream_mean()
/// divides the sum by the live count; a window boundary costs one O(bins)
/// pass instead of W transforms. Spectral calibration, offline analysis and
/// the runtime monitor all run this mode, so their spectra agree bitwise.
/// The running sum and count are the whole accumulator state:
/// stream_restore() reinstates a saved pair bit-exactly.
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
  /// Detrends, windows and transforms one signal into amp_.
  void transform(const std::vector<double>& signal);

  SpectrumOptions options_;
  std::size_t signal_length_ = 0;
  double sample_rate_ = 0.0;
  std::vector<double> window_;     // coefficients for signal_length_
  double gain_ = 0.0;              // coherent gain of window_
  std::size_t padded_ = 0;         // N: signal_length_ rounded up to a power of two
  FftPlan plan_{1};                // N/2-point plan (1 when N == 1)
  std::vector<cplx> twiddles_;     // untangle twiddles e^{-2πik/N}, k = 0..N/2
  std::vector<cplx> data_;         // N/2-point FFT working buffer
  std::vector<double> amp_;        // per-signal amplitude scratch
  Spectrum out_;                   // analyze()/stream_mean() result buffer
  std::size_t warmups_ = 0;
  std::vector<double> stream_sum_;  // running per-bin amplitude sum
  std::size_t stream_count_ = 0;    // signals in the running sum
};

/// Binary round-trip of a reference spectrum (the spectral detector's golden
/// model in an EMCA calibration artifact). load_spectrum restores the bins
/// bit-identically and throws precondition_error on truncation, mismatch, a
/// non-finite frequency, or an amplitude that is not finite and >= 0.
void save_spectrum(std::ostream& out, const Spectrum& spectrum);
Spectrum load_spectrum(std::istream& in);

}  // namespace emts::dsp
