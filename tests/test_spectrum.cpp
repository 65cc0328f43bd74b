#include "dsp/spectrum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "spectrum_reference.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n, double amplitude) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(2.0 * units::pi * freq * static_cast<double>(i) / fs);
  }
  return out;
}

// One signal's spectrum through the analyzer, copied out so it outlives it.
Spectrum spectrum_of(const std::vector<double>& signal, double fs,
                     const SpectrumOptions& options = {}) {
  SpectrumAnalyzer analyzer{options};
  return analyzer.analyze(signal, fs);
}

// The streamed mean spectrum of equal-length signals, copied out.
Spectrum mean_spectrum_of(const std::vector<std::vector<double>>& signals, double fs) {
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(signals.front().size(), fs);
  for (const auto& signal : signals) analyzer.stream_push(signal);
  return analyzer.stream_mean();
}

TEST(Spectrum, ToneAmplitudeRecoveredAtItsBin) {
  const double fs = 1000.0;
  const std::size_t n = 1024;
  // Bin-exact tone: 125 Hz = bin 128 of 1024 at fs 1000.
  const auto sig = tone(125.0, fs, n, 3.0);
  const auto spec = spectrum_of(sig, fs);
  const std::size_t k = spec.bin_of(125.0);
  EXPECT_NEAR(spec.frequency[k], 125.0, 1e-9);
  EXPECT_NEAR(spec.amplitude[k], 3.0, 0.01);
}

TEST(Spectrum, AmplitudeCorrectForAllWindows) {
  const double fs = 1024.0;
  const std::size_t n = 1024;
  const auto sig = tone(64.0, fs, n, 2.0);
  for (auto kind : {WindowKind::kRectangular, WindowKind::kHann, WindowKind::kHamming,
                    WindowKind::kBlackman}) {
    SpectrumOptions opt;
    opt.window = kind;
    const auto spec = spectrum_of(sig, fs, opt);
    EXPECT_NEAR(spec.amplitude[spec.bin_of(64.0)], 2.0, 0.05)
        << "window kind " << static_cast<int>(kind);
  }
}

TEST(Spectrum, DcRemovedByDefault) {
  std::vector<double> sig(512, 5.0);
  const auto spec = spectrum_of(sig, 100.0);
  EXPECT_NEAR(spec.amplitude[0], 0.0, 1e-9);
}

TEST(Spectrum, DcKeptWhenRequested) {
  std::vector<double> sig(512, 5.0);
  SpectrumOptions opt;
  opt.remove_mean = false;
  opt.window = WindowKind::kRectangular;
  const auto spec = spectrum_of(sig, 100.0, opt);
  EXPECT_NEAR(spec.amplitude[0], 5.0, 1e-9);
}

TEST(Spectrum, FrequencyAxisSpansToNyquist) {
  const auto spec = spectrum_of(tone(10.0, 1000.0, 256, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(spec.frequency.front(), 0.0);
  EXPECT_DOUBLE_EQ(spec.frequency.back(), 500.0);
  EXPECT_EQ(spec.size(), 129u);
}

TEST(Spectrum, BinOfClampsOutOfRange) {
  const auto spec = spectrum_of(tone(10.0, 1000.0, 256, 1.0), 1000.0);
  EXPECT_EQ(spec.bin_of(-5.0), 0u);
  EXPECT_EQ(spec.bin_of(1e9), spec.size() - 1);
  EXPECT_EQ(spec.bin_of(1e300), spec.size() - 1);
}

TEST(Spectrum, BinOfRejectsNonFiniteFrequency) {
  const auto spec = spectrum_of(tone(10.0, 1000.0, 256, 1.0), 1000.0);
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.bin_of(std::numeric_limits<double>::quiet_NaN()), emts::precondition_error);
  EXPECT_THROW(spec.bin_of(inf), emts::precondition_error);
  EXPECT_THROW(spec.bin_of(-inf), emts::precondition_error);
}

TEST(Spectrum, TwoTonesBothVisible) {
  const double fs = 1024.0;
  const std::size_t n = 2048;
  auto sig = tone(64.0, fs, n, 1.0);
  const auto t2 = tone(200.0, fs, n, 0.5);
  for (std::size_t i = 0; i < n; ++i) sig[i] += t2[i];
  const auto spec = spectrum_of(sig, fs);
  EXPECT_NEAR(spec.amplitude[spec.bin_of(64.0)], 1.0, 0.05);
  EXPECT_NEAR(spec.amplitude[spec.bin_of(200.0)], 0.5, 0.05);
}

TEST(Spectrum, MeanSpectrumAveragesNoiseDown) {
  emts::Rng rng{55};
  const double fs = 1000.0;
  const std::size_t n = 512;
  std::vector<std::vector<double>> noisy;
  for (int t = 0; t < 32; ++t) {
    auto sig = tone(125.0, fs, n, 1.0);
    for (double& v : sig) v += rng.gaussian(0.0, 1.0);
    noisy.push_back(std::move(sig));
  }
  const auto avg = mean_spectrum_of(noisy, fs);
  // Tone preserved.
  EXPECT_NEAR(avg.amplitude[avg.bin_of(125.0)], 1.0, 0.15);
  // Averaged noise floor well below a tone amplitude.
  double floor_sum = 0.0;
  std::size_t floor_count = 0;
  for (std::size_t k = 5; k < avg.size(); ++k) {
    if (std::abs(avg.frequency[k] - 125.0) < 20.0) continue;
    floor_sum += avg.amplitude[k];
    ++floor_count;
  }
  EXPECT_LT(floor_sum / static_cast<double>(floor_count), 0.25);
}

TEST(Spectrum, MeanSpectrumRejectsRaggedInput) {
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(64, 1.0);
  analyzer.stream_push(std::vector<double>(64, 0.0));
  EXPECT_THROW(analyzer.stream_push(std::vector<double>(32, 0.0)), emts::precondition_error);
  EXPECT_EQ(analyzer.stream_count(), 1u);
}

TEST(FindPeaks, DetectsInjectedTonesInBinOrder) {
  const double fs = 1024.0;
  const std::size_t n = 2048;
  auto sig = tone(64.0, fs, n, 1.0);
  const auto t2 = tone(200.0, fs, n, 2.0);
  for (std::size_t i = 0; i < n; ++i) sig[i] += t2[i];
  const auto spec = spectrum_of(sig, fs);
  const auto peaks = find_peaks(spec, 0.2);
  ASSERT_GE(peaks.size(), 2u);
  // Bin-ordered: the 64 Hz tone comes first even though 200 Hz is stronger.
  EXPECT_NEAR(peaks[0].frequency, 64.0, 1.0);
  EXPECT_NEAR(peaks[1].frequency, 200.0, 1.0);
  EXPECT_GT(peaks[1].amplitude, peaks[0].amplitude);
}

TEST(FindPeaks, RespectsMaxPeaks) {
  emts::Rng rng{77};
  std::vector<double> sig(1024);
  for (double& v : sig) v = rng.gaussian();
  const auto spec = spectrum_of(sig, 1000.0);
  const auto peaks = find_peaks(spec, 0.0, 5);
  EXPECT_LE(peaks.size(), 5u);
  for (std::size_t i = 1; i < peaks.size(); ++i) EXPECT_LT(peaks[i - 1].bin, peaks[i].bin);
}

// Regression: truncation must drop the weakest peaks, not the highest
// frequencies — a strong Trojan carrier high in the band has to survive a
// crowded low band.
TEST(FindPeaks, TruncationKeepsTheStrongestPeaks) {
  const double fs = 1024.0;
  const std::size_t n = 2048;
  // Six weak low-frequency tones, one strong tone near the top of the band.
  std::vector<double> sig(n, 0.0);
  for (double f : {24.0, 40.0, 56.0, 72.0, 88.0, 104.0}) {
    const auto t = tone(f, fs, n, 0.5);
    for (std::size_t i = 0; i < n; ++i) sig[i] += t[i];
  }
  const auto carrier = tone(480.0, fs, n, 3.0);
  for (std::size_t i = 0; i < n; ++i) sig[i] += carrier[i];

  const auto spec = spectrum_of(sig, fs);
  const auto peaks = find_peaks(spec, 0.1, 4);
  ASSERT_EQ(peaks.size(), 4u);
  // The strong high-band carrier must be among the survivors...
  bool carrier_kept = false;
  for (const auto& p : peaks) carrier_kept |= std::abs(p.frequency - 480.0) < 1.0;
  EXPECT_TRUE(carrier_kept);
  // ...and the survivors come back bin-ordered.
  for (std::size_t i = 1; i < peaks.size(); ++i) EXPECT_LT(peaks[i - 1].bin, peaks[i].bin);
  // Every kept peak is at least as strong as every qualifying peak that was
  // dropped.
  const auto all = find_peaks(spec, 0.1, 1000);
  ASSERT_GT(all.size(), 4u);
  double weakest_kept = peaks[0].amplitude;
  for (const auto& p : peaks) weakest_kept = std::min(weakest_kept, p.amplitude);
  std::size_t stronger_than_weakest_kept = 0;
  for (const auto& p : all) {
    if (p.amplitude > weakest_kept) ++stronger_than_weakest_kept;
  }
  EXPECT_LE(stronger_than_weakest_kept, 3u);
}

TEST(FindPeaks, IntoVariantMatchesAndReusesItsBuffer) {
  const double fs = 1024.0;
  auto sig = tone(64.0, fs, 2048, 1.0);
  const auto t2 = tone(200.0, fs, 2048, 2.0);
  for (std::size_t i = 0; i < sig.size(); ++i) sig[i] += t2[i];
  const auto spec = spectrum_of(sig, fs);

  const auto copied = find_peaks(spec, 0.2);
  std::vector<SpectralPeak> reused;
  find_peaks_into(spec, 0.2, reused);
  ASSERT_EQ(reused.size(), copied.size());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(reused[i].bin, copied[i].bin);
    EXPECT_EQ(reused[i].frequency, copied[i].frequency);
    EXPECT_EQ(reused[i].amplitude, copied[i].amplitude);
  }
  // Second call clears before writing — no stale accumulation.
  find_peaks_into(spec, 0.2, reused);
  EXPECT_EQ(reused.size(), copied.size());
}

// The analyzer's real-split transform against the full-size reference, on
// every pass of a reused analyzer; analyze() and a one-push streamed mean are
// the same transform, so they agree bitwise.
TEST(SpectrumAnalyzer, AnalyzeMatchesFullFftReference) {
  emts::Rng rng{88};
  std::vector<double> sig(1000);  // non-power-of-two: exercises padding
  for (double& v : sig) v = rng.gaussian();
  const Spectrum reference = test_support::reference_spectrum(sig, 1000.0);
  const double peak = test_support::peak_amplitude(reference);

  SpectrumAnalyzer analyzer;
  for (int pass = 0; pass < 3; ++pass) {
    const Spectrum& cached = analyzer.analyze(sig, 1000.0);
    ASSERT_EQ(cached.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_NEAR(cached.amplitude[k], reference.amplitude[k], 1e-12 * peak)
          << "pass " << pass << " bin " << k;
      EXPECT_EQ(cached.frequency[k], reference.frequency[k]) << "pass " << pass << " bin " << k;
    }
  }
  EXPECT_EQ(analyzer.warmups(), 1u);  // same shape throughout: one cache build

  const std::vector<double> analyzed = analyzer.analyze(sig, 1000.0).amplitude;
  analyzer.ensure_stream(sig.size(), 1000.0);
  analyzer.stream_push(sig);
  EXPECT_EQ(analyzer.stream_mean().amplitude, analyzed);
}

// The smallest shapes: one sample is its own one-bin transform, two samples
// untangle a 1-point FFT and three (padded to four) a 2-point one. All match
// the full-size reference.
TEST(SpectrumAnalyzer, TinySignalsMatchFullFftReference) {
  SpectrumOptions options;
  options.window = WindowKind::kRectangular;
  options.remove_mean = false;
  const std::vector<std::vector<double>> signals = {{-3.0}, {1.5, -0.5}, {2.0, 1.0, -4.0}};
  for (const auto& sig : signals) {
    const Spectrum reference = test_support::reference_spectrum(sig, 10.0, options);
    const Spectrum analyzed = spectrum_of(sig, 10.0, options);
    ASSERT_EQ(analyzed.size(), reference.size()) << "length " << sig.size();
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_NEAR(analyzed.amplitude[k], reference.amplitude[k], 1e-12)
          << "length " << sig.size() << " bin " << k;
      EXPECT_EQ(analyzed.frequency[k], reference.frequency[k]);
    }
  }
  EXPECT_EQ(spectrum_of({-3.0}, 10.0, options).amplitude, std::vector<double>{3.0});
}

// The streamed mean runs one half-size real-split FFT per trace, so it
// matches the full-size reference mean to floating-point rounding.
TEST(SpectrumAnalyzer, StreamedMeanMatchesMeanSpectrumToRounding) {
  emts::Rng rng{89};
  std::vector<std::vector<double>> signals;
  for (int t = 0; t < 7; ++t) {
    auto sig = tone(125.0, 1000.0, 512, 1.0);
    for (double& v : sig) v += rng.gaussian(0.0, 0.5);
    signals.push_back(std::move(sig));
  }
  const Spectrum reference = test_support::reference_mean_spectrum(signals, 1000.0);

  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(512, 1000.0);
  for (const auto& sig : signals) analyzer.stream_push(sig);
  const Spectrum& streamed = analyzer.stream_mean();

  ASSERT_EQ(streamed.size(), reference.size());
  const double peak = test_support::peak_amplitude(reference);
  for (std::size_t k = 0; k < reference.size(); ++k) {
    // Tight absolute bound relative to the spectrum's scale: the real-split
    // and full transforms differ only by rounding inside the butterflies.
    EXPECT_NEAR(streamed.amplitude[k], reference.amplitude[k], 1e-12 * peak) << "bin " << k;
  }

  // A second streamed pass after a reset reproduces itself exactly.
  std::vector<double> first_pass(streamed.amplitude);
  analyzer.stream_reset();
  for (const auto& sig : signals) analyzer.stream_push(sig);
  const Spectrum& again = analyzer.stream_mean();
  for (std::size_t k = 0; k < first_pass.size(); ++k) {
    EXPECT_EQ(again.amplitude[k], first_pass[k]) << "bin " << k;
  }
}

// A saved sum and count reinstated onto a fresh accumulator continue
// bit-exactly: the sum is the whole accumulator state.
TEST(SpectrumAnalyzer, StreamRestoreContinuesBitExactly) {
  emts::Rng rng{90};
  std::vector<std::vector<double>> signals;
  for (int t = 0; t < 6; ++t) {
    auto sig = tone(125.0, 1000.0, 512, 1.0);
    for (double& v : sig) v += rng.gaussian(0.0, 0.5);
    signals.push_back(std::move(sig));
  }
  SpectrumAnalyzer reference;
  reference.ensure_stream(512, 1000.0);
  for (int t = 0; t < 3; ++t) reference.stream_push(signals[t]);
  const std::vector<double> saved = reference.stream_sum();

  SpectrumAnalyzer restored;
  restored.ensure_stream(512, 1000.0);
  restored.stream_restore(saved, 3);
  for (int t = 3; t < 6; ++t) {
    reference.stream_push(signals[t]);
    restored.stream_push(signals[t]);
  }
  EXPECT_EQ(restored.stream_count(), 6u);
  EXPECT_EQ(restored.stream_sum(), reference.stream_sum());
}

TEST(SpectrumAnalyzer, StreamRestoreRefusesBadState) {
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(512, 1000.0);
  const std::vector<double> good(257, 1.0);
  EXPECT_THROW(analyzer.stream_restore(std::vector<double>(256, 1.0), 2),
               emts::precondition_error);
  EXPECT_THROW(analyzer.stream_restore(good, 0), emts::precondition_error);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1e-9}) {
    std::vector<double> sum = good;
    sum[100] = bad;
    EXPECT_THROW(analyzer.stream_restore(sum, 2), emts::precondition_error) << bad;
  }
  EXPECT_EQ(analyzer.stream_count(), 0u);  // nothing changes on refusal

  SpectrumAnalyzer unsized;
  EXPECT_THROW(unsized.stream_restore(good, 2), emts::precondition_error);

  analyzer.stream_restore(good, 2);
  EXPECT_THROW(analyzer.stream_restore(good, 2), emts::precondition_error);  // not empty
}

TEST(SpectrumAnalyzer, RewarmsOnShapeChangeOnly) {
  SpectrumAnalyzer analyzer;
  analyzer.analyze(tone(10.0, 1000.0, 256, 1.0), 1000.0);
  analyzer.analyze(tone(20.0, 1000.0, 256, 1.0), 1000.0);
  EXPECT_EQ(analyzer.warmups(), 1u);
  analyzer.analyze(tone(10.0, 1000.0, 512, 1.0), 1000.0);  // new length
  EXPECT_EQ(analyzer.warmups(), 2u);
  analyzer.analyze(tone(10.0, 2000.0, 512, 1.0), 2000.0);  // new rate
  EXPECT_EQ(analyzer.warmups(), 3u);
}

TEST(FindPeaks, EmptyWhenThresholdAboveEverything) {
  const auto spec = spectrum_of(tone(64.0, 1024.0, 1024, 1.0), 1024.0);
  EXPECT_TRUE(find_peaks(spec, 100.0).empty());
}

}  // namespace
}  // namespace emts::dsp
