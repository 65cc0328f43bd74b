#include "dsp/stft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

std::vector<double> tone_burst(double fs, std::size_t n, double freq, std::size_t on_from,
                               double amplitude) {
  std::vector<double> sig(n, 0.0);
  for (std::size_t i = on_from; i < n; ++i) {
    sig[i] = amplitude * std::sin(2.0 * units::pi * freq * static_cast<double>(i) / fs);
  }
  return sig;
}

TEST(Stft, FrameGeometry) {
  const auto sig = tone_burst(1e6, 8192, 1e4, 0, 1.0);
  StftOptions opt;
  opt.window_length = 1024;
  opt.hop = 256;
  const auto spec = stft(sig, 1e6, opt);
  EXPECT_EQ(spec.frames(), (8192 - 1024) / 256 + 1);
  EXPECT_EQ(spec.bins(), 513u);
  EXPECT_DOUBLE_EQ(spec.frame_time(0), 0.0);
  EXPECT_DOUBLE_EQ(spec.frame_time(4), 4.0 * 256.0 / 1e6);
  EXPECT_DOUBLE_EQ(spec.bin_frequency(512), 5e5);
}

TEST(Stft, SteadyToneHasConstantBandPower) {
  const double fs = 1e6;
  const auto sig = tone_burst(fs, 16384, 5e4, 0, 2.0);
  const auto spec = stft(sig, fs);
  const double first = spec.band_power(0, 4.5e4, 5.5e4);
  for (std::size_t f = 1; f < spec.frames(); ++f) {
    EXPECT_NEAR(spec.band_power(f, 4.5e4, 5.5e4), first, 0.15 * first) << "frame " << f;
  }
  EXPECT_GT(first, 0.1);
}

TEST(Stft, ToneAmplitudeRecovered) {
  const double fs = 1024.0 * 1000.0;
  // Bin-exact tone at 64 kHz with a 1024 window.
  const auto sig = tone_burst(fs, 8192, 64e3, 0, 3.0);
  const auto spec = stft(sig, fs);
  EXPECT_NEAR(spec.magnitude[2][spec.bin_of(64e3)], 3.0, 0.1);
}

TEST(Stft, BurstOnsetLocalizedInTime) {
  const double fs = 1e6;
  const std::size_t onset_sample = 20000;
  auto sig = tone_burst(fs, 65536, 1e5, onset_sample, 1.0);
  emts::Rng rng{4};
  for (double& v : sig) v += rng.gaussian(0.0, 0.02);

  const auto spec = stft(sig, fs);
  const std::size_t frame = find_band_activation(spec, 0.9e5, 1.1e5);
  ASSERT_LT(frame, spec.frames()) << "activation must be found";
  const double t = spec.frame_time(frame);
  const double expected = static_cast<double>(onset_sample) / fs;
  EXPECT_NEAR(t, expected, 2.0 * 1024.0 / fs);  // within two windows
}

TEST(Stft, NoActivationInPlainNoise) {
  emts::Rng rng{5};
  std::vector<double> sig(32768);
  for (double& v : sig) v = rng.gaussian();
  const auto spec = stft(sig, 1e6);
  EXPECT_EQ(find_band_activation(spec, 1e5, 1.2e5, 6.0), spec.frames());
}

TEST(Stft, RejectsBadOptions) {
  const std::vector<double> sig(2048, 0.0);
  StftOptions bad;
  bad.window_length = 1000;  // not a power of two
  EXPECT_THROW(stft(sig, 1e6, bad), emts::precondition_error);
  bad = StftOptions{};
  bad.hop = 0;
  EXPECT_THROW(stft(sig, 1e6, bad), emts::precondition_error);
  EXPECT_THROW(stft(std::vector<double>(16, 0.0), 1e6), emts::precondition_error);
}

TEST(Stft, BinOfClampsOutOfRange) {
  const auto spec = stft(std::vector<double>(4096, 1.0), 1e6);
  EXPECT_EQ(spec.bin_of(-5.0), 0u);
  EXPECT_EQ(spec.bin_of(-1e300), 0u);
  EXPECT_EQ(spec.bin_of(1e300), spec.bins() - 1);
}

TEST(Stft, BinOfRejectsNonFiniteFrequency) {
  const auto spec = stft(std::vector<double>(4096, 1.0), 1e6);
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spec.bin_of(nan), emts::precondition_error);
  EXPECT_THROW(spec.bin_of(inf), emts::precondition_error);
  EXPECT_THROW(spec.bin_of(-inf), emts::precondition_error);
  // A band edge reaches bin_of unchecked through find_band_activation.
  EXPECT_THROW(find_band_activation(spec, 0.0, inf), emts::precondition_error);
}

TEST(Stft, BandPowerValidatesArguments) {
  const auto spec = stft(std::vector<double>(4096, 1.0), 1e6);
  EXPECT_THROW(spec.band_power(999, 0.0, 1.0), emts::precondition_error);
  EXPECT_THROW(spec.band_power(0, 2.0, 1.0), emts::precondition_error);
}

}  // namespace
}  // namespace emts::dsp
