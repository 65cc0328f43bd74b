#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

TEST(FftHelpers, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1000));
}

TEST(FftHelpers, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<cplx> data(8, cplx{0, 0});
  data[0] = cplx{1, 0};
  FftPlan{8}.forward(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalHasOnlyDc) {
  std::vector<cplx> data(16, cplx{2.5, 0});
  FftPlan{16}.forward(data);
  EXPECT_NEAR(data[0].real(), 40.0, 1e-10);
  for (std::size_t k = 1; k < data.size(); ++k) EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-10);
}

TEST(Fft, SingleToneLandsInItsBin) {
  const std::size_t n = 256;
  const std::size_t tone_bin = 19;
  std::vector<cplx> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase =
        2.0 * units::pi * static_cast<double>(tone_bin * i) / static_cast<double>(n);
    data[i] = cplx{std::cos(phase), 0.0};
  }
  FftPlan{n}.forward(data);
  // cos tone of amplitude 1 -> N/2 in bins +/- tone.
  EXPECT_NEAR(std::abs(data[tone_bin]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(data[n - tone_bin]), static_cast<double>(n) / 2.0, 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == tone_bin || k == n - tone_bin) continue;
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-8);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan{12}, emts::precondition_error);
}

TEST(Fft, LinearityHolds) {
  emts::Rng rng{314};
  const std::size_t n = 64;
  std::vector<cplx> a(n);
  std::vector<cplx> b(n);
  std::vector<cplx> combo(n);
  const cplx alpha{2.0, -1.0};
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = cplx{rng.gaussian(), rng.gaussian()};
    b[i] = cplx{rng.gaussian(), rng.gaussian()};
    combo[i] = alpha * a[i] + b[i];
  }
  const FftPlan plan{n};
  plan.forward(a);
  plan.forward(b);
  plan.forward(combo);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx expected = alpha * a[k] + b[k];
    EXPECT_NEAR(std::abs(combo[k] - expected), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConserved) {
  emts::Rng rng{2718};
  const std::size_t n = 512;
  std::vector<cplx> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = cplx{rng.gaussian(), 0.0};
    time_energy += std::norm(x);
  }
  FftPlan{n}.forward(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6 * time_energy);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

// The inverse transform is the forward one under conjugation:
// x = conj(FFT(conj(X))) / N, so a plan alone round-trips.
TEST_P(FftRoundTrip, InverseRecoversInput) {
  const std::size_t n = GetParam();
  emts::Rng rng{emts::mix64(n)};
  std::vector<cplx> original(n);
  for (auto& x : original) x = cplx{rng.gaussian(), rng.gaussian()};
  const FftPlan plan{n};
  auto data = original;
  plan.forward(data);
  for (auto& x : data) x = std::conj(x);
  plan.forward(data);
  for (auto& x : data) x = std::conj(x) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 64, 1024, 4096));

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan{0}, emts::precondition_error);
  EXPECT_THROW(FftPlan{3}, emts::precondition_error);
  const FftPlan plan{8};
  std::vector<cplx> wrong(4);
  EXPECT_THROW(plan.forward(wrong), emts::precondition_error);
}

// The textbook radix-2 loop in std::complex arithmetic: its own bit
// reversal, and per stage a twiddle that starts at 1 and steps w *= wlen.
// FftPlan::forward must reproduce it bit for bit on finite input. Each
// stage's twiddles are stepped out before its butterflies run, as the plan
// steps out its table, and the function stays out of line: inlined into the
// test body, GCC contracts its products into FMA differently from fft.cpp
// on targets that have FMA (-march=x86-64-v3).
[[gnu::noinline]] void complex_reference_fft(std::vector<cplx>& data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  std::vector<cplx> w;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * units::pi / static_cast<double>(len);
    const cplx wlen{std::cos(angle), std::sin(angle)};
    w.clear();
    cplx step{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      w.push_back(step);
      step *= wlen;
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + len / 2] * w[k];
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(FftPlan, ForwardMatchesComplexReferenceBitwise) {
  emts::Rng rng{0xF17};
  // Random sign and a magnitude spread log-uniformly over 1e-200..1e200.
  const auto draw = [&rng] {
    const double magnitude = std::pow(10.0, rng.uniform(-200.0, 200.0));
    return rng.coin() ? magnitude : -magnitude;
  };
  for (std::size_t n = 1; n <= 8192; n <<= 1) {
    std::vector<cplx> expected(n);
    for (auto& x : expected) x = cplx{draw(), draw()};
    auto actual = expected;
    complex_reference_fft(expected);
    FftPlan{n}.forward(actual);
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (bits_of(actual[k].real()) != bits_of(expected[k].real()) ||
          bits_of(actual[k].imag()) != bits_of(expected[k].imag())) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "n = " << n;
  }
}

TEST(FftPlan, IsReusableAcrossTransforms) {
  const FftPlan plan{16};
  std::vector<cplx> first(16, cplx{1.0, 0.0});
  std::vector<cplx> second = first;
  plan.forward(first);
  plan.forward(second);
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(first[k].real(), second[k].real());
    EXPECT_EQ(first[k].imag(), second[k].imag());
  }
}

}  // namespace
}  // namespace emts::dsp
