#include "dsp/fft.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::dsp {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_{n} {
  EMTS_REQUIRE(is_power_of_two(n), "FftPlan requires a power-of-two length");

  // Bit-reversal partner of each index, recorded once and applied per call.
  reverse_.assign(n_, 0);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n_; ++i) {
    std::size_t bit = n_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    reverse_[i] = j;
  }

  // Each stage's butterfly restarts w = 1 and steps w *= wlen; every group
  // inside a stage replays the identical sequence, so one table per stage
  // serves them all.
  twiddles_.reserve(n_ > 1 ? n_ - 1 : 0);
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const double angle = -2.0 * units::pi / static_cast<double>(len);
    const cplx wlen{std::cos(angle), std::sin(angle)};
    cplx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(w);
      w *= wlen;
    }
  }
}

void FftPlan::forward(std::vector<cplx>& data) const {
  EMTS_REQUIRE(data.size() == n_, "FftPlan::forward: size mismatch with plan");
  for (std::size_t i = 1; i < n_; ++i) {
    if (i < reverse_[i]) std::swap(data[i], data[reverse_[i]]);
  }
  std::size_t offset = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const cplx* w = twiddles_.data() + offset;
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + half] * w[k];
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    offset += half;
  }
}

}  // namespace emts::dsp
