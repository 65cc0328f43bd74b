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
  // Plain doubles on purpose (see fft.hpp). v = hi·w is formed in the order
  // std::complex uses, so finite input gives the complex loop's bits. The
  // standard lets an array of std::complex<double> be read as doubles:
  // element j's real part is d[2j], its imaginary part d[2j + 1].
  double* const d = reinterpret_cast<double*>(data.data());
  std::size_t offset = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const double* w = reinterpret_cast<const double*>(twiddles_.data() + offset);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      double* lo = d + 2 * i;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k];
        const double wi = w[2 * k + 1];
        const double br = hi[2 * k];
        const double bi = hi[2 * k + 1];
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
    offset += half;
  }
}

}  // namespace emts::dsp
