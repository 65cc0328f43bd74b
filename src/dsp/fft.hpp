// Iterative radix-2 Cooley–Tukey FFT, implemented from scratch.
// Used by the spectral Trojan detector (paper Sec. III-E / Fig. 4 / Fig. 6 i–l)
// to transform measured EM traces into the frequency domain.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace emts::dsp {

using cplx = std::complex<double>;

/// True if n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Precomputed forward FFT of one fixed power-of-two size: the bit-reversal
/// permutation and every stage's twiddle factors are cached at construction,
/// so forward() performs no allocations and no trigonometry.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);  // n must be a power of two

  std::size_t size() const { return n_; }

  /// In-place forward transform; requires data.size() == size().
  ///
  /// The butterfly is written in plain doubles on purpose, not as a
  /// std::complex product: GCC compiles that product into a NaN-recovery
  /// branch to __muldc3 and spills it through the stack, which stalls store
  /// forwarding on every butterfly. Keep it that way.
  ///
  /// Contract: for finite input the output equals the textbook radix-2 loop
  /// in std::complex arithmetic bit for bit. Infinite input loses C Annex G's
  /// infinity recovery and yields NaN where std::complex might yield ±inf;
  /// at runtime RuntimeMonitor::admit_trace keeps non-finite captures away
  /// from the transform.
  void forward(std::vector<cplx>& data) const;

 private:
  std::size_t n_ = 1;
  std::vector<std::size_t> reverse_;  // bit-reversal partner of each index
  std::vector<cplx> twiddles_;        // per-stage tables, stages concatenated
};

}  // namespace emts::dsp
