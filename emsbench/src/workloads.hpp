// The four workloads and the helpers they share.
#pragma once

#include <complex>
#include <vector>

#include "common.hpp"
#include "core/detector.hpp"
#include "core/euclidean.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"

namespace emsbench {

Result run_monitor_stream(const Args& args, SpanRecorder& spans);
Result run_serve_fleet(const Args& args, SpanRecorder& spans);
Result run_serve_small_frames(const Args& args, SpanRecorder& spans);
Result run_array_localize(const Args& args, SpanRecorder& spans);

/// Traced pushes whose stages are also probed (one in this many).
inline constexpr std::size_t kProbeEvery = 4;

/// Times one push's stages by calling each layer directly on the same
/// capture: preprocessing, the Euclidean score, the amplitude spectrum and
/// the half-size FFT plan the per-push real-split transform runs. Spans are
/// children of `parent` and carry the push's identifier.
class StageProbe {
 public:
  StageProbe(const core::TrustEvaluator& evaluator, double sample_rate, std::size_t samples,
             SpanRecorder& spans);
  void probe(const core::Trace& trace, std::uint64_t op, std::int32_t parent);

  /// The core.* and dsp.* per-layer figures from the push spans ("core.monitor.push")
  /// and the probe spans.
  static void report(Result& result, const SpanRecorder& spans);

 private:
  const core::EuclideanDetector& euclidean_;
  double sample_rate_;
  SpanRecorder& spans_;
  core::ScoreScratch scratch_;
  std::vector<double> work_, aux_, aux2_, features_;
  emts::dsp::SpectrumAnalyzer analyzer_;
  emts::dsp::FftPlan plan_;
  std::vector<std::complex<double>> fft_buffer_;
  double sink_ = 0.0;
  std::uint32_t features_span_, score_span_, analyze_span_, fft_span_;
};

/// Attributed share of one operation: 1 - (sum of stage medians) / end-to-end
/// median; reported, never gated.
inline double unattributed_share(double end_to_end_us, double stage_sum_us) {
  return end_to_end_us > 0.0 ? 1.0 - stage_sum_us / end_to_end_us : 0.0;
}

}  // namespace emsbench
