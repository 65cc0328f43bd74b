// Pluggable detector plug-point of the data-analysis module. The paper wires
// exactly two detectors (PCA/Euclidean, Sec. III-D; spectral, Sec. III-E)
// into its analysis pipeline; follow-up work swaps in golden-model-free and
// reference-free stages, so the evaluator composes an arbitrary list of
// `Detector`s instead. A string-keyed registry maps stable detector names to
// calibrate-from-golden and load-from-artifact factories — the latter is how
// the EMCA calibration format (io/calibration.hpp) rehydrates a fitted stack
// without re-capturing golden traces.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.hpp"

namespace emts::core {

/// Set-level outcome of one detector stage inside a trust report.
struct DetectorReport {
  std::string name;
  double mean_score = 0.0;
  double max_score = 0.0;
  double threshold = 0.0;
  double anomalous_fraction = 0.0;  // traces beyond the threshold
  bool alarm = false;
  std::string detail;  // human-readable stage summary
};

/// Caller-owned working buffers for the allocation-free scoring path. One
/// scratch serves one evaluation stream: the buffers are resized on first
/// use and reused verbatim afterwards, so a steady stream of equal-length
/// traces scores with zero heap allocations. Detectors may use any subset.
struct ScoreScratch {
  std::vector<double> work;       // preprocessing working signal
  std::vector<double> aux;        // smoother prefix sums / generic scratch
  std::vector<double> aux2;       // second preprocessing scratch
  std::vector<double> features;   // preprocessed feature vector
  std::vector<double> embedding;  // model-space embedding
  std::vector<double> recon;      // reconstruction scratch
};

/// A fitted (calibrated) Trojan detector. Implementations are immutable once
/// fitted: scoring is const and thread-safe, so one fitted detector can serve
/// concurrent evaluation streams (one ScoreScratch per stream).
class Detector {
 public:
  virtual ~Detector() = default;

  /// Stable registry name ("euclidean", "spectral", "ron", ...).
  virtual std::string name() const = 0;

  /// Human-readable calibration summary (model shape, thresholds).
  virtual std::string describe() const = 0;

  /// Per-trace anomaly score, larger = more suspicious, with every
  /// intermediate in caller-owned buffers. The one scoring member a detector
  /// implements: score(), is_anomalous(), score_all() and the default
  /// evaluate_set() all score through it.
  virtual double score_buffered(const Trace& trace, ScoreScratch& scratch) const = 0;

  /// score_buffered() through a local scratch (allocates per call).
  double score(const Trace& trace) const;

  /// Score level above which a single trace counts as anomalous.
  virtual double threshold() const = 0;

  /// Verdict for one trace: score(trace) > threshold().
  bool is_anomalous(const Trace& trace) const;

  /// Windowed detectors analyze a whole capture window at once (e.g. a mean
  /// spectrum); per-trace scoring still works but is not the natural grain.
  virtual bool windowed() const { return false; }

  /// Set-level verdict. The default scores every trace and alarms when the
  /// over-threshold fraction exceeds `alarm_fraction`; windowed detectors
  /// override with their own population rule.
  virtual DetectorReport evaluate_set(const TraceSet& suspect, double alarm_fraction) const;

  /// Serializes the fitted state (payload only — the EMCA container frames
  /// it with the detector name and payload size).
  virtual void save(std::ostream& out) const = 0;

  /// Scores a whole set, trace by trace, through one scratch.
  std::vector<double> score_all(const TraceSet& set) const;
};

/// String-keyed factory registry. Built-in detectors ("euclidean",
/// "spectral") are registered on first access; extension modules register
/// theirs explicitly (e.g. baseline::register_ron_detector()). Thread-safe;
/// re-registering a name replaces the previous entry, so repeated
/// registration calls are harmless.
class DetectorRegistry {
 public:
  using CalibrateFn =
      std::function<std::shared_ptr<const Detector>(const TraceSet& golden)>;
  using LoadFn = std::function<std::shared_ptr<const Detector>(std::istream& in)>;

  static DetectorRegistry& instance();

  void add(const std::string& name, CalibrateFn calibrate, LoadFn load);
  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  // sorted

  /// Calibrates the named detector on golden traces with default options.
  std::shared_ptr<const Detector> calibrate(const std::string& name,
                                            const TraceSet& golden) const;

  /// Rehydrates the named detector from a serialized payload.
  std::shared_ptr<const Detector> load(const std::string& name, std::istream& in) const;

 private:
  DetectorRegistry();

  struct Entry {
    CalibrateFn calibrate;
    LoadFn load;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace emts::core
