#include "core/detector.hpp"

#include <algorithm>
#include <sstream>

#include "core/euclidean.hpp"
#include "core/spectral.hpp"
#include "util/assert.hpp"

namespace emts::core {

double Detector::score(const Trace& trace) const {
  ScoreScratch scratch;
  return score_buffered(trace, scratch);
}

bool Detector::is_anomalous(const Trace& trace) const { return score(trace) > threshold(); }

DetectorReport Detector::evaluate_set(const TraceSet& suspect, double alarm_fraction) const {
  EMTS_REQUIRE(!suspect.empty(), "evaluate_set needs traces");
  DetectorReport report;
  report.name = name();
  report.threshold = threshold();

  ScoreScratch scratch;
  double sum = 0.0;
  std::size_t beyond = 0;
  for (const Trace& trace : suspect.traces) {
    const double s = score_buffered(trace, scratch);
    sum += s;
    report.max_score = std::max(report.max_score, s);
    if (s > report.threshold) ++beyond;
  }
  const auto n = static_cast<double>(suspect.size());
  report.mean_score = sum / n;
  report.anomalous_fraction = static_cast<double>(beyond) / n;
  report.alarm = report.anomalous_fraction > alarm_fraction;

  std::ostringstream detail;
  detail << "mean " << report.mean_score << " (threshold " << report.threshold << "), "
         << 100.0 * report.anomalous_fraction << "% beyond";
  report.detail = detail.str();
  return report;
}

std::vector<double> Detector::score_all(const TraceSet& set) const {
  ScoreScratch scratch;
  std::vector<double> out;
  out.reserve(set.size());
  for (const Trace& trace : set.traces) out.push_back(score_buffered(trace, scratch));
  return out;
}

DetectorRegistry& DetectorRegistry::instance() {
  static DetectorRegistry registry;
  return registry;
}

DetectorRegistry::DetectorRegistry() {
  entries_["euclidean"] = Entry{
      [](const TraceSet& golden) {
        return std::make_shared<const EuclideanDetector>(EuclideanDetector::calibrate(golden));
      },
      [](std::istream& in) {
        return std::make_shared<const EuclideanDetector>(EuclideanDetector::load(in));
      }};
  entries_["spectral"] = Entry{
      [](const TraceSet& golden) {
        return std::make_shared<const SpectralDetector>(SpectralDetector::calibrate(golden));
      },
      [](std::istream& in) {
        return std::make_shared<const SpectralDetector>(SpectralDetector::load(in));
      }};
}

void DetectorRegistry::add(const std::string& name, CalibrateFn calibrate, LoadFn load) {
  EMTS_REQUIRE(!name.empty(), "detector name must be non-empty");
  EMTS_REQUIRE(calibrate != nullptr && load != nullptr, "detector factories must be callable");
  const std::lock_guard<std::mutex> lock{mutex_};
  entries_[name] = Entry{std::move(calibrate), std::move(load)};
}

bool DetectorRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return entries_.count(name) != 0;
}

std::vector<std::string> DetectorRegistry::names() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::shared_ptr<const Detector> DetectorRegistry::calibrate(const std::string& name,
                                                            const TraceSet& golden) const {
  CalibrateFn fn;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = entries_.find(name);
    EMTS_REQUIRE(it != entries_.end(), "unknown detector '" + name + "' (not registered)");
    fn = it->second.calibrate;
  }
  auto detector = fn(golden);
  EMTS_REQUIRE(detector != nullptr, "detector factory for '" + name + "' returned null");
  return detector;
}

std::shared_ptr<const Detector> DetectorRegistry::load(const std::string& name,
                                                       std::istream& in) const {
  LoadFn fn;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = entries_.find(name);
    EMTS_REQUIRE(it != entries_.end(), "unknown detector '" + name + "' (not registered)");
    fn = it->second.load;
  }
  auto detector = fn(in);
  EMTS_REQUIRE(detector != nullptr, "detector loader for '" + name + "' returned null");
  return detector;
}

}  // namespace emts::core
