#include "core/traces.hpp"

#include <algorithm>

#include "sim/system.hpp"

namespace valkyrie::core {

ml::LabeledTrace collect_trace(std::unique_ptr<sim::Workload> workload,
                               std::size_t epochs,
                               const sim::PlatformProfile& platform,
                               std::uint64_t seed) {
  ml::LabeledTrace trace;
  trace.name = std::string(workload->name());
  trace.malicious = workload->is_attack();

  sim::SimSystem sys(platform, seed);
  const sim::ProcessId pid = sys.spawn(std::move(workload));
  // The system keeps only a ring of recent samples: record every epoch's.
  for (std::size_t i = 0; i < epochs && sys.is_live(pid); ++i) {
    sys.run_epoch();
    trace.samples.push_back(sys.last_sample(pid));
  }
  return trace;
}

ml::TraceSet collect_traces(const std::vector<WorkloadFactory>& factories,
                            std::size_t epochs,
                            const sim::PlatformProfile& platform,
                            std::uint64_t seed) {
  ml::TraceSet set;
  std::uint64_t trace_seed = seed;
  for (const WorkloadFactory& factory : factories) {
    set.traces.push_back(
        collect_trace(factory(), epochs, platform, trace_seed++));
  }
  return set;
}

double calibrate_stat_threshold(ml::StatisticalDetector& detector,
                                std::span<const ml::Example> benign_examples,
                                double target_fp_rate) {
  std::vector<double> scores;
  scores.reserve(benign_examples.size());
  for (const ml::Example& ex : benign_examples) {
    if (!ex.malicious) scores.push_back(detector.score(ex.features));
  }
  if (scores.empty()) return detector.config().threshold;
  std::sort(scores.begin(), scores.end());
  const double q = std::clamp(1.0 - target_fp_rate, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(scores.size() - 1));
  const double threshold = scores[idx];
  detector.set_threshold(threshold);
  return threshold;
}

}  // namespace valkyrie::core
