// The reference schedule the engine is checked against: the sequential
// loop written with nothing but the public per-process APIs —
// SimSystem::run_epoch, then for each attached live process, in slot order,
// one StreamingInference::infer over its window summary and
// ValkyrieMonitor::on_epoch. No feature plane, no shards, no command
// buffers, no batch kernels, no pid maps. It mirrors the ValkyrieEngine
// calls the determinism suites drive (attach, detach, step, monitor,
// last_action), so a suite runs one templated driver against both and
// demands bit-identical results.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/detector.hpp"
#include "sim/system.hpp"

namespace valkyrie::core {

class ReferenceLoop {
 public:
  ReferenceLoop(sim::SimSystem& sys, const ml::Detector& detector)
      : sys_(sys), detector_(detector) {}

  void attach(sim::ProcessId pid, ValkyrieConfig config,
              std::unique_ptr<Actuator> actuator) {
    monitored_.emplace(pid,
                       Monitored{ValkyrieMonitor(config, std::move(actuator))});
  }
  void detach(sim::ProcessId pid) { monitored_.erase(pid); }
  [[nodiscard]] bool is_attached(sim::ProcessId pid) const {
    return monitored_.contains(pid);
  }
  [[nodiscard]] const ValkyrieMonitor& monitor(sim::ProcessId pid) const {
    return monitored_.at(pid).monitor;
  }
  [[nodiscard]] ValkyrieMonitor::Action last_action(sim::ProcessId pid) const {
    return monitored_.at(pid).last_action;
  }

  /// One epoch; returns the attached processes still live, as
  /// ValkyrieEngine::step does. A process that completed this epoch has
  /// already retired, so it gets no inference and reads kNone.
  std::size_t step() {
    sys_.run_epoch();
    for (auto& [pid, m] : monitored_) m.last_action = {};
    // A copy: a kill below compacts the live list at its next read.
    const std::vector<sim::ProcessId> live(sys_.live_processes().begin(),
                                           sys_.live_processes().end());
    for (const sim::ProcessId pid : live) {
      const auto it = monitored_.find(pid);
      if (it == monitored_.end()) continue;
      Monitored& m = it->second;
      const ml::Inference inference =
          m.stream.infer(detector_, sys_.window_summary(pid));
      m.last_action = m.monitor.on_epoch(sys_, pid, inference);
    }
    std::size_t live_attached = 0;
    for (const sim::ProcessId pid : sys_.live_processes()) {
      if (is_attached(pid)) ++live_attached;
    }
    return live_attached;
  }

 private:
  struct Monitored {
    ValkyrieMonitor monitor;
    ml::StreamingInference stream{};
    ValkyrieMonitor::Action last_action = ValkyrieMonitor::Action::kNone;
  };

  sim::SimSystem& sys_;
  const ml::Detector& detector_;
  std::map<sim::ProcessId, Monitored> monitored_;
};

}  // namespace valkyrie::core
