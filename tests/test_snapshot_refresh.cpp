// Differential oracle for in-place checkpoint refresh (snapshot::refresh /
// SimSystem::capture_into): at every boundary of seeded runs, an image
// captured 0, 1 or 2 checkpoints earlier and refreshed in place must
// encode to exactly the bytes of a fresh capture. The runs cover what can
// change a cold row between two captures: churn with scheduled and policy
// kills, retention reclaim, history recycling, history rings that wrap,
// sensor-fault quarantine (a sample dropped rather than appended), cgroup
// writes routed to pending and retired pids, mutable access to a retired
// workload, and restores (whose images must never be trusted across).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/signatures.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/svm.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshotter.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie::snapshot {
namespace {

/// The benchmark palette against cryptominer and ransomware, so the
/// response terminates attacks inside the run (policy kills).
ml::TraceSet corpus() {
  util::Rng rng(0x5efe);
  const std::vector<workloads::BenchmarkSpec> palette =
      workloads::all_single_threaded();
  std::vector<std::pair<bool, hpc::HpcSignature>> sources;
  for (std::size_t i = 0; i < palette.size(); i += 3) {
    sources.emplace_back(false, workloads::make_signature(palette[i]));
  }
  sources.emplace_back(true, attacks::cryptominer_signature());
  sources.emplace_back(true, attacks::ransomware_signature());
  ml::TraceSet set;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (int t = 0; t < 4; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = sources[s].first;
      trace.name = std::to_string(s) + "-" + std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        trace.samples.push_back(sources[s].second.sample(rng));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

sim::ScenarioScript churn_script() {
  sim::ScenarioScript script;
  script.seed = 0x7e5e;
  script.initial_processes = 48;
  script.arrival_rate = 3.0;
  script.attack_fraction = 0.2;
  script.attack_families = {sim::AttackFamily::kCryptominer,
                            sim::AttackFamily::kRansomware};
  script.mean_lifetime = 12.0;
  script.kill_exit_fraction = 0.5;
  script.monitor_config.required_measurements = 6;
  return script;
}

/// Refreshes three standing images at every check and compares each with a
/// fresh capture: `one_` is refreshed at every check (1 checkpoint old) and
/// then again at the same boundary (0 old), `two_` at every other check
/// (2 old). A Snapshotter requested at every check exercises the spare
/// rotation itself; its deliveries are compared by digest at the end.
class Oracle {
 public:
  static constexpr std::uint32_t kRetired = 0xffffffffu;  // ProcImage::slot

  Oracle()
      : snapshotter_([this](std::vector<std::uint8_t> bytes,
                            std::uint64_t tag) {
          std::lock_guard<std::mutex> lock(mutex_);
          delivered_[tag] = util::fnv1a(bytes);
        }) {}

  template <typename World>
  void check(const World& world) {
    SCOPED_TRACE("check " + std::to_string(checks_));
    const std::vector<std::uint8_t> fresh = encode(capture(world));
    const CaptureStats stats = refresh(world, one_);
    EXPECT_EQ(encode(one_), fresh) << "refresh of a 1-checkpoint-old image";
    reused_ += stats.rows_reused;
    const CaptureStats again = refresh(world, one_);
    EXPECT_EQ(encode(one_), fresh) << "refresh of a 0-checkpoint-old image";
    // Nothing changed since, so only full rings (copied whole, since a
    // wrap overwrites in place) are rebuilt.
    std::uint64_t full_rings = 0;
    for (const ProcImage& proc : one_.system.procs) {
      full_rings += proc.slot != kRetired &&
                    proc.history.size() == ml::kHistoryWindow;
    }
    EXPECT_EQ(again.rows_rebuilt, full_rings);
    if (checks_ % 2 == 1) {
      (void)refresh(world, two_);
      EXPECT_EQ(encode(two_), fresh) << "refresh of a 2-checkpoint-old image";
    }
    expected_[checks_] = util::fnv1a(fresh);
    snapshotter_.request(world, checks_);
    ++checks_;
  }

  /// Waits for the Snapshotter and compares every delivery.
  void finish() {
    snapshotter_.flush();
    std::lock_guard<std::mutex> lock(mutex_);
    EXPECT_EQ(delivered_, expected_) << "Snapshotter deliveries";
  }

  [[nodiscard]] std::uint64_t reused() const noexcept { return reused_; }
  [[nodiscard]] SnapshotImage& one() noexcept { return one_; }

 private:
  SnapshotImage one_;
  SnapshotImage two_;
  std::uint64_t checks_ = 0;
  std::uint64_t reused_ = 0;
  std::map<std::uint64_t, std::uint64_t> expected_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::uint64_t> delivered_;
  Snapshotter snapshotter_;
};

/// The oldest retired pid still tracked, or nullopt.
std::optional<sim::ProcessId> oldest_retired(const sim::SimSystem& sys) {
  for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    try {
      if (!sys.is_live(pid)) return pid;
    } catch (const std::out_of_range&) {
      // reclaimed by retention
    }
  }
  return std::nullopt;
}

TEST(SnapshotRefresh, ChurnRunRefreshesToFreshCaptureBytes) {
  const ml::SvmDetector detector = ml::SvmDetector::make(corpus(), 3);
  fault::FaultPlane faults(0xfa17);
  faults.sensor.dropout_rate = 0.05;
  faults.sensor.stuck_rate = 0.02;
  sim::SimSystem sys;
  sys.enable_retirement_retention(6);
  sys.arm_sensor_faults(&faults);
  core::ValkyrieEngine engine(sys, detector, 2);
  // Lifetimes long enough, and a run long enough, that rows outlive their
  // history rings and wrap them.
  sim::ScenarioScript script = churn_script();
  script.mean_lifetime = 40.0;
  sim::ScenarioDriver driver(engine, std::move(script));

  Oracle oracle;
  std::size_t retired_writes = 0;
  for (int epoch = 0; epoch < 100; ++epoch) {
    driver.step();
    if (epoch % 3 == 2) {
      // Boundary-serial writes to rows an earlier capture saw retired.
      if (const auto pid = oldest_retired(sys)) {
        sys.set_cgroup_caps(*pid, 0.25 + 0.01 * epoch, std::nullopt,
                            std::nullopt, std::nullopt);
        ++retired_writes;
        if (epoch % 2 == 0) sys.clear_cgroup_caps(*pid);
      }
    }
    oracle.check(driver);
  }
  oracle.finish();

  // The run must exercise what the oracle is meant to cover.
  const sim::ScenarioDriver::Stats& stats = driver.stats();
  EXPECT_GT(stats.driver_kills, 0u);
  EXPECT_GT(stats.policy_kills, 0u);
  EXPECT_GT(retired_writes, 0u);
  EXPECT_LT(sys.tracked_processes(), sys.total_spawned()) << "no reclaim";
  EXPECT_GT(oracle.reused(), 0u) << "no row was ever reused";
  std::size_t full = 0;
  for (const ProcImage& proc : oracle.one().system.procs) {
    full += proc.history.size() == ml::kHistoryWindow;
  }
  EXPECT_GT(full, 0u) << "no ring filled";
  std::size_t wrapped = 0;
  for (const sim::ProcessId pid : sys.live_processes()) {
    wrapped += !sys.sample_history(pid).newer.empty();
  }
  EXPECT_GT(wrapped, 0u) << "no live ring wrapped";
}

TEST(SnapshotRefresh, PendingRetiredAndCancelledWritesAreSeen) {
  // Raw system phases, so writes can land on a PENDING admission (spawned
  // while the epoch is open) and a cancelled one; the engine has no
  // attachments and only carries the capture.
  const ml::SvmDetector detector = ml::SvmDetector::make(corpus(), 3);
  sim::SimSystem sys;
  sys.enable_history_recycling();
  core::ValkyrieEngine engine(sys, detector, 1);
  const std::vector<workloads::BenchmarkSpec> palette =
      workloads::all_single_threaded();
  const auto make = [&palette](std::size_t i, double epochs) {
    workloads::BenchmarkSpec spec = palette[i % palette.size()];
    spec.epochs_of_work = epochs;
    return std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
  };
  for (std::size_t i = 0; i < 12; ++i) {
    (void)sys.spawn(make(i, i % 3 == 0 ? 4.0 + static_cast<double>(i) : 1e9));
  }

  Oracle oracle;
  for (std::size_t epoch = 0; epoch < 30; ++epoch) {
    sys.begin_epoch();
    const sim::ProcessId pending = sys.spawn(make(epoch, 1e9));
    sys.set_cgroup_caps(pending, 0.5, 0.75, std::nullopt, std::nullopt);
    if (epoch % 4 == 1) {
      const sim::ProcessId cancelled = sys.spawn(make(epoch + 1, 1e9));
      sys.set_cgroup_caps(cancelled, 0.3, std::nullopt, std::nullopt,
                          std::nullopt);
      sys.kill(cancelled);
    }
    for (std::size_t slot = 0; slot < sys.live_processes().size(); ++slot) {
      (void)sys.step_slot(slot);
    }
    sys.end_epoch();
    if (epoch % 5 == 3) sys.kill(sys.live_processes().front());
    if (epoch % 3 == 0) {
      if (const auto pid = oldest_retired(sys)) {
        sys.set_cgroup_caps(*pid, std::nullopt, 0.1 + 0.02 * epoch,
                            std::nullopt, std::nullopt);
      }
    }
    oracle.check(engine);
  }
  oracle.finish();
  EXPECT_GT(oracle.reused(), 0u);
}

TEST(SnapshotRefresh, RetiredWorkloadMutableAccessIsSeen) {
  // No recycling: retired rows keep their workloads and histories, so a
  // retired workload reached through the mutable accessor is still there.
  const ml::SvmDetector detector = ml::SvmDetector::make(corpus(), 3);
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, 1);
  workloads::BenchmarkSpec spec = workloads::all_single_threaded().front();
  spec.epochs_of_work = 3.0;
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(spec));
  spec.epochs_of_work = 1e9;
  (void)sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(spec));

  Oracle oracle;
  for (int epoch = 0; epoch < 8; ++epoch) {
    engine.step();
    oracle.check(engine);
  }
  ASSERT_FALSE(sys.is_live(pid));
  (void)sys.workload(pid);  // mutable access: the row is stamped
  engine.step();
  oracle.check(engine);
  oracle.finish();
}

TEST(SnapshotRefresh, ImagesAreNeverTrustedAcrossARestore) {
  const ml::SvmDetector detector = ml::SvmDetector::make(corpus(), 3);
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, 2);
  sim::ScenarioDriver driver(engine, churn_script());
  driver.run(20);
  SnapshotImage spare = capture(driver);
  const std::vector<std::uint8_t> bytes = encode(spare);

  // A new world restored from those bytes: the spare's rows carry the same
  // pids and contents, but were captured from another instance.
  sim::SimSystem sys2;
  core::ValkyrieEngine engine2(sys2, detector, 2);
  const SnapshotImage parsed = parse(bytes);
  restore(parsed, engine2, RestoreContext{});
  sim::ScenarioDriver driver2(engine2, churn_script(), parsed.driver);
  driver2.run(3);
  SnapshotImage stale = spare;
  CaptureStats stats = refresh(driver2, stale);
  EXPECT_EQ(stats.rows_reused, 0u);
  EXPECT_EQ(stats.rows_rebuilt, sys2.tracked_processes());
  EXPECT_EQ(encode(stale), encode(capture(driver2)));

  // Restoring INTO the captured system renews its identity too.
  driver.run(3);
  SnapshotImage before = capture(driver);
  restore(parsed, engine, RestoreContext{});
  stats = refresh(engine, before);
  EXPECT_EQ(stats.rows_reused, 0u);
  EXPECT_EQ(encode(before), encode(capture(engine)));

  // A parsed image carries no provenance: a full rebuild.
  SnapshotImage from_bytes = parse(bytes);
  stats = refresh(engine, from_bytes);
  EXPECT_EQ(stats.rows_reused, 0u);
  EXPECT_EQ(encode(from_bytes), encode(capture(engine)));
}

}  // namespace
}  // namespace valkyrie::snapshot
