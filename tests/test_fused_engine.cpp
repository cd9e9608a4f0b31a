// Structural contract of the engine's fused step: simulation, inference and
// response for an epoch run as ONE schedule run, which costs exactly one
// pool dispatch when the engine is sharded and none when it runs on one
// worker (observed through the pool's dispatch counter). Worker requests
// are clamped to the hardware, and because the fused step never visits a
// dead process's attachment, the step-tag staleness check must make its
// last_action read as kNone. Bit-identity of the step against the
// sequential ReferenceLoop at every worker count is test_parallel_engine's.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <thread>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"

namespace valkyrie::core {
namespace {

// --- Workloads ---------------------------------------------------------------

hpc::HpcSignature benign_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 3e8;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kL1dMisses) = 2e6;
  sig.at(hpc::Event::kLlcMisses) = 4e5;
  sig.at(hpc::Event::kMemBandwidth) = 5e7;
  return sig;
}

hpc::HpcSignature attack_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 4e7;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

/// Signature-driven benign workload; finishes after `lifetime` epochs
/// (0 = never).
class SigWorkload final : public sim::Workload {
 public:
  explicit SigWorkload(std::uint64_t lifetime = 0) : lifetime_(lifetime) {}

  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    progress_ += out.progress;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    ++epochs_;
    out.finished = lifetime_ != 0 && epochs_ >= lifetime_;
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  hpc::HpcSignature sig_ = benign_signature();
  std::uint64_t lifetime_;
  double progress_ = 0.0;
  std::uint64_t epochs_ = 0;
};

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = (trace.malicious ? "attack-" : "benign-") +
                   std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

TEST(FusedEngine, FusedPathIsOneDispatchPerEpoch) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  for (const std::size_t threads : {1u, 2u}) {
    sim::SimSystem sys;
    ValkyrieEngine engine(sys, detector, threads);
    for (std::size_t i = 0; i < 64; ++i) {
      const sim::ProcessId pid = sys.spawn(std::make_unique<SigWorkload>());
      engine.attach(pid, ValkyrieConfig{},
                    std::make_unique<SchedulerWeightActuator>());
    }
    sys.reserve_history(32);
    const std::uint64_t runs_before = engine.schedule_run_count();
    const std::uint64_t dispatches_before = engine.pool_dispatch_count();
    constexpr std::uint64_t kSteps = 25;
    for (std::uint64_t i = 0; i < kSteps; ++i) engine.step();
    EXPECT_EQ(engine.schedule_run_count() - runs_before, kSteps)
        << threads << " workers";
    const std::uint64_t dispatches =
        engine.pool_dispatch_count() - dispatches_before;
    if (engine.shard_count() >= 2) {
      EXPECT_EQ(dispatches, kSteps) << "an epoch must cost ONE dispatch";
    } else {
      EXPECT_EQ(dispatches, 0u) << threads << " workers";
    }
  }
}

TEST(FusedEngine, SequentialEngineNeverDispatches) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  const sim::ProcessId pid = sys.spawn(std::make_unique<SigWorkload>());
  engine.attach(pid, ValkyrieConfig{},
                std::make_unique<SchedulerWeightActuator>());
  engine.run(10);
  EXPECT_EQ(engine.pool_dispatch_count(), 0u);
  EXPECT_EQ(engine.shard_count(), 1u);
}

TEST(FusedEngine, WorkerThreadsClampedToHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) GTEST_SKIP() << "hardware concurrency not detectable";
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  const ValkyrieEngine engine(sys, detector, static_cast<std::size_t>(hw) + 32);
  EXPECT_EQ(engine.shard_count(), static_cast<std::size_t>(hw))
      << "oversubscribed worker requests must be clamped";
}

TEST(FusedEngine, LastActionOfDeadProcessReadsNone) {
  // The fused step never visits a dead process's attachment; the step-tag
  // staleness check must make that read as an explicit kNone.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  const sim::ProcessId finite = sys.spawn(std::make_unique<SigWorkload>(3));
  const sim::ProcessId endless = sys.spawn(std::make_unique<SigWorkload>());
  engine.attach(finite, ValkyrieConfig{},
                std::make_unique<SchedulerWeightActuator>());
  engine.attach(endless, ValkyrieConfig{},
                std::make_unique<CgroupCpuActuator>());
  engine.run(10);
  EXPECT_EQ(sys.exit_reason(finite), sim::ExitReason::kCompleted);
  EXPECT_EQ(engine.last_action(finite), ValkyrieMonitor::Action::kNone);
  EXPECT_TRUE(sys.is_live(endless));
}

}  // namespace
}  // namespace valkyrie::core
