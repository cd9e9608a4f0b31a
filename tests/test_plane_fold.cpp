// The plane-major window fold's bit-identity contract (PR 9). Three
// layers, tightest first:
//
//   1. ml::fold_plane_columns against a per-column WindowAccumulator on
//      the same inputs — random features, random stale masks, non-pending
//      columns, column resets — must leave EXACTLY the accumulator's
//      Welford state in the plane rows.
//   2. A fold-enabled SimSystem stepped next to a scalar one (same seeds,
//      same churn, sensor faults armed so real stale masks flow) must
//      report bit-identical window summaries and stale masks throughout.
//   3. A fold-enabled engine must stay byte-identical (full snapshot
//      encode) to the scalar-fold sequential baseline for every worker
//      count over a churning run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/mlp.hpp"
#include "ml/plane_fold.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- 1. Kernel vs accumulator ------------------------------------------------

TEST(PlaneFold, KernelMatchesAccumulatorBitExactly) {
  // Odd column count: the kernel must handle ragged vector tails.
  constexpr std::size_t kCols = 37;
  const std::size_t stride = (kCols + 7) / 8 * 8;
  std::vector<double> plane(5 * hpc::kFeatureDim * stride, 0.0);
  ml::PlaneFoldRows rows;
  rows.newest = plane.data();
  rows.mean = plane.data() + hpc::kFeatureDim * stride;
  rows.stddev = plane.data() + 2 * hpc::kFeatureDim * stride;
  rows.m2 = plane.data() + 3 * hpc::kFeatureDim * stride;
  rows.fcount = plane.data() + 4 * hpc::kFeatureDim * stride;
  rows.stride = stride;

  std::vector<ml::WindowAccumulator> reference(kCols);
  std::vector<std::uint8_t> pending(kCols, 0);
  std::vector<std::uint32_t> masks(kCols, 0);
  util::Rng rng(0xf01d);

  for (int epoch = 0; epoch < 60; ++epoch) {
    for (std::size_t c = 0; c < kCols; ++c) {
      // Occasional reset: a recycled slot starts from zero state.
      if (epoch > 0 && rng.chance(0.03)) {
        reference[c].reset();
        for (int g = 0; g < 5; ++g) {
          plane[static_cast<std::size_t>(g) * hpc::kFeatureDim * stride +
                c] = 0.0;
          for (std::size_t f = 1; f < hpc::kFeatureDim; ++f) {
            plane[static_cast<std::size_t>(g) * hpc::kFeatureDim * stride +
                  f * stride + c] = 0.0;
          }
        }
      }
      // Roughly one column in six sits an epoch out (quarantined sample /
      // finished slot): not staged, must not be touched by the fold.
      if (rng.chance(1.0 / 6.0)) {
        pending[c] = 0;
        continue;
      }
      pending[c] = 1;
      masks[c] = rng.chance(0.3)
                     ? static_cast<std::uint32_t>(
                           rng.below(1u << hpc::kFeatureDim))
                     : 0;
      hpc::FeatureVec features;
      for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
        features[f] = rng.uniform(-8.0, 25.0);
        rows.newest[f * stride + c] = features[f];
      }
      reference[c].add_features_masked(features, masks[c]);
    }
    // Split the range so a mid-array boundary is exercised too.
    ml::fold_plane_columns(rows, pending.data(), masks.data(), 0, kCols / 2);
    ml::fold_plane_columns(rows, pending.data(), masks.data(), kCols / 2,
                           kCols);

    for (std::size_t c = 0; c < kCols; ++c) {
      const ml::WindowAccumulator::State want = reference[c].state();
      const ml::WindowSummary summary = reference[c].summary();
      for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
        EXPECT_TRUE(same_bits(rows.newest[f * stride + c], want.newest[f]))
            << "newest epoch " << epoch << " col " << c << " feature " << f;
        EXPECT_TRUE(same_bits(rows.mean[f * stride + c], want.mean[f]))
            << "mean epoch " << epoch << " col " << c << " feature " << f;
        EXPECT_TRUE(same_bits(rows.m2[f * stride + c], want.m2[f]))
            << "m2 epoch " << epoch << " col " << c << " feature " << f;
        EXPECT_EQ(rows.fcount[f * stride + c],
                  static_cast<double>(want.fcount[f]))
            << "fcount epoch " << epoch << " col " << c << " feature " << f;
        EXPECT_TRUE(same_bits(rows.stddev[f * stride + c], summary.stddev[f]))
            << "stddev epoch " << epoch << " col " << c << " feature " << f;
      }
    }
  }
}

TEST(PlaneFold, FoldIsIdempotentPerStaging) {
  // Folding a range twice without restaging must not double-count: the
  // caller clears pending after a fold, and the end-of-epoch safety net
  // relies on exactly that.
  constexpr std::size_t kCols = 8;
  std::vector<double> plane(5 * hpc::kFeatureDim * kCols, 0.0);
  ml::PlaneFoldRows rows;
  rows.newest = plane.data();
  rows.mean = plane.data() + hpc::kFeatureDim * kCols;
  rows.stddev = plane.data() + 2 * hpc::kFeatureDim * kCols;
  rows.m2 = plane.data() + 3 * hpc::kFeatureDim * kCols;
  rows.fcount = plane.data() + 4 * hpc::kFeatureDim * kCols;
  rows.stride = kCols;
  std::vector<std::uint8_t> pending(kCols, 1);
  std::vector<std::uint32_t> masks(kCols, 0);
  for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
    for (std::size_t c = 0; c < kCols; ++c) {
      rows.newest[f * kCols + c] = static_cast<double>(f + c) * 0.25;
    }
  }
  ml::fold_plane_columns(rows, pending.data(), masks.data(), 0, kCols);
  std::fill(pending.begin(), pending.end(), std::uint8_t{0});
  const std::vector<double> after_first = plane;
  ml::fold_plane_columns(rows, pending.data(), masks.data(), 0, kCols);
  EXPECT_EQ(plane, after_first);
}

// --- 2. Fold-mode SimSystem vs scalar ---------------------------------------

class SigWorkload final : public sim::Workload {
 public:
  SigWorkload(hpc::HpcSignature sig, bool attack, std::uint64_t lifetime = 0)
      : sig_(sig), attack_(attack), lifetime_(lifetime) {}
  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return attack_; }
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
  hpc::HpcSignature sig_;
  bool attack_;
  std::uint64_t lifetime_;
  double progress_ = 0.0;
  std::uint64_t epochs_ = 0;
};

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

void scripted_system_epoch(sim::SimSystem& sys) {
  const std::uint64_t epoch = sys.current_epoch();
  if (epoch % 17 == 9) {
    (void)sys.spawn(std::make_unique<SigWorkload>(
        epoch % 34 == 9 ? attack_signature() : benign_signature(),
        epoch % 34 == 9, 0));
  }
  if (epoch % 23 == 11) {
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
        sys.kill(pid);  // forces retirement + hot-slot compaction
        break;
      }
    }
  }
  sys.run_epoch();
}

TEST(PlaneFold, SystemFoldMatchesScalarThroughChurnAndSensorFaults) {
  fault::FaultPlane faults_a(0x5eed);
  faults_a.sensor = {.dropout_rate = 0.01,
                     .stuck_rate = 0.01,
                     .nan_rate = 0.005,
                     .saturate_rate = 0.005};
  faults_a.sensor.feature_fraction = 0.5;  // per-feature masks, not all-off
  fault::FaultPlane faults_b = faults_a;

  sim::SimSystem scalar;
  sim::SimSystem folded;
  folded.enable_plane_major_fold();
  scalar.arm_sensor_faults(&faults_a);
  folded.arm_sensor_faults(&faults_b);
  for (int i = 0; i < 12; ++i) {
    const bool attack = i % 5 == 1;
    (void)scalar.spawn(std::make_unique<SigWorkload>(
        attack ? attack_signature() : benign_signature(), attack));
    (void)folded.spawn(std::make_unique<SigWorkload>(
        attack ? attack_signature() : benign_signature(), attack));
  }
  scalar.reserve_history(160);
  folded.reserve_history(160);

  for (int epoch = 0; epoch < 150; ++epoch) {
    scripted_system_epoch(scalar);
    scripted_system_epoch(folded);
    ASSERT_EQ(scalar.live_processes().size(), folded.live_processes().size())
        << "epoch " << epoch;
    for (const sim::ProcessId pid : scalar.live_processes()) {
      const ml::WindowSummary a = scalar.window_summary(pid);
      const ml::WindowSummary b = folded.window_summary(pid);
      ASSERT_EQ(a.count, b.count) << "epoch " << epoch << " pid " << pid;
      ASSERT_EQ(a.stale_mask, b.stale_mask)
          << "epoch " << epoch << " pid " << pid;
      for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
        ASSERT_TRUE(same_bits(a.newest[f], b.newest[f]))
            << "newest epoch " << epoch << " pid " << pid << " feature " << f;
        ASSERT_TRUE(same_bits(a.mean[f], b.mean[f]))
            << "mean epoch " << epoch << " pid " << pid << " feature " << f;
        ASSERT_TRUE(same_bits(a.stddev[f], b.stddev[f]))
            << "stddev epoch " << epoch << " pid " << pid << " feature " << f;
      }
    }
  }
}

// --- 3. Engine byte-identity with the fold on --------------------------------

std::unique_ptr<core::Actuator> scripted_actuator(std::size_t salt) {
  if (salt % 2 == 0) return std::make_unique<core::SchedulerWeightActuator>();
  return std::make_unique<core::CgroupCpuActuator>();
}

/// Snapshot-supported churn script (pure function of system state), so the
/// runs can be compared through their encoded snapshots.
void scripted_spawn(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 6 == 1;
  std::unique_ptr<sim::Workload> workload;
  if (attack) {
    attacks::CryptominerConfig config;
    config.seed = 0xabc0 + ordinal;
    config.family_jitter = 0.1;
    workload = std::make_unique<attacks::CryptominerAttack>(config);
  } else {
    static const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    workloads::BenchmarkSpec spec = palette[ordinal % palette.size()];
    spec.epochs_of_work =
        ordinal % 5 == 2 ? static_cast<double>(30 + ordinal % 20) : 1e9;
    workload = std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
  }
  const sim::ProcessId pid = sys.spawn(std::move(workload));
  if (ordinal % 7 != 3) {
    engine.attach(pid, core::ValkyrieConfig{}, scripted_actuator(ordinal));
  }
}

template <typename Detector>
std::vector<std::uint8_t> run_and_encode(const Detector& detector,
                                         std::size_t threads, bool fold) {
  sim::SimSystem sys;
  if (fold) sys.enable_plane_major_fold();
  core::ValkyrieEngine engine(sys, detector, threads);
  for (int i = 0; i < 10; ++i) scripted_spawn(sys, engine);
  sys.reserve_history(130);
  for (int epoch = 0; epoch < 120; ++epoch) {
    if (sys.current_epoch() % 31 == 12) scripted_spawn(sys, engine);
    if (sys.current_epoch() % 43 == 21) {
      for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
        if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
          sys.kill(pid);
          break;
        }
      }
    }
    engine.step();
  }
  return snapshot::encode(snapshot::capture(engine));
}

TEST(PlaneFold, EngineFoldRunsByteIdenticalAcrossWorkers) {
  const ml::MlpDetector detector = ml::MlpDetector::make_small_ann(
      [] {
        util::Rng rng(0xc0ffee);
        ml::TraceSet set;
        for (int label = 0; label < 2; ++label) {
          const hpc::HpcSignature sig =
              label == 1 ? attack_signature() : benign_signature();
          for (int t = 0; t < 8; ++t) {
            ml::LabeledTrace trace;
            trace.malicious = label == 1;
            trace.name = (label == 1 ? "attack-" : "benign-") +
                         std::to_string(t);
            for (int i = 0; i < 25; ++i) {
              trace.samples.push_back(sig.sample(rng));
            }
            set.traces.push_back(std::move(trace));
          }
        }
        return set;
      }(),
      0x5eed);

  // Scalar-fold sequential run is the reference; every fold-mode run must
  // reproduce its bytes exactly (the snapshot does not carry the fold flag
  // — logical window state is identical by contract).
  const std::vector<std::uint8_t> want = run_and_encode(detector, 1, false);
  ASSERT_FALSE(want.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(want, run_and_encode(detector, threads, true))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace valkyrie
