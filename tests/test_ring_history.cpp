// History ring contract: every process keeps its newest
// ml::kHistoryWindow samples in a fixed ring, and that must change MEMORY,
// never statistics or determinism. The oracle is a trace recorded epoch
// by epoch (last_sample() after every run_epoch()): before the ring fills
// sample_history() is the whole trace; after it wraps, the older/newer
// span pair reads the trace's last kHistoryWindow samples oldest-first;
// streaming window statistics equal an accumulator fed the whole trace
// (the accumulator folds every sample regardless of retention); engine
// runs on summary-driven detectors never read the ring; a detector
// attached after the ring wrapped catches up over the retained samples
// and then folds one vote per epoch; and a wrapped-ring snapshot
// round-trips through the v6 image (linearized oldest-first)
// byte-identically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/system.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie {
namespace {

using ml::kHistoryWindow;

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

class SigWorkload final : public sim::Workload {
 public:
  explicit SigWorkload(hpc::HpcSignature sig) : sig_(sig) {}
  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return 0.0; }

 private:
  hpc::HpcSignature sig_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_sample(const hpc::HpcSample& a, const hpc::HpcSample& b,
                        const char* what, std::size_t i) {
  EXPECT_EQ(a.counts, b.counts) << what << " sample " << i;
}

/// A system stepped epoch by epoch, recording each process's sample after
/// every epoch: the whole trace the ring is checked against.
struct RecordedSystem {
  sim::SimSystem sys;
  std::vector<sim::ProcessId> pids;
  std::map<sim::ProcessId, std::vector<hpc::HpcSample>> trace;

  explicit RecordedSystem(int processes = 6) {
    for (int i = 0; i < processes; ++i) {
      const hpc::HpcSignature sig =
          i % 3 == 1 ? attack_signature() : benign_signature();
      pids.push_back(sys.spawn(std::make_unique<SigWorkload>(sig)));
    }
  }

  void run(int epochs) {
    for (int e = 0; e < epochs; ++e) {
      sys.run_epoch();
      for (const sim::ProcessId pid : pids) {
        trace[pid].push_back(sys.last_sample(pid));
      }
    }
  }
};

TEST(RingHistory, PreWrapHistoryIsTheWholeTrace) {
  RecordedSystem rec;
  rec.run(20);  // well under the ring
  for (const sim::ProcessId pid : rec.pids) {
    const std::vector<hpc::HpcSample>& full = rec.trace[pid];
    const sim::SimSystem::HistoryView view = rec.sys.sample_history(pid);
    ASSERT_EQ(view.size(), full.size());
    EXPECT_TRUE(view.newer.empty()) << "no wrap may have happened yet";
    for (std::size_t i = 0; i < full.size(); ++i) {
      expect_same_sample(view[i], full[i], "pre-wrap", i);
    }
  }
}

TEST(RingHistory, PostWrapViewIsTheSuffixOfTheTrace) {
  RecordedSystem rec;
  rec.run(200);  // wraps several times
  for (const sim::ProcessId pid : rec.pids) {
    const std::vector<hpc::HpcSample>& full = rec.trace[pid];
    ASSERT_EQ(full.size(), 200u);
    const sim::SimSystem::HistoryView view = rec.sys.sample_history(pid);
    ASSERT_EQ(view.size(), kHistoryWindow) << "retention is exactly the ring";
    EXPECT_FALSE(view.newer.empty()) << "the ring must actually have wrapped";
    const std::size_t offset = full.size() - kHistoryWindow;
    for (std::size_t i = 0; i < kHistoryWindow; ++i) {
      expect_same_sample(view[i], full[offset + i], "post-wrap", i);
    }
    // The copied-out form is the same suffix, oldest first.
    const std::vector<hpc::HpcSample> copy = view.to_vector();
    ASSERT_EQ(copy.size(), kHistoryWindow);
    for (std::size_t i = 0; i < kHistoryWindow; ++i) {
      expect_same_sample(copy[i], full[offset + i], "to_vector", i);
    }
  }
}

TEST(RingHistory, WindowStatisticsCoverTheWholeTrace) {
  RecordedSystem rec;
  rec.run(160);  // stats fold 160 samples; the ring retains 64
  for (const sim::ProcessId pid : rec.pids) {
    const std::vector<hpc::HpcSample>& full = rec.trace[pid];
    ml::WindowAccumulator oracle;
    for (const hpc::HpcSample& sample : full) oracle.add(sample);
    const ml::WindowSummary a = oracle.summary();
    const ml::WindowSummary b = rec.sys.window_summary(pid);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(b.count, 160u);
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      EXPECT_TRUE(same_bits(a.newest[f], b.newest[f])) << "feature " << f;
      EXPECT_TRUE(same_bits(a.mean[f], b.mean[f])) << "feature " << f;
      EXPECT_TRUE(same_bits(a.stddev[f], b.stddev[f])) << "feature " << f;
    }
    // The summary's raw window reads through the span pair and must cover
    // exactly the retained ring, newest measurement last.
    const std::size_t total = b.window_total();
    EXPECT_EQ(total, kHistoryWindow);
    for (std::size_t i = 0; i < total; ++i) {
      expect_same_sample(b.window_at(i), full[full.size() - total + i],
                         "summary window", i);
    }
  }
}

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

/// Snapshot-supported spawn script, pure function of system state.
void scripted_spawn(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 6 == 1;
  std::unique_ptr<sim::Workload> workload;
  if (attack) {
    attacks::CryptominerConfig config;
    config.seed = 0xabc0 + ordinal;
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
    // Every other process is held suspicious (never terminated), so the
    // run keeps processes long enough to wrap their rings.
    core::ValkyrieConfig config;
    if (ordinal % 2 == 0) config.required_measurements = 1'000'000;
    engine.attach(pid, config,
                  std::make_unique<core::SchedulerWeightActuator>());
  }
}

void scripted_epoch(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  if (sys.current_epoch() % 29 == 12) scripted_spawn(sys, engine);
  if (sys.current_epoch() % 41 == 20) {
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
        sys.kill(pid);
        break;
      }
    }
  }
  engine.step();
}

/// Forwards to a summary detector with the raw window stripped: an engine
/// run through it can only match the plain run if the retained ring never
/// reaches a decision.
class WindowBlind final : public ml::Detector {
 public:
  explicit WindowBlind(const ml::Detector& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override {
    return "window-blind";
  }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> /*window*/) const override {
    ADD_FAILURE() << "the raw-window path must not be reached";
    return ml::Inference::kBenign;
  }
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& summary) const override {
    ml::WindowSummary blind = summary;
    blind.window = {};
    blind.window_wrap = {};
    return inner_.infer(blind);
  }

 private:
  const ml::Detector& inner_;
};

TEST(RingHistory, EngineThreatTrajectoryUnaffectedOnSummaryDetector) {
  // The MLP classifies window SUMMARIES, so an engine run must land on
  // identical monitor state whether the detector is handed the ring or
  // no raw window at all — even after the rings wrap, through churn and
  // recycling.
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  const WindowBlind blind(detector);
  sim::SimSystem ringed;
  sim::SimSystem stripped;
  core::ValkyrieEngine engine_r(ringed, detector, 2);
  core::ValkyrieEngine engine_s(stripped, blind, 2);
  for (int i = 0; i < 8; ++i) {
    scripted_spawn(ringed, engine_r);
    scripted_spawn(stripped, engine_s);
  }
  for (int epoch = 0; epoch < 160; ++epoch) {
    scripted_epoch(ringed, engine_r);
    scripted_epoch(stripped, engine_s);
  }
  ASSERT_EQ(ringed.live_processes().size(), stripped.live_processes().size());
  std::size_t wrapped = 0;
  for (const sim::ProcessId pid : ringed.live_processes()) {
    wrapped += !ringed.sample_history(pid).newer.empty();
    ASSERT_EQ(engine_r.is_attached(pid), engine_s.is_attached(pid));
    if (!engine_r.is_attached(pid)) continue;
    EXPECT_EQ(engine_r.monitor(pid).threat(), engine_s.monitor(pid).threat())
        << "pid " << pid;
    EXPECT_EQ(engine_r.monitor(pid).state(), engine_s.monitor(pid).state())
        << "pid " << pid;
  }
  EXPECT_GT(wrapped, 0u) << "no live ring wrapped";
}

/// Hand count of `detector`'s per-measurement votes over `samples`.
std::size_t hand_votes(const ml::Detector& detector,
                       std::span<const hpc::HpcSample> samples) {
  std::size_t malicious = 0;
  for (const hpc::HpcSample& sample : samples) {
    malicious += detector.measurement_vote(hpc::to_features(sample)) ? 1 : 0;
  }
  return malicious;
}

ml::Inference hand_verdict(std::size_t malicious, std::size_t voted,
                           double fraction) {
  return static_cast<double>(malicious) > fraction * static_cast<double>(voted)
             ? ml::Inference::kMalicious
             : ml::Inference::kBenign;
}

TEST(RingHistory, LateAttachCatchesUpOverTheRingThenFolds) {
  // A vote detector attached at epoch 100 sees only the 64 retained
  // samples. It must vote those, compare against the 64 it voted, and from
  // the next epoch on take the one-vote can_fold step — matching a hand
  // count over the recorded trace's suffix every epoch.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const double fraction = *detector.vote_fraction();
  RecordedSystem rec;
  rec.run(100);
  std::map<sim::ProcessId, ml::StreamingInference> streams;
  std::map<sim::ProcessId, std::size_t> malicious;
  std::size_t flagged = 0;
  for (const sim::ProcessId pid : rec.pids) {
    const std::vector<hpc::HpcSample>& full = rec.trace[pid];
    ml::StreamingInference& stream = streams[pid];
    const ml::WindowSummary summary = rec.sys.window_summary(pid);
    ASSERT_EQ(summary.count, 100u);
    ASSERT_FALSE(stream.can_fold(summary.count)) << "this is a catch-up";
    const ml::Inference got = stream.infer(detector, summary);
    malicious[pid] = hand_votes(
        detector, std::span<const hpc::HpcSample>(full).last(kHistoryWindow));
    EXPECT_EQ(stream.counted(), 100u);
    EXPECT_EQ(stream.voted(), kHistoryWindow);
    EXPECT_EQ(stream.malicious_count(), malicious[pid]);
    EXPECT_EQ(got, hand_verdict(malicious[pid], kHistoryWindow, fraction));
    flagged += got == ml::Inference::kMalicious;
  }
  EXPECT_GT(flagged, 0u) << "the attack processes must be flagged";
  for (int epoch = 1; epoch <= 40; ++epoch) {
    rec.run(1);
    for (const sim::ProcessId pid : rec.pids) {
      ml::StreamingInference& stream = streams[pid];
      const ml::WindowSummary summary = rec.sys.window_summary(pid);
      ASSERT_TRUE(stream.can_fold(summary.count))
          << "pid " << pid << " did not rejoin the running counts";
      malicious[pid] += detector.measurement_vote(
          hpc::to_features(rec.trace[pid].back()));
      const std::size_t voted = kHistoryWindow + epoch;
      EXPECT_EQ(stream.infer(detector, summary),
                hand_verdict(malicious[pid], voted, fraction));
      EXPECT_EQ(stream.voted(), voted);
      EXPECT_EQ(stream.counted(), 100u + epoch);
    }
  }
}

TEST(RingHistory, EngineLateAttachRejoinsTheRunningCounts) {
  // The engine's batched step folds a vote only when can_fold holds; a
  // late attach must get there after its one catch-up epoch, or every
  // later epoch re-votes the ring. The snapshot's stream counts show it.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, 2);
  std::vector<sim::ProcessId> pids;
  for (int i = 0; i < 6; ++i) {
    pids.push_back(sys.spawn(std::make_unique<SigWorkload>(
        i % 3 == 1 ? attack_signature() : benign_signature())));
  }
  for (int epoch = 0; epoch < 100; ++epoch) engine.step();
  core::ValkyrieConfig config;
  config.required_measurements = 1'000'000;  // observe, never terminate
  for (const sim::ProcessId pid : pids) {
    engine.attach(pid, config,
                  std::make_unique<core::SchedulerWeightActuator>());
  }
  // Step 1 catches up over the 64 retained samples (its own included);
  // every later step folds exactly one vote.
  for (int epoch = 1; epoch <= 20; ++epoch) {
    engine.step();
    const snapshot::EngineImage image = engine.snapshot_state();
    ASSERT_EQ(image.attachments.size(), pids.size());
    for (const snapshot::AttachmentImage& att : image.attachments) {
      EXPECT_EQ(att.stream_counted, 100u + epoch) << "pid " << att.pid;
      EXPECT_EQ(att.stream_voted, kHistoryWindow + epoch - 1)
          << "pid " << att.pid;
    }
  }
}

TEST(RingHistory, SnapshotRoundTripContinuesByteIdentically) {
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);

  sim::SimSystem golden_sys;
  core::ValkyrieEngine golden(golden_sys, detector, 2);
  for (int i = 0; i < 8; ++i) scripted_spawn(golden_sys, golden);
  for (int epoch = 0; epoch < 100; ++epoch) scripted_epoch(golden_sys, golden);
  std::size_t wrapped = 0;
  for (const sim::ProcessId pid : golden_sys.live_processes()) {
    wrapped += !golden_sys.sample_history(pid).newer.empty();
  }
  ASSERT_GT(wrapped, 0u) << "the image must carry wrapped rings";
  const std::vector<std::uint8_t> mid =
      snapshot::encode(snapshot::capture(golden));
  for (int epoch = 0; epoch < 50; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> want =
      snapshot::encode(snapshot::capture(golden));

  // The image carries every ring linearized oldest-first; a restored ring
  // resumes overwriting at its oldest sample, and the run replays
  // byte-identically.
  const snapshot::SnapshotImage image = snapshot::parse(mid);
  std::size_t full = 0;
  for (const snapshot::ProcImage& proc : image.system.procs) {
    ASSERT_LE(proc.history.size(), kHistoryWindow);
    full += proc.history.size() == kHistoryWindow;
  }
  EXPECT_GT(full, 0u);
  sim::SimSystem sys2;
  core::ValkyrieEngine engine2(sys2, detector, 8);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  EXPECT_EQ(mid, snapshot::encode(snapshot::capture(engine2)));
  for (int epoch = 0; epoch < 50; ++epoch) scripted_epoch(sys2, engine2);
  EXPECT_EQ(want, snapshot::encode(snapshot::capture(engine2)));
}

TEST(RingHistory, RestoreRejectsAHistoryLongerThanTheRing) {
  sim::SimSystem sys;
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(
          workloads::all_single_threaded().front()));
  for (int i = 0; i < 10; ++i) sys.run_epoch();
  snapshot::SystemImage image = sys.snapshot_state();
  ASSERT_EQ(image.procs.size(), 1u);
  ASSERT_EQ(image.procs[0].pid, pid);
  image.procs[0].history.resize(kHistoryWindow + 1);
  sim::SimSystem target;
  try {
    target.restore_from(image, snapshot::WorkloadRegistry::bundled());
    FAIL() << "a 65-sample history was accepted";
  } catch (const util::SerialError& err) {
    EXPECT_EQ(err.code(), util::SerialError::Code::kMalformed);
  }
  EXPECT_EQ(target.total_spawned(), 0u) << "a failed restore mutates nothing";
}

}  // namespace
}  // namespace valkyrie
