// Google-benchmark microbenchmarks for the library's hot primitives: the
// substrate costs behind every reproduction experiment (cache accesses,
// crypto, detector inference, threat-index updates, full engine epochs).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/pp_aes.hpp"
#include "cache/cache.hpp"
#include "core/threat.hpp"
#include "core/valkyrie.hpp"
#include "crypto/aes128.hpp"
#include "crypto/sha256.hpp"
#include "dram/dram.hpp"
#include "engine_bench_common.hpp"
#include "hpc/hpc.hpp"
#include "ml/gbt.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace valkyrie;

void BM_CacheAccess(benchmark::State& state) {
  cache::Cache cache(cache::presets::l1d());
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1 << 20)));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash({data.data(), data.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_AesEncryptBlock(benchmark::State& state) {
  crypto::Aes128 aes(crypto::AesKey{1, 2, 3, 4, 5, 6, 7, 8});
  crypto::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_DramActivate(benchmark::State& state) {
  dram::Dram dram(dram::DramConfig{});
  std::uint32_t row = 4096;
  for (auto _ : state) {
    dram.activate(0, row);
    row ^= 2;  // alternate aggressors
  }
}
BENCHMARK(BM_DramActivate);

void BM_ThreatIndexUpdate(benchmark::State& state) {
  core::ThreatIndex threat;
  util::Rng rng(2);
  for (auto _ : state) {
    const auto inf = rng.chance(0.3) ? ml::Inference::kMalicious
                                     : ml::Inference::kBenign;
    benchmark::DoNotOptimize(threat.on_inference(inf));
  }
}
BENCHMARK(BM_ThreatIndexUpdate);

void BM_StatDetectorInfer(benchmark::State& state) {
  util::Rng rng(3);
  hpc::HpcSignature sig;
  for (double& m : sig.mean) m = 1e6;
  std::vector<ml::Example> examples;
  for (int i = 0; i < 200; ++i) {
    const hpc::FeatureVec f = hpc::to_features(sig.sample(rng));
    examples.push_back({{f.begin(), f.end()}, false});
  }
  ml::StatisticalDetector detector;
  detector.fit(examples);
  std::vector<hpc::HpcSample> window;
  for (int i = 0; i < 32; ++i) window.push_back(sig.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.infer({window.data(), window.size()}));
  }
}
BENCHMARK(BM_StatDetectorInfer);

// --- Feature-pipeline scaling: batch recompute vs streaming accumulator ------
//
// The batch path is what every epoch used to pay (two passes over the whole
// accumulated window); the streaming path is what an epoch pays now (fold
// one sample, read the summary). The gap at 4096 is the O(T) -> O(1) win.

std::vector<hpc::HpcSample> make_window(std::size_t n) {
  util::Rng rng(7);
  hpc::HpcSignature sig;
  for (double& m : sig.mean) m = 1e6;
  std::vector<hpc::HpcSample> window;
  window.reserve(n);
  for (std::size_t i = 0; i < n; ++i) window.push_back(sig.sample(rng));
  return window;
}

void BM_WindowFeaturesBatch(benchmark::State& state) {
  const std::vector<hpc::HpcSample> window =
      make_window(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::window_features(window));
  }
}
BENCHMARK(BM_WindowFeaturesBatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_WindowFeaturesStreaming(benchmark::State& state) {
  const std::vector<hpc::HpcSample> window =
      make_window(static_cast<std::size_t>(state.range(0)));
  ml::WindowAccumulator acc;
  std::size_t next = 0;
  for (auto _ : state) {
    // One epoch's worth of work at window length |window|: fold the new
    // sample and materialise the aggregate features. No allocations.
    acc.add(window[next]);
    next = (next + 1) % window.size();
    benchmark::DoNotOptimize(acc.summary().features());
  }
}
BENCHMARK(BM_WindowFeaturesStreaming)->Arg(16)->Arg(256)->Arg(4096);

// --- Cross-slot batch detector kernels ---------------------------------------
//
// Scalar-vs-batch cost of one epoch's detector work over N live processes:
// the scalar side walks the per-process streaming path (one WindowSummary /
// one measurement vote per slot), the batch side issues the single
// feature-plane sweep the engine step issues per shard. Both
// produce bit-identical inferences (tests/test_batch_infer.cpp); the gap is
// the cross-slot batching win per detector family.

const ml::MlpDetector& cached_engine_detector();  // defined below

const ml::StatisticalDetector& cached_stat_detector() {
  static const ml::StatisticalDetector detector = [] {
    ml::StatisticalDetector d;
    d.fit(ml::flatten(bench::engine_bench_corpus(0x5ca1e)));
    return d;
  }();
  return detector;
}

const ml::SvmDetector& cached_svm_detector() {
  static const ml::SvmDetector detector =
      ml::SvmDetector::make(bench::engine_bench_corpus(0x5ca1e), 3);
  return detector;
}

const ml::GbtDetector& cached_gbt_detector() {
  static const ml::GbtDetector detector =
      ml::GbtDetector::make(bench::engine_bench_corpus(0x5ca1e));
  return detector;
}

/// Scalar side of the vote pair: one measurement_vote per slot, exactly
/// the StreamingInference per-epoch fold.
void scalar_votes(benchmark::State& state, const ml::Detector& detector) {
  const bench::BatchPlane bp = bench::make_batch_plane(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::size_t votes = 0;
    for (std::size_t c = 0; c < bp.n; ++c) {
      votes += detector.measurement_vote(bp.summaries[c].newest) ? 1 : 0;
    }
    benchmark::DoNotOptimize(votes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bp.n));
}

/// Batch side: the single plane sweep the engine step issues per shard.
void batch_votes(benchmark::State& state, const ml::Detector& detector) {
  const bench::BatchPlane bp = bench::make_batch_plane(static_cast<std::size_t>(state.range(0)));
  const ml::FeatureMatrixView newest = bp.view().newest_view();
  std::vector<std::uint8_t> out(bp.n);
  for (auto _ : state) {
    detector.measurement_votes(newest, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bp.n));
}

// For the MLP (no per-measurement vote structure) the per-epoch "vote" is
// its window inference: scalar streaming infer vs. the blocked batch GEMV.
void BM_ScalarVotes_MLP(benchmark::State& state) {
  const ml::MlpDetector& detector = cached_engine_detector();
  const bench::BatchPlane bp = bench::make_batch_plane(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::size_t malicious = 0;
    for (std::size_t c = 0; c < bp.n; ++c) {
      malicious += detector.infer(bp.summaries[c]) == ml::Inference::kMalicious;
    }
    benchmark::DoNotOptimize(malicious);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bp.n));
}
BENCHMARK(BM_ScalarVotes_MLP)->Arg(16)->Arg(256)->Arg(4096);

void BM_BatchVotes_MLP(benchmark::State& state) {
  const ml::MlpDetector& detector = cached_engine_detector();
  const bench::BatchPlane bp = bench::make_batch_plane(static_cast<std::size_t>(state.range(0)));
  const ml::SummaryMatrixView view = bp.view();
  std::vector<ml::Inference> out(bp.n);
  for (auto _ : state) {
    detector.infer_batch(view, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bp.n));
}
BENCHMARK(BM_BatchVotes_MLP)->Arg(16)->Arg(256)->Arg(4096);

void BM_ScalarVotes_SVM(benchmark::State& state) {
  scalar_votes(state, cached_svm_detector());
}
BENCHMARK(BM_ScalarVotes_SVM)->Arg(16)->Arg(256)->Arg(4096);
void BM_BatchVotes_SVM(benchmark::State& state) {
  batch_votes(state, cached_svm_detector());
}
BENCHMARK(BM_BatchVotes_SVM)->Arg(16)->Arg(256)->Arg(4096);

void BM_ScalarVotes_GBT(benchmark::State& state) {
  scalar_votes(state, cached_gbt_detector());
}
BENCHMARK(BM_ScalarVotes_GBT)->Arg(16)->Arg(256)->Arg(4096);
void BM_BatchVotes_GBT(benchmark::State& state) {
  batch_votes(state, cached_gbt_detector());
}
BENCHMARK(BM_BatchVotes_GBT)->Arg(16)->Arg(256)->Arg(4096);

void BM_ScalarVotes_Stat(benchmark::State& state) {
  scalar_votes(state, cached_stat_detector());
}
BENCHMARK(BM_ScalarVotes_Stat)->Arg(16)->Arg(256)->Arg(4096);
void BM_BatchVotes_Stat(benchmark::State& state) {
  batch_votes(state, cached_stat_detector());
}
BENCHMARK(BM_BatchVotes_Stat)->Arg(16)->Arg(256)->Arg(4096);

// --- Full engine epochs at scale ---------------------------------------------
//
// Persistent system + engine: every iteration is one real epoch, so the
// accumulated window grows throughout the run. Flat ns/epoch across
// iteration counts is the O(1)-per-epoch property; multiply process count
// via the argument. Setup is shared with bench/engine_scaling.cpp so both
// harnesses measure the same detector inputs.

const ml::MlpDetector& cached_engine_detector() {
  static const ml::MlpDetector detector = bench::engine_bench_detector();
  return detector;
}

void BM_EngineEpoch(benchmark::State& state) {
  const std::size_t processes = static_cast<std::size_t>(state.range(0));
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, cached_engine_detector());
  for (std::size_t p = 0; p < processes; ++p) {
    const sim::ProcessId pid = sys.spawn(std::make_unique<bench::SignatureWorkload>(
        bench::engine_bench_benign_signature()));
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }
  for (auto _ : state) {
    engine.step();
  }
  state.counters["window"] =
      static_cast<double>(sys.current_epoch());  // final window length
}
BENCHMARK(BM_EngineEpoch)->Arg(8)->Arg(64)->Arg(256);

void BM_SimEpochBenchmarkWorkload(benchmark::State& state) {
  sim::SimSystem sys;
  sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(
      workloads::spec2017_rate()[0]));
  for (auto _ : state) {
    sys.run_epoch();
  }
}
BENCHMARK(BM_SimEpochBenchmarkWorkload);

void BM_PrimeProbeMeasurementEpoch(benchmark::State& state) {
  attacks::PrimeProbeAesAttack attack;
  util::Rng rng(4);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  const sim::ResourceShares shares;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.run_epoch(shares, ctx));
  }
}
BENCHMARK(BM_PrimeProbeMeasurementEpoch);

// --- Snapshot byte layer -----------------------------------------------------
//
// The checkpoint path's three byte-level costs: the section CRC, encode
// (image -> bytes, the Snapshotter worker's job) and parse (bytes -> image,
// the recovery path). The image is fixed: 256 benchmark processes after 64
// epochs, so every history row carries 64 samples.

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(0xc3c);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20)->Arg(16 << 20);

const snapshot::SnapshotImage& fixed_snapshot_image() {
  static const snapshot::SnapshotImage image = [] {
    sim::SimSystem sys;
    core::ValkyrieEngine engine(sys, cached_engine_detector());
    const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    for (std::size_t p = 0; p < 256; ++p) {
      workloads::BenchmarkSpec spec = palette[p % palette.size()];
      spec.epochs_of_work = 1e9;  // endless: every row keeps its history
      const sim::ProcessId pid = sys.spawn(
          std::make_unique<workloads::BenchmarkWorkload>(std::move(spec)));
      engine.attach(pid, core::ValkyrieConfig{},
                    std::make_unique<core::SchedulerWeightActuator>());
    }
    for (int e = 0; e < 64; ++e) engine.step();
    return snapshot::capture(engine);
  }();
  return image;
}

void BM_SnapshotEncode(benchmark::State& state) {
  const snapshot::SnapshotImage& image = fixed_snapshot_image();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> out = snapshot::encode(image);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes));
}
BENCHMARK(BM_SnapshotEncode);

void BM_SnapshotParse(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes =
      snapshot::encode(fixed_snapshot_image());
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot::parse(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes.size()));
}
BENCHMARK(BM_SnapshotParse);

// --- Checkpoint capture ---------------------------------------------------
//
// The engine-thread half of a checkpoint, on a fixed churned world: 1024
// standing processes plus 16 arrivals per epoch with a mean lifetime of 64
// epochs, run for 448 epochs, so about 1k rows are live (histories of ~64
// samples) and ~7k retired. `fresh` captures into an empty image; `refresh`
// updates an image captured 16 epochs earlier (one checkpoint interval),
// which is what the Snapshotter does with its spare.

struct CaptureWorld {
  static constexpr std::uint64_t kEpochs = 448;
  static constexpr std::uint64_t kInterval = 16;

  sim::SimSystem sys;
  core::ValkyrieEngine engine{sys, cached_engine_detector()};
  sim::ScenarioDriver driver{engine, script()};
  snapshot::SnapshotImage previous;  // captured kInterval epochs ago

  CaptureWorld() {
    driver.reserve(driver.expected_processes(kEpochs));
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      if (e == kEpochs - kInterval) previous = snapshot::capture(driver);
      driver.step();
    }
  }

  static sim::ScenarioScript script() {
    sim::ScenarioScript s;
    s.seed = 0xcafe;
    s.initial_processes = 1024;
    s.arrival_rate = 16.0;
    s.mean_lifetime = 64.0;
    return s;
  }
};

CaptureWorld& capture_world() {
  static CaptureWorld world;
  return world;
}

void BM_SnapshotCapture_fresh(benchmark::State& state) {
  const CaptureWorld& world = capture_world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot::capture(world.driver));
  }
  state.counters["tracked"] =
      static_cast<double>(world.sys.tracked_processes());
}
BENCHMARK(BM_SnapshotCapture_fresh)
    ->Name("BM_SnapshotCapture/fresh")
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotCapture_refresh(benchmark::State& state) {
  const CaptureWorld& world = capture_world();
  snapshot::SnapshotImage image;
  snapshot::CaptureStats rows;
  for (auto _ : state) {
    state.PauseTiming();
    image = world.previous;
    state.ResumeTiming();
    rows = snapshot::refresh(world.driver, image);
    benchmark::DoNotOptimize(image.system.procs.data());
  }
  state.counters["tracked"] =
      static_cast<double>(world.sys.tracked_processes());
  state.counters["reused"] = static_cast<double>(rows.rows_reused);
}
BENCHMARK(BM_SnapshotCapture_refresh)
    ->Name("BM_SnapshotCapture/refresh")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
