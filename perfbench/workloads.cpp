// The three closed-loop workloads. Each round builds a fresh world from the
// seed, times a fixed number of epochs (the next epoch starts when the
// previous one commits), then derives the round's simulated outcome. The
// traced mode adds a second round whose calls into each module are timed
// from here, around the modules' public functions.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "bench.hpp"
#include "core/actuator.hpp"
#include "core/supervisor.hpp"
#include "core/traces.hpp"
#include "core/valkyrie.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "sim/resources.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "workloads/benchmarks.hpp"

namespace perfbench {

namespace {

using namespace valkyrie;
using Action = core::ValkyrieMonitor::Action;

// --- Workload parameters (fixed simulated lengths and populations) ----------

constexpr std::size_t kEpochs = 1024;  // timed epochs per round
constexpr std::size_t kSteadyProcesses = 4096;
constexpr std::size_t kChurnArrivals = 128;  // per epoch
constexpr double kChurnMeanLifetime = 32.0;
constexpr double kChurnKillExitFraction = 0.5;
constexpr std::size_t kResponseInitial = 1024;
constexpr double kResponseArrivalRate = 8.0;
constexpr double kResponseMeanLifetime = 128.0;
constexpr double kResponseKillExitFraction = 0.4;
// Miners arrive as a steady trickle, one every kMinerStagger epochs from
// kMinerStart on. A fixed cadence keeps the share of epochs with a live
// miner (each costs ~0.9 ms of real SHA-256 per epoch) the same for every
// seed; a Poisson trickle put epoch_ms_p50 on the edge between the
// no-miner and one-miner modes.
constexpr std::uint64_t kMinerStart = 8;
constexpr std::uint64_t kMinerStagger = 64;
constexpr std::size_t kResponseShards = 2;
constexpr std::size_t kRequiredMeasurements = 12;  // N*
// Epochs past N* an attack may live before it counts as a failure.
constexpr std::uint64_t kKillBudget = 12;
// Each round's set-up sample is the fastest of its own set-up and more
// made right after it: at least kSetupRepeats in all, and more while they
// take under kSetupBudgetS. setup_s is the median of the samples of all
// rounds, so the samples spread over the whole run.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupBudgetS = 0.5;
// Quiet-window selection for the timing figures (see quiet_timings). A
// window spans one response_1k checkpoint interval.
constexpr std::size_t kWindowEpochs = 16;
constexpr double kQuietFraction = 0.25;
// Set-up samples per run at least: a run with fewer rounds adds samples
// of set-ups alone until it has this many.
constexpr std::size_t kSetupSamples = 5;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ms(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

// --- Inputs -------------------------------------------------------------------

/// Emits samples from a fixed HPC signature; progress is the CPU share.
/// Lifetime 0 never finishes; otherwise the process completes after that
/// many epochs of work at full share.
class SignatureWorkload final : public sim::Workload {
 public:
  SignatureWorkload(const hpc::HpcSignature& sig, std::uint64_t lifetime)
      : sig_(sig), lifetime_(lifetime) {}

  [[nodiscard]] std::string_view name() const override { return "signature"; }
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
    out.finished =
        lifetime_ != 0 && progress_ >= static_cast<double>(lifetime_);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  hpc::HpcSignature sig_;
  std::uint64_t lifetime_ = 0;
  double progress_ = 0.0;
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
  sig.at(hpc::Event::kL1dMisses) = 6e7;
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

/// The small MLP steady_4k and churn_4k run: trained on a well-separated
/// signature corpus, so it stays quiet on the benign signature.
ml::MlpDetector train_mlp() {
  util::Rng rng(0x5ca1e);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 30; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return ml::MlpDetector::make_small_ann(set, 0x5eed);
}

/// The response_1k detector: a linear SVM trained offline on the miner
/// corpus plus SPEC 2006.
ml::SvmDetector train_svm() {
  std::vector<core::WorkloadFactory> corpus;
  for (const attacks::CryptominerConfig& cfg :
       attacks::cryptominer_corpus()) {
    corpus.push_back(
        [cfg] { return std::make_unique<attacks::CryptominerAttack>(cfg); });
  }
  for (const auto& spec : workloads::spec2006()) {
    corpus.push_back(
        [spec] { return std::make_unique<workloads::BenchmarkWorkload>(spec); });
  }
  return ml::SvmDetector::make(core::collect_traces(corpus, 30), 3);
}

// --- Shared measurement state ------------------------------------------------

/// Host-time samples of one round's timed loop.
struct Loop {
  std::vector<double> epoch_ms;
  std::vector<double> live;  // live processes after each timed epoch
  double host_s = 0.0;
  double live_sum = 0.0;

  void add(Clock::time_point a, Clock::time_point b, std::size_t n) {
    epoch_ms.push_back(ms(a, b));
    live.push_back(static_cast<double>(n));
    host_s += seconds_between(a, b);
    live_sum += static_cast<double>(n);
  }
  /// Total timed host time / Σ live processes after each timed epoch.
  [[nodiscard]] double ns_per_proc_epoch() const {
    return live_sum > 0.0 ? host_s * 1e9 / live_sum : 0.0;
  }
};

/// The timing figures of a run, taken over its quiet windows. Every
/// round's timed epochs are cut into aligned kWindowEpochs-epoch windows;
/// the kQuietFraction of windows with the lowest median epoch time are the
/// quiet ones. Host noise comes in phases of seconds and only ever slows
/// epochs, so the quiet windows are those it touched least. Ranking by the
/// median leaves a window's few slow epochs out of the ranking, so a stall
/// the program itself makes now and then counts at its natural rate.
struct Timings {
  double ns_per_proc_epoch = 0.0;
  double epoch_ms_p50 = 0.0;
  double epoch_ms_p99 = 0.0;
  std::size_t epochs = 0;  // epochs in the quiet windows
};

Timings quiet_timings(const std::vector<const Loop*>& loops) {
  struct Window {
    double median_ms;
    const Loop* loop;
    std::size_t begin;
  };
  std::vector<Window> windows;
  for (const Loop* l : loops) {
    for (std::size_t b = 0; b + kWindowEpochs <= l->epoch_ms.size();
         b += kWindowEpochs) {
      windows.push_back(
          {median({l->epoch_ms.begin() + b,
                   l->epoch_ms.begin() + b + kWindowEpochs}),
           l, b});
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.median_ms < b.median_ms;
            });
  const auto keep = std::min(
      windows.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                   kQuietFraction *
                                   static_cast<double>(windows.size())))));
  std::vector<double> epoch_ms;
  double live = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    const Window& w = windows[i];
    for (std::size_t e = w.begin; e < w.begin + kWindowEpochs; ++e) {
      epoch_ms.push_back(w.loop->epoch_ms[e]);
      live += w.loop->live[e];
    }
  }
  Timings t;
  double total_ms = 0.0;
  for (const double x : epoch_ms) total_ms += x;
  t.ns_per_proc_epoch = live > 0.0 ? total_ms * 1e6 / live : 0.0;
  t.epoch_ms_p50 = quantile(epoch_ms, 0.50);
  t.epoch_ms_p99 = quantile(epoch_ms, 0.99);
  t.epochs = epoch_ms.size();
  return t;
}

/// Time spent inside each layer's calls during the traced round.
struct Layers {
  double begin_s = 0.0, slots_s = 0.0, end_s = 0.0;  // twin SimSystem
  double infer_s = 0.0, plan_s = 0.0;                // twin detector/monitors
  double engine_s = 0.0;                             // ValkyrieEngine::step
  std::uint64_t epochs = 0, slot_calls = 0, plans = 0;
  double spawn_s = 0.0, kill_s = 0.0, attach_s = 0.0, detach_s = 0.0;
  std::uint64_t spawns = 0, kills = 0, attaches = 0, detaches = 0;
};

/// Pins the calling thread to one allowed CPU per round, round-robin, and
/// restores its original affinity when destroyed, so that every core of a
/// shared host, each with its own slow phases, gets its turn in a run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the next CPU and returns it (-1: nothing to rotate over).
  int next() {
    if (cpus_.size() < 2) return -1;
    const int cpu = cpus_[next_++ % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return cpu;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Per-round observations the metrics are built from.
struct Round {
  Outcome outcome;
  Loop loop;
  double setup_s = 0.0;
  std::uint64_t pool_runs = 0;
  std::uint64_t tracked = 0, pid_capacity = 0, history_samples = 0;
  // traced round only
  Layers layers;
  bool twin_exact = true;
  double attack_live_sum = 0.0;
  double checkpoint_stall_ms = 0.0;
  double capture_ms = 0.0, encode_ms = 0.0, parse_ms = 0.0, restore_ms = 0.0;
  double snapshot_bytes = 0.0;
  double miner_epoch_us = 0.0;
};

/// CRC-32 over every live process's pid, epochs run and newest sample —
/// the final-state fingerprint of workloads that do not checkpoint.
std::uint32_t live_state_crc(const sim::SimSystem& sys) {
  std::vector<std::uint8_t> bytes;
  for (const sim::ProcessId pid : sys.live_processes()) {
    const std::uint64_t run = sys.epochs_run(pid);
    const hpc::HpcSample& s = sys.last_sample(pid);
    const std::size_t at = bytes.size();
    bytes.resize(at + sizeof pid + sizeof run + sizeof s.counts);
    std::memcpy(bytes.data() + at, &pid, sizeof pid);
    std::memcpy(bytes.data() + at + sizeof pid, &run, sizeof run);
    std::memcpy(bytes.data() + at + sizeof pid + sizeof run, s.counts.data(),
                sizeof s.counts);
  }
  return util::crc32(bytes);
}

/// Exit census over every pid the system spawned; `attack` flags attack
/// pids (sized total_spawned()).
void take_census(const sim::SimSystem& sys, const std::vector<bool>& attack,
                 Outcome& o) {
  o.sys_spawned = sys.total_spawned();
  o.live = sys.live_processes().size();
  std::uint64_t killed_benign = 0;
  for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    const bool is_attack = pid < attack.size() && attack[pid];
    (is_attack ? o.attack_spawned : o.benign_spawned) += 1;
    switch (sys.exit_reason(pid)) {
      case sim::ExitReason::kRunning: ++o.running; break;
      case sim::ExitReason::kCompleted: ++o.completed; break;
      case sim::ExitReason::kKilled:
        ++o.killed;
        (is_attack ? o.attack_kills : killed_benign) += 1;
        break;
    }
  }
  o.benign_policy_kills =
      killed_benign >= o.scheduled_kills ? killed_benign - o.scheduled_kills : 0;
  o.actions[static_cast<std::size_t>(Action::kTerminated)] = o.policy_kills;
}

/// Monitor actions taken this epoch on processes still live after it.
/// Terminations are counted from the policy's own kill count instead.
void count_actions(const core::ValkyrieEngine& engine,
                   std::span<const sim::ProcessId> live, Outcome& o) {
  for (const sim::ProcessId pid : live) {
    ++o.actions[static_cast<std::size_t>(engine.last_action(pid))];
  }
}

void read_tables(const sim::SimSystem& sys, Round& r) {
  r.tracked = sys.tracked_processes();
  r.pid_capacity = sys.pid_table_capacity();
  std::uint64_t samples = 0;
  for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    samples += sys.sample_history(pid).size();
  }
  r.history_samples = samples;
}

// --- steady_4k and churn_4k ---------------------------------------------------

/// Runs `f` and, when `l` is set, adds its duration to `l->*acc` and counts
/// the call in `l->*count`.
template <typename F>
auto timed(Layers* l, double Layers::*acc, std::uint64_t Layers::*count,
           F&& f) {
  if (l == nullptr) return f();
  const auto t0 = Clock::now();
  auto result = f();
  l->*acc += seconds_between(t0, Clock::now());
  ++(l->*count);
  return result;
}

/// The default engine over one SimSystem, one shard. In the traced round
/// `calls` is set and every lifecycle call and step is timed into it.
struct EngineWorld {
  ml::MlpDetector detector;
  sim::SimSystem sys;
  core::ValkyrieEngine engine;
  Layers* calls = nullptr;

  explicit EngineWorld(std::uint64_t seed)
      : detector(train_mlp()),
        sys(sim::PlatformProfile{}, mix(seed, 1)),
        engine(sys, detector) {}

  sim::ProcessId admit(std::unique_ptr<sim::Workload> w) {
    const sim::ProcessId pid = timed(calls, &Layers::spawn_s, &Layers::spawns,
                                     [&] { return sys.spawn(std::move(w)); });
    timed(calls, &Layers::attach_s, &Layers::attaches, [&] {
      engine.attach(pid, core::ValkyrieConfig{},
                    std::make_unique<core::SchedulerWeightActuator>());
      return 0;
    });
    return pid;
  }
  void kill(sim::ProcessId pid) {
    timed(calls, &Layers::kill_s, &Layers::kills,
          [&] { return (sys.kill(pid), 0); });
    forget(pid);
  }
  /// A departed process leaves the engine.
  void forget(sim::ProcessId pid) {
    timed(calls, &Layers::detach_s, &Layers::detaches,
          [&] { return (engine.detach(pid), 0); });
  }
  void reserve(std::size_t processes, std::size_t epochs) {
    engine.reserve(processes);
    sys.reserve_history(epochs);
  }
  std::size_t step() {
    return timed(calls, &Layers::engine_s, &Layers::epochs,
                 [&] { return engine.step(); });
  }
  void observe(std::span<const sim::ProcessId> live, Outcome& o) const {
    count_actions(engine, live, o);
  }
  /// The engine reports terminating `pid` in the epoch just stepped. A
  /// process the schedule killed has already left the engine.
  [[nodiscard]] bool policy_killed(sim::ProcessId pid) const {
    return engine.is_attached(pid) &&
           engine.last_action(pid) == Action::kTerminated;
  }
};

/// A SimSystem-only twin of EngineWorld. The traced round replays the
/// same schedule on it after the engine's round, timing the default
/// (fused) schedule's interior phase by phase: begin_epoch, step_slot per
/// slot, then per live process the window summary and streaming detector
/// call the engine makes, then a monitor plan, then end_epoch. The feature
/// plane stays off, as in the fused schedule. The twin runs each phase
/// over all slots in turn where the engine interleaves them per slot; the
/// work is the same, the cache reuse between phases is not. Lifecycle
/// calls on the twin are not timed.
struct Twin {
  ml::MlpDetector detector;
  sim::SimSystem sys;
  std::vector<std::unique_ptr<core::ValkyrieMonitor>> monitors;  // by pid
  std::vector<ml::StreamingInference> streams;                    // by pid
  std::vector<std::uint8_t> finished;                             // by slot
  std::vector<ml::Inference> inferences;                          // by slot
  Layers* calls = nullptr;

  explicit Twin(std::uint64_t seed)
      : detector(train_mlp()), sys(sim::PlatformProfile{}, mix(seed, 1)) {}

  sim::ProcessId admit(std::unique_ptr<sim::Workload> w) {
    const sim::ProcessId pid = sys.spawn(std::move(w));
    if (monitors.size() <= pid) {
      monitors.resize(pid + 1);
      streams.resize(pid + 1);
    }
    monitors[pid] = std::make_unique<core::ValkyrieMonitor>(
        core::ValkyrieConfig{},
        std::make_unique<core::SchedulerWeightActuator>());
    return pid;
  }
  void kill(sim::ProcessId pid) {
    sys.kill(pid);
    forget(pid);
  }
  void forget(sim::ProcessId pid) { monitors[pid].reset(); }
  void reserve(std::size_t /*processes*/, std::size_t epochs) {
    sys.reserve_history(epochs);
  }
  std::size_t step() {
    const auto t0 = Clock::now();
    sys.begin_epoch();
    const auto t1 = Clock::now();
    const std::span<const sim::ProcessId> live = sys.live_processes();
    const std::size_t n = live.size();
    finished.resize(n);
    inferences.resize(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      finished[slot] = sys.step_slot(slot) ? 1 : 0;
    }
    const auto t2 = Clock::now();
    std::size_t inferred = 0;
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (finished[slot] != 0) continue;  // no inference, as in the engine
      const sim::ProcessId pid = live[slot];
      inferences[slot] =
          streams[pid].infer(detector, sys.window_summary(pid));
      ++inferred;
    }
    const auto t3 = Clock::now();
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (finished[slot] != 0) continue;
      const sim::ProcessId pid = live[slot];
      (void)monitors[pid]->plan(pid, inferences[slot]);
    }
    const auto t4 = Clock::now();
    sys.end_epoch();
    const auto t5 = Clock::now();
    if (calls != nullptr) {
      Layers& l = *calls;
      l.begin_s += seconds_between(t0, t1);
      l.slots_s += seconds_between(t1, t2);
      l.infer_s += seconds_between(t2, t3);
      l.plan_s += seconds_between(t3, t4);
      l.end_s += seconds_between(t4, t5);
      l.slot_calls += n;
      l.plans += inferred;
    }
    return sys.live_processes().size();
  }
  void observe(std::span<const sim::ProcessId>, Outcome&) const {}
  [[nodiscard]] bool policy_killed(sim::ProcessId) const { return false; }
};

/// Churn schedule: lifetimes and exit modes drawn from the seed.
struct Arrival {
  std::uint64_t lifetime = 0;  // 0 = endless
  bool kill_exit = false;
};

Arrival draw_arrival(util::Rng& rng) {
  const double p = 1.0 / kChurnMeanLifetime;
  const double u = 1.0 - rng.uniform();  // (0, 1]
  const auto lifetime =
      1 + static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
  return {lifetime, rng.chance(kChurnKillExitFraction)};
}

/// Admits the initial population and reserves, as one set-up.
template <typename World>
void populate(World& world, bool churn, util::Rng& schedule,
              std::size_t epochs,
              std::vector<std::pair<std::uint64_t, sim::ProcessId>>* departures) {
  const hpc::HpcSignature sig = benign_signature();
  for (std::size_t i = 0; i < kSteadyProcesses; ++i) {
    const Arrival a = churn ? draw_arrival(schedule) : Arrival{};
    const sim::ProcessId pid = world.admit(std::make_unique<SignatureWorkload>(
        sig, a.kill_exit ? 0 : a.lifetime));
    if (departures != nullptr && a.kill_exit) {
      departures->emplace_back(a.lifetime, pid);
    }
  }
  world.reserve(churn ? kSteadyProcesses + kChurnArrivals * (epochs + 1)
                      : kSteadyProcesses,
                epochs);
}

/// Drives one world through steady_4k's or churn_4k's schedule: the initial
/// population, then `epochs` closed-loop epochs, each timed from the
/// boundary's lifecycle calls to the end of the step. Set-up time is
/// measured from `t_setup` (before the world was built) to the end of the
/// initial admissions.
template <typename World>
void drive(World& world, bool churn, std::uint64_t seed, std::size_t epochs,
           Clock::time_point t_setup, Round& r) {
  Outcome& o = r.outcome;
  sim::SimSystem& sys = world.sys;
  const hpc::HpcSignature sig = benign_signature();
  util::Rng schedule(mix(seed, 2));
  // Scheduled kills, a min-heap on epoch.
  std::vector<std::pair<std::uint64_t, sim::ProcessId>> departures;
  const auto departs_later = [](const auto& a, const auto& b) {
    return a.first > b.first;
  };
  populate(world, churn, schedule, epochs, &departures);
  std::make_heap(departures.begin(), departures.end(), departs_later);
  o.spawned = kSteadyProcesses;
  r.setup_s = seconds_between(t_setup, Clock::now());

  o.expected_live = churn ? 0 : kSteadyProcesses;
  std::vector<sim::ProcessId> prev_live(sys.live_processes().begin(),
                                        sys.live_processes().end());
  // Processes that completed or that the policy killed in the last epoch;
  // they leave the engine at the next boundary.
  std::vector<sim::ProcessId> departed;
  std::vector<sim::ProcessId> arrived;
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::uint64_t now = sys.current_epoch();
    arrived.clear();
    const auto t0 = Clock::now();
    std::size_t live = 0;
    try {
      // Boundary: departed processes leave the engine, scheduled kills
      // retire, arrivals are admitted; then the epoch runs.
      for (const sim::ProcessId pid : departed) world.forget(pid);
      while (!departures.empty() && departures.front().first <= now) {
        std::pop_heap(departures.begin(), departures.end(), departs_later);
        world.kill(departures.back().second);
        departures.pop_back();
        ++o.scheduled_kills;
      }
      if (churn) {
        for (std::size_t i = 0; i < kChurnArrivals; ++i) {
          const Arrival a = draw_arrival(schedule);
          const sim::ProcessId pid =
              world.admit(std::make_unique<SignatureWorkload>(
                  sig, a.kill_exit ? 0 : a.lifetime));
          if (a.kill_exit) {
            departures.emplace_back(now + a.lifetime, pid);
            std::push_heap(departures.begin(), departures.end(),
                           departs_later);
          }
          arrived.push_back(pid);
          ++o.spawned;
        }
      }
      live = world.step();
    } catch (const std::exception& ex) {
      ++o.step_throws;
      std::fprintf(stderr, "step %zu threw: %s\n", e, ex.what());
    }
    r.loop.add(t0, Clock::now(), live);
    ++o.epochs;

    // Bookkeeping outside the timed loop: actions, and which processes
    // left the live list in this epoch. A scheduled kill has already left
    // the engine; a completion and a kill the engine itself reports leave
    // it at the next boundary. The policy's kills are counted from the
    // engine's report, not from the exit census, so the census check can
    // tell them from a kill nobody issued.
    const std::span<const sim::ProcessId> now_live = sys.live_processes();
    if (o.expected_live != 0 && now_live.size() != o.expected_live) {
      ++o.live_mismatch_epochs;
    }
    world.observe(now_live, o);
    departed.clear();
    const auto leave = [&](sim::ProcessId pid) {
      if (sys.exit_reason(pid) == sim::ExitReason::kCompleted) {
        departed.push_back(pid);
      } else if (world.policy_killed(pid)) {
        ++o.policy_kills;
        departed.push_back(pid);
      }
    };
    std::size_t l = 0;
    for (const sim::ProcessId pid : prev_live) {
      if (l < now_live.size() && now_live[l] == pid) {
        ++l;
      } else {
        leave(pid);
      }
    }
    for (const sim::ProcessId pid : arrived) {
      if (!sys.is_live(pid)) leave(pid);
    }
    prev_live.assign(now_live.begin(), now_live.end());
  }
  o.state_crc = live_state_crc(sys);
}

Round run_engine_round(Workload w, std::uint64_t seed, std::size_t epochs,
                       bool trace) {
  const bool churn = w == Workload::kChurn;
  Round r;
  const auto t_setup = Clock::now();
  auto world = std::make_unique<EngineWorld>(seed);
  if (trace) world->calls = &r.layers;
  drive(*world, churn, seed, epochs, t_setup, r);
  r.pool_runs = world->engine.schedule_run_count();
  take_census(world->sys, std::vector<bool>(world->sys.total_spawned(), false),
              r.outcome);
  read_tables(world->sys, r);
  if (trace) {
    // The twin replays the schedule alone, after the engine's world is
    // gone, so neither perturbs the other's caches or peak memory.
    world.reset();
    Twin twin(seed);
    twin.calls = &r.layers;
    Round replay;
    drive(twin, churn, seed, epochs, Clock::now(), replay);
    r.twin_exact = replay.outcome.state_crc == r.outcome.state_crc &&
                   replay.outcome.spawned == r.outcome.spawned;
  }
  return r;
}

// --- response_1k --------------------------------------------------------------

sim::ScenarioScript response_script(std::uint64_t seed, std::size_t epochs) {
  sim::ScenarioScript script;
  script.seed = mix(seed, 3);
  script.initial_processes = kResponseInitial;
  script.arrival_rate = kResponseArrivalRate;
  script.campaigns.push_back(
      {.start_epoch = kMinerStart,
       .count = (epochs - kMinerStart + kMinerStagger - 1) / kMinerStagger,
       .stagger = kMinerStagger,
       .family = sim::AttackFamily::kCryptominer});
  script.mean_lifetime = kResponseMeanLifetime;
  script.kill_exit_fraction = kResponseKillExitFraction;
  script.monitor_config.required_measurements = kRequiredMeasurements;
  return script;
}

core::SupervisedEngine::WorldFactory response_factory(
    const ml::Detector& detector, std::uint64_t seed, std::size_t epochs) {
  return [&detector, seed, epochs](const snapshot::SnapshotImage* image) {
    core::SupervisedWorld world;
    world.system = std::make_unique<sim::SimSystem>(sim::PlatformProfile{},
                                                    mix(seed, 1));
    world.engine = std::make_unique<core::ValkyrieEngine>(
        *world.system, detector, kResponseShards);
    if (image == nullptr) {
      world.driver = std::make_unique<sim::ScenarioDriver>(
          *world.engine, response_script(seed, epochs));
      // What ScenarioDriver::run reserves before a run of this length.
      const std::size_t expected = world.driver->expected_processes(epochs);
      world.system->reserve(expected);
      world.engine->reserve(expected);
      world.driver->reserve(expected);
    } else {
      snapshot::restore(*image, *world.engine, snapshot::RestoreContext{});
      world.driver = std::make_unique<sim::ScenarioDriver>(
          *world.engine, response_script(seed, epochs), image->driver);
    }
    return world;
  };
}

/// Per-pid progress ledger for the decision-quality metrics.
struct Ledger {
  std::vector<bool> attack;
  std::vector<std::uint64_t> admitted;  // epoch of first execution
  std::vector<std::uint64_t> seen;      // epochs_run already accounted
  std::vector<double> progress;         // attacks: cumulative progress
  std::vector<double> full_rate;        // attacks: first-epoch progress
  double benign_full = 0.0;    // Σ full-speed progress over benign epochs
  double benign_actual = 0.0;  // Σ progress actually made in them
  double benign_rate = 0.0;    // a benign process's full-speed progress

  void admit_new(const sim::SimSystem& sys, std::uint64_t epoch) {
    for (auto pid = static_cast<sim::ProcessId>(attack.size());
         pid < sys.total_spawned(); ++pid) {
      // A pid already retired at first sight completed in its first epoch,
      // so it is benign: attacks never complete, and the policy cannot
      // terminate before N* measurements. (Its workload may already be
      // recycled, so it must not be asked.)
      attack.push_back(sys.is_live(pid) && sys.workload(pid).is_attack());
      admitted.push_back(epoch);
      seen.push_back(0);
      progress.push_back(0.0);
      full_rate.push_back(0.0);
    }
  }

  void account(const sim::SimSystem& sys, sim::ProcessId pid) {
    const std::uint64_t run = sys.epochs_run(pid);
    if (run <= seen[pid]) return;
    seen[pid] = run;
    const double p = sys.last_progress(pid);
    if (attack[pid]) {
      progress[pid] += p;
      if (run == 1) full_rate[pid] = p;
      return;
    }
    // Eq. 4 per benign process-epoch against the full-speed run; a
    // completion epoch is partial by nature and is left out.
    if (!sys.is_live(pid) &&
        sys.exit_reason(pid) == sim::ExitReason::kCompleted) {
      return;
    }
    benign_full += benign_rate;
    benign_actual += p;
  }
};

Round run_response_round(const Options& opt, std::size_t epochs, bool trace) {
  Round r;
  Outcome& o = r.outcome;
  const auto t_setup = Clock::now();
  const ml::SvmDetector detector = train_svm();
  const auto factory = response_factory(detector, opt.seed, epochs);
  auto supervisor =
      std::make_unique<core::SupervisedEngine>(factory,
                                               core::SupervisedEngine::Config{});
  r.setup_s = seconds_between(t_setup, Clock::now());

  const std::uint64_t interval = supervisor->config().checkpoint_interval;
  Ledger ledger;
  ledger.benign_rate = std::clamp(sim::cpu_progress_multiplier(1.0) *
                                      sim::memory_progress_multiplier(1.0),
                                  0.0, 1.0);
  std::vector<sim::ProcessId> prev_live;
  const std::uint64_t runs0 = supervisor->engine().schedule_run_count();
  double cp_ms = 0.0, other_ms = 0.0, capture_ms = 0.0;
  std::uint64_t cp_n = 0, other_n = 0;

  for (std::size_t e = 0; e < epochs; ++e) {
    const auto t0 = Clock::now();
    std::size_t live = 0;
    try {
      live = supervisor->step();
    } catch (const std::exception& ex) {
      ++o.step_throws;
      std::fprintf(stderr, "step %zu threw: %s\n", e, ex.what());
    }
    const auto t1 = Clock::now();
    r.loop.add(t0, t1, live);
    ++o.epochs;
    if ((e + 1) % interval == 0) {
      cp_ms += ms(t0, t1);
      ++cp_n;
    } else {
      other_ms += ms(t0, t1);
      ++other_n;
    }

    // Bookkeeping outside the timed loop.
    const sim::SimSystem& sys = supervisor->system();
    const std::size_t known = ledger.attack.size();
    ledger.admit_new(sys, e);
    const std::span<const sim::ProcessId> now_live = sys.live_processes();
    for (const sim::ProcessId pid : prev_live) ledger.account(sys, pid);
    for (const sim::ProcessId pid : now_live) {
      ledger.account(sys, pid);
      if (ledger.attack[pid]) r.attack_live_sum += 1.0;
    }
    for (auto pid = static_cast<sim::ProcessId>(known);
         pid < sys.total_spawned(); ++pid) {
      ledger.account(sys, pid);
    }
    count_actions(supervisor->engine(), now_live, o);
    prev_live.assign(now_live.begin(), now_live.end());
    if (trace && (e + 1) % interval == 0) {
      // The world as the checkpoint just taken inside the step saw it:
      // capture it again here, outside the timed loop, so capture_ms
      // averages over the same images as checkpoint_stall_ms.
      const auto a = Clock::now();
      const snapshot::SnapshotImage image =
          snapshot::capture(*supervisor->driver());
      capture_ms += ms(a, Clock::now());
    }
  }
  r.checkpoint_stall_ms =
      cp_n != 0 && other_n != 0 ? cp_ms / cp_n - other_ms / other_n : 0.0;
  r.capture_ms = cp_n != 0 ? capture_ms / cp_n : 0.0;
  r.pool_runs = supervisor->engine().schedule_run_count() - runs0;

  // Outcome: census, attack judgement, checkpoints.
  const std::vector<std::uint8_t> bytes = supervisor->latest_checkpoint();
  const core::SupervisedEngine::Health health = supervisor->health();
  o.checkpoints_expected = 1 + epochs / interval;
  o.checkpoints_confirmed = health.checkpoints;
  o.checkpoint_failures = health.checkpoint_failures;
  o.state_crc = util::crc32(bytes);
  {
    const sim::SimSystem& sys = supervisor->system();
    o.spawned = supervisor->driver()->stats().spawned;
    o.scheduled_kills = supervisor->driver()->stats().driver_kills;
    // The scenario driver counts the policy's kills as it sees processes
    // leave, apart from the exit census below.
    o.policy_kills = supervisor->driver()->stats().policy_kills;
    take_census(sys, ledger.attack, o);
    read_tables(sys, r);

    std::vector<double> kill_epochs;
    double damage = 0.0;
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (!ledger.attack[pid]) continue;
      const std::uint64_t run = sys.epochs_run(pid);
      if (ledger.admitted[pid] + kRequiredMeasurements + kKillBudget < epochs) {
        ++o.attacks_due;
      }
      if (run > kRequiredMeasurements + kKillBudget) ++o.attacks_overdue;
      if (sys.exit_reason(pid) == sim::ExitReason::kKilled) {
        kill_epochs.push_back(static_cast<double>(run));
        damage += ledger.full_rate[pid] > 0.0
                      ? ledger.progress[pid] / ledger.full_rate[pid]
                      : 0.0;
      }
    }
    o.attack_kill_epochs_p50 = kill_epochs.empty() ? 0.0 : median(kill_epochs);
    o.attack_damage_epochs =
        kill_epochs.empty() ? 0.0 : damage / static_cast<double>(kill_epochs.size());
    o.benign_slowdown_pct =
        ledger.benign_full > 0.0
            ? 100.0 * (1.0 - ledger.benign_actual / ledger.benign_full)
            : 0.0;
  }

  if (trace) {
    // Encode of the final image, the largest of the run, off the loop.
    std::vector<double> enc;
    for (int i = 0; i < 3; ++i) {
      const snapshot::SnapshotImage image =
          snapshot::capture(*supervisor->driver());
      const auto a = Clock::now();
      const std::vector<std::uint8_t> encoded = snapshot::encode(image);
      enc.push_back(ms(a, Clock::now()));
    }
    r.encode_ms = median(enc);
    r.snapshot_bytes = static_cast<double>(bytes.size());

    // One miner stepped alone at full shares.
    attacks::CryptominerAttack miner;
    util::Rng rng(mix(opt.seed, 4));
    sim::EpochContext ctx;
    ctx.rng = &rng;
    std::vector<double> us;
    for (int i = 0; i < 64; ++i) {
      ctx.epoch = static_cast<std::uint64_t>(i);
      const auto a = Clock::now();
      (void)miner.run_epoch(sim::ResourceShares{}, ctx);
      us.push_back(seconds_between(a, Clock::now()) * 1e6);
    }
    r.miner_epoch_us = median(us);
  }

  // The final checkpoint must restore into a fresh world that re-captures
  // byte-identically. The live world goes first so the restored one does
  // not count towards the loop's peak RSS.
  supervisor.reset();
  o.restore_checked = true;
  try {
    const auto a = Clock::now();
    const snapshot::SnapshotImage image = snapshot::parse(bytes);
    const auto b = Clock::now();
    const core::SupervisedWorld restored = factory(&image);
    const auto c = Clock::now();
    r.parse_ms = ms(a, b);
    r.restore_ms = ms(b, c);
    o.restore_identical =
        snapshot::encode(snapshot::capture(*restored.driver)) == bytes;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "restore threw: %s\n", ex.what());
    o.restore_identical = false;
  }
  return r;
}

std::size_t round_epochs(const Options& opt) {
  return opt.epochs != 0 ? opt.epochs : kEpochs;
}

Round run_round(const Options& opt, bool trace) {
  const std::size_t epochs = round_epochs(opt);
  if (opt.workload == Workload::kResponse) {
    return run_response_round(opt, epochs, trace);
  }
  return run_engine_round(opt.workload, opt.seed, epochs, trace);
}

/// Builds and drops a world without running it: extra set-up samples.
double setup_only(const Options& opt) {
  const auto t0 = Clock::now();
  if (opt.workload == Workload::kResponse) {
    const ml::SvmDetector detector = train_svm();
    core::SupervisedEngine supervisor(
        response_factory(detector, opt.seed, round_epochs(opt)),
        core::SupervisedEngine::Config{});
    return seconds_between(t0, Clock::now());
  }
  EngineWorld world(opt.seed);
  util::Rng schedule(mix(opt.seed, 2));
  populate(world, opt.workload == Workload::kChurn, schedule,
           round_epochs(opt), nullptr);
  return seconds_between(t0, Clock::now());
}

Metric metric(const char* name, double value, const char* unit) {
  return {name, value, unit};
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSteady: return "steady_4k";
    case Workload::kChurn: return "churn_4k";
    case Workload::kResponse: return "response_1k";
  }
  return "?";
}

std::size_t workload_threads(Workload w) {
  // response_1k: the engine's shards plus the Snapshotter's encoder thread.
  return w == Workload::kResponse ? kResponseShards + 1 : 1;
}

RunResult run_workload(const Options& opt) {
  RunResult out;
  const auto start = Clock::now();
  // The single-threaded workloads pin each round to one CPU, round-robin.
  // response_1k runs three threads and is left to the scheduler: pinning
  // its caller thread could stack it on a pool worker's core.
  CpuRotation rotation;
  const bool pin = workload_threads(opt.workload) == 1;

  // One set-up sample: the fastest of `first` and the set-ups after it.
  const auto setup_sample = [&opt](double first) {
    double fastest = first, spent = first;
    for (std::size_t n = 1; n < kSetupRepeats || spent < kSetupBudgetS; ++n) {
      const double s = setup_only(opt);
      fastest = std::min(fastest, s);
      spent += s;
    }
    return fastest;
  };

  // Untraced rounds fill the time budget, one fixed-length round at a time
  // (at least one); every round replays the same seed.
  std::vector<double> setups, epoch_ms;
  std::vector<Round> rounds;
  double rss = 0.0;
  const std::size_t untraced_rounds_max = opt.trace ? 1 : SIZE_MAX;
  while (rounds.size() < untraced_rounds_max) {
    const int cpu = pin ? rotation.next() : -1;
    rounds.push_back(run_round(opt, /*trace=*/false));
    const Round& r = rounds.back();
    // The first round's peak: later rounds reuse a heap the first one
    // shaped, so their peak depends on how many rounds fit the budget.
    if (rounds.size() == 1) rss = peak_rss_mb();
    epoch_ms.insert(epoch_ms.end(), r.loop.epoch_ms.begin(),
                    r.loop.epoch_ms.end());
    if (r.outcome.digest() != rounds.front().outcome.digest()) {
      ++out.rounds_diverged;
    }
    setups.push_back(opt.trace ? r.setup_s : setup_sample(r.setup_s));
    std::printf("round %zu cpu=%d ns_per_proc_epoch=%.3f epoch_ms_p50=%.4f "
                "epoch_ms_p99=%.4f setup_s=%.4f\n",
                rounds.size(), cpu, r.loop.ns_per_proc_epoch(),
                quantile(r.loop.epoch_ms, 0.50),
                quantile(r.loop.epoch_ms, 0.99), setups.back());
    std::fflush(stdout);
    const double elapsed = seconds_between(start, Clock::now());
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (elapsed + per_round > opt.seconds) break;
  }
  out.rounds = rounds.size();
  out.outcome = rounds.front().outcome;
  out.timed_epochs = epoch_ms.size();
  while (!opt.trace && setups.size() < kSetupSamples) {
    setups.push_back(setup_sample(setup_only(opt)));
  }

  std::vector<const Loop*> loops;
  for (const Round& r : rounds) loops.push_back(&r.loop);
  const Timings quiet = quiet_timings(loops);
  out.quiet_epochs = quiet.epochs;
  const Outcome& o = out.outcome;
  out.end_to_end = {
      metric("ns_per_proc_epoch", quiet.ns_per_proc_epoch, "ns"),
      metric("epoch_ms_p50", quiet.epoch_ms_p50, "ms"),
      metric("epoch_ms_p99", quiet.epoch_ms_p99, "ms"),
      metric("peak_rss_mb", rss, "MB"),
      metric("setup_s", median(setups), "s"),
  };
  if (!opt.trace) return out;

  // Traced round: same seed and CPU as the untraced round, every layer call
  // timed from here.
  const Round t = run_round(opt, /*trace=*/true);
  ++out.rounds;
  if (t.outcome.digest() != o.digest()) ++out.rounds_diverged;
  const Layers& l = t.layers;
  const auto per = [](double s, std::uint64_t n, double scale) {
    return n != 0 ? s * scale / static_cast<double>(n) : 0.0;
  };
  const double epochs = static_cast<double>(t.outcome.epochs);
  const double twin_s = l.begin_s + l.slots_s + l.end_s + l.infer_s + l.plan_s;
  const double traced_ns = t.loop.ns_per_proc_epoch();
  const double untraced_ns = rounds.front().loop.ns_per_proc_epoch();
  double actions = 0.0;
  for (std::size_t a = 1; a < o.actions.size(); ++a) {
    actions += static_cast<double>(t.outcome.actions[a]);
  }
  out.twin_exact = t.twin_exact;
  out.per_layer = {
      metric("sim.begin_epoch_us", per(l.begin_s, l.epochs, 1e6), "us"),
      metric("sim.step_slot_ns", per(l.slots_s, l.slot_calls, 1e9), "ns"),
      metric("sim.end_epoch_us", per(l.end_s, l.epochs, 1e6), "us"),
      metric("sim.spawn_ns", per(l.spawn_s, l.spawns, 1e9), "ns"),
      metric("sim.kill_ns", per(l.kill_s, l.kills, 1e9), "ns"),
      metric("core.attach_ns", per(l.attach_s, l.attaches, 1e9), "ns"),
      metric("core.detach_ns", per(l.detach_s, l.detaches, 1e9), "ns"),
      metric("sim.tracked_processes", static_cast<double>(t.tracked), "count"),
      metric("sim.pid_table_capacity", static_cast<double>(t.pid_capacity),
             "count"),
      metric("sim.history_samples", static_cast<double>(t.history_samples),
             "count"),
      metric("ml.infer_ns", per(l.infer_s, l.plans, 1e9), "ns"),
      metric("core.plan_ns", per(l.plan_s, l.plans, 1e9), "ns"),
      metric("core.engine_step_ms",
             l.epochs != 0 ? per(l.engine_s, l.epochs, 1e3)
                           : t.loop.host_s * 1e3 / epochs,
             "ms"),
      metric("core.engine_unattributed_ns",
             l.epochs != 0 ? (l.engine_s - twin_s) * 1e9 / t.loop.live_sum
                           : 0.0,
             "ns"),
      metric("core.actions_per_epoch", actions / epochs, "count"),
      metric("attacks.live_per_epoch", t.attack_live_sum / epochs, "count"),
      metric("attacks.run_epoch_us", t.miner_epoch_us, "us"),
      metric("core.checkpoint_stall_ms", t.checkpoint_stall_ms, "ms"),
      metric("snapshot.capture_ms", t.capture_ms, "ms"),
      metric("snapshot.encode_ms", t.encode_ms, "ms"),
      metric("snapshot.enqueue_wait_ms", t.checkpoint_stall_ms - t.capture_ms,
             "ms"),
      metric("snapshot.bytes", t.snapshot_bytes, "B"),
      metric("snapshot.parse_ms", t.parse_ms, "ms"),
      metric("snapshot.restore_ms", t.restore_ms, "ms"),
      metric("util.pool_runs_per_epoch",
             static_cast<double>(t.pool_runs) / epochs, "count"),
      metric("trace.overhead_pct",
             untraced_ns > 0.0 ? 100.0 * (traced_ns / untraced_ns - 1.0) : 0.0,
             "%"),
      metric("benign_slowdown_pct", o.benign_slowdown_pct, "%"),
      metric("attack_kill_epochs_p50", o.attack_kill_epochs_p50, "epochs"),
      metric("attack_damage_epochs", o.attack_damage_epochs, "epochs"),
  };
  return out;
}

}  // namespace perfbench
