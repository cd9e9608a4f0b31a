// Shared types of the outside-in benchmark: run options, the simulated
// outcome of one round (what the correctness checks judge and the digest
// prints), the measured result of a run, and small timing/memory helpers.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Workload { kSteady, kChurn, kResponse };

[[nodiscard]] const char* workload_name(Workload w);

struct Options {
  Workload workload = Workload::kSteady;
  std::uint64_t seed = 0;
  double seconds = 40.0;
  bool trace = false;
  /// Simulated length override (0 = the workload's fixed length). Only the
  /// smoke test shortens runs; run.py never passes it.
  std::size_t epochs = 0;
};

/// Everything one round simulated, independent of host speed. Rounds of
/// one seed must produce identical outcomes; the checks judge it.
struct Outcome {
  std::uint64_t epochs = 0;       // steps attempted
  std::uint64_t step_throws = 0;  // steps that threw
  // steady_4k: the fixed population every epoch must hold (0 = open).
  std::uint64_t expected_live = 0;
  std::uint64_t live_mismatch_epochs = 0;

  // Exit census over every pid the round spawned.
  std::uint64_t spawned = 0;      // admissions the benchmark/driver made
  std::uint64_t sys_spawned = 0;  // SimSystem::total_spawned()
  std::uint64_t live = 0;         // live_processes() at the end
  std::uint64_t running = 0;      // pids whose exit reason is kRunning
  std::uint64_t completed = 0;    // ... kCompleted
  std::uint64_t killed = 0;       // ... kKilled
  std::uint64_t scheduled_kills = 0;  // kills the schedule itself issued
  // Kills the policy reported issuing, counted apart from the census: the
  // engine's kTerminated actions (steady/churn) or the scenario driver's
  // policy-kill count (response_1k).
  std::uint64_t policy_kills = 0;
  std::uint64_t benign_spawned = 0;
  std::uint64_t benign_policy_kills = 0;  // benign pids the response killed
  std::uint64_t attack_spawned = 0;
  std::uint64_t attack_kills = 0;
  // Attacks admitted early enough that the policy owed a kill by the end,
  // and how many of those were alive past N* + budget epochs.
  std::uint64_t attacks_due = 0;
  std::uint64_t attacks_overdue = 0;

  // Monitor actions summed over every epoch, indexed by
  // ValkyrieMonitor::Action (none, throttled, relaxed, restored,
  // terminated).
  std::array<std::uint64_t, 5> actions{};

  // Checkpointing (response_1k).
  std::uint64_t checkpoints_expected = 0;
  std::uint64_t checkpoints_confirmed = 0;
  std::uint64_t checkpoint_failures = 0;
  bool restore_checked = false;
  bool restore_identical = false;

  // CRC-32 of the final state: the final checkpoint image where the
  // workload checkpoints, else a fingerprint of every live process.
  std::uint32_t state_crc = 0;

  // Decision quality (simulated, deterministic per seed).
  double benign_slowdown_pct = 0.0;
  double attack_kill_epochs_p50 = 0.0;
  double attack_damage_epochs = 0.0;

  /// One line naming every simulated field; equal digests mean equal
  /// simulations.
  [[nodiscard]] std::string digest() const;
};

/// One check's verdict: operations it judged and how many of them failed.
/// Every failure counts in the run's `failed`; only correctness checks
/// decide `correct`. Decision-quality checks (a benign process killed, an
/// attack that outlived its budget) judge the policy's choices, not
/// whether the program computed its outputs correctly.
struct CheckResult {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string detail;
  bool decision_quality = false;
};

/// Runs every check that applies to the workload over one outcome.
/// `rounds_diverged` counts later rounds whose outcome differed from the
/// first round's.
[[nodiscard]] std::vector<CheckResult> run_checks(Workload w,
                                                  const Outcome& o,
                                                  std::uint64_t rounds,
                                                  std::uint64_t rounds_diverged);

/// Feeds each check a good outcome and then a deliberately broken one;
/// returns the number of checks that failed to notice the breakage (or
/// flagged the good outcome). Prints one line per probe.
[[nodiscard]] int self_test();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: the first round's outcome,
/// how many later rounds diverged from it, and both metric sets.
struct RunResult {
  Outcome outcome;
  std::uint64_t rounds = 0;
  std::uint64_t rounds_diverged = 0;
  std::uint64_t timed_epochs = 0;  // untraced timed epochs
  std::size_t quiet_epochs = 0;    // behind the timing figures
  // Traced runs: the SimSystem-only twin ended in the engine's exact state.
  bool twin_exact = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Threads the workload runs on the host (shards + helper threads).
[[nodiscard]] std::size_t workload_threads(Workload w);

[[nodiscard]] RunResult run_workload(const Options& opt);

// --- helpers ------------------------------------------------------------------

/// Peak resident set (VmHWM) of this process in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);

[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

}  // namespace perfbench
