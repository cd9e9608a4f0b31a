// Correctness checks over a round's simulated outcome, the outcome digest,
// and the self-test that proves every check fails on a broken outcome.
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::string Outcome::digest() const {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "epochs=%" PRIu64 " spawned=%" PRIu64 " live=%" PRIu64
      " completed=%" PRIu64 " killed=%" PRIu64 " scheduled_kills=%" PRIu64
      " benign_policy_kills=%" PRIu64 " attack_spawned=%" PRIu64
      " attack_kills=%" PRIu64 " actions=throttled:%" PRIu64
      ",relaxed:%" PRIu64 ",restored:%" PRIu64 ",terminated:%" PRIu64
      " checkpoints=%" PRIu64 " state_crc=0x%08x"
      " benign_slowdown_pct=%.9g attack_kill_epochs_p50=%.9g"
      " attack_damage_epochs=%.9g",
      epochs, spawned, live, completed, killed, scheduled_kills,
      benign_policy_kills, attack_spawned, attack_kills, actions[1],
      actions[2], actions[3], actions[4], checkpoints_confirmed, state_crc,
      benign_slowdown_pct, attack_kill_epochs_p50, attack_damage_epochs);
  return buf;
}

namespace {

CheckResult census_check(const Outcome& o) {
  CheckResult r{"census", 1, 0, ""};
  // Every kill the schedule did not issue must be one the policy reported.
  const bool balanced =
      o.spawned == o.sys_spawned && o.live == o.running &&
      o.sys_spawned == o.running + o.completed + o.killed &&
      o.killed == o.scheduled_kills + o.policy_kills;
  if (!balanced) {
    r.failed = 1;
    r.detail = "spawned " + std::to_string(o.spawned) + " (system " +
               std::to_string(o.sys_spawned) + ") != running " +
               std::to_string(o.running) + " (live " + std::to_string(o.live) +
               ") + completed " + std::to_string(o.completed) + " + killed " +
               std::to_string(o.killed) + " (scheduled " +
               std::to_string(o.scheduled_kills) + ", policy " +
               std::to_string(o.policy_kills) + ")";
  }
  return r;
}

}  // namespace

std::vector<CheckResult> run_checks(Workload w, const Outcome& o,
                                    std::uint64_t rounds,
                                    std::uint64_t rounds_diverged) {
  std::vector<CheckResult> out;
  out.push_back({"steps", o.epochs, o.step_throws,
                 o.step_throws != 0 ? "steps threw" : ""});
  out.push_back(census_check(o));
  out.push_back({"benign_survival", o.benign_spawned, o.benign_policy_kills,
                 o.benign_policy_kills != 0
                     ? "benign processes terminated by the policy"
                     : "",
                 /*decision_quality=*/true});
  out.push_back({"determinism", rounds, rounds_diverged,
                 rounds_diverged != 0 ? "rounds of one seed diverged" : ""});

  if (w == Workload::kSteady) {
    out.push_back({"population", o.epochs, o.live_mismatch_epochs,
                   o.live_mismatch_epochs != 0
                       ? "epochs without " + std::to_string(o.expected_live) +
                             " live processes"
                       : ""});
  }
  if (w == Workload::kResponse) {
    // A run that admitted no attack early enough proves nothing about the
    // response: that is a failure of the workload itself.
    CheckResult kills{"attack_kills", o.attacks_due, o.attacks_overdue, "",
                      /*decision_quality=*/true};
    if (o.attacks_due == 0) {
      kills.attempted = 1;
      kills.failed = 1;
      kills.detail = "no attack was admitted early enough to be judged";
    } else if (o.attacks_overdue != 0) {
      kills.detail = "attacks alive past N* + budget epochs";
    }
    out.push_back(kills);

    CheckResult cp{"checkpoints", o.checkpoints_expected, 0, ""};
    const std::uint64_t missing =
        o.checkpoints_confirmed < o.checkpoints_expected
            ? o.checkpoints_expected - o.checkpoints_confirmed
            : 0;
    cp.failed = missing + o.checkpoint_failures;
    if (cp.failed != 0) cp.detail = "checkpoints did not confirm";
    out.push_back(cp);

    const bool ok = o.restore_checked && o.restore_identical;
    out.push_back({"restore", 1, ok ? 0u : 1u,
                   ok ? "" : "final checkpoint did not re-capture identically"});
  }
  return out;
}

// --- self-test ----------------------------------------------------------------

namespace {

Outcome good_outcome(Workload w) {
  Outcome o;
  o.epochs = 100;
  switch (w) {
    case Workload::kSteady:
      o.expected_live = 8;
      o.spawned = o.sys_spawned = o.live = o.running = 8;
      o.benign_spawned = 8;
      break;
    case Workload::kChurn:
      o.spawned = o.sys_spawned = 40;
      o.live = o.running = 10;
      o.completed = 15;
      o.killed = o.scheduled_kills = 15;
      o.benign_spawned = 40;
      break;
    case Workload::kResponse:
      o.spawned = o.sys_spawned = 50;
      o.live = o.running = 20;
      o.completed = 10;
      o.scheduled_kills = 14;
      o.attack_kills = o.policy_kills = 6;
      o.killed = 20;
      o.benign_spawned = 43;
      o.attack_spawned = 7;
      o.attacks_due = 6;
      o.checkpoints_expected = o.checkpoints_confirmed = 6;
      o.restore_checked = o.restore_identical = true;
      break;
  }
  return o;
}

struct Breakage {
  Workload workload;
  const char* check;  // the check that must fail
  const char* what;
  std::function<void(Outcome&, std::uint64_t& diverged)> apply;
};

std::uint64_t failures_of(const std::vector<CheckResult>& rs,
                          const char* name) {
  for (const CheckResult& r : rs) {
    if (r.name == name) return r.failed;
  }
  return 0;
}

}  // namespace

int self_test() {
  int bad = 0;
  for (Workload w : {Workload::kSteady, Workload::kChurn,
                     Workload::kResponse}) {
    for (const CheckResult& r : run_checks(w, good_outcome(w), 2, 0)) {
      if (r.failed != 0) {
        std::printf("self-test FAIL %s: good outcome flagged by %s (%s)\n",
                    workload_name(w), r.name.c_str(), r.detail.c_str());
        ++bad;
      }
    }
  }

  const std::vector<Breakage> breakages = {
      {Workload::kSteady, "steps", "a step threw",
       [](Outcome& o, std::uint64_t&) { o.step_throws = 1; }},
      {Workload::kSteady, "population", "an epoch lost a process",
       [](Outcome& o, std::uint64_t&) { o.live_mismatch_epochs = 1; }},
      {Workload::kSteady, "census", "live list disagrees with exit reasons",
       [](Outcome& o, std::uint64_t&) { ++o.running; }},
      {Workload::kSteady, "determinism", "a round diverged",
       [](Outcome&, std::uint64_t& d) { d = 1; }},
      {Workload::kChurn, "census", "a completion went missing",
       [](Outcome& o, std::uint64_t&) { --o.completed; }},
      {Workload::kChurn, "census", "system spawned more than scheduled",
       [](Outcome& o, std::uint64_t&) { ++o.sys_spawned; }},
      {Workload::kChurn, "census", "a kill neither schedule nor policy issued",
       [](Outcome& o, std::uint64_t&) {
         --o.running;
         --o.live;
         ++o.killed;
       }},
      {Workload::kChurn, "census", "the policy reported a kill that never ran",
       [](Outcome& o, std::uint64_t&) { ++o.policy_kills; }},
      {Workload::kChurn, "benign_survival", "the policy killed a process",
       [](Outcome& o, std::uint64_t&) {
         --o.running;
         --o.live;
         ++o.killed;
         ++o.policy_kills;
         ++o.benign_policy_kills;
       }},
      {Workload::kResponse, "census", "a miner died unreported",
       [](Outcome& o, std::uint64_t&) { --o.policy_kills; }},
      {Workload::kResponse, "benign_survival", "the policy killed a benign",
       [](Outcome& o, std::uint64_t&) {
         --o.scheduled_kills;
         ++o.policy_kills;
         ++o.benign_policy_kills;
       }},
      {Workload::kResponse, "attack_kills", "a miner outlived its budget",
       [](Outcome& o, std::uint64_t&) { o.attacks_overdue = 1; }},
      {Workload::kResponse, "attack_kills", "no miner was judged",
       [](Outcome& o, std::uint64_t&) { o.attacks_due = 0; }},
      {Workload::kResponse, "checkpoints", "a checkpoint never confirmed",
       [](Outcome& o, std::uint64_t&) { --o.checkpoints_confirmed; }},
      {Workload::kResponse, "checkpoints", "a checkpoint sink failed",
       [](Outcome& o, std::uint64_t&) { o.checkpoint_failures = 1; }},
      {Workload::kResponse, "restore", "restore re-captured other bytes",
       [](Outcome& o, std::uint64_t&) { o.restore_identical = false; }},
      {Workload::kResponse, "restore", "restore never ran",
       [](Outcome& o, std::uint64_t&) { o.restore_checked = false; }},
  };
  for (const Breakage& b : breakages) {
    Outcome o = good_outcome(b.workload);
    std::uint64_t diverged = 0;
    b.apply(o, diverged);
    const auto rs = run_checks(b.workload, o, 2, diverged);
    const bool caught = failures_of(rs, b.check) != 0;
    std::printf("self-test %s %s/%s: %s\n", caught ? "ok  " : "FAIL",
                workload_name(b.workload), b.check, b.what);
    if (!caught) ++bad;
  }

  // The digest must tell apart outcomes that differ in any simulated field.
  Outcome a = good_outcome(Workload::kResponse);
  Outcome b = a;
  b.state_crc ^= 1;
  const bool digest_ok = a.digest() != b.digest();
  std::printf("self-test %s digest: a changed image CRC changes the digest\n",
              digest_ok ? "ok  " : "FAIL");
  if (!digest_ok) ++bad;
  return bad;
}

}  // namespace perfbench
