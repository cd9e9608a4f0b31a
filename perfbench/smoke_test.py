#!/usr/bin/env python3
"""Smoke test for perfbench.

    python3 perfbench/smoke_test.py

1. `perfbench --self-test`: every check must flag a deliberately broken
   outcome, and no check may flag a good one.
2. Each workload, shortened with --epochs, untraced and traced: the run
   must pass its checks. The last line must be the JSON result with every
   metric BENCHMARK.json names for that mode, with its unit. Every
   end-to-end metric and decision-quality figure must also print as a
   `metric` line.
3. A workload that needs more threads than the CPUs it may use is refused:
   non-zero exit and no JSON result.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the build entry point next to this file)

SMOKE_EPOCHS = 40
DECISION_FIGURES = ["benign_slowdown_pct", "attack_kill_epochs_p50",
                    "attack_damage_epochs", "failed_frac"]


def fail(msg):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(args, **kw):
    return subprocess.run([str(run.BINARY)] + args, capture_output=True,
                          text=True, timeout=170, **kw)


def check_run(workload, trace, bench):
    done = run_binary(["--workload", workload, "--seed", "1", "--seconds",
                       "1", "--trace", str(trace), "--epochs",
                       str(SMOKE_EPOCHS)])
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}: "
             f"{done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: checks failed\n{done.stdout}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        fail(f"{workload} trace={trace}: metrics "
             f"{sorted(set(result['metrics']) ^ names)} missing or extra")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    expect = names | set(DECISION_FIGURES)
    if not expect <= printed:
        fail(f"{workload} trace={trace}: not printed: {expect - printed}")
    for prefix in ("env nproc=", "env flags=", "env cpu=", "digest "):
        if not any(line.startswith(prefix) for line in lines):
            fail(f"{workload} trace={trace}: no '{prefix}' line")
    print(f"smoke: ok   {workload} trace={trace} "
          f"({len(result['metrics'])} metrics, {result['attempted']} "
          f"operations)")


def main():
    if not run.build():
        fail("build")
    done = run_binary(["--self-test"])
    print(done.stdout, end="")
    if done.returncode != 0:
        fail("self-test")

    bench = spec()
    for workload in ("steady_4k", "churn_4k", "response_1k"):
        for trace in (0, 1):
            check_run(workload, trace, bench)

    # response_1k needs 3 threads; pinned to one CPU it must refuse.
    done = run_binary(["--workload", "response_1k", "--seed", "1",
                       "--seconds", "1", "--trace", "0", "--epochs", "8"],
                      preexec_fn=lambda: os.sched_setaffinity(0, {0}))
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("an oversubscribed run was not refused")
    print("smoke: ok   oversubscribed run refused")
    print("smoke: all passed")


if __name__ == "__main__":
    main()
