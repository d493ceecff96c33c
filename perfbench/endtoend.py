"""Timed run of one workload with tracing off: an untimed warm-up pass, then
repeated passes over the workload's CLI invocations, each pass on fresh
inputs, reported as medians.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from pathlib import Path

import harness

# A run measures at least this many passes even when one pass outlasts
# --seconds, so every median rests on several samples.
MIN_PASSES = 3
# Past this many seconds of passes the run stops whatever MIN_PASSES says,
# so that it still ends within its 180 s on a heavily loaded machine.
MAX_PASS_SECONDS = 120.0


def time_to_se(passes: list[dict], targets: dict) -> float:
    """Sum over the fixed rows of median elapsed * mean(std_error^2) / target^2,
    the time each row needs to reach its kind's target accuracy.

    Timings take the median over passes; the squared standard errors are
    variance estimates of the same quantity, so they are averaged.
    """
    total = 0.0
    for key in sorted(set().union(*passes)):
        found = [p[key] for p in passes if key in p]
        elapsed = statistics.median(e for e, _ in found)
        variance = statistics.fmean(se * se for _, se in found)
        total += elapsed * variance / targets[key[0]] ** 2
    return total


def run(cli, spec: dict, name: str, seed: int, seconds: float, work: Path) -> dict:
    workload = spec["workloads"][name]
    config_dir = work / "configs"
    harness.write_configs(workload, config_dir)
    # the first pass in a process runs about 10% slow, so it is not timed
    harness.run_pass(cli, workload, config_dir, harness.pass_seed(seed, 0), work / "warmup")
    shutil.rmtree(work / "warmup")

    tally = harness.Tally()
    walls, se_passes, per_invocation = [], [], {}
    start = time.perf_counter()
    k = 1
    while True:
        pass_dir = work / f"pass-{k}"
        outcomes = harness.run_pass(cli, workload, config_dir, harness.pass_seed(seed, k), pass_dir)
        shutil.rmtree(pass_dir)
        harness.tally_outcomes(outcomes, workload, tally)
        wall = sum(out.seconds for out in outcomes)
        walls.append(wall)
        se_passes.append(harness.se_rows(outcomes, workload))
        for out in outcomes:
            per_invocation.setdefault(out.name, []).append(out.seconds)
        k += 1
        elapsed = time.perf_counter() - start
        if (len(walls) >= MIN_PASSES and elapsed + wall > seconds) or elapsed + wall > MAX_PASS_SECONDS:
            break

    wall_s = statistics.median(walls)
    # a workload without standard errors computes exact answers: its time to
    # any accuracy is its wall time
    to_se = time_to_se(se_passes, spec["time_to_se_targets"]) if workload["time_to_se_rows"] else wall_s
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "wall_s": (wall_s, "s"),
            "time_to_se_s": (to_se, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "ops_ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
        },
        "detail": {
            "passes": len(walls),
            "pass_wall_s": walls,
            "invocation_s": per_invocation,
            "failures": tally.notes,
        },
    }
