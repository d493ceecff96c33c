"""Shared pieces of the benchmark: the workload spec, in-process CLI
invocations, reading their run directories, and the correctness checks.

The parent process in ``run.py`` needs only ``load_spec``,
``write_configs`` and ``argv_for``; the rest runs in the child process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"

# Thread settings removed from every child environment, so each workload runs
# at the defaults a user gets; the values the caller had are recorded instead.
THREAD_ENV_VARS = (
    "HAARGAUSS_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Result files that legitimately differ between runs of the same seed: the
# config echo records the worker count and timing.json holds wall clock.
SIDE_FILES = ("config.json", "timing.json")

# Asymptotic 1% critical value of the one-sample KS statistic times sqrt(N).
KS_CRITICAL_1PCT = 1.628


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index`` of a run: fixed by the run's seed, and
    distinct across passes so that each pass samples fresh inputs."""
    return (seed * 1000 + index) % 2**64


def write_configs(workload: dict, config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for i, inv in enumerate(workload["invocations"]):
        (config_dir / f"{i}.json").write_text(json.dumps(inv["config"]), encoding="utf-8")


def argv_for(workload: dict, index: int, config_dir: Path, seed: int, output_dir: Path,
             threads: int | None = None) -> list[str]:
    argv = [
        workload["invocations"][index]["command"],
        "--config", str(config_dir / f"{index}.json"),
        "--seed", str(seed),
        "--output-dir", str(output_dir),
    ]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


@dataclass
class Outcome:
    """One CLI invocation: exit code, wall time, result rows and files."""

    name: str
    command: str
    exit_code: int
    seconds: float
    rows: list[dict] = field(default_factory=list)
    elapsed_ms: list[float] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)


def invoke(cli, name: str, argv: list[str], output_dir: Path, guard=contextlib.nullcontext()) -> Outcome:
    """Run ``cli.main(argv)`` in process, inside ``guard`` (the traced run
    passes a span), and read back its run directory.

    The CLI's stdout chatter is discarded.  An exception escaping the CLI
    ends a real run with a traceback and exit code 1, so it is recorded as
    exit code 1 here and the benchmark goes on.
    """
    with guard, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    outcome = Outcome(name=name, command=argv[0], exit_code=code, seconds=seconds)
    run_dirs = sorted(p for p in output_dir.iterdir() if p.is_dir()) if output_dir.exists() else []
    if len(run_dirs) != 1:
        return outcome
    run_dir = run_dirs[0]
    for path in sorted(run_dir.iterdir()):
        if path.name not in SIDE_FILES:
            outcome.files[path.name] = path.read_bytes()
    if "results.csv" in outcome.files:
        outcome.rows = list(csv.DictReader(io.StringIO(outcome.files["results.csv"].decode("utf-8"))))
    timing = run_dir / "timing.json"
    if timing.exists():
        outcome.elapsed_ms = [rec["elapsed_ms"] for rec in json.loads(timing.read_text())]
    return outcome


def run_pass(cli, workload: dict, config_dir: Path, seed: int, pass_dir: Path,
             threads: int | None = None, span_for=None) -> list[Outcome]:
    """Run every invocation of the workload once, in order; ``span_for(name)``
    gives the context each invocation runs in."""
    outcomes = []
    for i, inv in enumerate(workload["invocations"]):
        output_dir = pass_dir / str(i)
        argv = argv_for(workload, i, config_dir, seed, output_dir, threads)
        guard = span_for(inv["name"]) if span_for is not None else contextlib.nullcontext()
        outcomes.append(invoke(cli, inv["name"], argv, output_dir, guard))
    return outcomes


# --------------------------------------------------------------------------
# correctness checks
#
# Each row gets a list of problems, each tagged "exact" (a defect whenever it
# shows) or "statistical" (a band that a correct estimator leaves with a
# small, stated probability).  Both count as failed operations; only exact
# problems outside the workload's known defects make a run incorrect.


def _num(row: dict, key: str) -> float | None:
    text = row.get(key, "")
    if text in ("", None):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _point(row: dict) -> str:
    return f"{row.get('n')}x{row.get('p')}x{row.get('q')}"


NUMERIC_FIELDS = {
    "distance": ("mean", "std_error"),
    "coupling": ("mean_hs", "mean_hs_sq", "hs_sq_bound", "sigma", "ks_half_normal"),
    "clt": ("mean_w", "var_w", "ks_normal"),
}


def row_problems(command: str, row: dict) -> list[tuple[str, str]]:
    if command == "verify":
        if row.get("status") != "pass":
            return [("exact", f"verify check {row.get('check')} is {row.get('status')}")]
        return []
    if row.get("status", "ok") != "ok":
        return []  # an explicit non-ok status, e.g. UNSUPPORTED_REGIME, is a result
    problems = []
    for key in NUMERIC_FIELDS.get(command, ()):
        text = row.get(key, "")
        value = _num(row, key)
        if text not in ("", None) and (value is None or not math.isfinite(value)):
            problems.append(("exact", f"{key}={text} is not finite"))
    if command == "distance":
        mean, se = _num(row, "mean"), _num(row, "std_error")
        if mean is None or se is None:
            problems.append(("exact", "ok row without mean or std_error"))
            return problems
        if se == 0.0:
            problems.append(("exact", "ok row with std_error=0"))
        key = (row.get("kind"), _point(row))
        if key == ("tv", "1024x32x32") and not (0.395 - 3 * se <= mean <= 0.545):
            problems.append(("statistical", f"TV {mean} outside [0.395-3SE, 0.545]"))
        if key == ("hellinger", "1024x32x32") and abs(mean - 0.0308) > max(3 * se, 0.02):
            problems.append(("statistical", f"Hellinger^2 {mean} not within max(3SE, 0.02) of 0.0308"))
        if key == ("kl", "1024x32x32") and abs(mean - 0.125) > max(3 * se, 0.05):
            problems.append(("statistical", f"KL {mean} not within max(3SE, 0.05) of 0.125"))
        if key == ("tv", "2000x10x10") and not mean < 0.2:
            problems.append(("statistical", f"TV {mean} not below 0.2 in the vanishing regime"))
        if key == ("hellinger", "2000x10x10") and not math.sqrt(max(mean, 0.0)) < 0.2:
            problems.append(("statistical", f"Hellinger {mean} not below 0.2 in the vanishing regime"))
    if command == "coupling":
        mean, mean_sq, bound = _num(row, "mean_hs"), _num(row, "mean_hs_sq"), _num(row, "hs_sq_bound")
        if mean_sq is not None and bound is not None and not mean_sq <= bound:
            problems.append(("exact", f"mean_hs_sq {mean_sq} above hs_sq_bound {bound}"))
        if _point(row) == "62500x100x25" and mean is not None:
            target = math.sqrt(0.5)
            if abs(mean - target) > 0.1 * target:
                problems.append(("statistical", f"HS mean {mean} not within 10% of sqrt(1/2)"))
        if row.get("q") == "1":
            ks, reps = _num(row, "ks_half_normal"), _num(row, "N")
            critical = KS_CRITICAL_1PCT / math.sqrt(reps) if reps else 0.0
            if ks is None or not ks < critical:
                problems.append(("statistical", f"KS {ks} not below the 1% critical value {critical:.4f}"))
    return problems


@dataclass
class Tally:
    """Operations attempted and failed, split by the kind of failure."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # exact failures outside the known defects
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, note: str = "", unexpected: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected += int(unexpected)
            if note and note not in self.notes and len(self.notes) < 50:
                self.notes.append(note)


def tally_outcomes(outcomes: list[Outcome], workload: dict, tally: Tally) -> None:
    """Count each invocation and each of its rows as one operation."""
    known = {d["invocation"]: d["reason"] for d in workload["known_defects"]}
    for out in outcomes:
        tally.add(out.exit_code == 0, f"{out.name}: exit code {out.exit_code}", unexpected=True)
        for i, row in enumerate(out.rows):
            problems = row_problems(out.command, row)
            exact = any(kind == "exact" for kind, _ in problems)
            reason = known.get(out.name)
            note = f"{out.name} row {i}: " + "; ".join(msg for _, msg in problems)
            if reason is not None and problems:
                note += f" [known defect: {reason}]"
            tally.add(not problems, note, unexpected=exact and reason is None)


def se_rows(outcomes: list[Outcome], workload: dict) -> dict[tuple[str, str], tuple[float, float]]:
    """(elapsed seconds, std_error) of each of the workload's time-to-accuracy
    rows that came back with a finite standard error."""
    wanted = {(r["kind"], f"{r['n']}x{r['p']}x{r['q']}") for r in workload["time_to_se_rows"]}
    found = {}
    for out in outcomes:
        for row, elapsed_ms in zip(out.rows, out.elapsed_ms):
            key = (row.get("kind"), _point(row))
            se = _num(row, "std_error")
            if key in wanted and se is not None and math.isfinite(se):
                found[key] = (elapsed_ms / 1000.0, se)
    return found


# --------------------------------------------------------------------------
# environment fingerprint


def _openblas_threads() -> int | None:
    """Threads OpenBLAS runs with, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(root: Path) -> dict:
    """What ran and where; the parent adds the thread variables it removed."""
    import numpy as np

    from haargauss.parallel import thread_count

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == root.resolve():
            sha = head  # only the checkout's own repository, never an enclosing one
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _openblas_threads(),
        "thread_env_in_use": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": thread_count(),
        "git_sha": sha,
        "platform": platform.platform(),
    }
