"""haargauss benchmark entry point.

    python3 perfbench/run.py --workload cheap-replicates --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The parent process times set-up (fresh
interpreters importing ``haargauss.cli`` and parsing the workload's
configs), then runs the workload in a child process of its own with the
thread variables unset, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A record with the environment fingerprint and per-pass detail is written to
``.perfbench_out/records/``.  ``--workload all`` runs every workload in
turn and prints one such line for each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

# Each run must end within 180 s; the child gets what set-up leaves of this.
RUN_BUDGET_S = 170.0
SETUP_RUNS = 7
SETUP_CODE = (
    "import json, sys\n"
    "import haargauss.cli as cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    cli.parse_config(argv)\n"
)


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in harness.THREAD_ENV_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_seconds(workload: dict, seed: int, work: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and
    parses every invocation of the workload."""
    config_dir = work / "configs"
    harness.write_configs(workload, config_dir)
    argvs = [harness.argv_for(workload, i, config_dir, seed, work / "setup")
             for i in range(len(workload["invocations"]))]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(argvs)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parent(args) -> int:
    if not (SRC / "haargauss" / "cli.py").is_file():
        print(f"error: no haargauss sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = harness.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()
    try:
        setup_s = None
        if args.trace == 0:
            setup_s = _setup_seconds(spec["workloads"][args.workload], args.seed, work / "setup", env)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--child", str(work / "child")]
        timeout = RUN_BUDGET_S - (time.perf_counter() - started)
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0:
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if setup_s is not None:
        result["metrics"]["setup_s"] = [setup_s, "s"]
    result["fingerprint"]["thread_env_of_caller"] = {k: os.environ.get(k) for k in harness.THREAD_ENV_VARS}
    record_dir = OUT / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **result}
    (record_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name:52s} {value:14.6g} {unit}", file=sys.stderr)
    for note in result["detail"].get("failures", []):
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


def child(args) -> int:
    import haargauss
    import haargauss.cli as cli

    if Path(haargauss.__file__).resolve().parent != (SRC / "haargauss").resolve():
        print(f"error: imported haargauss from {haargauss.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    spec = harness.load_spec()
    work = args.child
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import traced

        spans = OUT / "records" / f"{args.workload}-seed{args.seed}-trace1-spans.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        result = traced.run(cli, spec, args.seed, work, spans)
    else:
        import endtoend

        result = endtoend.run(cli, spec, args.workload, args.seed, args.seconds, work)
    result["fingerprint"] = harness.fingerprint(ROOT)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.child is not None:
        return child(args)
    if args.workload == "all":
        codes = [parent(argparse.Namespace(**{**vars(args), "workload": name}))
                 for name in harness.load_spec()["workloads"]]
        return max(codes)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
