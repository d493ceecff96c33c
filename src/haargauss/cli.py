"""Command-line orchestration: config parsing, experiment scheduling over
(n, p, q) grids, and persistence of results and plots.

Every run gets a fresh directory containing the config echo, deterministic
result files, wall-clock timings, and any artifacts.  Exit codes: 0 all
checks pass, 1 a result row has status FAIL, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from . import moments
from .density import UnsupportedRegimeError
from .distances import NoDrawInSupportError, estimate_hellinger, estimate_kl, estimate_tv
from .limits import FIGURE_GRID, clt_w_statistic, run_hs_experiment
from .moments import MonomialPattern
from .numerics import RngStream, ks_statistic, normal_cdf
from .parallel import replicate_map, thread_count
from .reporting import (
    Overlay,
    emit_svg_histogram,
    histogram_with_overflow,
    make_run_directory,
    write_csv,
    write_histogram_csv,
    write_json,
)
from .sampling import (
    Dims,
    dump_matrix_csv,
    sample_coupled_pair,
    sample_gaussian_matrix,
    sample_haar_submatrix,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run", "main"]

DEFAULT_REPLICATES = 10_000
DISTANCE_KINDS = ("tv", "kl", "hellinger", "all")
SAMPLE_KINDS = ("gaussian", "haar", "coupled")
# the allowed values of each config field that takes one of a few strings
CHOICES = {"format": ("csv", "json"), "kind": DISTANCE_KINDS, "sample_kind": SAMPLE_KINDS}
# random streams are keyed by an unsigned 64-bit seed
SEED_LIMIT = 2**64
# the samplers count rows in numpy's int64
N_LIMIT = 2**63


class ConfigError(ValueError):
    """Invalid command-line or config-file input."""


@dataclass
class ExperimentConfig:
    command: str
    grid: list[Dims] = field(default_factory=list)
    replicates: int = DEFAULT_REPLICATES
    master_seed: int = 0
    # checked (>= 1) and otherwise ignored, since replicates run on one
    # worker; kept while the benchmark in perfbench/ still sets it
    threads: int | None = None
    output_dir: Path = Path("runs")
    format: str = "csv"
    kind: str = "all"
    sample_kind: str = "haar"
    figure_grid: bool = False

    def echo(self) -> dict:
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        echo["grid"] = [{"n": d.n, "p": d.p, "q": d.q} for d in self.grid]
        echo["threads"] = thread_count(self.threads)
        echo["output_dir"] = str(self.output_dir)
        return echo


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


# a command's output: one result row and the names of the artifacts it wrote
Rows = Iterator[tuple[dict, list[str]]]


@dataclass(frozen=True)
class Command:
    """One subcommand: its help text, the header of its result file, the
    generator that runs it and yields its rows, and its own flags.

    A command that ``needs_grid`` takes its points from --n/--p/--q or the
    config grid; with ``pq_grid`` a point may omit n (it defaults to
    max(p, q)) and --figure-grid makes ``FIGURE_GRID`` the grid.
    """

    help: str
    header: tuple[str, ...]
    rows: Callable[[ExperimentConfig, Path, TextIO], Rows]
    flags: dict = field(default_factory=dict)
    needs_grid: bool = True
    pq_grid: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haargauss",
        description="Simulate and verify the Gaussian approximation of "
        "orthogonal-matrix corners.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--replicates", "-N", type=int, default=None)
        p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted if >= 1 and ignored: replicates run on one worker")
        p.add_argument("--output-dir", type=Path, default=None)
        p.add_argument("--format", choices=CHOICES["format"], default=None)
        for flag, options in command.flags.items():
            p.add_argument(flag, default=None, **options)
    return parser


def _load_config_file(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return payload


def _strict_int(name: str, value) -> int:
    """An integer from JSON: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _grid_from_payload(raw: list, command: Command) -> list[Dims]:
    """Grid points from the config's ``grid`` list or from --n/--p/--q."""
    grid = []
    for item in raw:
        if not isinstance(item, dict):
            raise ConfigError(f"grid entries must be objects, got {item!r}")
        if "p" not in item or "q" not in item or ("n" not in item and not command.pq_grid):
            raise ConfigError(f"a grid point needs p, q and (except for clt) n, got {item!r}")
        p = _strict_int("grid entry p", item["p"])
        q = _strict_int("grid entry q", item["q"])
        n = _strict_int("grid entry n", item["n"]) if "n" in item else max(p, q)
        if n >= N_LIMIT:
            raise ConfigError(f"grid entry n must be below {N_LIMIT}, got {n}")
        try:
            grid.append(Dims(n=n, p=p, q=q))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return grid


def _field_value(name: str, value, command: Command):
    """Config field ``name`` from its JSON value, checked against the
    field's annotated type."""
    kind = _FIELD_TYPES[name]
    if kind in (int, int | None):
        return None if value is None and kind != int else _strict_int(f"config key {name!r}", value)
    if kind is bool and isinstance(value, bool):
        return value
    if kind in (str, Path) and isinstance(value, str):
        return kind(value)
    if kind == list[Dims] and isinstance(value, list):
        return _grid_from_payload(value, command)
    raise ConfigError(
        f"config key {name!r} must hold a JSON {getattr(kind, '__name__', kind)}, got {value!r}"
    )


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Parse flags plus optional JSON config; flags override the file."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help printed the usage; that is a success
            raise
        # argparse already printed its message; normalize to a config error
        raise ConfigError("invalid command line") from exc
    if args.command is None:
        raise ConfigError(f"missing command; choose one of {', '.join(COMMANDS)}")
    command = COMMANDS[args.command]

    payload = _load_config_file(args.config) if args.config else {}
    unknown = set(payload) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if payload.get("command", args.command) != args.command:
        raise ConfigError(
            f"config file says command {payload['command']!r} but the command "
            f"line says {args.command!r}"
        )

    config = ExperimentConfig(command=args.command)
    for f in fields(config):
        if f.name in payload:
            setattr(config, f.name, _field_value(f.name, payload[f.name], command))
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(config, f.name, flag)

    point = {k: getattr(args, k) for k in ("n", "p", "q") if getattr(args, k) is not None}
    if point:
        config.grid = _grid_from_payload([point], command)
    if config.figure_grid:
        if not command.pq_grid:
            raise ConfigError(f"figure_grid is a clt grid; command {config.command!r} takes none")
        if config.grid:
            raise ConfigError("--figure-grid is the grid; drop --n/--p/--q and the config grid")
        config.grid = [Dims(max(p, q), p, q) for p, q in FIGURE_GRID]

    _validate(config, command)
    return config


def _validate(config: ExperimentConfig, command: Command) -> None:
    if config.replicates < 2:
        raise ConfigError(f"replicates must be >= 2, got {config.replicates}")
    if not 0 <= config.master_seed < SEED_LIMIT:
        raise ConfigError(f"master seed must be in [0, {SEED_LIMIT}), got {config.master_seed}")
    try:
        thread_count(config.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name, allowed in CHOICES.items():
        if getattr(config, name) not in allowed:
            raise ConfigError(
                f"{name} must be one of {', '.join(allowed)}, got {getattr(config, name)!r}"
            )
    if command.needs_grid and not config.grid:
        raise ConfigError(f"command {config.command!r} needs --n/--p/--q or a config grid")
    # the overlap statistic needs two rows and two columns
    if command.pq_grid:
        for d in config.grid:
            if d.p < 2 or d.q < 2:
                raise ConfigError(
                    f"command {config.command!r} needs p >= 2 and q >= 2, got p={d.p}, q={d.q}"
                )
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"output directory {config.output_dir} is not writable: {exc}") from exc


@dataclass
class ResultRecord:
    """One output row plus its bookkeeping; wall-clock goes to timing.json,
    never into the result files."""

    row: dict
    elapsed_ms: float
    artifacts: list[str] = field(default_factory=list)


def _point(config: ExperimentConfig, d: Dims, **columns) -> dict:
    """The columns every grid-point row shares, then the command's own."""
    return {"n": d.n, "p": d.p, "q": d.q, "N": config.replicates, "seed": config.master_seed,
            **columns}


def _write_results(run_dir: Path, config: ExperimentConfig, header: tuple[str, ...], records: list[ResultRecord]) -> None:
    if config.format == "csv":
        write_csv(run_dir / "results.csv", header, [[rec.row[h] for h in header] for rec in records])
    else:
        write_json(run_dir / "results.json", [{h: rec.row[h] for h in header} for rec in records])
    write_json(
        run_dir / "timing.json",
        [{"index": i, "elapsed_ms": rec.elapsed_ms} for i, rec in enumerate(records)],
    )
    artifacts = sorted({a for rec in records for a in rec.artifacts})
    if artifacts:
        write_json(run_dir / "artifacts.json", artifacts)


def _histogram_artifacts(
    run_dir: Path, stem: str, samples: np.ndarray, overlay: Overlay | None, **bounds
) -> list[str]:
    """Histogram of ``samples`` written as ``<stem>.csv`` and ``<stem>.svg``;
    returns the two file names."""
    hist = histogram_with_overflow(samples, **bounds)
    return [
        write_histogram_csv(hist, run_dir / f"{stem}.csv").name,
        emit_svg_histogram(hist, overlay, run_dir / f"{stem}.svg").name,
    ]


def _cmd_sample(config: ExperimentConfig, run_dir: Path, out: TextIO) -> Rows:
    for g_index, d in enumerate(config.grid):
        stream = RngStream(config.master_seed, g_index)
        if config.sample_kind == "coupled":
            y_top, gamma = sample_coupled_pair(d, stream)
            blocks = {"coupled-y": y_top, "coupled-gamma": gamma}
        elif config.sample_kind == "haar":
            blocks = {"haar": sample_haar_submatrix(d, stream)}
        else:
            blocks = {"gaussian": sample_gaussian_matrix(d.p, d.q, stream)}
        artifacts = [
            dump_matrix_csv(m, run_dir / f"{stem}-{g_index}.csv").name for stem, m in blocks.items()
        ]
        yield _point(config, d, kind=config.sample_kind, artifacts=";".join(artifacts)), artifacts


def _moment_rows(d: Dims) -> list[tuple[str, Fraction]]:
    rows: list[tuple[str, Fraction]] = []
    for pattern in MonomialPattern:
        try:
            rows.append((f"entry_{pattern.value}", moments.entry_monomial_moment(pattern, d.n)))
        except ValueError:
            continue
    for k in (1, 2, 3):
        rows.append((f"trace_power_{k}", moments.trace_power_moment(k, d)))
    for prefix, stats in (
        ("wishart", moments.wishart_trace_stats(d.p, d.q)),
        ("projector", moments.sigma_trace_sums(d)),
    ):
        rows += [(f"{prefix}_{f.name}", getattr(stats, f.name)) for f in fields(stats)]
    return rows


def _cmd_moments(config: ExperimentConfig, run_dir: Path, out: TextIO) -> Rows:
    for d in config.grid:
        for name, value in _moment_rows(d):
            try:
                decimal = f"{float(value):.17g}"
            except OverflowError:  # exact rationals can exceed the float range
                decimal = "inf" if value > 0 else "-inf"
            print(
                f"n={d.n} p={d.p} q={d.q} {name} = "
                f"{value.numerator}/{value.denominator} = {decimal}",
                file=out,
            )
            row = _point(config, d, quantity=name, numerator=value.numerator,
                         denominator=value.denominator, decimal=decimal)
            yield row, []


def _cmd_distance(config: ExperimentConfig, run_dir: Path, out: TextIO) -> Rows:
    kinds = DISTANCE_KINDS[:-1] if config.kind == "all" else (config.kind,)
    # looked up at call time, so the module names stay patchable
    estimators = {"tv": estimate_tv, "kl": estimate_kl, "hellinger": estimate_hellinger}
    for d in config.grid:
        for kind in kinds:
            row = _point(config, d, kind=kind, mean=None, std_error=None, status="ok")
            try:
                est = estimators[kind](d, config.replicates, config.master_seed)
                row["mean"] = est.mean
                row["std_error"] = est.std_error
            except NoDrawInSupportError:
                row["status"] = "NO_DRAW_IN_SUPPORT"
            except UnsupportedRegimeError:
                row["status"] = "UNSUPPORTED_REGIME"
            except RuntimeError as exc:  # a non-finite draw, an off-support corner, a bad pivot
                print(f"error: {kind} at n={d.n} p={d.p} q={d.q}: {exc}", file=sys.stderr)
                row["status"] = "FAIL"
            yield row, []


def _cmd_coupling(config: ExperimentConfig, run_dir: Path, out: TextIO) -> Rows:
    for g_index, d in enumerate(config.grid):
        try:
            result = run_hs_experiment(d, config.replicates, config.master_seed)
        except RuntimeError as exc:  # a degenerate or NaN pivot
            print(f"error: coupling at n={d.n} p={d.p} q={d.q}: {exc}", file=sys.stderr)
            yield _point(config, d, mean_hs=None, mean_hs_sq=None, hs_sq_bound=None, sigma=None,
                         ks_half_normal=None, status="FAIL"), []
            continue
        if d.q == 1:
            scale = math.sqrt(d.p / d.n / 2.0)
            hi, overlay = 4.0 * scale, Overlay("half_normal", scale)
        else:
            hi, overlay = float(result.hs_norms.max()) * 1.02 + 1e-9, None
        artifacts = _histogram_artifacts(
            run_dir, f"coupling-hs-{g_index}", result.hs_norms, overlay, lo=0.0, hi=hi
        )
        row = _point(config, d, mean_hs=result.mean, mean_hs_sq=result.mean_sq,
                     hs_sq_bound=result.hs_sq_bound, sigma=result.sigma,
                     ks_half_normal=result.ks_vs_half_normal, status="ok")
        yield row, artifacts


def _cmd_clt(config: ExperimentConfig, run_dir: Path, out: TextIO) -> Rows:
    for g_index, d in enumerate(config.grid):
        samples = replicate_map(
            lambda stream, _: clt_w_statistic(d.p, d.q, stream),
            config.replicates,
            config.master_seed,
        )
        row = _point(config, d, mean_w=float(np.mean(samples)),
                     var_w=float(np.var(samples, ddof=1)), ks_normal=ks_statistic(samples, normal_cdf))
        yield row, _histogram_artifacts(run_dir, f"clt-hist-{g_index}", samples, Overlay("normal"))


def _verify_checks() -> list[tuple[str, int, bool]]:
    """Exact-identity suite; every comparison is rational equality.

    Each check is a name, its cases and a predicate that holds on every case;
    the predicates call through the ``moments`` module attribute at call time.
    """
    grid = list(range(2, 2001)) + [10**4, 10**5, 10**6]
    dirichlet_pairs = [
        (MonomialPattern.G11_SQ, (1,)),
        (MonomialPattern.G11_4, (2,)),
        (MonomialPattern.TRIPLE_COL, (1, 1, 1)),
        (MonomialPattern.G11SQ_G21SQ, (1, 1)),
        (MonomialPattern.G11_4_G21SQ, (2, 1)),
    ]

    def full_dimension_traces(n: int) -> bool:
        d = Dims(n=n, p=n, q=n)
        return moments.trace_power_moment(2, d) == n and moments.trace_power_moment(3, d) == n

    table = [
        (
            "row_normalization",
            range(2, 1_000_001),
            lambda n: n * moments.entry_monomial_moment(MonomialPattern.G11_SQ, n) == 1,
        ),
        (
            "fourth_moment_sum_rule",
            grid,
            lambda n: moments.entry_monomial_moment(MonomialPattern.G11_4, n)
            + (n - 1) * moments.entry_monomial_moment(MonomialPattern.G11SQ_G12SQ, n)
            == moments.entry_monomial_moment(MonomialPattern.G11_SQ, n),
        ),
        (
            "orthogonality_sum_rule",
            grid,
            lambda n: n * moments.entry_monomial_moment(MonomialPattern.G11SQ_G12SQ, n)
            + n * (n - 1) * moments.entry_monomial_moment(MonomialPattern.CYCLE4, n)
            == 0,
        ),
        (
            "dirichlet_consistency",
            [
                (n, pattern, exponents)
                for n in list(range(3, 301)) + [10**4, 10**6]
                for pattern, exponents in dirichlet_pairs
            ],
            lambda case: moments.entry_monomial_moment(case[1], case[0])
            == moments.dirichlet_moment(case[0], case[2]),
        ),
        ("trace_power_full_dimension", range(3, 10_001), full_dimension_traces),
    ]
    return [(name, len(cases), all(map(holds, cases))) for name, cases, holds in table]


def _cmd_verify(config: ExperimentConfig, run_dir: Path, out: TextIO) -> Rows:
    for name, cases, ok in _verify_checks():
        status = "pass" if ok else "FAIL"
        print(f"[verify] {name} ({cases} cases): {status}", file=out)
        yield {"check": name, "cases": cases, "status": status}, []


COMMANDS: dict[str, Command] = {
    "sample": Command(
        "draw and dump matrices",
        ("n", "p", "q", "kind", "seed", "artifacts"),
        _cmd_sample,
        flags={"--kind": {"choices": CHOICES["sample_kind"], "dest": "sample_kind"}},
    ),
    "moments": Command(
        "print exact closed-form moments",
        ("n", "p", "q", "quantity", "numerator", "denominator", "decimal"),
        _cmd_moments,
    ),
    "distance": Command(
        "Monte Carlo distance estimates",
        ("n", "p", "q", "kind", "N", "seed", "mean", "std_error", "status"),
        _cmd_distance,
        flags={"--kind": {"choices": CHOICES["kind"]}},
    ),
    "coupling": Command(
        "coupled Hilbert-Schmidt experiments",
        ("n", "p", "q", "N", "seed", "mean_hs", "mean_hs_sq", "hs_sq_bound", "sigma",
         "ks_half_normal", "status"),
        _cmd_coupling,
    ),
    "clt": Command(
        "Gram-overlap CLT experiments",
        ("p", "q", "N", "seed", "mean_w", "var_w", "ks_normal"),
        _cmd_clt,
        flags={"--figure-grid": {"action": "store_true"}},
        pq_grid=True,
    ),
    "verify": Command(
        "run the exact-identity suite",
        ("check", "cases", "status"),
        _cmd_verify,
        needs_grid=False,
    ),
}


def run(config: ExperimentConfig, out=None) -> tuple[Path, list[ResultRecord], int]:
    """Execute a parsed config; returns the run directory, the records, and
    the exit code: 1 when any row has status FAIL, else 0.

    A record's ``elapsed_ms`` is the wall-clock from the previous record, or
    from the start of the command, to this one.
    """
    out = out if out is not None else sys.stdout
    command = COMMANDS.get(config.command)
    if command is None:
        raise ConfigError(f"unknown command {config.command!r}")
    run_dir = make_run_directory(config.output_dir, config.command, config.master_seed)
    write_json(run_dir / "config.json", config.echo())
    records = []
    start = time.perf_counter()
    for row, artifacts in command.rows(config, run_dir, out):
        now = time.perf_counter()
        records.append(ResultRecord(row, (now - start) * 1000.0, artifacts))
        start = now
    _write_results(run_dir, config, command.header, records)
    print(f"[haargauss] {config.command}: {len(records)} record(s) in {run_dir}", file=out)
    code = 1 if any(rec.row.get("status") == "FAIL" for rec in records) else 0
    return run_dir, records, code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _, _, code = run(parse_config(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
