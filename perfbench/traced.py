"""Traced run: per-layer numbers for every module of ``src/haargauss``.

Spans are recorded from the benchmark's own code, around calls into each
layer, and kept in memory until the run ends.  Two sources feed them:

* every workload's invocations run once untraced at the default worker
  count and once traced at one worker; the traced pass wraps the names the
  CLI calls into the other layers, and the two passes' result files must be
  byte-identical;
* each layer's public functions are timed directly on the workloads' inputs.

Every traced run covers all workloads, so it prints the full per-layer set
whichever workload it was asked for.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import time
import types
from pathlib import Path

import numpy as np

import harness


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id_, parent, name, attrs):
        self.id, self.parent, self.name, self.attrs = id_, parent, name, attrs
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links; single-threaded by design (the
    traced pass runs at one worker, so every wrapped call is on this thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, attrs)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return traced

    def root(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(s.seconds for s in self.spans if s.parent == span.id)

    def find(self, name: str, **attrs) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def dump(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.id, s.parent, s.name, s.start - t0, s.end - t0, s.attrs] for s in self.spans]
        path.write_text(json.dumps(rows, default=str) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# layer boundaries crossed by the CLI


def _dims_attrs(d, replicates, *args, **kwargs):
    return {"point": f"{d.n}x{d.p}x{d.q}", "reps": replicates}


def _map_attrs(fn, replicates, *args, **kwargs):
    return {"reps": replicates}


def _ks_attrs(samples, *args, **kwargs):
    return {"size": len(samples)}


@contextlib.contextmanager
def cli_boundaries(tracer: Tracer, counts: dict):
    """Wrap the names ``haargauss.cli`` (and ``limits`` for the coupling KS)
    calls into other layers; moments calls are counted, not spanned, because
    verify makes about a million of them."""
    import haargauss.cli as cli
    import haargauss.limits as limits
    import haargauss.moments as moments

    patches = [
        (cli, "estimate_tv", "distances.tv", _dims_attrs),
        (cli, "estimate_hellinger", "distances.hellinger", _dims_attrs),
        (cli, "estimate_kl", "distances.kl", _dims_attrs),
        (cli, "run_hs_experiment", "limits.hs", _dims_attrs),
        (cli, "replicate_map", "parallel.replicate_map", _map_attrs),
        (cli, "ks_statistic", "numerics.ks_statistic", _ks_attrs),
        (limits, "ks_statistic", "numerics.ks_statistic", _ks_attrs),
    ] + [
        (cli, fn, f"reporting.{fn}", None)
        for fn in ("make_run_directory", "write_csv", "write_json", "write_histogram_csv",
                   "emit_svg_histogram", "histogram_with_overflow")
    ]

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    proxy = types.SimpleNamespace(**{
        name: counted(name, getattr(moments, name)) if isinstance(getattr(moments, name), types.FunctionType)
        else getattr(moments, name)
        for name in moments.__all__
    })
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
    saved.append((cli, "moments", cli.moments))
    try:
        for mod, attr, span_name, attrs in patches:
            setattr(mod, attr, tracer.wrap(span_name, getattr(mod, attr), attrs))
        cli.moments = proxy
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


# --------------------------------------------------------------------------
# layer functions timed directly


def _bench(tracer: Tracer, metric: str, fn, inner: int, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the seconds per call of ``fn(i)``."""
    per_call = []
    for _ in range(repeats):
        with tracer.span("bench", metric=metric, calls=inner) as span:
            for i in range(inner):
                fn(i)
        per_call.append(span.seconds / inner)
    return statistics.median(per_call)


def layer_benchmarks(tracer: Tracer, spec: dict, seed: int, work: Path) -> dict:
    from haargauss import cli, moments
    from haargauss.density import log_kn_exact, log_ln
    from haargauss.distances import estimate_kl, estimate_tv
    from haargauss.numerics import RngStream, cholesky_logdet
    from haargauss.parallel import replicate_map
    from haargauss.sampling import Dims, gram_schmidt_coupling, sample_gaussian_matrix, sample_haar_submatrix

    m = {}

    def gaussian(shape, index=0):
        return RngStream(seed, index).standard_normal(shape)

    def streams(count):
        out = [RngStream(seed, i) for i in range(count)]
        for s in out:
            s.generator  # build the Philox state outside the timed region
        return out

    with tracer.span("layer", layer="numerics"):
        m["numerics.rngstream_us"] = (
            _bench(tracer, "rngstream", lambda i: RngStream(seed, i).gaussian(), 400) * 1e6, "us")
        g = gaussian((32, 32))
        shifted = np.eye(32) - g.T @ g / 1024
        m["numerics.cholesky_logdet_us.q32"] = (
            _bench(tracer, "cholesky_logdet", lambda i: cholesky_logdet(shifted), 400) * 1e6, "us")

    with tracer.span("layer", layer="sampling"):
        for rows, cols, inner in ((10, 10, 400), (32, 32, 400), (1024, 32, 50), (62500, 25, 3), (10000, 100, 3)):
            pool = streams(inner)
            m[f"sampling.draw_us.{rows}x{cols}"] = (_bench(
                tracer, f"draw {rows}x{cols}", lambda i: sample_gaussian_matrix(rows, cols, pool[i]), inner) * 1e6, "us")
        pool = streams(30)
        d = Dims(1024, 32, 32)
        m["sampling.haar_qr_us.1024x32"] = (
            _bench(tracer, "haar qr", lambda i: sample_haar_submatrix(d, pool[i]), 30) * 1e6, "us")
        for rows, cols, inner in ((62500, 25, 1), (2000, 1, 200)):
            y = gaussian((rows, cols))
            m[f"sampling.gram_schmidt_ms.{rows}x{cols}"] = (
                _bench(tracer, f"gram_schmidt {rows}x{cols}", lambda i: gram_schmidt_coupling(y), inner) * 1e3, "ms")

    with tracer.span("layer", layer="density"):
        for n, q, inner in ((2000, 10, 400), (1024, 32, 200), (400, 190, 20)):
            d = Dims(n, q, q)
            z = gaussian((q, q))
            m[f"density.log_ln_us.q{q}"] = (_bench(tracer, f"log_ln q{q}", lambda i: log_ln(z, d), inner) * 1e6, "us")
        d = Dims(1024, 32, 32)
        m["density.log_kn_exact_us"] = (_bench(tracer, "log_kn_exact", lambda i: log_kn_exact(d), 400) * 1e6, "us")
        # the first draws of the TV and Hellinger estimators at this seed
        for n, q, draws in ((2000, 10, 2000), (1024, 32, 2000), (400, 190, 80)):
            d = Dims(n, q, q)
            with tracer.span("in_support", point=f"{n}x{q}x{q}", draws=draws) as span:
                inside = sum(math.isfinite(log_ln(gaussian((q, q), i), d)) for i in range(draws))
            span.attrs["inside"] = inside
            m[f"density.in_support_frac.{n}x{q}x{q}"] = (inside / draws, "fraction")

    with tracer.span("layer", layer="parallel"):
        reps = 5000
        for label, workers in (("w1", 1), ("wN", os.cpu_count() or 1)):
            m[f"parallel.overhead_us_per_rep.{label}"] = (_bench(
                tracer, f"replicate_map {label}",
                lambda i: replicate_map(lambda s, j: 0.0, reps, seed, threads=workers), 1) / reps * 1e6, "us")
        # per-replicate estimator time at the default worker count over one worker
        for workload, fn, reps in (("cheap-replicates", estimate_tv, 1000), ("heavy-replicates", estimate_kl, 60)):
            d = Dims(1024, 32, 32)
            times = {None: [], 1: []}
            for _ in range(3):
                for workers in (None, 1):
                    with tracer.span("contention", workload=workload, workers=workers) as span:
                        fn(d, reps, seed, threads=workers)
                    times[workers].append(span.seconds)
            m[f"parallel.contention_ratio.{workload}"] = (
                statistics.median(times[None]) / statistics.median(times[1]), "ratio")

    with tracer.span("layer", layer="moments"):
        pattern = moments.MonomialPattern.CYCLE6
        full = Dims(5000, 5000, 5000)
        m["moments.entry_monomial_us"] = (_bench(
            tracer, "entry_monomial", lambda i: moments.entry_monomial_moment(pattern, 10**6 + i), 2000) * 1e6, "us")
        m["moments.trace_power_us"] = (_bench(
            tracer, "trace_power", lambda i: moments.trace_power_moment(3, full), 500) * 1e6, "us")
        m["moments.dirichlet_us"] = (_bench(
            tracer, "dirichlet", lambda i: moments.dirichlet_moment(300 + i, (2, 1)), 2000) * 1e6, "us")

    with tracer.span("layer", layer="cli"):
        argvs = []
        for name, workload in spec["workloads"].items():
            config_dir = work / "configs" / name
            for i in range(len(workload["invocations"])):
                argvs.append(harness.argv_for(workload, i, config_dir, seed, work / "parse"))
        m["cli.parse_config_ms"] = (_bench(
            tracer, "parse_config", lambda i: cli.parse_config(argvs[i % len(argvs)]), len(argvs)) * 1e3, "ms")
    return m


# --------------------------------------------------------------------------
# counts computed from the workload definitions


def _draw_model(command: str, kind: str, n: int, p: int, q: int) -> tuple[int, int]:
    """(bytes drawn, orthonormalisation flops) of one replicate; QR and
    Gram-Schmidt on an n x q matrix both cost about 2nq^2."""
    if command == "distance" and kind in ("tv", "hellinger"):
        return 8 * p * q, 0
    if command == "clt":
        return 8 * p * q, 0
    return 8 * n * q, 2 * n * q * q  # KL draws corners, coupling draws pairs


def draw_counts(workload: dict) -> tuple[float, float]:
    """Bytes drawn and orthonormalisation flops per replicate, averaged over
    the workload's replicates; zeros for a workload that draws nothing."""
    reps = bytes_ = flops = 0
    for inv in workload["invocations"]:
        config = inv["config"]
        for point in config.get("grid", []):
            p, q = point["p"], point["q"]
            n = point.get("n", max(p, q))
            b, f = _draw_model(inv["command"], config.get("kind", ""), n, p, q)
            reps += config["replicates"]
            bytes_ += config["replicates"] * b
            flops += config["replicates"] * f
    return (bytes_ / reps, flops / reps) if reps else (0.0, 0.0)


# --------------------------------------------------------------------------


def run(cli, spec: dict, seed: int, work: Path, spans_path: Path) -> dict:
    tracer = Tracer()
    counts: dict[str, int] = {}
    tally = harness.Tally()
    metrics = {}
    base_seed = harness.pass_seed(seed, 0)
    for wl_name, workload in spec["workloads"].items():
        config_dir = work / "configs" / wl_name
        harness.write_configs(workload, config_dir)
        untraced = harness.run_pass(cli, workload, config_dir, base_seed, work / wl_name / "untraced")
        with cli_boundaries(tracer, counts):
            traced = harness.run_pass(
                cli, workload, config_dir, base_seed, work / wl_name / "traced", threads=1,
                span_for=lambda inv, wl=wl_name: tracer.span("cli.main", invocation=inv, workload=wl))
        harness.tally_outcomes(traced, workload, tally)
        for a, b in zip(untraced, traced):
            tally.add(a.files == b.files and bool(a.files),
                      f"{a.name}: result files differ between the default worker count and one worker",
                      unexpected=True)

        metrics[f"trace.overhead_s.{wl_name}"] = (
            sum(o.seconds for o in traced) - sum(o.seconds for o in untraced), "s")
        metrics[f"reporting.bytes_written.{wl_name}"] = (
            float(sum(len(v) for o in traced for v in o.files.values())), "bytes")
        roots = {s.id for s in tracer.find("cli.main", workload=wl_name)}
        metrics[f"reporting.write_ms.{wl_name}"] = (1e3 * sum(
            s.seconds for s in tracer.spans
            if s.name.startswith("reporting.") and tracer.root(s).id in roots), "ms")
        for out in traced:
            metrics[f"cli.main_s.{out.name}"] = (out.seconds, "s")
        bytes_per_rep, flops_per_rep = draw_counts(workload)
        if bytes_per_rep:
            metrics[f"sampling.bytes_drawn_per_rep.{wl_name}"] = (bytes_per_rep, "bytes")
        if flops_per_rep:
            metrics[f"sampling.orth_flops_per_rep.{wl_name}"] = (flops_per_rep, "flop")
        shutil.rmtree(work / wl_name)

    for kind in ("tv", "hellinger", "kl"):
        for span in tracer.find(f"distances.{kind}"):
            metrics[f"distances.{kind}_us_per_rep.{span.attrs['point']}"] = (
                span.seconds / span.attrs["reps"] * 1e6, "us")
    for span in tracer.find("limits.hs"):
        per_rep = tracer.self_seconds(span) / span.attrs["reps"]
        if span.attrs["point"] == "62500x100x25":
            metrics["limits.hs_ms_per_rep.62500x100x25"] = (per_rep * 1e3, "ms")
        else:
            metrics[f"limits.hs_us_per_rep.{span.attrs['point']}"] = (per_rep * 1e6, "us")
    for span in tracer.find("parallel.replicate_map"):
        invocation = tracer.root(span).attrs["invocation"]
        metrics[f"limits.clt_w_ms_per_rep.{invocation.removeprefix('clt-')}"] = (
            span.seconds / span.attrs["reps"] * 1e3, "ms")
    for span in tracer.find("numerics.ks_statistic"):
        metrics[f"numerics.ks_statistic_ms.{tracer.root(span).attrs['invocation']}"] = (span.seconds * 1e3, "ms")
    metrics["moments.calls"] = (float(sum(counts.values())), "count")

    metrics.update(layer_benchmarks(tracer, spec, base_seed, work))
    tracer.dump(spans_path)
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": {"failures": tally.notes, "moments_calls": counts, "spans": len(tracer.spans)},
    }
