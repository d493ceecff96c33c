"""Result persistence: run directories, CSV/JSON writers, and self-contained
SVG histograms.

Result files must be byte-identical across re-runs with the same seed and
any thread count, so everything wall-clock dependent (timestamps, elapsed
times, thread counts) goes to side files, never into results or artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Histogram",
    "Overlay",
    "format_value",
    "write_csv",
    "write_json",
    "make_run_directory",
    "histogram_with_overflow",
    "write_histogram_csv",
    "emit_svg_histogram",
]


def format_value(value) -> str:
    """CSV cell formatting; floats carry 17 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.17g}"
    if value is None:
        return ""
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
    return path


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def make_run_directory(output_dir: str | Path, command: str, master_seed: int) -> Path:
    """Fresh ``<output_dir>/<command>-<timestamp>-<seed>`` directory.

    Never reuses an existing directory; a same-second collision gets a
    numeric suffix.  Creating the directory is the existence test, so two
    runs started at once cannot both claim one name."""
    base = Path(output_dir)
    base.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    name = f"{command}-{stamp}-{master_seed}"
    candidate, suffix = base / name, 0
    while True:
        try:
            candidate.mkdir(exist_ok=False)
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = base / f"{name}-{suffix}"


HISTOGRAM_BINS = 61


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins over [lo, hi] plus two overflow counters."""

    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int
    total: int


@dataclass(frozen=True)
class Overlay:
    """Analytic density drawn over the bars: standard normal, or half-normal
    with the given scale."""

    kind: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "half_normal"):
            raise ValueError(f"unknown overlay kind {self.kind!r}")
        if not self.scale > 0:
            raise ValueError(f"overlay scale must be positive, got {self.scale}")

    def density(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "normal":
            return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        out = np.where(
            x >= 0.0,
            math.sqrt(2.0 / math.pi) / self.scale * np.exp(-0.5 * (x / self.scale) ** 2),
            0.0,
        )
        return out


def histogram_with_overflow(samples: np.ndarray, lo: float = -4.0, hi: float = 4.0) -> Histogram:
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot build a histogram from an empty sample set")
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(samples, bins=edges)
    underflow = int(np.count_nonzero(samples < lo))
    overflow = int(np.count_nonzero(samples >= hi))
    return Histogram(
        edges=edges,
        counts=counts.astype(np.int64),
        underflow=underflow,
        overflow=overflow,
        total=samples.size,
    )


def write_histogram_csv(hist: Histogram, path: str | Path) -> Path:
    widths = np.diff(hist.edges)
    rows = []
    rows.append(["-inf", format_value(float(hist.edges[0])), hist.underflow, ""])
    for lo, hi, count, width in zip(hist.edges[:-1], hist.edges[1:], hist.counts, widths):
        density = count / (hist.total * width)
        rows.append([format_value(float(lo)), format_value(float(hi)), int(count), format_value(density)])
    rows.append([format_value(float(hist.edges[-1])), "inf", hist.overflow, ""])
    return write_csv(path, ["bin_lo", "bin_hi", "count", "density"], rows)


_SVG_WIDTH = 800
_SVG_HEIGHT = 500
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 45


def emit_svg_histogram(hist: Histogram, overlay: Overlay | None, path: str | Path) -> Path:
    """Standalone SVG with density-normalized bars and an optional analytic
    overlay sampled at 200 points, on a fixed 800 x 500 viewport."""
    if hist.counts.size == 0:
        raise ValueError("histogram has no bins")
    if hist.total <= 0 or int(hist.counts.sum()) + hist.underflow + hist.overflow <= 0:
        raise ValueError("histogram has zero total mass")

    widths = np.diff(hist.edges)
    density = hist.counts / (hist.total * widths)
    x_lo, x_hi = float(hist.edges[0]), float(hist.edges[-1])
    xs_overlay = np.linspace(x_lo, x_hi, 200)
    y_overlay = overlay.density(xs_overlay) if overlay is not None else np.array([0.0])
    y_max = max(float(density.max()), float(y_overlay.max()), 1e-12) * 1.08

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (1.0 - y / y_max) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    for lo, width, dens in zip(hist.edges[:-1], widths, density):
        if dens <= 0:
            continue
        x = sx(float(lo))
        w = width / (x_hi - x_lo) * plot_w
        y = sy(float(dens))
        h = _MARGIN_TOP + plot_h - y
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            'fill="#7aa6c2" stroke="#43667f" stroke-width="0.5"/>'
        )
    # axes
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h}" '
        f'x2="{_MARGIN_LEFT + plot_w}" y2="{_MARGIN_TOP + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
        f'x2="{_MARGIN_LEFT}" y2="{_MARGIN_TOP + plot_h}" stroke="black"/>'
    )
    n_ticks = 5
    for i in range(n_ticks):
        x_val = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        x = sx(x_val)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{x_val:.3g}</text>'
        )
        y_val = y_max * i / (n_ticks - 1)
        y = sy(y_val)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{y_val:.3g}</text>'
        )
    if overlay is not None:
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs_overlay, y_overlay))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#c0392b" stroke-width="1.8"/>'
        )
    if hist.underflow or hist.overflow:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w - 4}" y="{_MARGIN_TOP + 14}" font-size="11" '
            f'text-anchor="end">underflow={hist.underflow} overflow={hist.overflow}</text>'
        )
    parts.append("</svg>")

    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
