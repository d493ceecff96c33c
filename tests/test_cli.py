import ast
import io
import json
import math
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haargauss import load_matrix_csv
from haargauss.cli import ConfigError, ExperimentConfig, main, parse_config, run
from haargauss.reporting import (
    Histogram,
    Overlay,
    emit_svg_histogram,
    histogram_with_overflow,
    write_histogram_csv,
)

from conftest import NanStream


def _run_dir_of(base: Path) -> Path:
    dirs = [p for p in base.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestParseConfig:
    def test_flags_only(self, tmp_path):
        cfg = parse_config(
            ["distance", "--n", "2000", "--p", "10", "--q", "10", "--kind", "tv",
             "--output-dir", str(tmp_path)]
        )
        assert len(cfg.grid) == 1
        d = cfg.grid[0]
        assert (d.n, d.p, d.q) == (2000, 10, 10)
        assert cfg.kind == "tv"
        assert cfg.replicates == 10_000

    def test_json_grid(self, tmp_path):
        payload = {
            "grid": [{"n": 200, "p": 5, "q": 4}, {"n": 300, "p": 6, "q": 6}],
            "replicates": 64,
            "master_seed": 9,
            "format": "json",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = parse_config(["distance", "--config", str(path), "--output-dir", str(tmp_path)])
        assert len(cfg.grid) == 2
        assert cfg.replicates == 64
        assert cfg.master_seed == 9
        assert cfg.format == "json"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replicates": 64, "master_seed": 9}))
        cfg = parse_config(
            ["distance", "--config", str(path), "--n", "100", "--p", "4", "--q", "4",
             "--replicates", "32", "--output-dir", str(tmp_path)]
        )
        assert cfg.replicates == 32
        assert cfg.master_seed == 9

    def test_clt_figure_grid_config(self, tmp_path):
        payload = {"grid": [{"p": p, "q": q} for p, q in
                            [(165, 30), (900, 30), (1600, 40), (355, 50), (2500, 50), (10000, 100)]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = parse_config(["clt", "--config", str(path), "--output-dir", str(tmp_path)])
        assert len(cfg.grid) == 6

    def test_invalid_dims(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["distance", "--n", "10", "--p", "0", "--q", "2",
                          "--output-dir", str(tmp_path)])

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            parse_config([])

    def test_unknown_config_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"wat": 1}))
        with pytest.raises(ConfigError):
            parse_config(["verify", "--config", str(path), "--output-dir", str(tmp_path)])

    def test_command_mismatch(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "clt"}))
        with pytest.raises(ConfigError):
            parse_config(["distance", "--config", str(path), "--n", "10", "--p", "2",
                          "--q", "2", "--output-dir", str(tmp_path)])

    @pytest.mark.parametrize("command, payload", [
        ("distance", {"grid": 5}),
        ("distance", {"grid": [{"n": 12, "p": "4", "q": 3}]}),
        ("distance", {"grid": [{"n": 12, "p": 4.5, "q": 3}]}),
        ("distance", {"replicates": 2.7}),
        ("distance", {"replicates": True}),
        ("distance", {"replicates": 1}),
        ("distance", {"master_seed": 2**64}),
        ("distance", {"kind": "nope"}),
        ("distance", {"output_dir": 3}),
        ("clt", {"figure_grid": "false", "grid": [{"p": 60, "q": 8}]}),
    ], ids=["grid-int", "grid-str-p", "grid-float-p", "replicates-float", "replicates-bool",
            "replicates-1", "seed-2^64", "kind", "output-dir-int", "figure-grid-str"])
    def test_bad_config_values(self, tmp_path, command, payload):
        payload = {"grid": [{"n": 60, "p": 3, "q": 2}], **payload}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            parse_config([command, "--config", str(path), "--output-dir", str(tmp_path)])

    def test_typed_values_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replicates": 64.0, "threads": None, "figure_grid": True}))
        cfg = parse_config(["clt", "--config", str(path), "--seed", str(2**64 - 6),
                            "--output-dir", str(tmp_path)])
        assert cfg.replicates == 64 and isinstance(cfg.replicates, int)
        assert cfg.threads is None
        assert cfg.figure_grid is True
        assert cfg.master_seed == 2**64 - 6


class TestMainExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        code = main(["distance", "--n", "10", "--p", "0", "--q", "2",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, flags", [
        ("distance", {"grid": 5}, []),
        ("distance", {}, ["--seed", str(2**64)]),
        ("distance", {}, ["-N", "1"]),
        ("distance", {"replicates": 2.7}, []),
        ("clt", {}, ["--p", "1", "--q", "5", "-N", "10"]),
        ("distance", {}, ["--p", "3"]),
        ("distance", {}, ["--p", "3", "--q", "2"]),
        ("clt", {"grid": []}, ["--figure-grid", "--p", "5", "--q", "5"]),
        ("clt", {}, ["--figure-grid"]),
        ("distance", {"figure_grid": True}, []),
        ("distance", {}, ["--threads", "0"]),
    ], ids=["grid-int", "seed-2^64", "N-1", "replicates-float", "clt-p-1", "p-without-q",
            "pq-without-n", "figure-grid-with-flags", "figure-grid-with-config-grid",
            "figure-grid-on-distance", "threads-0"])
    def test_bad_input_is_2_without_a_run(self, tmp_path, capsys, command, payload, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": [{"n": 60, "p": 3, "q": 2}], **payload}))
        runs = tmp_path / "runs"
        code = main([command, "--config", str(path), "--output-dir", str(runs), *flags])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not runs.exists() or not any(runs.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["clt", "--help"], ["verify", "--help"]],
                             ids=["top-level", "clt", "verify"])
    def test_help_is_0_without_a_run(self, tmp_path, capsys, argv):
        runs = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output-dir", str(runs)])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert "usage:" in captured.out
        assert "error:" not in captured.err
        assert not runs.exists()

    def test_distance_run_is_0(self, tmp_path):
        code = main(["distance", "--n", "60", "--p", "3", "--q", "2", "--kind", "tv",
                     "-N", "50", "--seed", "1", "--output-dir", str(tmp_path)])
        assert code == 0


class TestDistanceCommand:
    def test_run_directory_layout(self, tmp_path):
        code = main(["distance", "--n", "80", "--p", "4", "--q", "3", "-N", "60",
                     "--seed", "5", "--output-dir", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_of(tmp_path)
        assert run_dir.name.startswith("distance-")
        assert run_dir.name.endswith("-5")
        for name in ("config.json", "results.csv", "timing.json"):
            assert (run_dir / name).exists()
        lines = (run_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "n,p,q,kind,N,seed,mean,std_error,status"
        assert len(lines) == 4  # header + tv + kl + hellinger

    def test_unsupported_regime_row(self, tmp_path):
        code = main(["distance", "--n", "2", "--p", "2", "--q", "2", "-N", "16",
                     "--kind", "tv", "--output-dir", str(tmp_path)])
        assert code == 0
        body = (_run_dir_of(tmp_path) / "results.csv").read_text()
        assert "UNSUPPORTED_REGIME" in body

    def test_no_draw_in_support_rows(self, tmp_path):
        code = main(["distance", "--n", "400", "--p", "190", "--q", "190", "-N", "20",
                     "--kind", "all", "--output-dir", str(tmp_path)])
        assert code == 0
        lines = (_run_dir_of(tmp_path) / "results.csv").read_text().splitlines()
        rows = {line.split(",")[3]: line for line in lines[1:]}
        assert rows["tv"] == "400,190,190,tv,20,0,,,NO_DRAW_IN_SUPPORT"
        assert rows["hellinger"] == "400,190,190,hellinger,20,0,,,NO_DRAW_IN_SUPPORT"
        assert rows["kl"].endswith(",ok")

    def test_thread_count_invariance_bytes(self, tmp_path):
        outputs = []
        for threads, sub in ((1, "a"), (4, "b")):
            base = tmp_path / sub
            base.mkdir()
            code = main(["distance", "--n", "100", "--p", "5", "--q", "4", "-N", "200",
                         "--seed", "3", "--threads", str(threads),
                         "--output-dir", str(base)])
            assert code == 0
            outputs.append((_run_dir_of(base) / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, names", [
        (["clt", "--p", "60", "--q", "8", "-N", "300"],
         ("results.csv", "clt-hist-0.csv", "clt-hist-0.svg")),
        (["coupling", "--n", "500", "--p", "20", "--q", "5", "-N", "100"],
         ("results.csv", "coupling-hs-0.csv", "coupling-hs-0.svg")),
    ], ids=["clt", "coupling"])
    def test_thread_count_invariance_other_commands(self, tmp_path, argv, names):
        outputs = []
        for threads in (1, 2):
            base = tmp_path / str(threads)
            code = main([*argv, "--seed", "3", "--threads", str(threads),
                         "--output-dir", str(base)])
            assert code == 0
            outputs.append({name: (_run_dir_of(base) / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1]

    def test_json_format(self, tmp_path):
        code = main(["distance", "--n", "60", "--p", "3", "--q", "2", "-N", "40",
                     "--kind", "kl", "--format", "json", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((_run_dir_of(tmp_path) / "results.json").read_text())
        assert payload[0]["kind"] == "kl"
        assert isinstance(payload[0]["mean"], float)

    def test_estimator_abort_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        import haargauss.distances as distances

        # every corner sample now lands outside the support: the KL abort
        monkeypatch.setattr(distances, "log_ln", lambda point, d: float("-inf"))
        code = main(["distance", "--n", "60", "--p", "3", "--q", "2", "--kind", "kl",
                     "-N", "10", "--output-dir", str(tmp_path)])
        assert code == 1
        lines = (_run_dir_of(tmp_path) / "results.csv").read_text().splitlines()
        assert lines[1:] == ["60,3,2,kl,10,0,,,FAIL"]
        assert "support" in capsys.readouterr().err

    def test_nan_draw_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        import haargauss.parallel as parallel

        # a NaN in a Gaussian block is a sampler defect, not a point
        # outside the support, so the row is FAIL, not NO_DRAW_IN_SUPPORT
        monkeypatch.setattr(parallel, "RngStream", NanStream)
        code = main(["distance", "--n", "60", "--p", "3", "--q", "2", "--kind", "tv",
                     "-N", "20", "--output-dir", str(tmp_path)])
        assert code == 1
        lines = (_run_dir_of(tmp_path) / "results.csv").read_text().splitlines()
        assert lines[1:] == ["60,3,2,tv,20,0,,,FAIL"]
        assert "not finite" in capsys.readouterr().err


class TestTimingFile:
    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "12", "--p", "4", "--q", "3"],
        ["moments", "--n", "10", "--p", "2", "--q", "3"],
        ["distance", "--n", "60", "--p", "3", "--q", "2", "--kind", "all", "-N", "20"],
        ["coupling", "--n", "50", "--p", "5", "--q", "2", "-N", "20"],
        ["clt", "--p", "20", "--q", "4", "-N", "20"],
    ], ids=["sample", "moments", "distance", "coupling", "clt"])
    def test_one_finite_entry_per_row(self, tmp_path, argv):
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
        run_dir = _run_dir_of(tmp_path)
        rows = (run_dir / "results.csv").read_text().splitlines()[1:]
        timing = json.loads((run_dir / "timing.json").read_text())
        assert [entry["index"] for entry in timing] == list(range(len(rows)))
        for entry in timing:
            assert math.isfinite(entry["elapsed_ms"]) and entry["elapsed_ms"] >= 0


class TestSampleCommand:
    def test_haar_dump(self, tmp_path):
        code = main(["sample", "--n", "12", "--p", "4", "--q", "3", "--kind", "haar",
                     "--seed", "2", "--output-dir", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_of(tmp_path)
        m = load_matrix_csv(run_dir / "haar-0.csv")
        assert m.shape == (4, 3)

    def test_coupled_dump(self, tmp_path):
        code = main(["sample", "--n", "12", "--p", "4", "--q", "3", "--kind", "coupled",
                     "--seed", "2", "--output-dir", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_of(tmp_path)
        y = load_matrix_csv(run_dir / "coupled-y-0.csv")
        gamma = load_matrix_csv(run_dir / "coupled-gamma-0.csv")
        assert y.shape == gamma.shape == (4, 3)


class TestMomentsCommand:
    def test_prints_rationals(self, tmp_path):
        buffer = io.StringIO()
        cfg = parse_config(["moments", "--n", "10", "--p", "2", "--q", "3",
                            "--output-dir", str(tmp_path)])
        _, records, code = run(cfg, out=buffer)
        assert code == 0
        text = buffer.getvalue()
        assert "trace_power_1 = 3/5 = 0.59999999999999998" in text
        assert any(r.row["quantity"] == "entry_g11_sq" for r in records)


class TestCouplingCommand:
    def test_sampler_abort_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        import haargauss.sampling as sampling

        # every Gram-Schmidt pivot is now degenerate: the sampler's own abort
        monkeypatch.setattr(sampling, "PIVOT_TOL", math.inf)
        code = main(["coupling", "--n", "50", "--p", "5", "--q", "2", "-N", "10",
                     "--output-dir", str(tmp_path)])
        assert code == 1
        run_dir = _run_dir_of(tmp_path)
        lines = (run_dir / "results.csv").read_text().splitlines()
        assert lines[1:] == ["50,5,2,10,0,,,,,,FAIL"]
        assert not list(run_dir.glob("coupling-hs-*"))
        assert not (run_dir / "artifacts.json").exists()
        assert "error: coupling at n=50 p=5 q=2: Gram-Schmidt pivot" in capsys.readouterr().err

    def test_nan_draw_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        import haargauss.parallel as parallel

        # every replicate stream now puts a NaN in its Gaussian draws
        monkeypatch.setattr(parallel, "RngStream", NanStream)
        code = main(["coupling", "--n", "50", "--p", "5", "--q", "2", "-N", "10",
                     "--output-dir", str(tmp_path)])
        assert code == 1
        run_dir = _run_dir_of(tmp_path)
        lines = (run_dir / "results.csv").read_text().splitlines()
        assert lines[1:] == ["50,5,2,10,0,,,,,,FAIL"]
        assert not list(run_dir.glob("coupling-hs-*"))
        assert "Gram-Schmidt pivot nan" in capsys.readouterr().err

    def test_q1_artifacts(self, tmp_path):
        code = main(["coupling", "--n", "200", "--p", "100", "--q", "1", "-N", "400",
                     "--seed", "7", "--output-dir", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_of(tmp_path)
        svg = run_dir / "coupling-hs-0.svg"
        assert svg.exists()
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        body = (run_dir / "results.csv").read_text()
        assert "ks_half_normal" in body.splitlines()[0]


class TestCltCommand:
    def test_single_point_run(self, tmp_path):
        code = main(["clt", "--p", "60", "--q", "8", "-N", "300", "--seed", "4",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_of(tmp_path)
        hist_csv = run_dir / "clt-hist-0.csv"
        assert hist_csv.exists()
        lines = hist_csv.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,density"
        assert len(lines) == 1 + 61 + 2  # header + bins + overflow rows
        root = ET.parse(run_dir / "clt-hist-0.svg").getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert polylines, "expected the analytic overlay curve"


class TestVerifyCommand:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        code = main(["verify", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "row_normalization" in out
        body = (_run_dir_of(tmp_path) / "results.csv").read_text()
        assert "trace_power_full_dimension" in body
        assert "FAIL" not in body


class TestSvgHistogram:
    def test_zero_mass_rejected(self, tmp_path):
        hist = Histogram(
            edges=np.linspace(-1, 1, 5), counts=np.zeros(4, dtype=np.int64),
            underflow=0, overflow=0, total=0,
        )
        with pytest.raises(ValueError):
            emit_svg_histogram(hist, Overlay("normal"), tmp_path / "x.svg")

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            histogram_with_overflow(np.array([]))

    def test_density_bars_track_normal_curve(self, tmp_path):
        from haargauss import RngStream

        draws = RngStream(55, 0).standard_normal(10_000)
        hist = histogram_with_overflow(draws)
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        density = hist.counts / (hist.total * np.diff(hist.edges))
        phi = np.exp(-0.5 * centers**2) / np.sqrt(2 * np.pi)
        central = np.abs(centers) <= 2.0
        assert np.max(np.abs(density[central] - phi[central])) < 0.05
        path = emit_svg_histogram(hist, Overlay("normal"), tmp_path / "n.svg")
        ET.parse(path)  # well-formed XML

    def test_histogram_csv_round_numbers(self, tmp_path):
        hist = histogram_with_overflow(np.array([0.0, 0.5, 10.0]))
        path = write_histogram_csv(hist, tmp_path / "h.csv")
        lines = path.read_text().splitlines()
        assert lines[1].startswith("-inf,")
        assert lines[-1].endswith("1,")  # one overflow sample


class TestThreadEnvVar:
    # neither the environment nor the CPU affinity sets the worker count: it is 1
    def test_default_follows_cpu_affinity(self, monkeypatch):
        import os

        from haargauss.parallel import thread_count

        monkeypatch.setenv("HAARGAUSS_THREADS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert thread_count() == 1


class TestBenchmarkHooks:
    def test_traced_names_exist(self):
        # the traced benchmark run wraps these module attributes by name
        import haargauss.cli as cli_module
        import haargauss.limits as limits_module

        for name in ("estimate_tv", "estimate_hellinger", "estimate_kl", "run_hs_experiment",
                     "replicate_map", "ks_statistic", "make_run_directory", "write_csv",
                     "write_json", "write_histogram_csv", "emit_svg_histogram",
                     "histogram_with_overflow"):
            assert callable(getattr(cli_module, name, None)), name
        assert cli_module.moments.__name__ == "haargauss.moments"
        assert callable(getattr(limits_module, "ks_statistic", None))
        # the traced run swaps cli.moments for a proxy holding only the names
        # in moments.__all__, so every moments.<attr> the CLI reads must be there
        tree = ast.parse(Path(cli_module.__file__).read_text(encoding="utf-8"))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "moments"
        }
        assert read, "no moments.<attr> reads found in cli.py"
        assert read <= set(cli_module.moments.__all__), read - set(cli_module.moments.__all__)

    def test_cli_calls_through_module_globals(self, tmp_path, monkeypatch):
        # the traced run replaces these cli attributes; the commands must
        # look them up at call time, or its spans stay empty
        import haargauss.cli as cli_module

        names = ("estimate_tv", "estimate_hellinger", "estimate_kl", "run_hs_experiment",
                 "replicate_map", "ks_statistic", "make_run_directory", "write_csv",
                 "write_json", "write_histogram_csv", "emit_svg_histogram",
                 "histogram_with_overflow")
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in names:
            monkeypatch.setattr(cli_module, name, counting(name, getattr(cli_module, name)))
        for argv in (["distance", "--n", "60", "--p", "3", "--q", "2", "--kind", "all"],
                     ["coupling", "--n", "50", "--p", "5", "--q", "2"],
                     ["clt", "--p", "20", "--q", "4"]):
            assert main([*argv, "-N", "20", "--output-dir", str(tmp_path / argv[0])]) == 0
        assert all(calls.values()), [name for name, count in calls.items() if not count]

    def test_layer_names_exist(self, tmp_path):
        # the traced benchmark times these layer functions directly, and its
        # environment fingerprint reads the default worker count
        from haargauss import moments
        from haargauss.density import log_kn_exact, log_ln
        from haargauss.distances import estimate_kl, estimate_tv
        from haargauss.numerics import RngStream, cholesky_logdet
        from haargauss.parallel import replicate_map, thread_count
        from haargauss.sampling import (
            Dims,
            gram_schmidt_coupling,
            sample_gaussian_matrix,
            sample_haar_submatrix,
        )

        stream = RngStream(0, 1)
        assert isinstance(stream.gaussian(), float)
        y = stream.standard_normal((20, 3))
        assert gram_schmidt_coupling(y)[0].shape == (20, 3)
        assert sample_gaussian_matrix(4, 3, stream).shape == (4, 3)
        d = Dims(20, 3, 3)
        assert sample_haar_submatrix(d, stream).shape == (3, 3)
        assert np.isfinite(cholesky_logdet(np.eye(3) - y[:3].T @ y[:3] / 100))
        assert np.isfinite(log_kn_exact(d) + log_ln(y[:3], d))
        for estimate in (estimate_tv, estimate_kl):
            assert estimate(d, 4, 0, threads=1).replicates == 4
        assert replicate_map(lambda s, j: 0.0, 4, 0, threads=2).shape == (4,)
        # the fingerprint records the one worker replicates run on, and a
        # worker count below 1 is still rejected where the benchmark passes one
        assert thread_count() == 1
        with pytest.raises(ValueError):
            thread_count(0)
        assert main(["distance", "--n", "60", "--p", "3", "--q", "2", "--kind", "tv", "-N", "8",
                     "--threads", "2", "--output-dir", str(tmp_path)]) == 0
        pattern = moments.MonomialPattern.CYCLE6
        assert moments.entry_monomial_moment(pattern, 10**6) is not None
        assert moments.trace_power_moment(3, Dims(50, 50, 50)) == 50
        assert moments.dirichlet_moment(300, (2, 1)) > 0


class TestExitCodeOne:
    def test_failed_identity_returns_1(self, tmp_path, monkeypatch):
        import haargauss.cli as cli_module

        monkeypatch.setattr(cli_module, "_verify_checks", lambda: [("stub", 1, False)])
        code = main(["verify", "--output-dir", str(tmp_path)])
        assert code == 1
        body = (_run_dir_of(tmp_path) / "results.csv").read_text()
        assert "FAIL" in body


class TestFigureGridWiring:
    def test_six_svgs_written(self, tmp_path):
        from haargauss.limits import FIGURE_GRID

        code = main(["clt", "--figure-grid", "-N", "20", "--seed", "8",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_of(tmp_path)
        assert len(list(run_dir.glob("clt-hist-*.svg"))) == 6
        assert len(list(run_dir.glob("clt-hist-*.csv"))) == 6
        lines = (run_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "p,q,N,seed,mean_w,var_w,ks_normal"
        assert [tuple(map(int, line.split(",")[:4])) for line in lines[1:]] == [
            (p, q, 20, 8) for p, q in FIGURE_GRID
        ]
        timing = json.loads((run_dir / "timing.json").read_text())
        assert [entry["index"] for entry in timing] == list(range(6))

    def test_top_seed_runs(self, tmp_path):
        code = main(["clt", "--figure-grid", "-N", "2", "--seed", str(2**64 - 1),
                     "--output-dir", str(tmp_path)])
        assert code == 0


class TestFreshRunDirectories:
    def test_runs_never_append(self, tmp_path):
        for _ in range(2):
            code = main(["moments", "--n", "6", "--p", "2", "--q", "2",
                         "--output-dir", str(tmp_path)])
            assert code == 0
        dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(dirs) == 2

    def test_taken_name_gets_suffix(self, tmp_path, monkeypatch):
        import haargauss.reporting as reporting

        class FrozenClock:
            @staticmethod
            def now(tz):
                return datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)

        monkeypatch.setattr(reporting, "datetime", FrozenClock)
        (tmp_path / "verify-20260102T030405Z-5").mkdir()
        made = reporting.make_run_directory(tmp_path, "verify", 5)
        assert made.name == "verify-20260102T030405Z-5-1"
        assert reporting.make_run_directory(tmp_path, "verify", 5).name.endswith("-5-2")


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=6,
)


class TestConfigProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from([f.name for f in fields(ExperimentConfig)]), _JSON))
    def test_any_json_config_exits_cleanly(self, payload):
        # moments ignores the replicate count and evaluates closed forms, so
        # a config that happens to be valid still runs in milliseconds
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(payload))
            code = main(["moments", "--config", str(path), "--output-dir", str(Path(tmp) / "runs")])
        assert code in (0, 1, 2)
