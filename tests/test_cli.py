"""Scenario parsing, artifact writing, determinism, exit codes."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revival
from revival import wavefields
from revival.cli import build_scenario, main, parse_config, run
from revival.errors import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_autocorr_config(self, tmp_path):
        path = write_config(
            tmp_path,
            "model = caseA\nn0 = 400\ndn = 6\ntmax = 1600\nsteps = 64000\n",
        )
        sc = parse_config(path, "autocorr", str(tmp_path / "out"))
        assert sc.command == "autocorr"
        assert sc.params["n0"] == 400.0
        assert sc.params["steps"] == 64000
        assert sc.params["cutoff"] == 1e-8  # default filled in

    def test_missing_key_named(self, tmp_path):
        path = write_config(tmp_path, "model = caseA\ndn = 6\ntmax = 1\nsteps = 10\n")
        with pytest.raises(ConfigError, match="n0"):
            parse_config(path, "autocorr", "out")

    def test_unknown_key_named(self, tmp_path):
        path = write_config(
            tmp_path, "modle = caseA\nn0 = 1\ndn = 1\ntmax = 1\nsteps = 2\n"
        )
        with pytest.raises(ConfigError, match="modle"):
            parse_config(path, "autocorr", "out")

    def test_bad_number(self, tmp_path):
        path = write_config(
            tmp_path, "model = caseA\nn0 = abc\ndn = 6\ntmax = 1\nsteps = 2\n"
        )
        with pytest.raises(ConfigError, match="n0"):
            parse_config(path, "autocorr", "out")

    def test_comments_and_blanks(self, tmp_path):
        path = write_config(tmp_path, "# comment\n\np = 1  # inline\nq = 3\n")
        sc = parse_config(path, "fractional", "out")
        assert (sc.params["p"], sc.params["q"]) == (1, 3)

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            build_scenario("nope", {}, "out")

    def test_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path, "p = 1\nq = 3\n")
        sc = parse_config(path, "fractional", "out", overrides={"q": "4"})
        assert sc.params["q"] == 4


class TestRun:
    def test_spectrum_case_a_sidecar(self, tmp_path):
        sc = build_scenario(
            "spectrum", {"model": "caseA", "n0": "400", "n_max": "10"}, str(tmp_path)
        )
        run(sc)
        meta = (tmp_path / "spectrum.meta.txt").read_text()
        assert "t_classical = 2\n" in meta
        assert "t_revival = 1600" in meta
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,energy"

    def test_fractional_one_third(self, tmp_path):
        sc = build_scenario("fractional", {"p": "1", "q": "3"}, str(tmp_path))
        run(sc)
        rows = (tmp_path / "fractional.csv").read_text().splitlines()
        b0 = rows[1].split(",")
        assert float(b0[1]) == pytest.approx(0.0, abs=1e-14)
        assert float(b0[2]) == pytest.approx(-1 / math.sqrt(3.0), rel=1e-12)

    def test_carpet_writes_pgm_triplet(self, tmp_path):
        sc = build_scenario(
            "carpet",
            {"n0": "40", "x_count": "64", "t_count": "64", "dx0": "0.05", "x0": "0.5"},
            str(tmp_path),
        )
        written = run(sc)
        names = {p.split("/")[-1] for p in written}
        assert {"carpet_total.pgm", "carpet_classical.pgm", "carpet_quantum.pgm"} <= names
        blob = (tmp_path / "carpet_total.pgm").read_bytes()
        assert blob.startswith(b"P5\n# max=")

    def test_autocorr_csv(self, tmp_path):
        sc = build_scenario(
            "autocorr",
            {"model": "caseA", "n0": "400", "dn": "6", "tmax": "4", "steps": "200"},
            str(tmp_path),
        )
        run(sc)
        lines = (tmp_path / "autocorr.csv").read_text().splitlines()
        assert lines[0] == "t,re,im,abs2"
        assert len(lines) == 202
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-9)

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            sc = build_scenario(
                "jc",
                {"nbar": "36", "coupling": "0.01", "tau_max": "2", "steps": "300"},
                str(tmp_path / sub),
            )
            run(sc)
            outs.append((tmp_path / sub / "jc.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bec_grid(self, tmp_path):
        sc = build_scenario(
            "bec",
            {"alpha_re": "2", "u0": "1", "grid_count": "31", "t_over_trev": "0.5"},
            str(tmp_path),
        )
        run(sc)
        meta = (tmp_path / "bec.meta.txt").read_text()
        fid = [ln for ln in meta.splitlines() if ln.startswith("cat_fidelity")][0]
        assert float(fid.split("=")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_billiard_square(self, tmp_path):
        sc = build_scenario(
            "billiard2d",
            {
                "geometry": "square",
                "x0": "0.5",
                "y0": "0.5",
                "p0x": str(20 * math.pi),
                "p0y": str(10 * math.pi),
                "m_cap": "60",
                "tmax": "0.01",
                "steps": "50",
            },
            str(tmp_path),
        )
        written = run(sc)
        assert any(p.endswith("levels.csv") for p in written)
        assert any(p.endswith("autocorr2d.csv") for p in written)


class TestMain:
    def test_exit_zero(self, tmp_path, capsys):
        code = main(["fractional", "--p", "1", "--q", "4", "--out", str(tmp_path)])
        assert code == 0
        assert "fractional.csv" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        code = main(["autocorr", "--n0", "400", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_unknown_flag_key(self, tmp_path, capsys):
        code = main(["fractional", "--p", "1", "--qq", "3", "--out", str(tmp_path)])
        assert code == 2

    def test_exit_three_on_numeric_error(self, tmp_path, capsys):
        # packet jammed against the wall -> containment failure
        code = main(
            [
                "observables",
                "--n0", "400",
                "--x0", "0.01",
                "--tmax", "1",
                "--steps", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_out_required(self, capsys):
        assert main(["fractional", "--p", "1", "--q", "3"]) == 2

    def test_usage(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out


def test_exit_three_for_packet_outside_triangle(tmp_path, capsys):
    # (5, 0) lies beyond the right wall of the equilateral billiard
    argv = ["billiard2d", "--geometry", "equilateral", "--x0", "5", "--y0", "0"]
    code = main(argv + ["--tmax", "1", "--steps", "10", "--out", str(tmp_path)])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


class TestWignerContract:
    @pytest.mark.parametrize(
        "key, value",
        [("L", "0"), ("L", "-1"), ("dx0", "0"), ("n0", "0"), ("x_count", "0"),
         ("x_count", "1"), ("p_count", "1"), ("p_span", "-1")],
    )
    def test_out_of_range_exits_two(self, tmp_path, capsys, key, value):
        code = main(["wigner", f"--{key}", value, "--out", str(tmp_path)])
        assert code == 2
        assert f"key {key!r}" in capsys.readouterr().err

    def test_zero_span_means_default_span(self, tmp_path):
        code = main(["wigner", "--x_count", "2", "--p_count", "2", "--p_span", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        meta = (tmp_path / "wigner.meta.txt").read_text()
        span = wavefields.default_momentum_span(40 * math.pi, 10.0)
        assert f"p_span = {format(span, '.12g')}\n" in meta

    def test_grid_just_above_budget_exits_three(self, tmp_path, capsys):
        # the default packet keeps 57 modes; 2603^2 is the first square
        # grid whose working arrays exceed the 1 GiB cap
        code = main(["wigner", "--x_count", "2603", "--p_count", "2603", "--out", str(tmp_path)])
        assert code == 3
        assert "GiB" in capsys.readouterr().err


class TestBilliardContract:
    TIME = ["--tmax", "1", "--steps", "10"]

    @pytest.mark.parametrize(
        "key, value",
        [("size", "0"), ("size", "-1"), ("f", "0"), ("f", "-0.5"), ("dx0", "0"),
         ("m_cap", "0"), ("m_cap", "-2"), ("nr_cap", "-1"), ("steps", "0"), ("steps", "-5"),
         ("tmax", "-1")],
    )
    def test_out_of_range_exits_two(self, tmp_path, capsys, key, value):
        argv = ["billiard2d", "--geometry", "circle"] + self.TIME + [f"--{key}", value]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"key {key!r}" in capsys.readouterr().err

    def test_fraction_at_least_one_is_numeric_error(self, tmp_path, capsys):
        argv = ["billiard2d", "--geometry", "annulus", "--f", "1.5"] + self.TIME
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "inner-radius fraction" in capsys.readouterr().err

    def test_size_outside_validated_range_is_numeric_error(self, tmp_path, capsys):
        argv = ["billiard2d", "--geometry", "square", "--size", "1e160"] + self.TIME
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "validated range" in capsys.readouterr().err

    def test_annulus_default_caps_run(self, tmp_path):
        argv = ["billiard2d", "--geometry", "annulus"] + self.TIME
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "levels.csv").read_text().splitlines()
        assert len(rows) == 1 + 33 * 31  # m = -16..16, n_r = 0..30

    @pytest.mark.parametrize(
        "argv",
        [["wigner"], ["carpet"], ["observables", "--tmax", "1", "--steps", "10"]],
        ids=["wigner", "carpet", "observables"],
    )
    def test_huge_n0_is_truncation_error(self, tmp_path, capsys, argv):
        code = main(argv + ["--n0", "1e300", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "GiB" in err and "Traceback" not in err

    def test_huge_n0_carpet_prints_no_warning(self, tmp_path):
        # the builder's size guard must refuse the packet before the
        # revival time overflows; run as a process to see its real stderr
        src = os.path.dirname(os.path.dirname(revival.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["carpet", "--n0", "1e300", "--out", str(tmp_path)]
        proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


# each value is drawn from its whole range or, as often, from the part
# the range checks accept, so that most examples reach the builders
def _signed(lo: float, hi: float):
    return st.one_of(st.floats(lo, hi), st.floats(allow_nan=False, allow_infinity=False))


def _count(lo: int, hi: int, valid_lo: int):
    return st.one_of(st.integers(valid_lo, hi), st.integers(lo, hi))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    geometry=st.sampled_from(["square", "equilateral", "circle", "annulus"]),
    m_cap=_count(-2, 4, 1),
    nr_cap=_count(-2, 4, 0),
    size=_signed(0.5, 2.0),
    f=_signed(0.05, 0.95),
    dx0=_signed(0.01, 0.1),
    tmax=_signed(0.0, 20.0),
    steps=_count(-5, 50, 1),
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
)
def test_billiard2d_contract_holds_for_any_values(geometry, m_cap, nr_cap, size, f, dx0, tmax,
                                                   steps, x0, y0):
    values = {"m_cap": m_cap, "nr_cap": nr_cap, "size": size, "f": f, "dx0": dx0,
              "tmax": tmax, "steps": steps, "x0": x0, "y0": y0}
    argv = ["billiard2d", "--geometry", geometry]
    for key, value in values.items():
        argv += [f"--{key}", repr(value)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", out])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
