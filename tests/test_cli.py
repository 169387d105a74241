"""Scenario parsing, artifact writing, determinism, exit codes."""

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revival
from revival import analogs, cli, errors, serialize, wavefields
from revival.cli import build_scenario, main, parse_config, run
from revival.errors import WORK_MAX_BYTES, ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def _child_artifacts(argv, name, out, **env_vars):
    """(file name, bytes) of the artifacts matching the glob `name` that
    `python -m revival.cli ARGV` writes to `out` in a fresh process whose
    environment sets env_vars (None unsets one)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(revival.__file__)))
    for var, value in env_vars.items():
        env.pop(var, None)
        if value is not None:
            env[var] = value
    proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    files = sorted(out.glob(name))
    assert files, name
    return [(path.name, path.read_bytes()) for path in files]


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

    def test_utf8_bom_config(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfp = 1\nq = 3\n")
        sc = parse_config(str(path), "fractional", "out")
        assert (sc.params["p"], sc.params["q"]) == (1, 3)


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

    def test_carpet_holds_two_rasters(self, tmp_path):
        # the bench carpet: 1024 x 1024 float rasters of 8 MiB each, of
        # which the run holds none (see the next test). Measured peaks
        # (CPython 3.11, numpy 2.4): 20.5 MB with the two rasters held and
        # the total summed as it is written, 26.3 MB with a total raster
        # held beside its two parts
        sc = build_scenario("carpet", {"n0": "400", "x_count": "1024", "t_count": "1024"}, str(tmp_path))
        run(sc)  # the first run fills import-time caches outside the trace
        tracemalloc.start()
        try:
            run(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 1024 * 1024 * 8

    def test_carpet_streams_without_a_raster(self, tmp_path):
        # the bench carpet again: the three PGMs are written in two passes over
        # 16-time row blocks, computed in place. Measured peaks (CPython 3.11,
        # numpy 2.4): 2.6 MiB; 4.4 MiB over 32-time blocks with fresh
        # temporaries; 19.6 MiB with the two 8 MiB rasters held
        sc = build_scenario("carpet", {"n0": "400", "x_count": "1024", "t_count": "1024"}, str(tmp_path))
        run(sc)
        tracemalloc.start()
        try:
            run(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 1024 * 1024

    def test_carpet_pgms_are_pgms_of_the_library_grids(self, tmp_path, monkeypatch):
        seen = []
        original = wavefields.write_carpet_pgms

        def keep(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(wavefields, "write_carpet_pgms", keep)
        run(build_scenario("carpet", {"n0": "40", "x_count": "101", "t_count": "1000"}, str(tmp_path)))
        c, L, x_count, t_count, t_hi, _ = seen[0]
        cls, qc = wavefields.carpet(c, L, x_count, t_count, t_hi)
        for name, image in (("total", cls.values.T + qc.values.T), ("classical", cls.values.T),
                            ("quantum", qc.values.T)):
            serialize.write_pgm(tmp_path / "want.pgm", image)
            assert (tmp_path / f"carpet_{name}.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()

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

    _BILLIARD = ("levels.csv", "autocorr2d.csv", "billiard2d.meta.txt")
    _TIME = {"tmax": "1", "steps": "200"}

    @pytest.mark.parametrize(
        "command, values, names",
        [("jc", {"nbar": "36", "coupling": "0.01", "tau_max": "2", "steps": "300"},
          ("jc.csv", "jc.meta.txt")),
         ("billiard2d", {"geometry": "square", "x0": "0.3", "y0": "0.4", "p0x": "20", "p0y": "10",
                         "m_cap": "8", **_TIME}, _BILLIARD),
         ("billiard2d", {"geometry": "equilateral", "y0": "0.55", "p0x": "20", "p0y": "10",
                         "m_cap": "8", **_TIME}, _BILLIARD),
         ("billiard2d", {"geometry": "circle", "x0": "0.3", "p0y": "20", "m_cap": "4", "nr_cap": "6",
                         **_TIME}, _BILLIARD),
         ("billiard2d", {"geometry": "annulus", "m_cap": "3", "nr_cap": "4", **_TIME},
          ("levels.csv", "billiard2d.meta.txt"))],
        ids=["jc", "square", "equilateral", "circle", "annulus"],
    )
    def test_determinism_byte_identical(self, tmp_path, command, values, names):
        outs = []
        for sub in ("a", "b"):
            written = run(build_scenario(command, values, str(tmp_path / sub)))
            assert sorted(os.path.basename(p) for p in written) == sorted(names)
            outs.append([(tmp_path / sub / name).read_bytes() for name in names])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv, name",
        [(["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1600",
           "--steps", "2000"], "autocorr.csv"),
         (["billiard2d", "--geometry", "circle", "--x0", "0.3", "--p0y", "20", "--m_cap", "4",
           "--nr_cap", "6", "--tmax", "1", "--steps", "200"], "autocorr2d.csv"),
         (["wigner", "--x_count", "64", "--p_count", "64"], "wigner.csv"),
         (["bec", "--alpha_re", "4", "--u0", "1", "--grid_count", "31"], "bec.csv"),
         (["jc", "--nbar", "50", "--coupling", "1"], "jc.csv"),
         (["carpet", "--n0", "400", "--x_count", "1024", "--t_count", "1024"], "carpet_*.pgm")],
        ids=["autocorr_caseA", "billiard2d_circle", "wigner", "bec", "jc", "carpet"],
    )
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, argv, name):
        # OpenBLAS fixes its thread count at import, so each count runs in
        # its own process; never more than 2 threads. `name` is a glob: the
        # carpet compares all three of its PGMs
        outs = [_child_artifacts(argv, name, tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2")]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv, name",
        [(["jc", "--nbar", "50", "--coupling", "1"], "jc.csv"),
         (["carpet", "--n0", "400", "--x_count", "1024", "--t_count", "1024"], "carpet_*.pgm")],
        ids=["jc", "carpet"],
    )
    def test_bytes_do_not_depend_on_blas_thread_timeout(self, tmp_path, argv, name):
        # unset, the CLI's default of 4 applies; 28 is OpenBLAS's own default
        unset = _child_artifacts(argv, name, tmp_path / "unset", OPENBLAS_NUM_THREADS="2",
                                 OPENBLAS_THREAD_TIMEOUT=None)
        assert unset == _child_artifacts(argv, name, tmp_path / "28", OPENBLAS_NUM_THREADS="2",
                                         OPENBLAS_THREAD_TIMEOUT="28")

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

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--model", "well", "--n0", "0"],
         ["autocorr", "--model", "well", "--n0", "0.5", "--dn", "0.2", "--tmax", "1", "--steps", "10"]],
        ids=["spectrum", "autocorr"],
    )
    def test_sidecar_error_exits_before_any_file(self, tmp_path, capsys, argv):
        # no time scales below the box's ground index: exit 3, nothing written
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "below ground index" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_observables_packet_at_rest(self, tmp_path):
        # n0 = 0 keeps the modes up to 12 dn, and the sidecar's time scales
        # are those at n = 2, as for the carpet
        argv = ["observables", "--n0", "0", "--tmax", "0.01", "--steps", "50", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = np.loadtxt(tmp_path / "observables.csv", delimiter=",", skiprows=1)
        assert rows[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert rows[0, 3] == pytest.approx(0.0, abs=1e-9)
        assert "t_revival = " in (tmp_path / "observables.meta.txt").read_text()

    def test_observables_box_parity(self, tmp_path):
        # x -> L - x maps the packet at x0 = L/2 moving right (n0 = 400)
        # onto the one moving left (n0 = -400)
        got = {}
        for n0 in ("400", "-400"):
            argv = ["observables", "--n0", n0, "--tmax", "0.01", "--steps", "50", "--out", str(tmp_path / n0)]
            assert main(argv) == 0
            got[n0] = np.loadtxt(tmp_path / n0 / "observables.csv", delimiter=",", skiprows=1)
        right, left = got["400"], got["-400"]
        assert np.max(np.abs(left[:, 1] - (1.0 - right[:, 1]))) < 1e-12
        assert np.max(np.abs(left[:, 2] - right[:, 2])) < 1e-12
        p_scale = np.max(np.abs(right[:, 3]))
        assert np.max(np.abs(left[:, 3] + right[:, 3])) < 1e-12 * p_scale
        assert np.max(np.abs(left[:, 4] - right[:, 4])) < 1e-12 * p_scale

    def test_half_span_just_below_its_bound_runs_silently(self, tmp_path):
        argv = ["bec", "--alpha_re", "4", "--u0", "1", "--grid_count", "5", "--half_span", "9.9e99"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path)]) == 0

    def test_out_required(self, capsys):
        assert main(["fractional", "--p", "1", "--q", "3"]) == 2

    def test_usage(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["fractional", "--help"], ["carpet", "--x_count", "64", "-h"]],
                             ids=["help", "h_after_a_flag"])
    def test_command_help(self, tmp_path, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage")


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
        # the CSV streams blocks of x rows, so the budget counts one block
        # and the (shift, p) kernel tables; past 4096 momenta a block is one
        # row. This packet keeps 398 modes, and 7026 momenta is the first
        # count whose tables exceed the 1 GiB cap
        argv = ["wigner", "--dx0", "0.004", "--x_count", "2"]
        _, c = cli._box_coefficients(build_scenario("wigner", {"dx0": "0.004"}, str(tmp_path)).params)
        assert len(c.indices) == 398
        below, above = (wavefields._wigner_work_bytes(1, p_count, 398) for p_count in (7025, 7026))
        assert below <= WORK_MAX_BYTES < above
        code = main(argv + ["--p_count", "7026", "--out", str(tmp_path)])
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
        keys = {"tmax": "1", "steps": "10", key: value}  # a repeated flag is an error of its own
        argv = ["billiard2d", "--geometry", "circle"] + [arg for k, v in keys.items() for arg in (f"--{k}", v)]
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

    def test_high_momentum_circle_keeps_a0_at_most_one(self, tmp_path):
        # a 128 x 256 disk quadrature wrote A(0) = 1.9997 here: it cannot
        # resolve J_m(k r) at k ~ 300
        argv = ["billiard2d", "--geometry", "circle", "--x0", "0.5", "--p0x", "300", "--m_cap", "59",
                "--nr_cap", "200", "--tmax", "0.001", "--steps", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        t, re, im, abs2 = np.loadtxt(tmp_path / "autocorr2d.csv", delimiter=",", skiprows=1)[0]
        assert t == 0.0 and im == 0.0
        assert 0.999 < re <= 1.0 and abs2 <= 1.0

    @pytest.mark.parametrize("geometry", ["circle", "square", "equilateral"])
    @pytest.mark.parametrize("p0x", ["1e3", "1e300"])
    def test_packet_outside_the_basis_exits_three(self, tmp_path, geometry, p0x):
        # every coefficient is zero at this momentum: the run wrote A(t) = 0
        # with exit 0 (at 1e300 after numpy overflow warnings). Run as a
        # process to see stderr
        src = os.path.dirname(os.path.dirname(revival.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        x0, y0 = ("0", "0.55") if geometry == "equilateral" else ("0.3", "0.4")
        argv = ["billiard2d", "--geometry", geometry, "--x0", x0, "--y0", y0, "--p0x", p0x] + self.TIME
        proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv, "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numeric error: no coefficient is nonzero and finite")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "autocorr2d.csv").exists()

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

    def test_point_hole_ring_runs_silently(self, tmp_path):
        # Y_m of the inner argument overflows from m = 14 on at f = 1e-30,
        # and Y_1 itself at a subnormal f; run as a process to see its real
        # stderr
        src = os.path.dirname(os.path.dirname(revival.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for f in ("1e-30", "2.2e-309"):
            argv = ["billiard2d", "--geometry", "annulus", "--f", f] + self.TIME
            proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv, "--out", str(tmp_path / f)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0 and proc.stderr == "", (f, proc.stderr)
            assert len((tmp_path / f / "levels.csv").read_text().splitlines()) == 1 + 33 * 31

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


class TestSeriesContract:
    AUTOCORR = ["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1"]
    OBSERVABLES = ["observables", "--tmax", "1"]

    @pytest.mark.parametrize(
        "argv, key, value",
        [(AUTOCORR, "steps", "-5"), (AUTOCORR, "steps", "0"),
         (OBSERVABLES, "steps", "-3"), (OBSERVABLES, "steps", "0"),
         (OBSERVABLES + ["--steps", "10"], "L", "0"), (OBSERVABLES + ["--steps", "10"], "L", "-1"),
         (OBSERVABLES + ["--steps", "10"], "dx0", "0")],
    )
    def test_out_of_range_exits_two(self, tmp_path, capsys, argv, key, value):
        assert main(argv + [f"--{key}", value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "Traceback" not in err

    CASE_A = ["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--steps", "10"]
    ROTOR = ["autocorr", "--model", "rotor", "--n0", "10", "--dn", "2", "--tmax", "1", "--steps", "10"]
    BEC = ["bec", "--alpha_re", "4"]

    @pytest.mark.parametrize(
        "argv, key, value",
        [(CASE_A, "tmax", "0"), (CASE_A, "tmax", "-1"), (ROTOR, "inertia", "0"),
         (["spectrum", "--model", "rotor", "--n0", "10"], "inertia", "-1"),
         (BEC, "u0", "0"), (BEC, "u0", "-0.0"),
         (["billiard2d", "--geometry", "square", "--steps", "10"], "tmax", "0")],
    )
    def test_nonphysical_values_exit_two(self, tmp_path, capsys, argv, key, value):
        assert main(argv + [f"--{key}", value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [ROTOR + ["--inertia", "1e-320"],
         ["spectrum", "--model", "pendulum", "--inertia", "1e-320", "--n0", "5"]],
        ids=["autocorr_rotor", "spectrum_pendulum"],
    )
    def test_overflowing_energy_scale_exits_three(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "non-finite energy scale" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "nbar, coupling",
        [("1e-300", "1e300"), ("50", "1e-300")],
        ids=["coupling_squared_overflows", "coupling_squared_underflows"],
    )
    def test_extreme_jc_coupling_exits_zero(self, tmp_path, nbar, coupling):
        # the revival time squared the coupling: an OverflowError (exit 1,
        # after jc.csv was written) or a zero divisor. Run as a process to
        # see stderr
        src = os.path.dirname(os.path.dirname(revival.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["jc", "--nbar", nbar, "--coupling", coupling, "--steps", "3", "--out", str(tmp_path)]
        proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        meta = dict(line.split(" = ") for line in (tmp_path / "jc.meta.txt").read_text().splitlines())
        assert math.isfinite(float(meta["t_revival"]))

    def test_negative_u0_still_runs(self, tmp_path):
        assert main(self.BEC + ["--u0", "-1", "--out", str(tmp_path)]) == 0

    def test_huge_tmax_prints_nothing(self, tmp_path):
        # products of omega and t near 1.7e308 overflow the Dekker split;
        # they take the exact tail silently. Run as a process to see stderr
        src = os.path.dirname(os.path.dirname(revival.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["autocorr", "--model", "bouncer_airy", "--n0", "400", "--dn", "2",
                "--tmax", "1.7e308", "--steps", "10", "--out", str(tmp_path)]
        proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows = (tmp_path / "autocorr.csv").read_text().splitlines()[1:]
        assert len(rows) == 11
        assert all(float(r.split(",")[3]) <= 1.0 + 1e-12 for r in rows)


class TestModelKeys:
    """A model reads only its own keys, `anti` only the box's, and `jc` has
    no detuning key: anything else exits 2 before the out dir is made."""

    CASE_A = ["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1", "--steps", "10"]
    WELL = ["autocorr", "--model", "well", "--n0", "40", "--dn", "3", "--tmax", "1", "--steps", "10"]

    @pytest.mark.parametrize(
        "argv, key",
        [(CASE_A + ["--alpha", "0.5"], "alpha"), (CASE_A + ["--omega", "7"], "omega"),
         (["spectrum", "--model", "well", "--n0", "5", "--F", "2"], "F"),
         (CASE_A + ["--anti", "1"], "anti"), (WELL + ["--anti", "7"], "anti"),
         (["jc", "--nbar", "5", "--coupling", "1", "--steps", "10", "--detuning", "0.5"], "detuning")],
        ids=["unread_alpha", "unread_omega", "spectrum_unread_F", "anti_without_box", "anti_not_0_or_1",
             "jc_detuning"],
    )
    def test_rejected_input_exits_two_with_nothing_written(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_unread_key_in_a_config_file_exits_two(self, tmp_path):
        path = write_config(tmp_path, "model = caseA\nn0 = 400\ndn = 6\ntmax = 1\nsteps = 10\nbeta = 0.1\n")
        with pytest.raises(ConfigError, match="'beta' is not read by model 'caseA'"):
            parse_config(path, "autocorr", str(tmp_path / "out"))

    def test_sidecar_lists_only_the_keys_the_model_reads(self, tmp_path):
        assert main(self.CASE_A + ["--out", str(tmp_path / "a")]) == 0
        keys = {line.split(" = ")[0] for line in (tmp_path / "a" / "autocorr.meta.txt").read_text().splitlines()}
        assert "model" in keys and "alpha" not in keys and "omega" not in keys
        argv = ["spectrum", "--model", "anharmonic", "--n0", "5", "--beta", "1e-5"]
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        meta = (tmp_path / "b" / "spectrum.meta.txt").read_text()
        assert "alpha = 0.00125\nbeta = 1.0000000000000001e-05\n" in meta and "\nL = " not in meta


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


class TestSchemaBounds:
    @pytest.mark.parametrize(
        "argv, key, value",
        [(["jc", "--nbar", "5", "--coupling", "1"], "steps", "-4"),
         (["jc", "--nbar", "5", "--coupling", "1"], "steps", "0"),
         (["jc", "--nbar", "5", "--coupling", "1"], "tau_max", "0"),
         (["jc", "--nbar", "5", "--coupling", "1"], "tau_max", "-2"),
         (["spectrum", "--model", "well", "--n0", "10"], "L", "-1"),
         (["spectrum", "--model", "well", "--n0", "10"], "L", "0"),
         (["spectrum", "--model", "harmonic", "--n0", "10"], "omega", "0"),
         (["spectrum", "--model", "harmonic", "--n0", "10"], "omega", "-1"),
         (["autocorr", "--model", "harmonic", "--n0", "10", "--dn", "2", "--tmax", "1",
           "--steps", "10"], "omega", "-1"),
         (["spectrum", "--model", "bouncer_airy", "--n0", "10"], "F", "-1"),
         (["autocorr", "--model", "bouncer_wkb", "--n0", "10", "--dn", "2", "--tmax", "1",
           "--steps", "10"], "F", "0"),
         (["carpet"], "n0", "-5"),
         (["carpet"], "n0", "0"),
         (["spectrum", "--model", "caseA", "--n0", "10"], "n_max", "-3"),
         (["spectrum", "--model", "caseA", "--n0", "10"], "n_min", "-1"),
         (["jc", "--nbar", "5"], "coupling", "0"),
         (["jc", "--coupling", "1"], "nbar", "-1"),
         (["fractional", "--p", "1"], "q", "0"),
         (["fractional", "--q", "3"], "p", "0"),
         (["bec", "--alpha_re", "4", "--u0", "1"], "grid_count", "1"),
         (["autocorr", "--model", "caseA", "--n0", "400", "--tmax", "1", "--steps", "10"], "dn", "0"),
         (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1",
           "--steps", "10"], "cutoff", "2"),
         (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1",
           "--steps", "10"], "cutoff", "0"),
         (["carpet"], "L", "0"),
         (["carpet"], "dx0", "0"),
         (["carpet"], "x_count", "10"),
         (["carpet"], "t_count", "63"),
         # 0 means auto for these four; a negative value is a mistake
         (["bec", "--alpha_re", "4", "--u0", "1"], "n_cap", "-3"),
         (["bec", "--alpha_re", "4", "--u0", "1"], "half_span", "-1"),
         (["carpet"], "n_max", "-4"),
         (["carpet"], "t_hi", "-1"),
         (["autocorr", "--model", "caseA", "--dn", "6", "--tmax", "1", "--steps", "10"], "n0", "0"),
         (["autocorr", "--model", "caseA", "--dn", "6", "--tmax", "1", "--steps", "10"], "n0", "-5"),
         # |beta|^2 overflows past ~1e154
         (["bec", "--alpha_re", "4", "--u0", "1"], "half_span", "1e200"),
         # 7.28 TiB of levels before the window; the default steps take ~100 s below the bound
         (["jc", "--coupling", "1"], "nbar", "1e12"),
         (["jc", "--coupling", "1"], "nbar", "1e8"),
         # the size keys: 8192^2 carpet PGMs take ~7 s, a 1024^2 bec grid ~2 s
         (["carpet"], "x_count", "100000"),
         (["carpet"], "t_count", "100000"),
         (["carpet"], "x_count", "8193"),
         (["carpet"], "t_count", "8193"),
         (["bec", "--alpha_re", "4", "--u0", "1"], "grid_count", "100000"),
         (["bec", "--alpha_re", "4", "--u0", "1"], "grid_count", "1025"),
         # the streamed series and tables: 10^6 steps take up to ~54 s, a
         # 10^6-point Gauss-sum table ~3 s, a 1024-label-cap triangle ~86 s
         (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1"], "steps", "1000001"),
         (["observables", "--tmax", "1"], "steps", "1000001"),
         (["jc", "--nbar", "5", "--coupling", "1"], "steps", "1000001"),
         (["billiard2d", "--geometry", "square", "--tmax", "1"], "steps", "1000001"),
         (["spectrum", "--model", "caseA", "--n0", "10"], "n_max", "1000001"),
         (["fractional", "--p", "1"], "q", "1000001"),
         (["billiard2d", "--geometry", "square", "--tmax", "1", "--steps", "10"], "m_cap", "1025"),
         (["billiard2d", "--geometry", "equilateral", "--tmax", "1", "--steps", "10"], "m_cap", "1025"),
         (["billiard2d", "--geometry", "annulus", "--tmax", "1", "--steps", "10"], "nr_cap", "201"),
         (["wigner"], "x_count", "8193"),
         (["wigner"], "p_count", "8193"),
         # abs() of an alpha with parts this large raises OverflowError
         (["bec", "--alpha_re", "4", "--u0", "1"], "alpha_im", "1.7e308"),
         (["bec", "--u0", "1"], "alpha_re", "-1.7e308")],
    )
    def test_out_of_range_exits_two(self, tmp_path, capsys, argv, key, value):
        assert main(argv + [f"--{key}", value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


class TestArgvErrors:
    # argv the config file's fail-closed rules turn away too; a NUL in a
    # path reaches only the Python entry point, as a shell cannot pass one
    @pytest.mark.parametrize(
        "argv, message",
        [(["fractional", "--config", "a\x00b", "--out", "OUT"], "embedded null byte"),
         (["fractional", "--p", "1", "--q", "3", "--out", "OUT\x00b"], "cannot hold a NUL"),
         (["fractional", "--config", "LATIN1", "--out", "OUT"], "can't decode byte 0xe9"),
         (["fractional", "--p", "1", "--q", "3", "--p", "2", "--out", "OUT"], "flag '--p' given twice"),
         (["fractional", "--config", "LATIN1", "--config", "LATIN1", "--out", "OUT"],
          "flag '--config' given twice"),
         (["fractional", "--p", "1", "--q", "3", "--out", "OUT", "--out", "OUT"], "flag '--out' given twice"),
         (["--version"], "unknown command '--version'"),
         (["nope", "--p", "1"], "unknown command 'nope'")],
        ids=["config_nul", "out_nul", "config_not_utf8", "repeated_flag", "repeated_config", "repeated_out",
             "flag_as_command", "unknown_command_before_out"],
    )
    def test_exits_two_with_one_line(self, tmp_path, capsys, argv, message):
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"p = 1\nq = 3\n# caf\xe9\n")
        out = tmp_path / "out"
        argv = [arg.replace("OUT", str(out)).replace("LATIN1", str(latin1)) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and err.count("\n") == 1, err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["autocorr", "--model", "rotor", "--inertia", "1e-306", "--n0", "10", "--dn", "2",
       "--tmax", "1", "--steps", "4"], "overflows"),
     (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1e301",
       "--steps", "4"], "overflows"),
     (["spectrum", "--model", "rotor", "--inertia", "1e-306", "--n0", "10"], "not finite"),
     # a level window past index 2^53 (a Python int overflowing int64, a size
     # numpy refuses, indices float64 cannot hold exactly) or past 1 GiB
     (["autocorr", "--model", "caseA", "--n0", "1e300", "--dn", "2", "--tmax", "1", "--steps", "4"],
      "not exact"),
     (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "1e200", "--tmax", "1", "--steps", "4"],
      "not exact"),
     (["autocorr", "--model", "caseA", "--n0", "1e17", "--dn", "2", "--tmax", "1", "--steps", "4"],
      "not exact"),
     (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "1e12", "--tmax", "1", "--steps", "4"],
      "GiB"),
     # cycle phases past their exact range: levels whose n^2 passes 2^53
     # (|A(800)|^2 read 0.9999999999999933 against 1.9e-33 from mpmath), and q*t
     # products from 2^65 cycles on (an error of 0.17 at t = 1e30)
     (["autocorr", "--model", "caseA", "--n0", "1e8", "--dn", "6", "--tmax", "800", "--steps", "2"],
      "not exact"),
     (["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1e30", "--steps", "2"],
      "not exact"),
     (["wigner", "--t", "1e30"], "not exact"),
     # the automatic bec ladder, |alpha|^2 + 10 |alpha| + 20 levels, past its
     # 1e5-level cap (1e12 levels, 7.28 TiB, at alpha 1e6), and an explicit one
     (["bec", "--alpha_re", "1e6", "--u0", "1"], "ladder levels"),
     (["bec", "--alpha_re", "1e200", "--u0", "1"], "ladder levels"),
     (["bec", "--alpha_re", "4", "--u0", "1", "--n_cap", "1000000000000"], "ladder levels"),
     # a box packet whose mode count L / (2 pi dx0) overflows to inf
     (["carpet", "--x0", "1e-8", "--dx0", "5e-324", "--n0", "2"], "infinite mode count"),
     (["carpet", "--L", "1e154", "--x0", "1e-300", "--dx0", "1e-300"], "infinite mode count"),
     (["wigner", "--L", "1.7e308", "--t", "1", "--x_count", "65", "--p_count", "64", "--format", "pgm"],
      "infinite mode count"),
     (["observables", "--L", "1.7e308", "--n0", "1e-30", "--tmax", "5e-324", "--steps", "1"],
      "infinite mode count"),
     # an infinite level frequency 2 sqrt(n) coupling reaches the phase reduction
     (["jc", "--nbar", "1e-8", "--coupling", "1.7e308", "--tau_max", "1e5"], "finite frequency"),
     # tau_max pi / coupling overflows before the grid is formed
     (["jc", "--nbar", "0", "--coupling", "40", "--tau_max", "1.7e308"], "time grid must be finite"),
     # t_over_trev t_revival overflows: the condensate phases would be NaN
     (["bec", "--alpha_re", "5e-324", "--u0", "0.001", "--t_over_trev", "1.7e308", "--half_span", "40",
       "--grid_count", "3"], "not finite"),
     # a subnormal packet width: its PGM maxima would not scale to 16 bits
     (["carpet", "--dx0", "5e-324", "--n_max", "2"], "infinite mode count"),
     (["carpet", "--dx0", "1e-305", "--n_max", "2"], "do not scale to 16 bits"),
     # so long a box that the revival time, and so the default time axis, is inf
     (["carpet", "--L", "1e154", "--x_count", "64", "--t_count", "64", "--n_max", "1"], "axis t needs finite"),
     # the series fails on a grid that rounds to repeated times: no levels table is left either
     (["billiard2d", "--geometry", "circle", "--m_cap", "1", "--nr_cap", "0", "--tmax", "5e-324",
       "--steps", "2"], "strictly increasing"),
     # a subnormal width overflows the triangle's Gaussian prefactor (inf * 0 warned, then NaN)
     (["billiard2d", "--geometry", "equilateral", "--y0", "0.5", "--dx0", "5e-324", "--m_cap", "2",
       "--tmax", "1", "--steps", "1"], "too narrow")],
    ids=["autocorr_rotor", "autocorr_huge_tmax", "spectrum_rotor", "autocorr_huge_n0", "autocorr_huge_dn",
         "autocorr_inexact_n0", "autocorr_huge_window", "autocorr_inexact_square", "autocorr_inexact_cycles",
         "wigner_inexact_cycles", "bec_huge_alpha", "bec_overflowing_alpha",
         "bec_huge_n_cap", "carpet_subnormal_dx0", "carpet_huge_L", "wigner_huge_L", "observables_huge_L",
         "jc_infinite_frequency", "jc_infinite_grid", "bec_infinite_time", "carpet_subnormal_max",
         "carpet_tiny_max", "carpet_infinite_time_axis", "billiard2d_repeated_times",
         "billiard2d_subnormal_triangle_width"],
)
def test_overflowing_energies_exit_three_silently(tmp_path, argv, message):
    # run as a process to see the real stderr: one error line, no warnings,
    # and no artifact written. The child's address space is capped at 1 GiB
    # (about 180 MB is mapped by a normal run), so an attempt at a huge
    # allocation exits 1, not 3
    src = os.path.dirname(os.path.dirname(revival.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric error:") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not any(out.iterdir())


# Each run below tried a multi-GiB allocation and exited 1: np.linspace
# for 10^9 steps or grid points, the spectrum's index array, the (l x l)
# Gauss-sum phase table, the polygon label tables and the annulus root
# table. Each child runs under a 1 GiB address-space cap, so such an
# attempt would exit 1 again.
@pytest.mark.parametrize(
    "argv, code",
    [(["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1",
       "--steps", "1000000000"], 2),
     (["observables", "--tmax", "1", "--steps", "1000000000"], 2),
     (["jc", "--nbar", "5", "--coupling", "1", "--steps", "1000000000"], 2),
     (["billiard2d", "--geometry", "square", "--x0", "0.3", "--y0", "0.4", "--tmax", "1",
       "--steps", "1000000000"], 2),
     (["spectrum", "--model", "caseA", "--n0", "10", "--n_max", "1000000000"], 2),
     (["fractional", "--p", "1", "--q", "100000"], 0),
     (["billiard2d", "--geometry", "square", "--x0", "0.3", "--y0", "0.4", "--m_cap", "100000",
       "--tmax", "1", "--steps", "10"], 2),
     (["billiard2d", "--geometry", "equilateral", "--y0", "0.55", "--m_cap", "100000",
       "--tmax", "1", "--steps", "10"], 2),
     (["billiard2d", "--geometry", "annulus", "--nr_cap", "1000000000000", "--tmax", "1",
       "--steps", "10"], 2),
     (["wigner", "--x_count", "1000000000000"], 2),
     # a plain box of length 1e5 has 2.9M modes: (N, N) operator tables of 61 TiB
     (["observables", "--L", "1e5", "--tmax", "1", "--steps", "1"], 3)],
    ids=["autocorr_steps", "observables_steps", "jc_steps", "billiard2d_steps", "spectrum_n_max",
         "fractional_q", "square_m_cap", "equilateral_m_cap", "annulus_nr_cap", "wigner_x_count",
         "observables_operator_tables"],
)
def test_huge_sizes_exit_without_allocating(tmp_path, argv, code):
    src = os.path.dirname(os.path.dirname(revival.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "revival.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith({2: "config error:", 3: "numeric error:"}[code])
        assert proc.stderr.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())
    else:
        assert proc.stderr == ""


class TestStreamedSeries:
    """The CLI writes its time series block by block; the bytes are those
    of the library's whole-grid result on np.linspace."""

    GRIDS = (2, 637, 4096, 4097, 64001)
    SERIES = {
        "autocorr_caseA": ["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1600"],
        # ~95 % of the products take the exact far-phase reduction
        "autocorr_bouncer": ["autocorr", "--model", "bouncer_airy", "--n0", "20", "--dn", "2",
                             "--tmax", "1e8"],
        "autocorr_anti": ["autocorr", "--model", "well", "--n0", "40", "--dn", "3", "--tmax", "3",
                          "--anti", "1"],
        "jc": ["jc", "--nbar", "50", "--coupling", "1"],
        # 1,075 levels: two level blocks of the phase sum
        "jc_two_blocks": ["jc", "--nbar", "2000", "--coupling", "1"],
        "billiard2d": ["billiard2d", "--geometry", "square", "--x0", "0.3", "--y0", "0.4", "--p0x", "20",
                       "--p0y", "10", "--m_cap", "8", "--tmax", "10"],
    }

    @pytest.mark.parametrize("num", GRIDS)
    @pytest.mark.parametrize("case", list(SERIES))
    def test_series_equal_library_csv(self, tmp_path, monkeypatch, case, num):
        seen = []
        original = cli._write_series
        monkeypatch.setattr(cli, "_write_series", lambda *args: (seen.append(args), original(*args)))
        assert main(self.SERIES[case] + ["--steps", str(num - 1), "--out", str(tmp_path)]) == 0
        path, stop, steps, series = seen[0]
        series(np.linspace(0.0, stop, steps + 1)).to_csv(tmp_path / "want.csv")
        assert open(path, "rb").read() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("num", GRIDS)
    def test_observables_equal_library_csv(self, tmp_path, monkeypatch, num):
        seen = []
        original = wavefields.observables

        def keep(c, basis, t):
            seen.append((c, basis))
            return original(c, basis, t)

        monkeypatch.setattr(wavefields, "observables", keep)
        argv = ["observables", "--n0", "40", "--dx0", "0.1", "--tmax", "0.3", "--steps", str(num - 1)]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        c, basis = seen[0]
        obs = original(c, basis, np.linspace(0.0, 0.3, num))
        columns = (obs.times, obs.mean_x, obs.sd_x, obs.mean_p, obs.sd_p)
        serialize.write_csv(tmp_path / "want.csv", "t,mean_x,sd_x,mean_p,sd_p\n", ",".join(["%.17g"] * 5) + "\n",
                            columns)
        assert (tmp_path / "observables.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_peak_memory_is_flat_in_steps(self, tmp_path):
        # the bench's caseA series at its 64,000 steps and at 10^6: only
        # fixed-size blocks are held, never a grid-length array (a 10^6-row
        # complex series alone would take 16 MB)
        peaks = []
        for steps in ("64000", "1000000"):
            sc = build_scenario("autocorr", {"model": "caseA", "n0": "400", "dn": "6", "tmax": "1600",
                                             "steps": steps}, str(tmp_path / steps))
            tracemalloc.start()
            try:
                run(sc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_spectrum_rows_stream(self, tmp_path):
        # 10,000 levels: three blocks of rows
        argv = ["spectrum", "--model", "caseA", "--n0", "10", "--n_max", "10000"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        s = cli._spectrum({"model": "caseA"})
        ns = np.arange(int(s.ground_index), 10001)
        serialize.write_csv(tmp_path / "want.csv", "n,energy\n", "%d,%.17g\n",
                            (ns, revival.spectra.eval_energy(s, ns)))
        assert (tmp_path / "spectrum.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_failing_block_leaves_no_file(self, tmp_path, capsys):
        # rotor energies n^2 / (2 I) overflow from n ~ 4243 on, in the
        # second block of rows: exit 3 and no partial table
        argv = ["spectrum", "--model", "rotor", "--inertia", "5e-302", "--n0", "10", "--n_max", "10000"]
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "not finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestStreamedGrids:
    """The CLI writes its Wigner and condensate grids block by block of
    grid rows; the bytes are those of the library grid's to_csv."""

    @pytest.mark.parametrize(
        "args",
        [{}, {"x_count": "100", "p_count": "257", "t": "0.013"}, {"x_count": "150", "p_count": "64"}],
        ids=["256x256", "100x257_t", "150x64"],
    )
    def test_wigner_csv_equals_library_csv(self, tmp_path, monkeypatch, args):
        # odd and small p counts: the row blocks do not line up with BLOCK_ROWS
        seen = []
        original = wavefields.write_wigner_csv
        monkeypatch.setattr(wavefields, "write_wigner_csv", lambda *a: (seen.append(a), original(*a)))
        run(build_scenario("wigner", args, str(tmp_path)))
        *grid, path = seen[0]
        wavefields.wigner_infinite_well(*grid).to_csv(tmp_path / "want.csv")
        assert open(path, "rb").read() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize(
        "args",
        [{"alpha_re": "4", "grid_count": "31"}, {"alpha_re": "4"},
         # n_cap 953: the Horner recurrence rescales, so blocks that took
         # their own cadence from their own |beta| would move bits
         {"alpha_re": "25", "alpha_im": "7", "half_span": "60", "grid_count": "151"}],
        ids=["31", "201", "rescaling"],
    )
    def test_bec_csv_equals_library_csv(self, tmp_path, monkeypatch, args):
        seen = []
        original = analogs.write_bec_csv
        monkeypatch.setattr(analogs, "write_bec_csv", lambda *a: (seen.append(a), original(*a)))
        run(build_scenario("bec", {"u0": "1", **args}, str(tmp_path)))
        *grid, path = seen[0]
        analogs.bec_overlap_grid(*grid).to_csv(tmp_path / "want.csv")
        assert open(path, "rb").read() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["bec", "--alpha_re", "4", "--u0", "1", "--grid_count", "1024"],
         ["wigner", "--x_count", "4096", "--p_count", "64"]],
        ids=["bec_1024", "wigner_4096x64"],
    )
    def test_peak_memory_at_scale(self, tmp_path, argv):
        # measured peaks (CPython 3.11, numpy 2.4): 1.1 MiB (bec) and 1.9 MiB
        # (wigner) in row blocks, 101 MiB and 58 MiB with the whole grids
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 << 20, peak

    def test_narrow_carpet_runs_past_its_table_budget(self, tmp_path, monkeypatch):
        # a 579-mode packet on 8192 x samples: a whole (mode, x) table at
        # 48 B per cell (4.7M cells, 217 MiB) passes a 128 MiB cap, which
        # refused the run, while its column blocks fit. At the 1 GiB cap the
        # same holds for --dx0 0.0001, 14,683 modes (a 9 s run)
        monkeypatch.setattr(errors, "WORK_MAX_BYTES", 128 << 20)
        argv = ["carpet", "--dx0", "0.005", "--x_count", "8192", "--t_count", "64"]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 << 20, peak  # measured: 29.5 MiB

# in-range values of the contract test and the schema fuzzer below, by key
# and by command; the ranges keep each run small
_MODEL_VALUES = {"alpha": st.floats(-0.01, 0.01), "beta": st.floats(-1e-4, 1e-4), "L": st.floats(0.5, 2.0),
                 "F": st.floats(0.5, 2.0), "inertia": st.floats(0.5, 2.0), "V0": st.floats(0.0, 50.0),
                 "omega": st.floats(0.5, 2.0)}
_BOX_VALUES = {"L": st.floats(0.5, 2.0), "n0": st.floats(1.0, 60.0), "x0": st.floats(0.0, 1.0),
               "dx0": st.floats(0.04, 0.1)}
_CONTRACT_VALUES = {
    "spectrum": {"n0": st.floats(0.0, 60.0), "n_min": st.integers(0, 30), "n_max": st.integers(0, 300)},
    "autocorr": {"n0": st.floats(1.0, 60.0), "dn": st.floats(0.5, 6.0),
                 "cutoff": st.floats(1e-12, 0.5), "tmax": st.floats(0.0, 100.0), "steps": st.integers(1, 50),
                 "anti": st.integers(0, 1)},
    "fractional": {"p": st.integers(1, 40), "q": st.integers(1, 3000)},
    "carpet": {**_BOX_VALUES, "x_count": st.integers(64, 96), "t_count": st.integers(64, 96),
               "t_hi": st.floats(0.0, 0.1), "n_max": st.integers(0, 120)},
    "wigner": {**_BOX_VALUES, "t": st.floats(0.0, 0.1), "x_count": st.integers(2, 40),
               "p_count": st.integers(2, 40), "p_span": st.floats(0.0, 500.0),
               "format": st.sampled_from(["csv", "pgm"])},
    "observables": {**_BOX_VALUES, "n0": st.floats(-60.0, 60.0), "tmax": st.floats(-0.1, 0.1),
                    "steps": st.integers(1, 50)},
    "jc": {"nbar": st.floats(0.0, 200.0), "coupling": st.floats(0.1, 2.0), "tau_max": st.floats(0.0, 10.0),
           "steps": st.integers(1, 50)},
    "bec": {"alpha_re": st.floats(-4.0, 4.0), "alpha_im": st.floats(-4.0, 4.0), "u0": st.floats(-2.0, 2.0),
            "t_over_trev": st.floats(0.0, 1.0), "half_span": st.floats(0.0, 8.0),
            "grid_count": st.integers(2, 24), "n_cap": st.integers(0, 300)},
}


# Each example sets every required key and some optional ones to values
# from the ranges above, and at most one key to an edge value that the
# checks must turn away or handle; the runs share the test process, so no
# drawn value may ask for a large allocation.
_CONTRACT_EDGES = st.one_of(st.sampled_from([-1, 0, 10**12]),
                            st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, -1e300]), st.just("x"))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@pytest.mark.parametrize("command", sorted(_CONTRACT_VALUES))
def test_contract_holds_for_any_values(command, data):
    # billiard2d has its own test above; together they cover all nine commands
    values = _CONTRACT_VALUES[command]
    argv = [command]
    if command in ("spectrum", "autocorr"):
        # the model first, then only the keys it reads (anti only for the box):
        # any other model key exits 2 before the physics
        model = data.draw(st.sampled_from(sorted(cli._SPECTRA)), label="model")
        argv += ["--model", model]
        values = {**{key: _MODEL_VALUES[key] for key in cli._SPECTRA[model][1]}, **values}
        if model != "well":
            values = {key: strategy for key, strategy in values.items() if key != "anti"}
    edge = data.draw(st.sampled_from([None, *values]), label="edge key")
    schema, _ = cli._COMMAND_TABLE[command]
    for key, strategy in values.items():
        if schema[key][1] is cli._REQUIRED or key == edge or data.draw(st.booleans()):
            if key == edge:
                strategy = _CONTRACT_EDGES
            argv += [f"--{key}", str(data.draw(strategy, label=key))]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv + ["--out", out])
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# The schema fuzzer: for any command, every key the run reads is set with
# probability 1/2 (required and size keys always). Each example draws how
# often its values come from the edges below, one in sixteen or one in three
# (float keys take the integer size edges too); the others come from inside
# the key's range: the _CONTRACT_VALUES and _BILLIARD_VALUES strategies for
# floats (the billiard's size, f, dx0 and tmax as often any finite float),
# and for size keys small counts only, so each accepted run is small. The
# runs share the test process: the work budget is lowered to 64 MiB for
# them, so that a run the budget admits stays small too.
_INT_EDGES = (-1, 0, 10**12)
_EDGE_SIZES = (*_INT_EDGES, "0.5")
_EDGE_FLOATS = (0.0, -0.0, -1.0, -400.0, -1e300, 5e-324, 1e-300, 1e-30, 1e-8, 0.001, 0.3, 0.5, 0.999,
                1.0, 2.0, 7.0, 40.0, 400.0, 1e5, 1e8, 1e15, 1e154, 1e300, 1.7e308, "nan", "x", *_INT_EDGES)
_SIZE_POOLS = {
    "steps": (1, 2, 7, 40), "n_max": (0, 1, 7, 300), "n_min": (0, 1, 30), "q": (1, 2, 7, 101, 3000),
    "p": (1, 3, 40), "x_count": (2, 3, 40), "t_count": (64, 65, 96), "p_count": (2, 3, 40),
    "grid_count": (2, 3, 24), "n_cap": (0, 1, 7, 300), "m_cap": (1, 2, 4, 8), "nr_cap": (0, 1, 2, 4),
}
_CARPET_SIZES = {"x_count": (64, 65, 96)}
_CHOICES = {"geometry": ("square", "equilateral", "circle", "annulus"), "format": ("csv", "pgm"), "anti": (0, 1)}
_BILLIARD_VALUES = {"size": _signed(0.5, 2.0), "f": _signed(0.05, 0.95), "x0": st.floats(-1.0, 1.0),
                    "y0": st.floats(-1.0, 1.0), "p0x": st.floats(-30.0, 30.0), "p0y": st.floats(-30.0, 30.0),
                    "dx0": _signed(0.01, 0.1), "tmax": _signed(0.0, 20.0)}


def _fuzz_value(data, command: str, key: str, rate: int):
    edge = data.draw(st.integers(1, rate), label=f"{key} pool") == 1
    if key in _SIZE_POOLS:
        pool = {**_SIZE_POOLS, **(_CARPET_SIZES if command == "carpet" else {})}[key]
        return data.draw(st.sampled_from(_EDGE_SIZES if edge else pool), label=key)
    if key in _CHOICES:
        return data.draw(st.sampled_from(_EDGE_SIZES if edge else _CHOICES[key]), label=key)
    in_range = {**_MODEL_VALUES, **_BILLIARD_VALUES, **_CONTRACT_VALUES.get(command, {})}[key]
    return data.draw(st.sampled_from(_EDGE_FLOATS) if edge else in_range, label=key)


def _artifact_values(path) -> list[float]:
    """The numbers of a CSV (every cell that parses as a float) or the
    maximum each PGM records in its header."""
    with open(path, "rb") as fh:
        if fh.read(2) == b"P5":
            return [float(fh.read(1024).split(b"# max=")[1].split(b"\n")[0])]
    values = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            for cell in line.strip().split(","):
                with contextlib.suppress(ValueError):
                    values.append(float(cell))
    return values


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_schema_fuzzer_holds_the_cli_contract(data):
    command = data.draw(st.sampled_from(sorted(cli._COMMAND_TABLE)), label="command")
    schema, _ = cli._COMMAND_TABLE[command]
    argv, keys = [command], list(schema)
    rate = data.draw(st.sampled_from([16, 3]), label="one edge value in")
    if "model" in schema:  # only the keys the model reads: any other exits 2 at once
        model = data.draw(st.sampled_from(sorted(cli._SPECTRA)), label="model")
        argv += ["--model", model]
        keys = [key for key in keys if key not in cli._MODEL_KEYS or key in cli._SPECTRA[model][1]]
    for key in keys:
        if schema[key][1] is cli._REQUIRED or key in _SIZE_POOLS or data.draw(st.booleans(), label=f"set {key}"):
            argv += [f"--{key}", str(_fuzz_value(data, command, key, rate))]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(errors, "WORK_MAX_BYTES", 64 << 20)
        out = os.path.join(tmp, "out")
        code = main(argv + ["--out", out])
        files = sorted(os.listdir(out)) if os.path.isdir(out) else []
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        if code:
            assert files == [], (argv, code, files)
        else:
            for name in files:
                if not name.endswith(".meta.txt"):
                    assert np.all(np.isfinite(_artifact_values(os.path.join(out, name)))), (argv, name)
