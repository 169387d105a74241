"""What each process loads: the package resolves its exports and
submodules on first access, and each CLI command imports only the
modules it runs (specfun only on the Airy and Bessel paths); usage,
argument errors and build_scenario load no numpy. The CLI also sets OpenBLAS's idle timeout before numpy loads, so no BLAS worker
spins through start-up."""

import importlib
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import revival

SRC = os.path.dirname(os.path.dirname(revival.__file__))

# the command modules: `import revival.cli` alone loads none of them
COMMAND_MODULES = {"analogs", "billiards", "dynamics", "fractional", "packets", "specfun", "spectra",
                   "wavefields"}


def _loaded(code: str) -> tuple[set[str], object]:
    """The revival submodules a fresh interpreter holds after `code`, plus
    "numpy" when numpy is loaded, and the JSON line the code printed (None
    when it prints nothing)."""
    probe = (code + "\nimport json, sys\n"
             "loaded = {m[8:] for m in sys.modules if m.startswith('revival.')} | {'numpy'} & set(sys.modules)\n"
             "print(json.dumps(sorted(loaded)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return set(json.loads(lines[-1])), (json.loads(lines[-2]) if len(lines) > 1 else None)


def _run_cli(argv: list[str], out) -> tuple[set[str], object]:
    code = ("import json, contextlib, io, revival.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    rc = revival.cli.main({argv + ['--out', str(out)]!r})\n"
            "print(json.dumps(rc))")
    return _loaded(code)


def test_cli_import_loads_no_command_module():
    modules, _ = _loaded("import revival.cli")
    assert modules == {"cli", "errors"}


@pytest.mark.parametrize(
    "argv, rc",
    [(["--help"], 0), (["fractional", "--help"], 0), (["autocorr", "--n0", "400"], 2),
     (["jc", "--nbar", "-1"], 2), (["fractional", "--p", "1", "--q", "3", "--p", "2"], 2), (["--version"], 2),
     (["fractional", "--config", "missing.cfg"], 2), (["fractional", "--p", "1", "--q", "3"], 4)],
    ids=["help", "command_help", "missing_key", "out_of_range", "repeated_flag", "unknown_command",
         "missing_config", "out_is_a_file"],
)
def test_usage_and_config_errors_load_no_command_module(tmp_path, argv, rc):
    out = tmp_path / "taken"  # a file: a run that gets as far as creating --out exits 4
    out.write_text("")
    modules, code = _run_cli(argv, out)
    assert code == rc
    assert modules == {"cli", "errors"}


# the first CLI scenario of each bench workload, which the bench's setup_s times
@pytest.mark.parametrize(
    "command, raw",
    [("autocorr", {"model": "caseA", "n0": "400", "dn": "6", "tmax": "1600", "steps": "64000"}),
     ("wigner", {}),
     ("billiard2d", {"geometry": "circle", "x0": "0.3", "p0y": "20", "tmax": "10", "steps": "4000"})],
    ids=["series", "fields", "billiards"],
)
def test_build_scenario_loads_no_numpy(tmp_path, command, raw):
    modules, _ = _loaded(f"import revival.cli\nrevival.cli.build_scenario({command!r}, {raw!r}, {str(tmp_path)!r})")
    assert modules == {"cli", "errors"}


@pytest.mark.parametrize(
    "argv, expected",
    [(["autocorr", "--model", "caseA", "--n0", "400", "--dn", "6", "--tmax", "1", "--steps", "10"],
      {"dynamics", "packets", "spectra"}),
     (["carpet", "--x_count", "64", "--t_count", "64"], {"dynamics", "packets", "spectra", "wavefields"}),
     (["fractional", "--p", "1", "--q", "7"], {"fractional"}),
     (["jc", "--nbar", "5", "--coupling", "1", "--steps", "10"],
      {"analogs", "dynamics", "packets", "spectra"}),
     (["billiard2d", "--geometry", "square", "--x0", "0.3", "--y0", "0.4", "--tmax", "1", "--steps", "10"],
      {"billiards", "dynamics", "packets", "spectra"}),
     (["billiard2d", "--geometry", "circle", "--x0", "0.3", "--tmax", "1", "--steps", "10"],
      {"billiards", "dynamics", "packets", "specfun", "spectra"}),
     (["autocorr", "--model", "bouncer_airy", "--n0", "20", "--dn", "2", "--tmax", "1", "--steps", "10"],
      {"dynamics", "packets", "specfun", "spectra"})],
    ids=["autocorr_caseA", "carpet", "fractional", "jc", "square", "circle", "autocorr_bouncer"],
)
def test_each_command_loads_what_it_runs(tmp_path, argv, expected):
    modules, rc = _run_cli(argv, tmp_path)
    assert rc == 0
    assert modules == {"cli", "errors", "serialize", "numpy"} | expected


def test_package_import_loads_no_submodule():
    modules, _ = _loaded("import revival\nassert revival.__version__")
    assert modules == set()


def test_every_export_resolves_to_its_definition():
    code = ("import json, revival\n"
            "print(json.dumps({name: getattr(revival, name).__module__ for name in revival.__all__\n"
            "                  if name != '__version__'}))")
    _, homes = _loaded(code)
    assert sorted(homes) == sorted(n for n in revival.__all__ if n != "__version__")
    for name, home in homes.items():
        assert getattr(revival, name) is getattr(importlib.import_module(home), name)


def test_star_import_and_submodule_attributes():
    code = ("from revival import *\n"
            "import revival\n"
            "assert Spectrum1D is revival.spectra.Spectrum1D\n"
            "assert revival.specfun.airy_zeros(3).shape == (3,)\n"
            "assert 'wavefields' in dir(revival) and 'TimeSeries' in dir(revival)")
    modules, _ = _loaded(code)
    assert {"spectra", "specfun", "wavefields", "dynamics"} <= modules


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        revival.nonesuch  # noqa: B018


_OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


def _blas_env(timeout: str | None = None) -> dict[str, str]:
    """A child's environment with 2 BLAS threads and OPENBLAS_THREAD_TIMEOUT
    set to `timeout`, or unset: this process set it when it imported revival.cli."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("entry", ["module", "console_script"])
def test_cli_child_does_not_spin(tmp_path, entry):
    # a spinning BLAS worker adds ~0.13 s of CPU over the wall time of this
    # BLAS-free command; a loaded machine only lowers CPU against wall
    argv = ["fractional", "--p", "1", "--q", "3", "--out", str(tmp_path)]
    if entry == "module":
        cmd = [sys.executable, "-m", "revival.cli", *argv]
    else:
        cmd = [sys.executable, "-c", f"from revival.cli import main; raise SystemExit(main({argv!r}))"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_blas_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_utime + usage.ru_stime <= wall + 0.05


@pytest.mark.parametrize("value, expected", [(None, "4"), ("28", "28")], ids=["default", "user_value"])
def test_thread_timeout_default_keeps_a_user_value(value, expected):
    proc = subprocess.run([sys.executable, "-c", "import os, revival.cli\n"
                           "print(os.environ['OPENBLAS_THREAD_TIMEOUT'], os.environ['OPENBLAS_NUM_THREADS'])"],
                          capture_output=True, text=True, timeout=120, env=_blas_env(value))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected, "2"]
