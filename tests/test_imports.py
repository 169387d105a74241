"""What each process loads: the package resolves its exports and
submodules on first access, and each CLI command imports only the
modules it runs (specfun only on the Airy and Bessel paths)."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import revival

SRC = os.path.dirname(os.path.dirname(revival.__file__))

# the command modules: `import revival.cli` alone loads none of them
COMMAND_MODULES = {"analogs", "billiards", "dynamics", "fractional", "packets", "specfun", "spectra",
                   "wavefields"}


def _loaded(code: str) -> tuple[set[str], object]:
    """The revival submodules a fresh interpreter holds after `code`, and
    the JSON line the code printed (None when it prints nothing)."""
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith('revival.'))))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return set(json.loads(lines[-1])), (json.loads(lines[-2]) if len(lines) > 1 else None)


def _run_cli(argv: list[str], tmp_path) -> tuple[set[str], object]:
    code = ("import json, contextlib, io, revival.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    rc = revival.cli.main({argv + ['--out', str(tmp_path)]!r})\n"
            "print(json.dumps(rc))")
    return _loaded(code)


def test_cli_import_loads_no_command_module():
    modules, _ = _loaded("import revival.cli")
    assert modules == {"cli", "errors", "serialize"}


@pytest.mark.parametrize("argv", [["--help"], ["autocorr", "--n0", "400"], ["jc", "--nbar", "-1"]],
                         ids=["help", "missing_key", "out_of_range"])
def test_usage_and_config_errors_load_no_command_module(tmp_path, argv):
    modules, rc = _run_cli(argv, tmp_path)
    assert rc == (0 if argv == ["--help"] else 2)
    assert not modules & COMMAND_MODULES


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
    assert modules == {"cli", "errors", "serialize"} | expected


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
