"""Self-test of the benchmark harness on shrunken copies of the ops.

    python3 -m pytest -q bench/test_harness.py

Runs every workload once untraced and once traced, with each op's
inputs made small (a few seconds in all), in a scratch root whose `src`
links to this checkout's. Checks that every metric BENCHMARK.json names
is reported with its unit, that the outputs pass their checks, that
every layer is traced somewhere, and that the annulus probe, which is
not shrunk, is reported as failed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import PROBES, WORKLOADS  # noqa: E402

REPO = BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

SMALL = {
    "autocorr_caseA": {"steps": "1600"},  # T_rev = 1600 stays on the grid
    "autocorr_bouncer": {"steps": "40"},
    "observables_box": {"steps": "40"},
    "bouncer_observables": {"n_max": "40", "times": "20"},
    "jc": {"steps": "200"},
    "fractional": {"q": "11"},
    "wigner": {"n0": "10", "x_count": "64", "p_count": "64"},
    "carpet": {"n0": "40", "x_count": "64", "t_count": "64"},
    "bec": {"grid_count": "41"},
    "circle": {"m_cap": "4", "nr_cap": "6", "steps": "100"},
    "equilateral": {"steps": "100"},
    "square": {"steps": "100"},
    "annulus": {"m_cap": "2", "nr_cap": "2"},
}


def shrink(op):
    argv = list(op.argv)
    for key, value in SMALL[op.name].items():
        flag = f"--{key}"
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return dataclasses.replace(op, argv=tuple(argv))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(REPO / "src")
    out = {}
    for name, ops in WORKLOADS.items():
        small = tuple(shrink(op) for op in ops)
        for trace in (False, True):
            out[name, trace] = run.measure(name, seed=1, seconds=0, trace=trace, root=root,
                                           ops=small, probes=PROBES[name], setup_repeats=2)
    return out


def _names_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_reported_with_unit(results, trace, section):
    want = _names_units(section)
    for name in WORKLOADS:
        result, _ = results[name, trace]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, name
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_outputs_correct(results):
    for (name, trace), (result, details) in results.items():
        assert result["correct"], (name, trace, details["failures"])
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_every_layer_traced(results):
    for layer in run.LAYERS:
        calls = [results[name, True][0]["metrics"][f"{layer}.calls"]["value"] for name in WORKLOADS]
        assert max(calls) > 0, layer


def test_counts_repeat(results, tmp_path):
    (tmp_path / "src").symlink_to(REPO / "src")
    small = tuple(shrink(op) for op in WORKLOADS["series"])
    again, _ = run.measure("series", seed=2, seconds=0, trace=True, root=tmp_path, ops=small,
                           probes=())
    first = results["series", True][0]["metrics"]
    for key, spec in first.items():
        if spec["unit"] in ("count", "B"):
            assert again["metrics"][key]["value"] == spec["value"], key


def test_annulus_probe_reported_failed(results):
    # Known failure: the ring solver misses its residual gate at m = 15
    # (k ~ 19.9955). Flip this once the solver is fixed.
    result, details = results["billiards", False]
    assert details["probes"] == [
        "annulus_probe: exit 3: numeric error: ring level residual too large at m=15"
    ]
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert result["correct"]
    for name in ("series", "fields"):
        assert results[name, False][0]["metrics"]["pass_ratio"]["value"] == 1.0
