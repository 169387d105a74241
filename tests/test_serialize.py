"""The block CSV writer against the per-value loops it replaced.

Each `_old_*` function below is the row loop that used to write the
artifact, kept here as the oracle: the block writer must reproduce its
bytes exactly, including the per-column abs2 arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest

from revival import billiards, fractional, packets, serialize, spectra, wavefields
from revival.cli import _spectrum, build_scenario, run
from revival.dynamics import TimeSeries
from revival.serialize import (
    BLOCK_ROWS,
    format_float,
    write_csv,
    write_grid_csv,
    write_timeseries_csv,
)

# ----------------------------------------------------------------------
# The replaced per-value loops (oracles)
# ----------------------------------------------------------------------


def _old_timeseries(path, times, values):
    values = np.asarray(values)
    with open(path, "w", newline="") as fh:
        fh.write("t,re,im,abs2\n")
        for t, v in zip(times, values):
            v = complex(v)
            fh.write(
                f"{format_float(t)},{format_float(v.real)},{format_float(v.imag)},"
                f"{format_float(abs(v) ** 2)}\n"
            )


def _old_grid(path, axis1, axis2, values):
    with open(path, "w", newline="") as fh:
        fh.write(f"{axis1.name},{axis2.name},value\n")
        a1 = axis1.points()
        a2 = axis2.points()
        for i, x in enumerate(a1):
            for j, y in enumerate(a2):
                fh.write(f"{format_float(x)},{format_float(y)},{format_float(values[i, j].real)}\n")


def _old_levels(path, s2d):
    labels = s2d.level_labels()
    energies = s2d.energy(labels["q1"], labels["q2"])
    with open(path, "w", newline="") as fh:
        fh.write("q1,q2,symmetry,energy\n")
        for (q1, q2, sym), e in zip(labels.tolist(), energies.tolist()):
            fh.write(f"{q1},{q2},{sym},{format_float(e)}\n")


def _old_coefficients(path, c):
    with open(path, "w", newline="") as fh:
        fh.write("index1,index2,re,im\n")
        for n, a in zip(c.indices, c.coefficients):
            fh.write(f"{n},,{format_float(a.real)},{format_float(a.imag)}\n")


def _old_coefficients_2d(path, c):
    labels = c.labels.tolist()
    has_sym = any(sym for _, _, sym in labels)
    with open(path, "w", newline="") as fh:
        fh.write("index1,index2,re,im,symmetry\n" if has_sym else "index1,index2,re,im\n")
        for (q1, q2, sym), a in zip(labels, c.coefficients):
            row = f"{q1},{q2},{format_float(a.real)},{format_float(a.imag)}"
            if has_sym:
                row += f",{sym}"
            fh.write(row + "\n")


def _old_gauss_table(path, table):
    with open(path, "w", newline="") as fh:
        fh.write("r,re,im,abs2\n")
        for r, val in enumerate(table.b):
            fh.write(
                f"{r},{format_float(val.real)},{format_float(val.imag)},"
                f"{format_float(abs(val) ** 2)}\n"
            )


def _old_spectrum(path, s, n_min, n_max):
    with open(path, "w", newline="") as fh:
        fh.write("n,energy\n")
        for n in range(max(n_min, int(s.ground_index)), n_max + 1):
            fh.write(f"{n},{format_float(spectra.eval_energy(s, n))}\n")


def _old_observables(path, obs):
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_x,sd_x,mean_p,sd_p\n")
        for row in zip(obs.times, obs.mean_x, obs.sd_x, obs.mean_p, obs.sd_p):
            fh.write(",".join(format_float(v) for v in row) + "\n")


def _old_pgm(path, values):
    arr = np.asarray(values, dtype=float)
    vmax = float(arr.max())
    scale = 65535.0 / vmax if vmax > 0 else 0.0
    scaled = arr * scale
    np.rint(scaled, out=scaled)
    pixels = np.clip(scaled, 0, 65535, out=scaled).astype(">u2")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# max={format_float(vmax)}\n".encode())
        fh.write(f"{width} {height}\n65535\n".encode())
        fh.write(pixels.tobytes())


def _same_bytes(tmp_path, new, old):
    """Write with both writers and compare the files byte for byte."""
    a, b = tmp_path / "new.csv", tmp_path / "old.csv"
    new(a)
    old(b)
    assert a.read_bytes() == b.read_bytes()
    return a.read_bytes()


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

SUBNORMALS = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.5e-320]
EDGES = [0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
         1.0, -3.0, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 0.1, -2.5e-7, *SUBNORMALS]


def _random_doubles(count, seed=20040101):
    """Doubles from random bit patterns (every exponent, both signs) and
    from a normal distribution, NaN and inf patterns included."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**63, size=count // 2, dtype=np.uint64, endpoint=False)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    return np.concatenate([bits.view(np.float64), rng.standard_normal(count - bits.size)])


def test_percent_format_matches_format_float():
    values = EDGES + _random_doubles(20000).tolist()
    assert ("%.17g\n" * len(values)) % tuple(values) == "".join(format_float(v) + "\n" for v in values)
    assert "%.17g" % 1.0 == "1" and "%.17g" % -0.0 == "-0"
    assert "%.17g" % np.float64(0.1) == format_float(0.1)


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_block_edges(tmp_path, rows):
    x = _random_doubles(2 * rows + 2, seed=rows)
    t, v = x[:rows], x[rows : 2 * rows]
    labels = list(range(rows))

    def old(path):
        with open(path, "w", newline="") as fh:
            fh.write("k,t,v\n")
            for k, a, b in zip(labels, t, v):
                fh.write(f"{k},{format_float(a)},{format_float(b)}\n")

    data = _same_bytes(tmp_path, lambda p: write_csv(p, "k,t,v\n", "%d,%.17g,%.17g\n", (labels, t, v)),
                       old)
    assert data.count(b"\n") == rows + 1


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
def test_small_blocks_and_derived_columns(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(serialize, "BLOCK_ROWS", block_rows)
    values = np.array(EDGES)

    def old(path):
        with open(path, "w", newline="") as fh:
            fh.write("v,neg\n")
            for v in values:
                fh.write(f"{format_float(v)},{format_float(-v)}\n")

    def neg(part):
        return [-v for v in values[part].tolist()]

    def new(path):
        write_csv(path, "v,neg\n", "%.17g,%.17g\n", (values, neg))

    _same_bytes(tmp_path, new, old)


# ----------------------------------------------------------------------
# Every converted writer
# ----------------------------------------------------------------------

def _complex_edges():
    # |v|^2 of these stays finite or is inf/nan without an OverflowError
    parts = [0.0, -0.0, 1.0, -3.0, 0.1, 1e150, -1e-160, math.nan, math.inf, -math.inf, *SUBNORMALS]
    return np.array([complex(a, b) for a in parts for b in parts])


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_timeseries(tmp_path, rows):
    x = _random_doubles(3 * rows, seed=7 + rows)
    x[~np.isfinite(x) | (np.abs(x) > 1e150)] = 0.5  # keep abs(v) ** 2 finite
    times, values = x[:rows], x[rows : 2 * rows] + 1j * x[2 * rows :]
    _same_bytes(tmp_path, lambda p: write_timeseries_csv(p, times, values),
                lambda p: _old_timeseries(p, times, values))


def test_timeseries_edges_and_python_abs2(tmp_path):
    values = _complex_edges()
    times = np.resize(np.array(EDGES), values.size)
    _same_bytes(tmp_path, lambda p: write_timeseries_csv(p, times, values),
                lambda p: _old_timeseries(p, times, values))
    # the abs2 column is Python's hypot and float power, not numpy's
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    write_timeseries_csv(tmp_path / "s.csv", np.arange(4000.0), v)
    rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[3]) for r in rows] == [abs(z) ** 2 for z in v.tolist()]


def test_timeseries_overflowing_abs2_raises_like_before(tmp_path):
    values = np.array([1e200 + 0j])
    for writer in (write_timeseries_csv, _old_timeseries):
        with pytest.raises(OverflowError):
            writer(tmp_path / "x.csv", [0.0], values)


def test_time_series_method(tmp_path):
    ts = TimeSeries(np.linspace(0.0, 3.0, 301), np.exp(1j * np.linspace(0.0, 30.0, 301)) * 0.7)
    _same_bytes(tmp_path, ts.to_csv, lambda p: _old_timeseries(p, ts.times, ts.values))


@pytest.mark.parametrize("dtype", [float, complex])
def test_grid(tmp_path, dtype):
    a1 = wavefields.AxisSpec("x", -1.0, 1e-3, 37)
    a2 = wavefields.AxisSpec("p", -250.0, 250.0, 113)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((37, 113)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal((37, 113))
    values.flat[:len(EDGES)] = EDGES
    grid = wavefields.FieldGrid(a1, a2, values)
    _same_bytes(tmp_path, grid.to_csv, lambda p: _old_grid(p, a1, a2, values))


def test_grid_over_block_edges(tmp_path):
    # 64 x 65 = 4160 cells: one full block and a partial one
    a1 = wavefields.AxisSpec("re_beta", -3.0, 3.0, 64)
    a2 = wavefields.AxisSpec("im_beta", -3.0, 3.0, 65)
    values = np.random.default_rng(5).standard_normal((64, 65))
    _same_bytes(tmp_path, lambda p: write_grid_csv(p, a1, a2, values),
                lambda p: _old_grid(p, a1, a2, values))


@pytest.mark.parametrize("rows", [[37], [1] * 37, [5, 1, 30, 1], [20, 17]],
                         ids=["one_block", "single_rows", "uneven", "two_blocks"])
def test_grid_from_row_blocks(tmp_path, rows):
    # 37 x 113 = 4181 cells: the row blocks never line up with BLOCK_ROWS
    a1 = wavefields.AxisSpec("x", -1.0, 1e-3, 37)
    a2 = wavefields.AxisSpec("p", -250.0, 250.0, 113)
    values = np.random.default_rng(7).standard_normal((37, 113))
    values.flat[:len(EDGES)] = EDGES
    bounds = np.cumsum([0] + rows)
    blocks = ((slice(lo, hi), values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    _same_bytes(tmp_path, lambda p: write_grid_csv(p, a1, a2, blocks), lambda p: _old_grid(p, a1, a2, values))


def test_grid_block_that_raises_leaves_no_file(tmp_path):
    axis = wavefields.AxisSpec("x", 0.0, 1.0, 80)

    def blocks():
        yield slice(0, 60), np.zeros((60, 80))
        raise ValueError("second block")

    with pytest.raises(ValueError, match="second block"):
        write_grid_csv(tmp_path / "bad.csv", axis, axis, blocks())
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "spectrum",
    [lambda: billiards.square_spectrum(1.0, n_cap=9),
     lambda: billiards.equilateral_spectrum(1.0, m_cap=9),
     lambda: billiards.circular_spectrum(1.0, 4, 6),
     lambda: billiards.annulus_levels(1.0, 0.5, 3, 4),
     # more rows than one block: 4,900 and 12,221
     lambda: billiards.square_spectrum(1.0, n_cap=70),
     lambda: billiards.circular_spectrum(1.0, 60, 100)],
    ids=["square", "equilateral", "circle", "annulus", "square_blocks", "circle_blocks"],
)
def test_levels(tmp_path, spectrum):
    s2d = spectrum()
    _same_bytes(tmp_path, s2d.write_levels_csv, lambda p: _old_levels(p, s2d))


def test_coefficient_set(tmp_path):
    c = packets.gaussian_model_coefficients(400, 6, 1e-8)
    _same_bytes(tmp_path, c.to_csv, lambda p: _old_coefficients(p, c))
    pk = packets.PacketParams1D(0.5, 40 * math.pi, 0.05 * math.sqrt(2.0))
    box = packets.infinite_well_coefficients(pk, 1.0, 80)
    _same_bytes(tmp_path, box.to_csv, lambda p: _old_coefficients(p, box))
    edges = packets.CoefficientSet(3, _complex_edges(), 0.0)
    _same_bytes(tmp_path, edges.to_csv, lambda p: _old_coefficients(p, edges))


B = 0.05 * math.sqrt(2.0)


@pytest.mark.parametrize(
    "build",
    [lambda: packets.square_coefficients(0.3, 0.4, 20.0, 10.0, B, 1.0, 8),
     lambda: packets.triangle_coefficients(0.0, 0.55, 20.0, 10.0, B, 1.0, 8),
     lambda: packets.circular_coefficients(0.3, 0.0, 0.0, 20.0, B, 1.0, 4, 6),
     # a symmetry tag on some labels only: the others write an empty field
     lambda: packets.CoefficientSet2D(packets.label_array([1, 3, -5], [2, 4, 6], ["s", "", "a"]),
                                      np.array([1 + 2j, math.nan, -0.0 + 5e-324j]), 0.0),
     lambda: packets.CoefficientSet2D(packets.label_array([1, 3], [2, 4]), np.array([math.inf, -1e308j]), 0.0),
     lambda: packets.CoefficientSet2D(packets.label_array([], []), np.array([], dtype=complex), 0.0)],
    ids=["square", "triangle", "circle", "mixed_tags", "no_tags", "empty"],
)
def test_coefficient_set_2d(tmp_path, build):
    c = build()
    _same_bytes(tmp_path, c.to_csv, lambda p: _old_coefficients_2d(p, c))


@pytest.mark.parametrize("p, q", [(1, 3), (3, 8), (1, 101), (2, 4)])
def test_gauss_table(tmp_path, p, q):
    table = fractional.gauss_coefficients(p, q)
    _same_bytes(tmp_path, table.to_csv, lambda path: _old_gauss_table(path, table))


def test_gauss_table_edges(tmp_path):
    table = fractional.GaussSumTable(1, 4, 4, np.array([0.0, -0.0, 1e-160 + 1e-155j, 0.25 - 3j]))
    _same_bytes(tmp_path, table.to_csv, lambda path: _old_gauss_table(path, table))


@pytest.mark.parametrize(
    "values",
    [{"model": "caseA", "n0": "400", "n_max": "600"},
     {"model": "bouncer_airy", "n0": "10", "n_max": "40"},
     {"model": "bouncer_wkb", "n0": "10", "n_min": "3", "n_max": "40"},
     {"model": "well", "L": "0.3", "n0": "10", "n_max": "0"},
     {"model": "rydberg", "n0": "50", "n_max": "120"}],
    ids=["caseA", "airy", "wkb", "empty", "rydberg"],
)
def test_cli_spectrum(tmp_path, values):
    sc = build_scenario("spectrum", values, str(tmp_path / "cli"))
    run(sc)
    s = _spectrum(sc.params)
    _old_spectrum(tmp_path / "old.csv", s, sc.params["n_min"], sc.params["n_max"])
    assert (tmp_path / "cli" / "spectrum.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_cli_observables(tmp_path, monkeypatch):
    seen = []
    original = wavefields.observables

    def keep(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(wavefields, "observables", keep)
    run(build_scenario("observables", {"tmax": "1", "steps": "300"}, str(tmp_path / "cli")))
    _old_observables(tmp_path / "old.csv", seen[0])
    assert (tmp_path / "cli" / "observables.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "shape, transpose",
    [((1, 1), False), ((3, 5), False), ((300, 1000), True), ((70000, 2), False), ((2, 70000), True),
     ((257, 255), False)],
)
def test_pgm(tmp_path, shape, transpose):
    # blocks of 65536 // width rows: one row per block, partial last blocks,
    # and transposed (column-major) views as the rasters pass them
    values = np.random.default_rng(shape[0]).standard_normal(shape)
    values = values.T if transpose else values
    _same_bytes(tmp_path, lambda p: serialize.write_pgm(p, values), lambda p: _old_pgm(p, values))


@pytest.mark.parametrize("fill", [0.0, -2.0])
def test_pgm_without_positive_maximum(tmp_path, fill):
    values = np.full((40, 30), fill)
    _same_bytes(tmp_path, lambda p: serialize.write_pgm(p, values), lambda p: _old_pgm(p, values))


def test_field_grid_pgm(tmp_path):
    a1 = wavefields.AxisSpec("x", 0.0, 1.0, 300)
    a2 = wavefields.AxisSpec("t", 0.0, 2.0, 257)
    values = np.random.default_rng(9).standard_normal((300, 257)) + 0.5j
    grid = wavefields.FieldGrid(a1, a2, values)
    _same_bytes(tmp_path, grid.to_pgm, lambda p: _old_pgm(p, np.real(values).T))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------

def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_time_series_is_formatted_in_bounded_blocks(tmp_path, monkeypatch):
    # 64,001 rows, as the autocorr scenario of the benchmark writes. Measured
    # peaks (CPython 3.11, numpy 2.4): 1.2 MB in 4096-row blocks and 17.9 MB
    # with every row formatted at once.
    rng = np.random.default_rng(2)
    times = np.linspace(0.0, 1600.0, 64001)
    values = rng.standard_normal(64001) + 1j * rng.standard_normal(64001)
    columns = (times, values.real, values.imag, lambda part: [abs(v) ** 2 for v in values[part].tolist()])
    fmt = "%.17g,%.17g,%.17g,%.17g\n"
    blocked = _traced_peak(lambda: write_timeseries_csv(tmp_path / "a.csv", times, values))
    monkeypatch.setattr(serialize, "BLOCK_ROWS", 64001)
    at_once = _traced_peak(lambda: write_csv(tmp_path / "b.csv", "t,re,im,abs2\n", fmt, columns))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert blocked < 3_000_000
    assert blocked < at_once / 8


def test_block_function_columns_match_fixed_columns(tmp_path):
    # 9,000 rows: two full blocks and a partial one, derived from the row slice alone
    rows = 9000
    t = np.arange(rows) * 0.25
    fixed, blocked = tmp_path / "fixed.csv", tmp_path / "blocked.csv"
    write_csv(fixed, "k,t\n", "%d,%.17g\n", (range(rows), t))
    seen = []

    def columns(part):
        seen.append(part)
        return range(part.start, part.stop), np.arange(part.start, part.stop) * 0.25

    write_csv(blocked, "k,t\n", "%d,%.17g\n", columns, rows)
    assert blocked.read_bytes() == fixed.read_bytes()
    assert [(p.start, p.stop) for p in seen] == [(0, 4096), (4096, 8192), (8192, 9000)]


def test_series_blocks_match_whole_series(tmp_path):
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 2.0, 5000)
    values = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    write_timeseries_csv(tmp_path / "whole.csv", times, values)
    serialize.write_series_csv(tmp_path / "blocks.csv", 5000, lambda part: (times[part], values[part]))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_failing_block_removes_the_file(tmp_path):
    def columns(part):
        if part.start >= 4096:
            raise ValueError("second block")
        return (np.arange(part.start, part.stop),)

    with pytest.raises(ValueError, match="second block"):
        write_csv(tmp_path / "bad.csv", "k\n", "%d\n", columns, 5000)
    assert not (tmp_path / "bad.csv").exists()
