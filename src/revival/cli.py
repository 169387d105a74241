"""Config-driven command-line front end: builds a scenario from a flat
key = value file plus flag overrides, runs it, and writes CSV/PGM
artifacts with a metadata sidecar.

Exit codes: 0 success, 2 configuration error, 3 numeric/convergence
error, 4 I/O error.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, analogs, billiards, dynamics, fractional, packets, spectra, wavefields
from .errors import ConfigError, RevivalError
from .serialize import format_float

COMMANDS = (
    "spectrum",
    "autocorr",
    "fractional",
    "carpet",
    "wigner",
    "observables",
    "billiard2d",
    "jc",
    "bec",
)

# --model value -> Spectrum1D factory over the scenario's parameters
_SPECTRA = {
    "caseA": lambda p: spectra.Spectrum1D.case_a(),
    "caseB": lambda p: spectra.Spectrum1D.case_b(),
    "anharmonic": lambda p: spectra.Spectrum1D.anharmonic(p["alpha"], p["beta"]),
    "well": lambda p: spectra.Spectrum1D.infinite_well(p["L"]),
    "bouncer_wkb": lambda p: spectra.Spectrum1D.bouncer_wkb(p["F"]),
    "bouncer_airy": lambda p: spectra.Spectrum1D.bouncer_airy(p["F"]),
    "rotor": lambda p: spectra.Spectrum1D.rotor(p["inertia"]),
    "pendulum": lambda p: spectra.Spectrum1D.pendulum(p["inertia"], p["V0"]),
    "harmonic": lambda p: spectra.Spectrum1D.harmonic(p["omega"]),
    "rydberg": lambda p: spectra.Spectrum1D.rydberg(),
}


@dataclass(frozen=True)
class Scenario:
    command: str
    params: dict
    out_dir: str


def _float_key(raw: str, key: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"key {key!r}: value must be finite")
    return val


def _int_key(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _bounded(parse, lo: float, strict: bool = False):
    """parse, then require value > lo (strict) or value >= lo."""

    def check(raw: str, key: str):
        val = parse(raw, key)
        if val < lo or (strict and val == lo):
            raise ConfigError(f"key {key!r}: must be {'>' if strict else '>='} {lo:g}, got {raw!r}")
        return val

    return check


_POSITIVE = _bounded(_float_key, 0.0, strict=True)


def _str_key(choices):
    def parse(raw: str, key: str) -> str:
        if choices and raw not in choices:
            raise ConfigError(f"key {key!r}: must be one of {', '.join(choices)}")
        return raw

    return parse


# per-command schema: key -> (parser, default or REQUIRED)
_REQUIRED = object()

_MODEL_KEYS = {
    "model": (_str_key(tuple(_SPECTRA)), _REQUIRED),
    "alpha": (_float_key, 1.0 / 800.0),
    "beta": (_float_key, 0.0),
    "L": (_float_key, 1.0),
    "F": (_float_key, 1.0),
    "inertia": (_float_key, 1.0),
    "V0": (_float_key, 0.0),
    "omega": (_float_key, 1.0),
}

_SCHEMAS: dict[str, dict] = {
    "spectrum": {
        **_MODEL_KEYS,
        "n_min": (_int_key, 0),
        "n_max": (_int_key, 50),
        "n0": (_float_key, _REQUIRED),
    },
    "autocorr": {
        **_MODEL_KEYS,
        "n0": (_float_key, _REQUIRED),
        "dn": (_float_key, _REQUIRED),
        "cutoff": (_float_key, 1e-8),
        "tmax": (_float_key, _REQUIRED),
        "steps": (_int_key, _REQUIRED),
        "anti": (_int_key, 0),
    },
    "fractional": {
        "p": (_int_key, _REQUIRED),
        "q": (_int_key, _REQUIRED),
    },
    "carpet": {
        "L": (_float_key, 1.0),
        "n0": (_float_key, 400.0),
        "x0": (_float_key, 0.5),
        "dx0": (_float_key, 0.05),
        "x_count": (_int_key, 256),
        "t_count": (_int_key, 256),
        "t_hi": (_float_key, 0.0),  # 0 -> half the revival time
        "n_max": (_int_key, 0),     # 0 -> auto
    },
    "wigner": {
        "L": (_POSITIVE, 1.0),
        "n0": (_POSITIVE, 40.0),
        "x0": (_float_key, 0.5),
        "dx0": (_POSITIVE, 0.05),
        "t": (_float_key, 0.0),
        "x_count": (_bounded(_int_key, 2), 256),
        "p_count": (_bounded(_int_key, 2), 256),
        "p_span": (_bounded(_float_key, 0.0), 0.0),  # 0 -> default span
        "format": (_str_key(("csv", "pgm")), "csv"),
    },
    "observables": {
        "L": (_float_key, 1.0),
        "n0": (_float_key, 400.0),
        "x0": (_float_key, 0.5),
        "dx0": (_float_key, 0.05),
        "tmax": (_float_key, _REQUIRED),
        "steps": (_int_key, _REQUIRED),
    },
    "billiard2d": {
        "geometry": (_str_key(("square", "equilateral", "circle", "annulus")), _REQUIRED),
        "size": (_POSITIVE, 1.0),
        "f": (_POSITIVE, 0.5),  # f >= 1 is a DomainError of the ring
        "x0": (_float_key, 0.0),
        "y0": (_float_key, 0.0),
        "p0x": (_float_key, 0.0),
        "p0y": (_float_key, 0.0),
        "dx0": (_POSITIVE, 0.05),
        "m_cap": (_bounded(_int_key, 1), 16),
        "nr_cap": (_bounded(_int_key, 0), 30),
        "tmax": (_bounded(_float_key, 0.0), _REQUIRED),
        "steps": (_bounded(_int_key, 1), _REQUIRED),
    },
    "jc": {
        "nbar": (_float_key, _REQUIRED),
        "coupling": (_float_key, _REQUIRED),
        "detuning": (_float_key, 0.0),
        "tau_max": (_float_key, 30.0),
        "steps": (_int_key, 6000),
    },
    "bec": {
        "alpha_re": (_float_key, _REQUIRED),
        "alpha_im": (_float_key, 0.0),
        "u0": (_float_key, _REQUIRED),
        "t_over_trev": (_float_key, 0.5),
        "half_span": (_float_key, 0.0),  # 0 -> |alpha| + 3
        "grid_count": (_int_key, 201),
        "n_cap": (_int_key, 0),          # 0 -> auto
    },
}


def _read_config_lines(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def build_scenario(command: str, raw: dict[str, str], out_dir: str) -> Scenario:
    """Validate raw key/value strings against the command schema
    (fail-closed: unknown keys are errors)."""
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    schema = _SCHEMAS[command]
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        parser, _ = schema[key]
        params[key] = parser(value, key)
    for key, (_, default) in schema.items():
        if key in params:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
        params[key] = default
    return Scenario(command=command, params=params, out_dir=out_dir)


def parse_config(path: str, command: str, out_dir: str, overrides: dict[str, str] | None = None) -> Scenario:
    """Read a flat key = value file, apply flag overrides, and validate
    against the command schema."""
    raw = _read_config_lines(path) if path else {}
    raw.update(overrides or {})
    return build_scenario(command, raw, out_dir)


def _write_sidecar(path, scenario: Scenario, extras: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"command = {scenario.command}\n")
        fh.write(f"version = {__version__}\n")
        for key in sorted(scenario.params):
            val = scenario.params[key]
            text = format_float(val) if isinstance(val, float) else str(val)
            fh.write(f"{key} = {text}\n")
        for key in sorted(extras):
            # derived quantities are metadata; 12 digits reads cleanly
            fh.write(f"{key} = {format(extras[key], '.12g')}\n")


def _time_scale_extras(s, n0: float) -> dict:
    ts = spectra.time_scales(s, n0)
    return {
        "t_classical": ts.t_classical,
        "t_revival": ts.t_revival,
        "t_super": ts.t_super,
    }


def run(scenario: Scenario) -> list[str]:
    """Execute a validated scenario; returns the artifact paths written."""
    os.makedirs(scenario.out_dir, exist_ok=True)
    p = scenario.params
    out = lambda name: os.path.join(scenario.out_dir, name)
    written = []

    if scenario.command == "spectrum":
        s = _SPECTRA[p["model"]](p)
        n_min = max(p["n_min"], int(s.ground_index))
        path = out("spectrum.csv")
        with open(path, "w", newline="") as fh:
            fh.write("n,energy\n")
            for n in range(n_min, p["n_max"] + 1):
                fh.write(f"{n},{format_float(spectra.eval_energy(s, n))}\n")
        written.append(path)
        _write_sidecar(out("spectrum.meta.txt"), scenario, _time_scale_extras(s, p["n0"]))
        written.append(out("spectrum.meta.txt"))

    elif scenario.command == "autocorr":
        s = _SPECTRA[p["model"]](p)
        index_min = int(s.ground_index)
        c = packets.gaussian_model_coefficients(p["n0"], p["dn"], p["cutoff"], index_min)
        grid = np.linspace(0.0, p["tmax"], p["steps"] + 1)
        if p["anti"]:
            series = dynamics.anticorrelation_infinite_well(c, s, grid)
        else:
            series = dynamics.autocorrelation(c, s, grid)
        path = out("autocorr.csv")
        series.to_csv(path)
        written.append(path)
        _write_sidecar(out("autocorr.meta.txt"), scenario, _time_scale_extras(s, p["n0"]))
        written.append(out("autocorr.meta.txt"))

    elif scenario.command == "fractional":
        table = fractional.gauss_coefficients(p["p"], p["q"])
        path = out("fractional.csv")
        table.to_csv(path)
        written.append(path)
        count, spacing, peak = fractional.clone_structure(table.p, table.q)
        _write_sidecar(
            out("fractional.meta.txt"),
            scenario,
            {"clones": float(count), "spacing_over_t_cl": spacing, "peak_abs2": peak},
        )
        written.append(out("fractional.meta.txt"))

    elif scenario.command == "carpet":
        L = p["L"]
        pk = packets.PacketParams1D(p["x0"], p["n0"] * math.pi / L, p["dx0"] * math.sqrt(2.0))
        n_max = p["n_max"] if p["n_max"] > 0 else int(p["n0"] + 12 * packets.delta_n_estimate(pk, L)) + 8
        # the builder's size guard runs before time_scales, which overflows at a huge n0
        c = packets.infinite_well_coefficients(pk, L, n_max)
        s = spectra.Spectrum1D.infinite_well(L)
        t_rev = spectra.time_scales(s, max(p["n0"], 2.0)).t_revival
        t_hi = p["t_hi"] if p["t_hi"] > 0 else t_rev / 2.0
        total, classical, quantum = wavefields.carpet(c, L, p["x_count"], p["t_count"], t_hi)
        for name, grid in (("total", total), ("classical", classical), ("quantum", quantum)):
            path = out(f"carpet_{name}.pgm")
            grid.to_pgm(path)
            written.append(path)
        _write_sidecar(out("carpet.meta.txt"), scenario, {"t_hi": t_hi, "t_revival": t_rev})
        written.append(out("carpet.meta.txt"))

    elif scenario.command == "wigner":
        L = p["L"]
        pk = packets.PacketParams1D(p["x0"], p["n0"] * math.pi / L, p["dx0"] * math.sqrt(2.0))
        n_max = int(p["n0"] + 12 * packets.delta_n_estimate(pk, L)) + 8
        c = packets.infinite_well_coefficients(pk, L, n_max)
        span = p["p_span"] if p["p_span"] > 0 else wavefields.default_momentum_span(pk.p0, pk.dp0)
        x = np.linspace(L / (p["x_count"] + 1), L * (1 - 1 / (p["x_count"] + 1)), p["x_count"])
        pg = np.linspace(-span, span, p["p_count"])
        grid = wavefields.wigner_infinite_well(c, L, x, pg, p["t"])
        if p["format"] == "csv":
            path = out("wigner.csv")
            grid.to_csv(path)
        else:
            path = out("wigner.pgm")
            grid.to_pgm(path)
        written.append(path)
        _write_sidecar(out("wigner.meta.txt"), scenario, {"p_span": span})
        written.append(out("wigner.meta.txt"))

    elif scenario.command == "observables":
        L = p["L"]
        pk = packets.PacketParams1D(p["x0"], p["n0"] * math.pi / L, p["dx0"] * math.sqrt(2.0))
        n_max = int(p["n0"] + 12 * packets.delta_n_estimate(pk, L)) + 8
        c = packets.infinite_well_coefficients(pk, L, n_max)
        basis = wavefields.InfiniteWellBasis(L)
        grid = np.linspace(0.0, p["tmax"], p["steps"] + 1)
        obs = wavefields.observables(c, basis, grid)
        path = out("observables.csv")
        with open(path, "w", newline="") as fh:
            fh.write("t,mean_x,sd_x,mean_p,sd_p\n")
            for row in zip(obs.times, obs.mean_x, obs.sd_x, obs.mean_p, obs.sd_p):
                fh.write(",".join(format_float(v) for v in row) + "\n")
        written.append(path)
        s = spectra.Spectrum1D.infinite_well(L)
        _write_sidecar(out("observables.meta.txt"), scenario, _time_scale_extras(s, p["n0"]))
        written.append(out("observables.meta.txt"))

    elif scenario.command == "billiard2d":
        written.extend(_run_billiard(scenario, out))

    elif scenario.command == "jc":
        params = analogs.JCParams(p["nbar"], p["coupling"], p["detuning"])
        t_max = p["tau_max"] * math.pi / p["coupling"]
        grid = np.linspace(0.0, t_max, p["steps"] + 1)
        series = analogs.jc_inversion(params, grid)
        path = out("jc.csv")
        series.to_csv(path)
        written.append(path)
        _write_sidecar(out("jc.meta.txt"), scenario, {"t_revival": analogs.jc_revival_time(params)})
        written.append(out("jc.meta.txt"))

    elif scenario.command == "bec":
        alpha = complex(p["alpha_re"], p["alpha_im"])
        n_cap = p["n_cap"] if p["n_cap"] > 0 else int(abs(alpha) ** 2 + 10 * abs(alpha)) + 20
        cs = analogs.CoherentState(alpha=alpha, u0_over_hbar=p["u0"], n_cap=n_cap)
        span = p["half_span"] if p["half_span"] > 0 else abs(alpha) + 3.0
        ax = wavefields.AxisSpec("re_beta", -span, span, p["grid_count"])
        ay = wavefields.AxisSpec("im_beta", -span, span, p["grid_count"])
        grid = analogs.bec_overlap_grid(cs, p["t_over_trev"] * cs.t_revival, ax, ay)
        path = out("bec.csv")
        grid.to_csv(path)
        written.append(path)
        _write_sidecar(
            out("bec.meta.txt"),
            scenario,
            {"t_revival": cs.t_revival, "cat_fidelity": analogs.bec_cat_fidelity(cs)},
        )
        written.append(out("bec.meta.txt"))

    return written


def _run_billiard(scenario: Scenario, out) -> list[str]:
    p = scenario.params
    written = []
    geometry = p["geometry"]
    size = p["size"]
    width_b = p["dx0"] * math.sqrt(2.0)
    if geometry == "circle":
        s2d = billiards.circular_spectrum(size, p["m_cap"], p["nr_cap"])
        c2d = packets.circular_coefficients(
            p["x0"], p["y0"], p["p0x"], p["p0y"], width_b, size, p["m_cap"], p["nr_cap"]
        )
    elif geometry == "equilateral":
        s2d = billiards.equilateral_spectrum(size, m_cap=p["m_cap"])
        c2d = packets.triangle_coefficients(
            p["x0"], p["y0"], p["p0x"], p["p0y"], width_b, size, p["m_cap"]
        )
    elif geometry == "annulus":
        s2d = billiards.annulus_levels(size, p["f"], p["m_cap"], p["nr_cap"])
        c2d = None
    else:  # square: separable product of 1D box coefficients
        s2d = billiards.square_spectrum(size, n_cap=p["m_cap"])
        px = packets.PacketParams1D(p["x0"], p["p0x"], width_b)
        py = packets.PacketParams1D(p["y0"], p["p0y"], width_b)
        n_max = p["m_cap"]
        cx = packets.infinite_well_coefficients(px, size, n_max)
        cy = packets.infinite_well_coefficients(py, size, n_max)
        labels = []
        vals = []
        for i, nx in enumerate(cx.indices):
            for j, ny in enumerate(cy.indices):
                labels.append((int(nx), int(ny)))
                vals.append(cx.coefficients[i] * cy.coefficients[j])
        c2d = packets.CoefficientSet2D(tuple(labels), np.asarray(vals), 0.0)
    levels_path = out("levels.csv")
    s2d.write_levels_csv(levels_path)
    written.append(levels_path)
    if c2d is not None:
        grid = np.linspace(0.0, p["tmax"], p["steps"] + 1)
        series = billiards.autocorrelation_2d(c2d, s2d, grid)
        path = out("autocorr2d.csv")
        series.to_csv(path)
        written.append(path)
    center = (0.0, max(1.0, p["nr_cap"] / 2)) if geometry in ("circle", "annulus") else (4.0, 4.0)
    extras = {}
    if geometry != "annulus":
        t1, t2, cross = billiards.revival_times_2d(s2d, center)
        extras = {"t_revival_q1": t1, "t_revival_q2": t2, "t_revival_cross": cross}
    _write_sidecar(out("billiard2d.meta.txt"), scenario, extras)
    written.append(out("billiard2d.meta.txt"))
    return written


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if not argv or argv[0] in ("-h", "--help"):
            _print_usage()
            return 0
        command = argv[0]
        config_path = None
        out_dir = None
        overrides: dict[str, str] = {}
        i = 1
        while i < len(argv):
            arg = argv[i]
            if arg == "--config":
                config_path = _take_value(argv, i)
                i += 2
            elif arg == "--out":
                out_dir = _take_value(argv, i)
                i += 2
            elif arg.startswith("--"):
                overrides[arg[2:]] = _take_value(argv, i)
                i += 2
            else:
                raise ConfigError(f"unexpected argument {arg!r}")
        if out_dir is None:
            raise ConfigError("--out DIR is required")
        scenario = parse_config(config_path, command, out_dir, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        written = run(scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RevivalError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


def _take_value(argv: list[str], i: int) -> str:
    if i + 1 >= len(argv):
        raise ConfigError(f"flag {argv[i]!r} needs a value")
    return argv[i + 1]


def _print_usage() -> None:
    print("usage: revival <command> [--config FILE] [--key value ...] --out DIR")
    print(f"commands: {', '.join(COMMANDS)}")


if __name__ == "__main__":
    raise SystemExit(main())
