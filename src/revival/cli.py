"""Config-driven command-line front end: builds a scenario from a flat
key = value file plus flag overrides, runs it, and writes CSV/PGM
artifacts with a metadata sidecar.

Exit codes: 0 success, 2 configuration error, 3 numeric/convergence
error, 4 I/O error.

Only errors loads with this module; each command imports the package
modules it runs (and numpy with them), so `--help`, a configuration error
and build_scenario load none of them.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

# idle BLAS workers sleep at once instead of spinning ~0.13 s CPU
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import __version__
from .errors import ConfigError, RevivalError, TruncationError

# --model value -> (Spectrum1D factory, the model keys it reads, in argument order)
_SPECTRA = {
    "caseA": ("case_a", ()),
    "caseB": ("case_b", ()),
    "anharmonic": ("anharmonic", ("alpha", "beta")),
    "well": ("infinite_well", ("L",)),
    "bouncer_wkb": ("bouncer_wkb", ("F",)),
    "bouncer_airy": ("bouncer_airy", ("F",)),
    "rotor": ("rotor", ("inertia",)),
    "pendulum": ("pendulum", ("inertia", "V0")),
    "harmonic": ("harmonic", ("omega",)),
    "rydberg": ("rydberg", ()),
}


def _spectrum(p: dict):
    """The Spectrum1D of p["model"] over the keys that model reads; spectra loads on call."""
    from .spectra import Spectrum1D

    factory, keys = _SPECTRA[p["model"]]
    return getattr(Spectrum1D, factory)(*(p[key] for key in keys))


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


def _bounded(parse, lo: float, strict: bool = False, below: float | None = None):
    """parse, then require value > lo (strict) or value >= lo, and
    value < below when `below` is given."""

    def check(raw: str, key: str):
        val = parse(raw, key)
        if val < lo or (strict and val == lo):
            raise ConfigError(f"key {key!r}: must be {'>' if strict else '>='} {lo:g}, got {raw!r}")
        if below is not None and val >= below:
            limit = below if isinstance(below, int) else f"{below:g}"  # an int bound in full
            raise ConfigError(f"key {key!r}: must be < {limit}, got {raw!r}")
        return val

    return check


_POSITIVE = _bounded(_float_key, 0.0, strict=True)

# time-series rows: the CSV streams, so run time and output grow with steps.
# At 10^6 steps autocorr caseA takes 8 s (80 MB of CSV), billiard2d circle
# 21 s and observables 23 s at L = 1 (57 modes; it costs modes^2 x steps, so
# L = 20, 980 modes, takes ~30 min), at 33-34 MB max-RSS (2-core x86-64)
_STEPS = _bounded(_int_key, 1, below=1_000_001)


def _nonzero(raw: str, key: str) -> float:
    val = _float_key(raw, key)
    if val == 0.0:
        raise ConfigError(f"key {key!r}: must be nonzero, got {raw!r}")
    return val


def _str_key(choices):
    def parse(raw: str, key: str) -> str:
        if choices and raw not in choices:
            raise ConfigError(f"key {key!r}: must be one of {', '.join(choices)}")
        return raw

    return parse


# schema blocks: key -> (parser, default or _REQUIRED)
_REQUIRED = object()

# every model's keys; build_scenario keeps only those the chosen model reads
_MODEL_KEYS = {
    "model": (_str_key(tuple(_SPECTRA)), _REQUIRED),
    "alpha": (_float_key, 1.0 / 800.0),
    "beta": (_float_key, 0.0),
    "L": (_POSITIVE, 1.0),
    "F": (_POSITIVE, 1.0),
    "inertia": (_POSITIVE, 1.0),
    "V0": (_float_key, 0.0),
    "omega": (_POSITIVE, 1.0),
}

# the box packet of carpet, wigner and observables; each command adds its own n0
_BOX_KEYS = {"L": (_POSITIVE, 1.0), "x0": (_float_key, 0.5), "dx0": (_POSITIVE, 0.05)}


def _time_scale_extras(s, n0: float) -> dict:
    from .spectra import time_scales

    ts = time_scales(s, n0)
    return {"t_classical": ts.t_classical, "t_revival": ts.t_revival, "t_super": ts.t_super}


def _write_series(path: str, stop: float, steps: int, series) -> None:
    """The CSV of `series(times)`, a TimeSeries, on np.linspace(0, stop,
    steps + 1): evaluated and written one block of rows at a time, so no
    array as long as the grid is held."""
    from .dynamics import linspace_rows
    from .serialize import write_series_csv

    def block(part):
        ts = series(linspace_rows(stop, steps + 1, part))
        return ts.times, ts.values

    write_series_csv(path, steps + 1, block)


def _box_coefficients(p: dict, n_max: int = 0):
    """(packet, coefficients) of the box packet in `p`, on modes 1..n_max,
    or on the modes up to |n0| + 12 dn + 8 when n_max is 0 (a packet at
    rest or moving left included)."""
    from . import packets

    L = p["L"]
    pk = packets.PacketParams1D(p["x0"], p["n0"] * math.pi / L, p["dx0"] * math.sqrt(2.0))
    count = abs(p["n0"]) + 12 * packets.delta_n_estimate(pk, L)
    if not math.isfinite(count):
        raise TruncationError(f"keys 'L' and 'dx0': L = {L:g} over dx0 = {p['dx0']:g} is an infinite mode count")
    n_max = n_max or int(count) + 8
    return pk, packets.infinite_well_coefficients(pk, L, n_max)


# runners: (params, out) -> (artifact paths, sidecar extras), out(name) an artifact's
# path; each computes every extra that can fail before it writes, so that leaves no file

def _cmd_spectrum(p: dict, out):
    import numpy as np

    from . import spectra
    from .serialize import write_csv

    s = _spectrum(p)
    n_lo = max(p["n_min"], int(s.ground_index))
    extras = _time_scale_extras(s, p["n0"])

    def levels(part):
        ns = np.arange(n_lo + part.start, n_lo + part.stop)
        return ns, spectra.eval_energy(s, ns)

    path = out("spectrum.csv")
    write_csv(path, "n,energy\n", "%d,%.17g\n", levels, max(p["n_max"] + 1 - n_lo, 0))
    return [path], extras


def _cmd_autocorr(p: dict, out):
    from . import dynamics, packets

    s = _spectrum(p)
    c = packets.gaussian_model_coefficients(p["n0"], p["dn"], p["cutoff"], int(s.ground_index))
    extras = _time_scale_extras(s, p["n0"])
    overlap = dynamics.anticorrelation_infinite_well if p["anti"] else dynamics.autocorrelation
    path = out("autocorr.csv")
    _write_series(path, p["tmax"], p["steps"], lambda t: overlap(c, s, t))
    return [path], extras


def _cmd_fractional(p: dict, out):
    from . import fractional

    table = fractional.gauss_coefficients(p["p"], p["q"])
    count, spacing, peak = fractional.clone_structure(table.p, table.q)
    path = out("fractional.csv")
    table.to_csv(path)
    return [path], {"clones": float(count), "spacing_over_t_cl": spacing, "peak_abs2": peak}


def _cmd_carpet(p: dict, out):
    from . import spectra, wavefields

    # the builder's size guard runs before time_scales, which overflows at a huge n0
    _, c = _box_coefficients(p, p["n_max"])
    t_rev = spectra.time_scales(spectra.Spectrum1D.infinite_well(p["L"]), max(p["n0"], 2.0)).t_revival
    t_hi = p["t_hi"] or t_rev / 2.0
    paths = [out(f"carpet_{name}.pgm") for name in ("total", "classical", "quantum")]
    wavefields.write_carpet_pgms(c, p["L"], p["x_count"], p["t_count"], t_hi, paths)
    return paths, {"t_hi": t_hi, "t_revival": t_rev}


def _cmd_wigner(p: dict, out):
    import numpy as np

    from . import wavefields

    pk, c = _box_coefficients(p)
    L, count = p["L"], p["x_count"]
    span = p["p_span"] or wavefields.default_momentum_span(pk.p0, pk.dp0)
    x = np.linspace(L / (count + 1), L * (1 - 1 / (count + 1)), count)
    args = (c, L, x, np.linspace(-span, span, p["p_count"]), p["t"])
    path = out(f"wigner.{p['format']}")
    if p["format"] == "csv":
        wavefields.write_wigner_csv(*args, path)
    else:  # PGM rows scan p, so the grid is held whole
        wavefields.wigner_infinite_well(*args).to_pgm(path)
    return [path], {"p_span": span}


def _cmd_observables(p: dict, out):
    from . import dynamics, spectra, wavefields
    from .serialize import write_csv

    _, c = _box_coefficients(p)
    extras = _time_scale_extras(spectra.Spectrum1D.infinite_well(p["L"]), max(abs(p["n0"]), 2.0))
    basis = wavefields.InfiniteWellBasis(p["L"])

    def moments(part):
        obs = wavefields.observables(c, basis, dynamics.linspace_rows(p["tmax"], p["steps"] + 1, part))
        return obs.times, obs.mean_x, obs.sd_x, obs.mean_p, obs.sd_p

    path = out("observables.csv")
    write_csv(path, "t,mean_x,sd_x,mean_p,sd_p\n", ",".join(["%.17g"] * 5) + "\n", moments, p["steps"] + 1)
    return [path], extras


def _cmd_billiard2d(p: dict, out):
    from . import billiards, packets

    geometry, size = p["geometry"], p["size"]
    packet = (p["x0"], p["y0"], p["p0x"], p["p0y"], p["dx0"] * math.sqrt(2.0), size)
    if geometry == "circle":
        s2d = billiards.circular_spectrum(size, p["m_cap"], p["nr_cap"])
        c2d = packets.circular_coefficients(*packet, p["m_cap"], p["nr_cap"])
    elif geometry == "equilateral":
        s2d = billiards.equilateral_spectrum(size, m_cap=p["m_cap"])
        c2d = packets.triangle_coefficients(*packet, p["m_cap"])
    elif geometry == "annulus":
        s2d = billiards.annulus_levels(size, p["f"], p["m_cap"], p["nr_cap"])
        c2d = None
    else:  # square: separable product of 1D box coefficients
        s2d = billiards.square_spectrum(size, n_cap=p["m_cap"])
        c2d = packets.square_coefficients(*packet, p["m_cap"])
    extras = {}
    if geometry != "annulus":
        center = (0.0, max(1.0, p["nr_cap"] / 2)) if geometry == "circle" else (4.0, 4.0)
        t1, t2, cross = billiards.revival_times_2d(s2d, center)
        extras = {"t_revival_q1": t1, "t_revival_q2": t2, "t_revival_cross": cross}
    paths = [out("levels.csv")]
    if c2d is not None:  # first: a series that fails then leaves no levels table either
        paths.append(out("autocorr2d.csv"))
        _write_series(paths[1], p["tmax"], p["steps"], lambda t: billiards.autocorrelation_2d(c2d, s2d, t))
    s2d.write_levels_csv(paths[0])
    return paths, extras


def _cmd_jc(p: dict, out):
    from . import analogs

    params = analogs.JCParams(p["nbar"], p["coupling"])
    extras = {"t_revival": analogs.jc_revival_time(params)}
    path = out("jc.csv")
    t_max = p["tau_max"] * math.pi / p["coupling"]
    _write_series(path, t_max, p["steps"], lambda t: analogs.jc_inversion(params, t))
    return [path], extras


def _cmd_bec(p: dict, out):
    from . import analogs, wavefields

    alpha = complex(p["alpha_re"], p["alpha_im"])
    n_cap = p["n_cap"] or analogs.default_n_cap(alpha)
    cs = analogs.CoherentState(alpha=alpha, u0_over_hbar=p["u0"], n_cap=n_cap)
    extras = {"t_revival": cs.t_revival, "cat_fidelity": analogs.bec_cat_fidelity(cs)}
    span = p["half_span"] or abs(alpha) + 3.0
    axes = (wavefields.AxisSpec(name, -span, span, p["grid_count"]) for name in ("re_beta", "im_beta"))
    path = out("bec.csv")
    analogs.write_bec_csv(cs, p["t_over_trev"] * cs.t_revival, *axes, path)
    return [path], extras


# command -> (schema, runner)
_COMMAND_TABLE: dict[str, tuple[dict, object]] = {
    "spectrum": ({
        **_MODEL_KEYS,
        "n_min": (_bounded(_int_key, 0), 0),
        # the rows stream: 10^6 levels take 1.4 s and write 27 MB (caseA, 2-core x86-64)
        "n_max": (_bounded(_int_key, 0, below=1_000_001), 50),
        "n0": (_float_key, _REQUIRED),
    }, _cmd_spectrum),
    "autocorr": ({
        **_MODEL_KEYS,
        "n0": (_POSITIVE, _REQUIRED),
        "dn": (_POSITIVE, _REQUIRED),
        "cutoff": (_bounded(_float_key, 0.0, strict=True, below=1.0), 1e-8),
        "tmax": (_POSITIVE, _REQUIRED),
        "steps": (_STEPS, _REQUIRED),
        "anti": (_bounded(_int_key, 0, below=2), 0),  # 1: the box's parity-mirror overlap
    }, _cmd_autocorr),
    "fractional": ({
        "p": (_bounded(_int_key, 1), _REQUIRED),
        # one FFT of length q or q/2: a prime q near 10^6 takes 3.3 s at 192 MB
        # max-RSS and writes 77 MB; 10^7 + 1 took 36 s and 1.6 GB (2-core x86-64)
        "q": (_bounded(_int_key, 1, below=1_000_001), _REQUIRED),
    }, _cmd_fractional),
    "carpet": ({
        **_BOX_KEYS,
        "n0": (_POSITIVE, 400.0),
        # the rasters stream, so time and output grow with x_count * t_count:
        # 8192 x 8192 takes 4 s at 55 MB max-RSS and writes 3 x 128 MiB of
        # PGM; --dx0 0.0001 (14,683 modes) at 8192 x 64 takes 9 s at 91 MB
        "x_count": (_bounded(_int_key, 64, below=8193), 256),
        "t_count": (_bounded(_int_key, 64, below=8193), 256),
        "t_hi": (_bounded(_float_key, 0.0), 0.0),  # 0 -> half the revival time
        "n_max": (_bounded(_int_key, 0), 0),       # 0 -> auto
    }, _cmd_carpet),
    "wigner": ({
        **_BOX_KEYS,
        "n0": (_POSITIVE, 40.0),
        "t": (_float_key, 0.0),
        # the CSV streams x rows: 8192 x 64 takes 1.4 s at 34 MB max-RSS and
        # 2048^2 7 s, writing 263 MB; pgm holds the float grid, 8 B a cell:
        # 8192^2 takes 38 s at 578 MB (2-core x86-64)
        "x_count": (_bounded(_int_key, 2, below=8193), 256),
        "p_count": (_bounded(_int_key, 2, below=8193), 256),
        "p_span": (_bounded(_float_key, 0.0, below=1e300), 0.0),  # 0 -> default span; 2 p_span stays finite
        "format": (_str_key(("csv", "pgm")), "csv"),
    }, _cmd_wigner),
    "observables": ({
        **_BOX_KEYS,
        "n0": (_float_key, 400.0),
        "tmax": (_float_key, _REQUIRED),
        "steps": (_STEPS, _REQUIRED),
    }, _cmd_observables),
    "billiard2d": ({
        "geometry": (_str_key(("square", "equilateral", "circle", "annulus")), _REQUIRED),
        "size": (_POSITIVE, 1.0),
        "f": (_POSITIVE, 0.5),  # f >= 1 is a DomainError of the ring
        "x0": (_float_key, 0.0),
        "y0": (_float_key, 0.0),
        "p0x": (_float_key, 0.0),
        "p0y": (_float_key, 0.0),
        "dx0": (_POSITIVE, 0.05),
        # the polygon label tables grow as m_cap^2: at 1024 the bench packets
        # take 1.2 s and 72 MB max-RSS (square) and 1.2 s and 107 MB
        # (equilateral) (2-core x86-64); circle and annulus stop at order 60
        "m_cap": (_bounded(_int_key, 1, below=1025), 16),
        # the circle's Bessel zeros are validated to 201 per order; the annulus
        # at 200 takes 1.2 s with m_cap 60 (2-core x86-64)
        "nr_cap": (_bounded(_int_key, 0, below=201), 30),
        "tmax": (_POSITIVE, _REQUIRED),
        "steps": (_STEPS, _REQUIRED),
    }, _cmd_billiard2d),
    "jc": ({
        # the level window grows as 24 sqrt(nbar): the default 6000 steps take
        # ~6 s at nbar 1e7 and ~17 s just below the bound (2-core x86-64)
        "nbar": (_bounded(_float_key, 0.0, below=1e8), _REQUIRED),
        "coupling": (_POSITIVE, _REQUIRED),
        "tau_max": (_POSITIVE, 30.0),
        "steps": (_STEPS, 6000),
    }, _cmd_jc),
    "bec": ({
        # |alpha| of parts from 1.3e308 on overflows abs(); past 1e154 is a TruncationError anyway
        "alpha_re": (_bounded(_float_key, -1e300, below=1e300), _REQUIRED),
        "alpha_im": (_bounded(_float_key, -1e300, below=1e300), 0.0),
        "u0": (_nonzero, _REQUIRED),
        "t_over_trev": (_float_key, 0.5),
        # 0 -> |alpha| + 3; the upper bound keeps |beta|^2 (inf past 1e154) finite
        "half_span": (_bounded(_float_key, 0.0, below=1e100), 0.0),
        # the CSV streams rows: at alpha 4, 1024^2 points take 1.4 s at 32 MB
        # max-RSS and write 65 MB (2-core x86-64)
        "grid_count": (_bounded(_int_key, 2, below=1025), 201),
        "n_cap": (_bounded(_int_key, 0), 0),            # 0 -> auto
    }, _cmd_bec),
}


def _read_config_lines(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes that are not UTF-8
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


def _schema(command: str) -> dict:
    if command not in _COMMAND_TABLE:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(_COMMAND_TABLE)}")
    return _COMMAND_TABLE[command][0]


def build_scenario(command: str, raw: dict[str, str], out_dir: str) -> Scenario:
    """Validate raw key/value strings against the command schema
    (fail-closed: unknown keys, and model keys the chosen model does not
    read, are errors), and out_dir as a path."""
    schema = _schema(command)
    if "\0" in out_dir:
        raise ConfigError(f"--out {out_dir!r}: a path cannot hold a NUL byte")
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
    if "model" in schema:
        model = params["model"]
        for key in [k for k in _MODEL_KEYS if k not in ("model", *_SPECTRA[model][1])]:
            if key in raw:
                raise ConfigError(f"key {key!r} is not read by model {model!r}")
            del params[key]  # the sidecar lists only the keys the run used
        if params.get("anti") and model != "well":
            raise ConfigError(f"key 'anti': 1 needs model = well, got model {model!r}")
    return Scenario(command=command, params=params, out_dir=out_dir)


def parse_config(path: str, command: str, out_dir: str, overrides: dict[str, str] | None = None) -> Scenario:
    """Read a flat key = value file, apply flag overrides, and validate
    against the command schema."""
    raw = _read_config_lines(path) if path else {}
    raw.update(overrides or {})
    return build_scenario(command, raw, out_dir)


def _write_sidecar(scenario: Scenario, extras: dict) -> str:
    """Write <command>.meta.txt (inputs, version, derived quantities); returns its path."""
    from .serialize import format_float

    path = os.path.join(scenario.out_dir, f"{scenario.command}.meta.txt")
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
    return path


def run(scenario: Scenario) -> list[str]:
    """Execute a validated scenario; returns the artifact paths written,
    its .meta.txt sidecar last."""
    os.makedirs(scenario.out_dir, exist_ok=True)
    _, runner = _COMMAND_TABLE[scenario.command]
    paths, extras = runner(scenario.params, lambda name: os.path.join(scenario.out_dir, name))
    return [*paths, _write_sidecar(scenario, extras)]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if not argv or argv[0] in ("-h", "--help"):
            _print_usage()
            return 0
        command = argv[0]
        _schema(command)  # an unknown command is named before any flag error
        flags: dict[str, str] = {}
        for i in range(1, len(argv), 2):
            arg = argv[i]
            if arg in ("-h", "--help"):
                _print_usage()
                return 0
            if not arg.startswith("--"):
                raise ConfigError(f"unexpected argument {arg!r}")
            if i + 1 >= len(argv):
                raise ConfigError(f"flag {arg!r} needs a value")
            if arg in flags:  # as a repeated key in a config file
                raise ConfigError(f"flag {arg!r} given twice")
            flags[arg] = argv[i + 1]
        config_path = flags.pop("--config", None)
        out_dir = flags.pop("--out", None)
        if out_dir is None:
            raise ConfigError("--out DIR is required")
        overrides = {arg[2:]: value for arg, value in flags.items()}
        scenario = parse_config(config_path, command, out_dir, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        written = run(scenario)
    except RevivalError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


def _print_usage() -> None:
    print("usage: revival <command> [--config FILE] [--key value ...] --out DIR")
    print(f"commands: {', '.join(_COMMAND_TABLE)}")


if __name__ == "__main__":
    raise SystemExit(main())
