"""One benchmark op in its own process.

    python3 bench/child.py lib OUT_DIR NAME [--key value ...]
        run a library op (a public path the CLI does not reach) untraced
    python3 bench/child.py trace OUT_DIR TRACE_JSON ARGV...
        import revival, wrap the layer boundaries (tracer.py), run
        `revival.cli.main(ARGV + ["--out", OUT_DIR])` or, when ARGV[0] is
        a library op name, that op; then write the per-layer summary

The exit code is the op's: the CLI's own code, or 0 for a library op.
`revival` must be importable (the harness puts the checkout's `src/`
on PYTHONPATH).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time


def _options(argv: list[str]) -> dict[str, str]:
    if len(argv) % 2:
        raise SystemExit(f"expected --key value pairs, got {argv!r}")
    return {argv[i].removeprefix("--"): argv[i + 1] for i in range(0, len(argv), 2)}


def bouncer_observables(out_dir: str, opts: dict[str, str]) -> None:
    """Gaussian packet released at rest above the Airy bouncer's floor:
    quadrature coefficients, then <z>, dz, <p>, dp over one revival time."""
    from revival import packets, spectra, wavefields
    from revival.serialize import format_float

    import numpy as np

    z0 = float(opts.get("z0", 20.0))
    width_b = math.sqrt(2.0)
    c = packets.bouncer_coefficients(z0=z0, width_b=width_b, n_max=int(opts.get("n_max", 60)))
    n0 = int(c.indices[int(np.argmax(c.weights()))])
    t_rev = spectra.time_scales(spectra.Spectrum1D.bouncer_airy(), n0).t_revival
    times = np.linspace(0.0, t_rev, int(opts.get("times", 500)))
    obs = wavefields.observables(c, wavefields.BouncerBasis(), times)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bouncer_observables.csv"), "w", newline="") as fh:
        fh.write("t,mean_x,sd_x,mean_p,sd_p\n")
        for row in zip(obs.times, obs.mean_x, obs.sd_x, obs.mean_p, obs.sd_p):
            fh.write(",".join(format_float(v) for v in row) + "\n")
    with open(os.path.join(out_dir, "bouncer_observables.meta.txt"), "w", newline="") as fh:
        fh.write(f"z0 = {format_float(z0)}\n")
        fh.write(f"width_b = {format_float(width_b)}\n")
        fh.write(f"n0 = {n0}\n")
        fh.write(f"t_revival = {format_float(t_rev)}\n")
        fh.write(f"norm_deficit = {format_float(c.norm_deficit)}\n")


LIB_OPS = {"bouncer_observables": bouncer_observables}


def _run(out_dir: str, argv: list[str]) -> int:
    if argv[0] in LIB_OPS:
        LIB_OPS[argv[0]](out_dir, _options(argv[1:]))
        return 0
    import revival.cli

    return revival.cli.main(argv + ["--out", out_dir])


def _trace(out_dir: str, trace_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import revival.cli  # noqa: F401  (imports every layer module)

    t1 = time.perf_counter()
    import tracer

    tr = tracer.Tracer()
    tr.record("cli.import", "cli", t0, t1, -1)
    wrapped = tracer.install(tr)
    try:
        code = _run(out_dir, argv)
    finally:
        summary = tr.summary()
        summary["wrapped_functions"] = wrapped
        with open(trace_path, "w") as fh:
            json.dump(summary, fh)
    return code


def main(argv: list[str]) -> int:
    mode, out_dir, rest = argv[0], argv[1], argv[2:]
    if mode == "lib":
        return _run(out_dir, rest)
    if mode == "trace":
        return _trace(out_dir, rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
